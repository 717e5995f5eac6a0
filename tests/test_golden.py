"""Golden digests: ``verify-suite --format json`` bytes for small configs.

Each config covers a regime the benchmark does not reach at this size:
the generic regime over Q and over a prime field, the identity regime,
the residual regime (a point fixed by phi), four variables, and a
non-diagonal matrix automorphism (the one entry that inverts, composes
and applies a map that is not diagonal, on its int rows).  A digest
changes exactly when a report byte changes, so a refactor that keeps
these digests keeps the reports.

``CLI_GOLDEN`` pins the default-format stdout of the table and probe
commands, which reach what the suite does not: the twisted-module route
of ``ext-table`` on the ``orbit:``, ``gens:`` and ``max`` ideal specs (the
``orbit:`` spec also under the non-diagonal matrix, where a twisted point
ideal is the ideal of a point moved by a full matrix, and the ``gens:``
spec under that matrix, where a twisted ideal is a new ideal on the
generators' images), a ``point:`` hom table, a noetherian probe, the
Hilbert function of S/IS past the suite's window and under the matrix,
the ``segre`` witness table in three, four and five variables, over Q
and mod 7, in degrees past the suite's, and three runs whose maps have
fractional entries, so that a positive power needs a denominator: the
suite with a multiplier 1/2, and the opposite check and a twisted-module
``ext-table`` under the matrix of ``frac.json``.  Five more probes pin
the probe's counts where its fS and fT rows are twisted by a full
matrix (``matrix.json``, and ``frac.json``, whose twist carries a
denominator), mod 10007 past the suite's window, for a probe element of
degree 2, and in four variables.  Two more ``segre`` tables, in four
variables to degree 8 and in five to degree 6, pin the witness where
most fibers share a symmetry class with others.

Three pins print polynomials with fractional coefficients, which no
other entry does: a probe element with halves, a ``gens:`` ideal whose
generators have fractional coefficients (echoed in the ``J:`` line),
and the suite under ``frac.json``, whose report prints the kernel form
``-45/14*x0 + 3/28*x1 + x2`` of the point ideal.
"""

import contextlib
import hashlib
import io
import json

import pytest

from idealizer.cli import main

# Config files written to the test's working directory before each run.
CONFIGS = {
    "matrix.json": {
        "automorphism": {"matrix": [["1", "1", "0"], ["0", "2", "0"], ["0", "0", "3"]]},
        "max_degree": 5,
    },
    "frac.json": {
        "automorphism": {"matrix": [["1/2", "1", "0"], ["0", "2/3", "1"], ["1", "0", "3"]]},
        "point": ["1", "2", "3"],
    },
}

GOLDEN = [
    (
        ("--max-degree", "6"),
        0,
        "4449d5cf83e06456bd95b9f6b8aa6cbc90d5bbad21ae94f3bf42658220052daf",
    ),
    (
        ("--max-degree", "6", "--field", "prime:10007"),
        0,
        "ff51878bf45ff943bf15845c95a6da997d37f79d4df4e69377b60a3294bb5e50",
    ),
    (
        ("--p=1,1", "--max-degree", "5"),
        0,
        "4d36a5c911b2d59d00aea4c4c5ac430c98e4c50e6b5c600d22dca268ddd295db",
    ),
    (
        ("--point", "1,0,0", "--max-degree", "5"),
        0,
        "2a1f867ddeed7723a4a1713caaa9c1b36c709ebf2dd163536cbe1446b82cc58a",
    ),
    (
        ("--d", "3", "--p", "2,3,5", "--point", "1,1,1,1", "--max-degree", "3"),
        0,
        "bc9dc41da0d4a77b434a6ea2f5503c835656954c793a78706d23d5243e470174",
    ),
    (
        ("--config", "matrix.json"),
        0,
        "049b2cc75460e78217b7223922082635642dc246f11dd46b607e3b11964f5d5d",
    ),
    (
        ("--config", "frac.json", "--max-degree", "6"),
        0,
        "f095fc26b1871ba052ca5f6679807d4c372dfd51661adbbf9cbdddd4226c7a52",
    ),
]

CLI_GOLDEN = [
    (
        ("ext-table", "--J", "orbit:2", "--max-degree", "5"),
        0,
        "32bd08bfbf414b2071815bf02e46b64053fa783d461dbd8a021da1b3b4e878b6",
    ),
    (
        ("ext-table", "--J", "gens:x0^2;x1*x2", "--field", "prime:7", "--max-degree", "4"),
        0,
        "c2dad44ec121cef4e6c96e07e1b3b231527fcc6bd503077acfef48614f77ea72",
    ),
    (
        ("ext-table", "--d", "3", "--p", "2,3,5", "--point", "1,1,1,1", "--J", "max", "--max-degree", "3"),
        0,
        "f8d03de319128840318daf037cd5b26ac3cea006088e17a36e4e12ab88f30574",
    ),
    (
        ("hom-table", "--J", "point:1,2,3", "--max-degree", "6"),
        0,
        "72f82ebf3d5d6e67b9a9a6121360aca7b104eb90449bb7241c232c1f367dbe0e",
    ),
    (
        ("probe", "--f", "x0-x1", "--max-degree", "6"),
        0,
        "04d6af130c6fe0ce243b3b905a79356602192ed981e42b8e7dc2a53a24667441",
    ),
    (
        ("ext-table", "--config", "matrix.json", "--J", "orbit:-2", "--max-degree", "4"),
        0,
        "031b5c5db38d2aa985fa1a9697a2e4182856df31eff7be6a96fd459415ac2942",
    ),
    (
        ("ext-table", "--config", "matrix.json", "--J", "orbit:-2", "--max-degree", "4", "--field", "prime:7"),
        0,
        "541cc6bdfd1ee7d7ea751d9591303bf3e120676ec098ad3217fef3a63d512084",
    ),
    (
        ("ext-table", "--config", "matrix.json", "--J", "gens:x0^2;x1*x2", "--max-degree", "4"),
        0,
        "61f152298620b54205dbdf9d74bc41728139340febf26576b31c948e913f74e3",
    ),
    (
        ("ext-table", "--config", "matrix.json", "--J", "gens:x0^2;x1*x2", "--max-degree", "4", "--field", "prime:7"),
        0,
        "3bd9c163e74b818dc67cec095639fc2f880c0c998fdbcb18f78e2842715d79ec",
    ),
    (
        ("hilbert", "--series", "S_mod_IS", "--max-degree", "12"),
        0,
        "8f2957fc906002e9aeb9f92213c7e5fe146baffe47d64d1f8453bbc02e8db3e4",
    ),
    (
        ("hilbert", "--series", "S_mod_IS", "--config", "matrix.json", "--max-degree", "8"),
        0,
        "ab8fecb761f1bfdaab80fb9b9a8122d8456b77ce984468e3cafc3abb80daf27c",
    ),
    (
        ("segre", "--max-degree", "8"),
        0,
        "0c16eb73b699ef112ee8be1ac6e9340bf110cffca1c536531782f6b286ff66d0",
    ),
    (
        ("segre", "--d", "4", "--p", "2,3,5,7", "--point", "1,1,1,1,1", "--max-degree", "4"),
        0,
        "125505f72b8df5d166bca8b7b163d8c6fd236898903d2ee4a1447e7727a2664f",
    ),
    (
        ("segre", "--d", "3", "--p", "2,3,5", "--point", "1,1,1,1", "--field", "prime:7", "--max-degree", "5"),
        0,
        "a5f8c9dab443aeb98c2528b5182e28e1a113e1014187af274788dbff2c10cc6f",
    ),
    (
        ("segre", "--d", "3", "--p", "2,3,5", "--point", "1,1,1,1", "--max-degree", "8"),
        0,
        "46c70cc2dd49312bc6bcd3ef4a5ae729d734b5b830d2af9f3cfae604b7b22902",
    ),
    (
        ("segre", "--d", "4", "--p", "2,3,5,7", "--point", "1,1,1,1,1", "--max-degree", "6"),
        0,
        "747722a67fc3e4227d4df3348671d10dcf17afa07f848895cd2f706cedae26de",
    ),
    (
        ("verify-suite", "--p", "1/2,3", "--max-degree", "6"),
        0,
        "80e858c1d0789456531e9542cc53bad98ee1aa7c392b6ca29071c5e97594302f",
    ),
    (
        ("opposite-check", "--config", "frac.json", "--total-degree", "5"),
        0,
        "95b7cb74e6ebeb1212d6720261197153fb4fbe101c30b281bc3ab5758a98bc5d",
    ),
    (
        ("ext-table", "--config", "frac.json", "--J", "orbit:-2", "--max-degree", "4"),
        0,
        "45f0d1d2e41566b1304f729e63ee1fdd02bbb54fcc8dac5ead25e40c7b01daf2",
    ),
    (
        ("probe", "--config", "matrix.json", "--f", "x0 - x1", "--max-degree", "6"),
        0,
        "8e490c1975c9c68e1017b9999612b37a239f04b6d1732e5a2f8bc03b879e0c69",
    ),
    (
        ("probe", "--config", "frac.json", "--f", "2*x0 - x1", "--max-degree", "6"),
        0,
        "d81a19b0f3efaa873df76d6c822b842bf6623273f0775161bcdf032ffc9b163c",
    ),
    (
        ("probe", "--f", "x0-x1", "--field", "prime:10007", "--max-degree", "12"),
        0,
        "b227293d619c5bc236c9cfb2aed6ff0aeb0980fb21630c77ca6a609bafd14352",
    ),
    (
        ("probe", "--f", "x0^2 - x0*x1", "--max-degree", "8"),
        0,
        "e84973f917359bb91cbb81bf87a9d6ead2a6974cbdf464b879fed2fba3165662",
    ),
    (
        ("probe", "--d", "3", "--p", "2,3,5", "--point", "1,1,1,1", "--f", "x0-x1", "--max-degree", "5"),
        0,
        "0f6405b075dfc8e7b59d386f0138a6a8be6bf07bf3afd5e9cfc8a0cf5b26a0d5",
    ),
    (
        ("probe", "--f", "1/2*x0 - 1/2*x1", "--max-degree", "6"),
        0,
        "b83f8b4cd4d0f36f26716aa8a82bddadbca73a2509e47fb9a90c8a29aa45134a",
    ),
    (
        ("ext-table", "--J", "gens:1/2*x0^2;x1*x2 - 2/3*x0^2", "--max-degree", "4"),
        0,
        "017124fe5f428a826c23cf61ea2ffa97f1f94d8226b1c3b892ecd666d0050976",
    ),
]


def _write_configs(tmp_path, monkeypatch):
    for name, data in CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_verify_suite_digest(argv, code, digest, tmp_path, monkeypatch):
    _write_configs(tmp_path, monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(["verify-suite", "--format", "json", *argv])
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,code,digest", CLI_GOLDEN, ids=[" ".join(g[0]) for g in CLI_GOLDEN])
def test_cli_table_digest(argv, code, digest, tmp_path, monkeypatch):
    _write_configs(tmp_path, monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(list(argv))
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
