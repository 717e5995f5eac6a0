"""Golden digests: ``verify-suite --format json`` bytes for small configs.

Each config covers a regime the benchmark does not reach at this size:
the generic regime over Q and over a prime field, the identity regime,
the residual regime (a point fixed by phi), four variables, and a
non-diagonal matrix automorphism (the one entry that inverts a matrix,
composes matrices and applies the generic substitution).  A digest
changes exactly when a report byte changes, so a refactor that keeps
these digests keeps the reports.

``CLI_GOLDEN`` pins the default-format stdout of the table and probe
commands, which reach what the suite does not: the twisted-module route
of ``ext-table`` on the ``orbit:``, ``gens:`` and ``max`` ideal specs (the
``orbit:`` spec also under the non-diagonal matrix, where a twisted point
ideal is the ideal of a point moved by a full matrix), a ``point:`` hom
table and a noetherian probe.
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
