"""Command-line driver.

Every command reads an optional JSON config file and then the flags given,
spelled as the file's keys, through one reader (flags win), builds the
instance, and emits one deterministic payload to stdout or --out.  Wall
time is printed to stderr so that identical configurations produce
byte-identical reports.  Exit codes: 0 success, 1 a check failed, 2
configuration or usage error, an unwritable --out included.  Where the
suite would skip its probe check, ``probe`` still reports, adds the
suite's ``reason`` and exits 0.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from fractions import Fraction

from .automorphism import ProjPoint
from .config import ConfigError, Instance, RingConfig
from .ext import ExtEngine
from .orbit import (
    FactorBoundError,
    centred_indices,
    distinct_window,
    general_position_rank,
    multiplicative_independence,
)
from .poly import basis_dim, format_poly, parse_poly
from .report import SCHEMA, csv_text, json_text, jsonable, table_payload
from .segre import SegreContext, local_witness_check, nonvanishing_from
from .suite import PROBE_KEYS, run_suite, skip_reason
from .twist import GradedIdeal, PointIdeal

CONFIG_FLAGS = ("d", "point", "field", "max_degree", "trailing_zeros")
PROBE_FIELDS = (*PROBE_KEYS, "torsion_support")
LIST_FLAGS = ("--p", "--point")
NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--d", type=int, help="projective dimension, at least 2")
    parser.add_argument("--p", help="diagonal multipliers, e.g. 2,3")
    parser.add_argument("--point", help="point coordinates, e.g. 1,1,1")
    parser.add_argument("--field", help="rational or prime:<p>")
    parser.add_argument("--max-degree", type=int, dest="max_degree")
    parser.add_argument(
        "--trailing-zeros", type=int, dest="trailing_zeros", help="window tail length"
    )
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt")
    parser.add_argument("--out", help="write the payload to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idealizer",
        description="Exact degreewise computations with idealizers of point "
        "ideals in twisted polynomial rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-suite", help="run every check and report")
    _add_common(p)

    p = sub.add_parser("hilbert", help="dimension table of a graded series")
    p.add_argument(
        "--series",
        required=True,
        choices=("S", "T", "S_mod_IS", "S_mod_T"),
        help="which Hilbert function to tabulate",
    )
    _add_common(p)

    p = sub.add_parser("idealizer-gens", help="minimal generator counts of T")
    _add_common(p)

    p = sub.add_parser("critdense", help="multiplicative independence certificate")
    p.add_argument("--window", type=int, help="orbit distinctness window")
    p.add_argument("--degree", type=int, help="evaluation rank degree cap")
    _add_common(p)

    p = sub.add_parser("probe", help="noetherian probe for an element of T")
    p.add_argument("--f", required=True, help="probe element, e.g. 'x0 - 2*x1 + x2'")
    _add_common(p)

    p = sub.add_parser("ext-table", help="twisted ext table against S/J")
    p.add_argument("--J", default="0", help="ideal spec: 0|max|point:a,b,c|orbit:k|gens:p1;p2")
    _add_common(p)

    p = sub.add_parser("hom-table", help="hom dimensions against S/J")
    p.add_argument("--J", required=True, help="ideal spec: 0|max|point:a,b,c|orbit:k|gens:p1;p2")
    _add_common(p)

    p = sub.add_parser("segre", help="Segre product witness dimensions")
    p.add_argument(
        "action",
        nargs="?",
        default="witness",
        choices=("witness",),
        help="what to compute (only 'witness')",
    )
    _add_common(p)

    p = sub.add_parser("opposite-check", help="opposite-ring transport identity")
    p.add_argument(
        "--total-degree",
        type=int,
        default=6,
        dest="total_degree",
        help="exhaustive bound on deg f + deg g",
    )
    _add_common(p)

    p = sub.add_parser("veronese", help="Veronese generation and idealizer agreement")
    p.add_argument("--n", type=int, default=2, help="Veronese index")
    _add_common(p)

    return parser


def _configure(args) -> RingConfig:
    """The config file's keys, then the flags given, through the one reader."""
    cfg = RingConfig() if args.config is None else RingConfig.from_file(args.config)
    flags = {key: getattr(args, key) for key in CONFIG_FLAGS if getattr(args, key) is not None}
    if args.p is not None:
        flags["automorphism"] = {"diag": args.p}
    return cfg.updated(flags)


def _parse_ideal(instance: Instance, text: str) -> tuple[GradedIdeal, str]:
    ring = instance.ring
    spec = text.strip()
    if spec == "0":
        return GradedIdeal(ring, []), "0"
    if spec == "max":
        return (
            GradedIdeal(ring, [ring.variable(i) for i in range(ring.nvars)]),
            "max",
        )
    if spec.startswith("point:"):
        coords = [v.strip() for v in spec[len("point:"):].split(",")]
        try:
            lifted = [instance.field.from_fraction(Fraction(v)) for v in coords]
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError("bad point in ideal spec %r" % spec) from exc
        if len(lifted) != ring.nvars:
            raise ConfigError("ideal point needs %d coordinates" % ring.nvars)
        if not any(lifted):
            raise ConfigError("ideal point %r is zero in the field" % spec)
        pt = ProjPoint.make(lifted, instance.field)
        return PointIdeal(ring, pt), "point:%s" % pt.render(instance.field)
    if spec.startswith("orbit:"):
        try:
            k = int(spec[len("orbit:"):])
        except ValueError as exc:
            raise ConfigError("bad orbit index in %r" % spec) from exc
        return instance.idealizer.I.moved(k), "orbit:%d" % k
    if spec.startswith("gens:"):
        parts = [s for s in spec[len("gens:"):].split(";") if s.strip()]
        if not parts:
            raise ConfigError("empty generator list in %r" % spec)
        try:
            gens = [parse_poly(s, ring.nvars, instance.field) for s in parts]
        except ValueError as exc:
            raise ConfigError("bad generator in %r: %s" % (spec, exc)) from exc
        return GradedIdeal(ring, gens), "gens:%s" % ";".join(
            format_poly(g, instance.field) for g in gens
        )
    raise ConfigError(
        "unknown ideal spec %r (use 0, max, point:a,b,c, orbit:k, or gens:p1;p2)" % spec
    )


def _open_out(path: str, mode: str):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ConfigError("cannot write output file: %s" % exc) from exc


def _check_out(path: str) -> None:
    """Fail before any work when --out cannot be opened for writing.  An
    existing file is opened without truncation and a new one is removed
    again, so a run that later fails leaves no empty report behind."""
    existed = os.path.exists(path)
    _open_out(path, "a").close()
    if not existed:
        os.remove(path)


def _emit(args, text: str) -> None:
    if args.out:
        with _open_out(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _render(args, payload: dict, default_fmt: str) -> None:
    payload = jsonable(payload)
    fmt = args.fmt or default_fmt
    if fmt == "csv" and "columns" in payload:
        _emit(args, csv_text(payload))
    else:
        _emit(args, json_text(payload))


# -- commands ------------------------------------------------------------------


def cmd_verify_suite(args, instance: Instance) -> int:
    report = run_suite(instance)
    payload = report.payload()
    if (args.fmt or "json") == "csv":
        rows = [[c.name, c.status] for c in report.checks]
        table = table_payload(
            "verify-suite",
            instance.config.payload(),
            ["check", "status"],
            rows,
            {"ok": report.ok, "counts": report.counts()},
        )
        _emit(args, csv_text(table))
    else:
        _emit(args, json_text(payload))
    return 0 if report.ok else 1


def cmd_hilbert(args, instance: Instance) -> int:
    idl = instance.idealizer
    N = instance.config.max_degree
    series = {
        "S": lambda: [basis_dim(instance.ring.nvars, n) for n in range(N + 1)],
        "T": lambda: [idl.t_dim(n) for n in range(N + 1)],
        "S_mod_IS": lambda: idl.s_mod_is_dims(N),
        "S_mod_T": lambda: idl.s_mod_t_dims(N),
    }
    dims = series[args.series]()
    payload = table_payload(
        "hilbert",
        instance.config.payload(),
        ["degree", "dim"],
        list(enumerate(dims)),
        {"series": args.series},
    )
    _render(args, payload, "csv")
    return 0


def cmd_idealizer_gens(args, instance: Instance) -> int:
    gens = instance.idealizer.algebra_generator_degrees(instance.config.max_degree)
    payload = table_payload(
        "idealizer-gens",
        instance.config.payload(),
        ["degree", "new_generators"],
        gens,
    )
    _render(args, payload, "csv")
    return 0


def cmd_critdense(args, instance: Instance) -> int:
    cfg = instance.config
    if cfg.multipliers is None:
        raise ConfigError("critdense needs the diagonal family (give --p)")
    try:
        cert = multiplicative_independence(cfg.multipliers)
    except FactorBoundError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "schema": SCHEMA,
        "command": "critdense",
        "config": cfg.payload(),
        "certificate": cert.payload(),
    }
    if args.window is not None or args.degree is not None:
        window = args.window if args.window is not None else cfg.max_degree
        degree_cap = args.degree if args.degree is not None else 2
        if window < 1 or degree_cap < 1:
            raise ConfigError("the window and the degree cap must be positive")
        orbit = instance.idealizer.orbit(window)
        ok, collision = distinct_window(orbit)
        ranks = []
        for m in range(1, degree_cap + 1):
            dim = basis_dim(instance.ring.nvars, m)
            idx = [i for i in centred_indices(dim) if abs(i) <= window]
            ranks.append(general_position_rank(orbit, m, idx, instance.field))
        payload["window_evidence"] = {
            "window": window,
            "distinct": ok,
            "collision": collision,
            "ranks": ranks,
        }
    _render(args, payload, "json")
    failed = cert.verdict == "dependent" and not cert.relation_verified
    return 1 if failed else 0


def cmd_probe(args, instance: Instance) -> int:
    try:
        f = parse_poly(args.f, instance.ring.nvars, instance.field)
    except ValueError as exc:
        raise ConfigError("bad probe element: %s" % exc) from exc
    engine = ExtEngine(instance.idealizer)
    try:
        rec = engine.right_noeth_probe(f, instance.config.max_degree)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "schema": SCHEMA,
        "command": "probe",
        "config": instance.config.payload(),
        "f": format_poly(f, instance.field),
        "degree": rec["n"],
        "totals": {"coker": rec["coker_total"], "torsion": sum(rec["torsion_dims"])},
    }
    for key in PROBE_FIELDS:
        payload[key] = rec[key]
    # where the suite skips its probe check, a mismatch is no failure
    reason = skip_reason(instance, "right-noetherian-probes")
    if reason is not None:
        payload["reason"] = reason
    _render(args, payload, "json")
    ok = rec["support_matches"] and rec["torsion_matches"]
    return 0 if ok or reason is not None else 1


def cmd_ext_table(args, instance: Instance) -> int:
    J, label = _parse_ideal(instance, args.J)
    engine = ExtEngine(instance.idealizer)
    record = engine.chi_sample_report([(label, J)], instance.config.max_degree)[label]
    degrees = record["degrees"]
    payload = table_payload(
        "ext-table",
        instance.config.payload(),
        ["j"] + ["n=%d" % n for n in degrees],
        [[j] + row for j, row in record["table"].items()],
        {"J": label, "degrees": degrees},
    )
    _render(args, payload, "csv")
    return 0


def cmd_hom_table(args, instance: Instance) -> int:
    J, label = _parse_ideal(instance, args.J)
    engine = ExtEngine(instance.idealizer)
    N = instance.config.max_degree
    dims = engine.hom_table(J, N)
    payload = table_payload(
        "hom-table",
        instance.config.payload(),
        ["n", "dim"],
        list(enumerate(dims)),
        {"J": label, "total": sum(dims)},
    )
    _render(args, payload, "csv")
    return 0


def cmd_segre(args, instance: Instance) -> int:
    cfg = instance.config
    segre = SegreContext(cfg.d, instance.field)
    local = local_witness_check(cfg.d, instance.field)
    block = segre.witness_dims(cfg.max_degree)
    first_pos = nonvanishing_from(block["witness_dims"])
    rows = [
        [m, block["witness_dims"][m], block["meet_dims"][m], block["product_dims"][m]]
        for m in range(1, cfg.max_degree + 1)
    ]
    payload = table_payload(
        "segre",
        cfg.payload(),
        ["m", "witness_dim", "meet_dim", "product_dim"],
        rows,
        {
            "verdict": {
                "local_check": local["ok"],
                "nonvanishing_from": first_pos,
                "diagonal_dim_degree_one": segre.diagonal_ideal_piece(1).dim,
            }
        },
    )
    _render(args, payload, "csv")
    return 0 if local["ok"] and first_pos is not None else 1


def cmd_opposite_check(args, instance: Instance) -> int:
    if args.total_degree < 0:
        raise ConfigError("the total degree must be nonnegative")
    ok, checked, first_bad = instance.ring.opposite_iso_check(args.total_degree)
    payload = {
        "schema": SCHEMA,
        "command": "opposite-check",
        "config": instance.config.payload(),
        "total_degree": args.total_degree,
        "ok": ok,
        "checked_pairs": checked,
        "first_failure": first_bad,
    }
    _render(args, payload, "json")
    return 0 if ok else 1


def cmd_veronese(args, instance: Instance) -> int:
    if args.n < 1:
        raise ConfigError("the Veronese index must be positive")
    idl = instance.idealizer
    gen = idl.veronese_gen_in_degree_one(args.n)
    # nth-Veronese piece m lives in ambient degree n*m; keep that product small
    cap = max(1, min(instance.config.max_degree, 6, 24 // args.n))
    compare = idl.veronese_idealizer_compare(args.n, cap)
    payload = {
        "schema": SCHEMA,
        "command": "veronese",
        "config": instance.config.payload(),
        "n": args.n,
        "generated_in_degree_one": gen,
        "idealizer_agreement": compare,
    }
    _render(args, payload, "json")
    return 0 if compare["least_agreement_degree"] is not None else 1


COMMANDS = {
    "verify-suite": cmd_verify_suite,
    "hilbert": cmd_hilbert,
    "idealizer-gens": cmd_idealizer_gens,
    "critdense": cmd_critdense,
    "probe": cmd_probe,
    "ext-table": cmd_ext_table,
    "hom-table": cmd_hom_table,
    "segre": cmd_segre,
    "opposite-check": cmd_opposite_check,
    "veronese": cmd_veronese,
}


def _attach_negative_lists(argv: list[str]) -> list[str]:
    """Rewrite ``--p -1,3`` as ``--p=-1,3``.

    argparse reads a separate token such as -1,3 as an unknown option,
    since only plain negative numbers count as values.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in LIST_FLAGS and NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_negative_lists(sys.argv[1:] if argv is None else list(argv))
    )
    started = time.monotonic()
    try:
        if args.out:
            _check_out(args.out)
        instance = _configure(args).build()
        code = COMMANDS[args.command](args, instance)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        elapsed = time.monotonic() - started
        print("elapsed %.2fs" % elapsed, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
