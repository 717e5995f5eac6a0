"""Benchmark of ``idealizer verify-suite``: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ref-q --seed 0 --seconds 40 --trace 0

Run from the root of a checkout holding ``src/idealizer``.  Load is one
closed loop: one repetition at a time, each in a fresh interpreter
started after the previous one ended, so at most one child process is
alive.

``--trace 0`` measures the end-to-end metrics:

- ``suite_s``: build the ``Instance``, ``run_suite``, ``json_text``;
- ``setup_s``: interpreter start to a built ``Instance``;
- ``peak_rss_mb``: max of ``ru_maxrss`` for the child and its children.

Each is the median over the repetitions of the run.  Both times are
normalised to the reference machine, ``wall * CALIB_REF_S / calib_s``,
with ``calib_s`` timed by the calibration loop of ``calib.py`` in the
same child: in bursts interleaved with the suite, and in one pass after
each set-up.  ``--trace 1`` alternates untraced and traced suite
repetitions and reports the per-layer span metrics of ``spans.py`` and
the tracing overhead.

Every suite repetition is checked: it must not crash, report no ``fail``,
match the workload's status counts, match the recorded digest (seed 0)
and the seed-independent invariant digest, be byte-identical to the
other repetitions of the run, echo the seeded point, and probe only
linear forms that vanish at that point.  Failed repetitions over
attempted ones is ``fail_ratio``.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calib import CALIB_REF_S  # noqa: E402
from spans import aggregate, read_jsonl, span_names  # noqa: E402
from workloads import WORKLOADS, Workload, linear_form_at  # noqa: E402

SETUP_REPS = 9
# A run must end within 180 s; no child may start or run past this.
HARD_LIMIT_S = 160.0
OUT_DIR = os.path.join(HERE, "out")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ChildFailed(Exception):
    pass


def run_child(mode: str, config: dict, timeout: float, trace_path: str | None = None) -> dict:
    """Start one repetition, wait for it, and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, json.dumps(config)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = now()
    cmd.append(repr(spawned_at))
    if trace_path is not None:
        cmd.append(trace_path)
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(timeout, 1.0), env=env, cwd=ROOT
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed("%s repetition timed out after %.0f s" % (mode, exc.timeout)) from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed("%s repetition exited %d: %s" % (mode, proc.returncode, tail[0]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed("%s repetition printed no result" % mode)
    return json.loads(lines[-1])


def suite_problems(workload: Workload, seed: int, rep: dict, first: dict | None) -> list[str]:
    """Why a suite repetition's output is wrong; empty when it is right."""
    problems = []
    if rep["counts"] != workload.expected_counts:
        problems.append("status counts %s, expected %s" % (rep["counts"], workload.expected_counts))
    expected = workload.expected_sha256(seed)
    if expected is not None and rep["sha256"] != expected:
        problems.append("report digest %s, expected %s" % (rep["sha256"][:12], expected[:12]))
    if workload.invariant_sha256 is not None and rep["invariant_sha256"] != workload.invariant_sha256:
        problems.append("dimension digest %s differs" % rep["invariant_sha256"][:12])
    if first is not None and rep["sha256"] != first["sha256"]:
        problems.append("report bytes differ between repetitions")
    point = workload.point(seed)
    if rep["point"] != [str(c) for c in point]:
        problems.append("report echoes point %s, not %s" % (rep["point"], point))
    modulus = int(workload.field.split(":")[1]) if workload.field.startswith("prime:") else 0
    if not rep["probes"]:
        problems.append("no noetherian probes reported")
    for form in rep["probes"]:
        try:
            if linear_form_at(form, point, modulus):
                problems.append("probe %s does not vanish at the point" % form)
        except ValueError as exc:
            problems.append(str(exc))
    return problems


class Run:
    """The repetitions of one benchmark run and their verdicts."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.config = workload.config(seed)
        self.started = now()
        self.deadline = self.started + seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_suite: dict | None = None

    def elapsed(self) -> float:
        return now() - self.started

    def time_left(self) -> float:
        return HARD_LIMIT_S - self.elapsed()

    def fits(self, last_s: float) -> bool:
        """Closed-loop pacing: start another repetition only if it fits."""
        return now() + last_s <= self.deadline and self.time_left() > last_s + 10.0

    def warm_up(self) -> None:
        """Untimed child: compiles the package's bytecode once."""
        run_child("setup", self.config, self.time_left())

    def child(self, mode: str, trace_path: str | None = None) -> dict | None:
        """One checked repetition; None if it failed."""
        self.attempted += 1
        try:
            rep = run_child(mode, self.config, self.time_left(), trace_path)
        except (ChildFailed, ValueError) as exc:
            self.failed += 1
            self.errors.append(str(exc))
            return None
        if mode != "setup":
            problems = suite_problems(self.workload, self.seed, rep, self.first_suite)
            if self.first_suite is None:
                self.first_suite = rep
            if problems:
                self.failed += 1
                self.errors.extend(problems)
                return None
        return rep


def normalised(wall: float, calib: float) -> float:
    return wall * CALIB_REF_S / calib


def measure(run: Run) -> tuple[dict, dict]:
    """End-to-end metrics and their samples."""
    setup, setup_calib, suite, rss = [], [], [], []
    for _ in range(SETUP_REPS):
        rep = run.child("setup")
        if rep is not None:
            setup.append(rep["setup_wall_s"])
            setup_calib.append(rep["calib_s"])
    last = 0.0
    while not suite or run.fits(last):
        began = now()
        rep = run.child("suite")
        last = now() - began
        if rep is None:
            break
        suite.append(normalised(rep["wall_s"], rep["calib_s"]))
        rss.append(rep["peak_rss_mb"])
        print("suite repetition: wall %.4f s, calib %.4f s" % (rep["wall_s"], rep["calib_s"]))
    if not suite or not setup:
        return {}, {}
    # A set-up lasts about 0.1 s, too short to interleave calibration
    # bursts, so all are normalised by the median pass that followed them.
    calib = statistics.median(setup_calib)
    samples = {
        "suite_s": (suite, "s"),
        "setup_s": ([normalised(w, calib) for w in setup], "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return samples_to_metrics(samples)


def samples_to_metrics(samples: dict) -> tuple[dict, dict]:
    """Each metric is the median of its samples (a sample itself for counts)."""
    metrics = {
        name: {
            "value": (statistics.median_low if unit in ("count", "bits") else statistics.median)(values),
            "unit": unit,
        }
        for name, (values, unit) in samples.items()
    }
    return metrics, {name: values for name, (values, _unit) in samples.items()}


_NO_SPANS = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "attrs": {}}


def measure_traced(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics: untraced and traced suite repetitions in pairs."""
    os.makedirs(OUT_DIR, exist_ok=True)
    plain, traced, layers = [], [], []
    last = 0.0
    while not traced or run.fits(last):
        began = now()
        rep = run.child("suite")
        if rep is None:
            break
        path = os.path.join(OUT_DIR, "%s-seed%d-rep%d.jsonl" % (run.workload.name, run.seed, len(traced)))
        trep = run.child("traced", path)
        last = now() - began
        if trep is None:
            break
        plain.append(rep)
        traced.append(trep)
        layers.append(aggregate(read_jsonl(path)))
        os.remove(path)
    if not traced:
        return {}, {}
    samples: dict[str, tuple[list, str]] = {}
    for name in span_names():
        per_rep = [agg.get(name, _NO_SPANS) for agg in layers]
        calls = [entry["calls"] for entry in per_rep]
        if len(set(calls)) != 1:
            print("warning: %s calls vary: %s" % (name, calls), file=sys.stderr)
        samples[name + ".calls"] = (calls, "count")
        for key in ("self_s", "incl_s"):
            samples["%s.%s" % (name, key)] = (
                [normalised(e[key], t["calib_s"]) for e, t in zip(per_rep, traced)],
                "s",
            )

    def counter(name: str, key: str) -> list:
        return [agg.get(name, _NO_SPANS)["attrs"].get(key, 0) for agg in layers]

    def ratio(name: str, key: str) -> list:
        calls = [agg.get(name, _NO_SPANS)["calls"] for agg in layers]
        return [k / c if c else 0.0 for k, c in zip(counter(name, key), calls)]

    samples["linalg.Echelon.insert.kept_ratio"] = (ratio("linalg.Echelon.insert", "kept"), "ratio")
    samples["linalg.Echelon.insert.cells"] = (counter("linalg.Echelon.insert", "cells"), "count")
    samples["linalg.Echelon.canonical_rows.max_bits"] = (
        counter("linalg.Echelon.canonical_rows", "max_bits"),
        "bits",
    )
    samples["idealizer_ring.idealizer_piece.hit_ratio"] = (
        ratio("idealizer_ring.idealizer_piece", "hit"),
        "ratio",
    )
    samples["suite.wall_s"] = ([r["wall_s"] for r in plain], "s")
    samples["suite.calib_s"] = ([r["calib_s"] for r in plain], "s")
    samples["trace.overhead_ratio"] = (
        [
            normalised(t["wall_s"], t["calib_s"]) / normalised(r["wall_s"], r["calib_s"])
            for r, t in zip(plain, traced)
        ],
        "ratio",
    )
    return samples_to_metrics(samples)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p75..p99 with at least ten samples beyond it, if any."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99, 95, 90, 75):
        rank = math.ceil(n * pct / 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def machine_notes() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "calib_ref_s": CALIB_REF_S,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "idealizer", "__init__.py")):
        print("no src/idealizer next to %s: run from a full checkout" % HERE, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds)
    try:
        run.warm_up()
        metrics, samples = (measure_traced if args.trace else measure)(run)
    except ChildFailed as exc:
        print("warm-up failed: %s" % exc, file=sys.stderr)
        return 1
    for error in run.errors:
        print("error: %s" % error, file=sys.stderr)
    print("machine %s" % json.dumps(machine_notes(), sort_keys=True))
    print(
        "workload %s seed %d point (%s) elapsed %.1f s"
        % (workload.name, args.seed, " : ".join(map(str, workload.point(args.seed))), run.elapsed())
    )
    for name, metric in metrics.items():
        values = samples[name]
        tail = tail_percentile(values)
        extra = " p%d %.6g" % tail if tail else ""
        print("%-52s %14.6g %-6s n=%d%s" % (name, metric["value"], metric["unit"], len(values), extra))
    fail_ratio = run.failed / run.attempted
    print("%-52s %14.6g %-6s n=%d" % ("fail_ratio", fail_ratio, "ratio", run.attempted))
    correct = run.failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
