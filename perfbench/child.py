"""One repetition of the benchmark, run in a fresh interpreter.

    python3 perfbench/child.py <mode> <config-json> <spawned-at> [<trace-path>]

``mode`` is ``setup`` (import the package and build the ``Instance``),
``suite`` (build, ``run_suite``, ``json_text``) or ``traced`` (the same
under the span recorder, spans written to ``trace-path``).
``spawned-at`` is the ``CLOCK_MONOTONIC`` reading the parent took just
before starting this process, so ``setup`` time runs from interpreter
start.  The calibration loop runs in this process: after the build in
``setup`` mode, in bursts during the suite in ``suite`` mode, and
before and after the suite in ``traced`` mode.  The last stdout line is
one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def run_setup(config: dict, spawned_at: float) -> dict:
    from idealizer.config import RingConfig

    RingConfig.from_mapping(config).build()
    built_at = now()
    from calib import calibrate

    return {"setup_wall_s": built_at - spawned_at, "calib_s": calibrate()}


def run_suite(config: dict, trace_path: str | None) -> dict:
    from calib import BurstSampler, calibrate
    from idealizer import report, suite
    from idealizer.config import RingConfig
    from workloads import invariant_sha256

    def compute():
        instance = RingConfig.from_mapping(config).build()
        result = suite.run_suite(instance)
        return result, report.json_text(result.payload())

    if trace_path is None:
        # Calibration bursts interleave with the suite; their time is
        # subtracted from the wall.
        with BurstSampler() as sampler:
            result, text = compute()
        wall, calib = sampler.wall_s, sampler.calib_s
    else:
        # No bursts here: they would land inside whatever span is open.
        from spans import Recorder

        recorder = Recorder(os.path.basename(trace_path).rsplit(".", 1)[0])
        calib_before = calibrate()
        recorder.install()
        try:
            start = time.perf_counter()
            result, text = compute()
            wall = time.perf_counter() - start
        finally:
            recorder.uninstall()
        calib = (calib_before + calibrate()) / 2
    out = {
        "wall_s": wall,
        "calib_s": calib,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "invariant_sha256": invariant_sha256(json.loads(text)),
        "counts": result.counts(),
        "point": result.config["point"],
        "probes": [
            probe["f"]
            for check in result.checks
            if check.name == "right-noetherian-probes"
            for probe in check.data.get("probes", [])
        ],
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace_path is not None:
        recorder.finish()
        recorder.write_jsonl(trace_path)
    return out


def main(argv: list[str]) -> int:
    mode, config_text, spawned_at = argv[0], argv[1], float(argv[2])
    config = json.loads(config_text)
    if mode == "setup":
        out = run_setup(config, spawned_at)
    elif mode in ("suite", "traced"):
        out = run_suite(config, argv[3] if mode == "traced" else None)
    else:
        raise SystemExit("unknown mode %r" % mode)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
