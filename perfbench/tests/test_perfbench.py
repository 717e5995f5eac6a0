"""Tests of the benchmark itself: run.py end to end, correctness gate, span arithmetic."""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
import spans  # noqa: E402
from workloads import Workload, invariant_sha256  # noqa: E402

TINY = Workload(
    name="tiny",
    d=2,
    multipliers=(2, 3),
    max_degree=3,
    field="rational",
    expected_counts={"pass": 14, "observed": 7, "skipped": 1, "fail": 0},
    seed0_sha256=None,
    invariant_sha256=None,
    why="d=2, N=3: all of run.py in a few seconds",
    trailing_zeros=1,
)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _drive(monkeypatch, capsys, workload: Workload, seed: int, trace: int) -> dict:
    monkeypatch.setitem(bench.WORKLOADS, workload.name, workload)
    monkeypatch.setattr(bench, "SETUP_REPS", 2)
    argv = ["--workload", workload.name, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    assert bench.main(argv) == 0
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    result["stderr"] = err
    return result


def test_tiny_config_end_to_end(monkeypatch, capsys):
    result = _drive(monkeypatch, capsys, TINY, seed=3, trace=0)
    assert result["correct"] is True, result["stderr"]
    assert result["failed"] == 0 and result["attempted"] == 3
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_digest_counts_as_failure(monkeypatch, capsys):
    wrong = dataclasses.replace(TINY, name="tiny-wrong", seed0_sha256="0" * 64)
    result = _drive(monkeypatch, capsys, wrong, seed=0, trace=0)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 3
    assert "report digest" in result["stderr"]


def test_traced_run_emits_every_layer_metric(monkeypatch, capsys):
    result = _drive(monkeypatch, capsys, TINY, seed=0, trace=1)
    # The traced repetition is checked against the untraced one's bytes.
    assert result["correct"] is True and result["failed"] == 0, result["stderr"]
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["suite.run_suite.calls"]["value"] == 1
    assert result["metrics"]["linalg.Echelon.insert.calls"]["value"] > 0


def _span(idx, name, start, end, parent):
    return {"run": "t", "id": idx, "name": name, "start": start, "end": end, "parent": parent}


def test_self_time_on_nested_spans():
    got = spans.aggregate(
        [
            _span(0, "a", 0.0, 10.0, None),
            _span(1, "b", 1.0, 4.0, 0),
            _span(2, "c", 2.0, 3.0, 1),
            _span(3, "d", 5.0, 9.0, 0),
            _span(4, "a", 6.0, 7.0, 3),  # recursion: a inside d inside a
        ]
    )
    assert got["a"]["calls"] == 2
    assert got["a"]["self_s"] == pytest.approx((10 - 3 - 4) + 1)
    assert got["a"]["incl_s"] == pytest.approx(10.0)  # outermost a only
    assert got["b"]["self_s"] == pytest.approx(2.0)
    assert got["c"]["self_s"] == pytest.approx(1.0)
    assert got["d"]["self_s"] == pytest.approx(3.0)
    assert got["d"]["incl_s"] == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_once():
    got = spans.aggregate(
        [
            _span(0, "p", 0.0, 10.0, None),
            _span(1, "x", 1.0, 4.0, 0),
            _span(2, "y", 3.0, 6.0, 0),
            _span(3, "z", 9.0, 12.0, 0),
        ]
    )
    assert got["p"]["self_s"] == pytest.approx(10 - 5 - 1)


def _namespaces():
    return {
        key: dict(vars(mod))
        for key, mod in sys.modules.items()
        if key == "idealizer" or key.startswith("idealizer.")
    }


def _class_dicts():
    import idealizer  # noqa: F401

    out = {}
    for module, entries in spans.ENTRY_POINTS.items():
        mod = sys.modules["idealizer." + module]
        for entry in entries:
            if "." in entry:
                cls_name, attr = entry.split(".")
                out[entry] = getattr(mod, cls_name).__dict__[attr]
    return out


def test_traced_digest_matches_and_originals_restored(tmp_path):
    from idealizer import report, suite
    from idealizer.config import RingConfig

    def suite_text():
        instance = RingConfig.from_mapping(TINY.config(5)).build()
        return report.json_text(suite.run_suite(instance).payload())

    plain = suite_text()
    namespaces, methods = _namespaces(), _class_dicts()
    linalg_kernel = sys.modules["idealizer.linalg"].kernel

    recorder = spans.Recorder("test")
    recorder.install()
    try:
        # Bound-by-name copies are wrapped too, not just the defining module.
        assert sys.modules["idealizer.suite"].kernel is not linalg_kernel
        assert sys.modules["idealizer.idealizer_ring"].kernel is not linalg_kernel
        traced = suite_text()
    finally:
        recorder.uninstall()

    assert traced == plain
    assert invariant_sha256(json.loads(traced)) == invariant_sha256(json.loads(plain))
    for key, before in namespaces.items():
        after = vars(sys.modules[key])
        assert all(after[name] is value for name, value in before.items()), key
    assert _class_dicts() == methods

    recorder.finish()
    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(str(path))
    records = spans.read_jsonl(str(path))
    got = spans.aggregate(records)
    assert got["suite.run_suite"]["calls"] == 1
    assert got["linalg.kernel"]["calls"] > 0
    assert got["linalg.Echelon.insert"]["attrs"]["cells"] > 0
    # Self times partition the time covered by the root spans.
    roots = sum(s["end"] - s["start"] for s in records if s["parent"] is None)
    assert sum(entry["self_s"] for entry in got.values()) == pytest.approx(roots, rel=1e-6)
