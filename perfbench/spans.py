"""Outside-in span recorder for the ``idealizer`` package.

The recorder wraps the public entry points of each ``src/idealizer`` module
from outside: class methods are replaced on their class, and module
functions are replaced in every ``idealizer`` namespace that bound them by
name at import (``from .linalg import kernel`` copies the function into the
importing module, so patching ``linalg.kernel`` alone misses most calls).
``uninstall`` puts every original object back.

Each call becomes one span: name, start, end, parent span and run id.
Spans stay in memory while the suite runs and are written as JSONL when
it ends; ``aggregate`` turns a span list into per-entry ``calls``,
``self_s`` (duration minus the time child spans cover) and ``incl_s``
(outermost spans of a name only, so recursion is not counted twice).

``Residue`` dunders are deliberately not wrapped: they run millions of
times and a wrapper on them would swamp every self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction

PACKAGE = "idealizer"

# module -> entry points, "Class.method" or "function".
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "linalg": (
        "Echelon.insert",
        "Echelon.canonical_rows",
        "GradedSubspace.residual",
        "kernel",
        "intersect",
    ),
    "poly": ("HomogPoly.__mul__", "poly_to_vector"),
    "automorphism": ("AutoMap.apply",),
    "twist": (
        "GradedIdeal.piece",
        "GradedIdeal.twisted_piece",
        "TwistRing.product_piece",
        "TwistRing.principal_right_piece",
        "TwistRing.opposite_iso_check",
        "associativity_sample",
    ),
    "idealizer_ring": (
        "IdealizerRing.idealizer_piece",
        "IdealizerRing.is_piece",
        "IdealizerRing.decomposable_piece",
        "IdealizerRing.veronese_idealizer_piece",
        "IdealizerRing.check_T_equals_k_plus_I",
    ),
    "ext": (
        "KoszulComplex.cochain_matrix",
        "KoszulComplex.ext",
        "KoszulComplex.ext_row",
        "ExtEngine.hom_S_quotient",
        "ExtEngine.right_noeth_probe",
        "ExtEngine.chi_sample_report",
    ),
    "segre": ("SegreContext.witness_dims", "local_witness_check"),
    "orbit": ("multiplicative_independence", "general_position_rank"),
    "config": ("RingConfig.build",),
    "report": ("json_text",),
    "suite": ("run_suite",),
}


def metric_name(module: str, entry: str) -> str:
    # IdealizerRing methods are reported under their module alone.
    return "%s.%s" % (module, entry.removeprefix("IdealizerRing."))


def span_names() -> list[str]:
    return [metric_name(m, e) for m, entries in ENTRY_POINTS.items() for e in entries]


class Recorder:
    """Collects spans for one run; install, run the program, uninstall."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen_pieces: set = set()
        self._canonical_results: list[tuple[list, object]] = []

    # -- counters, stored in a span's attrs ------------------------------------------
    # They run after the span has closed, so their cost lands in the
    # parent's self time, not in the wrapped entry point's.

    def _after_insert(self, record: list, args: tuple, result) -> None:
        record[4] = {"kept": bool(result), "cells": len(args[1])}

    def _after_piece(self, record: list, args: tuple, result) -> None:
        # A repeat request for one IdealizerRing and degree is a cache hit.
        key = (id(args[0]),) + tuple(args[1:])
        record[4] = {"hit": key in self._seen_pieces}
        self._seen_pieces.add(key)

    def _after_canonical(self, record: list, args: tuple, result) -> None:
        # Bit lengths are measured in ``finish``, after the run.
        self._canonical_results.append((record, result))

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        after = {
            "linalg.Echelon.insert": self._after_insert,
            "linalg.Echelon.canonical_rows": self._after_canonical,
            "idealizer_ring.idealizer_piece": self._after_piece,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(record, args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("recorder already installed")
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module_name, entries in ENTRY_POINTS.items():
            module = sys.modules["%s.%s" % (PACKAGE, module_name)]
            for entry in entries:
                name = metric_name(module_name, entry)
                if "." in entry:
                    cls_name, attr = entry.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[attr]
                    if not callable(orig):
                        raise TypeError("%s is not a plain method" % entry)
                    self._patched.append((cls, attr, orig))
                    setattr(cls, attr, self._wrap(name, orig))
                    continue
                orig = getattr(module, entry)
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, key, orig))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- output -------------------------------------------------------------------

    def finish(self) -> None:
        """Attach the counters that are measured after the run."""
        for record, (_pivots, rows) in self._canonical_results:
            bits = 0
            for row in rows:
                for x in row:
                    if isinstance(x, Fraction) and x:
                        bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
            record[4] = {"max_bits": bits}
        self._canonical_results.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for idx, (name, start, end, parent, attrs) in enumerate(self.spans):
                line = {
                    "run": self.run_id,
                    "id": idx,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
                if attrs:
                    line["attrs"] = attrs
                handle.write(json.dumps(line, separators=(",", ":")) + "\n")


def read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, self_s, incl_s, and the summed counters."""
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, dict] = {}
    for s in spans:
        name = s["name"]
        entry = out.setdefault(
            name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "attrs": {}}
        )
        duration = s["end"] - s["start"]
        entry["calls"] += 1
        entry["self_s"] += duration - _covered(
            children.get(s["id"], []), s["start"], s["end"]
        )
        outermost = True
        parent = s["parent"]
        while parent is not None:
            up = by_id[parent]
            if up["name"] == name:
                outermost = False
                break
            parent = up["parent"]
        if outermost:
            entry["incl_s"] += duration
        for key, value in (s.get("attrs") or {}).items():
            attrs = entry["attrs"]
            if key == "max_bits":
                attrs[key] = max(attrs.get(key, 0), value)
            else:
                attrs[key] = attrs.get(key, 0) + int(value)
    return out
