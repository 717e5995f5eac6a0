"""Machine-readable reports with a fixed, reproducible shape.

Status vocabulary: "pass" is reserved for exact finite statements, "fail"
for their failures, "observed" for any window-truncated claim (such
entries always carry the window and the trailing-zero parameter), and
"skipped" for checks whose hypotheses the configuration does not meet.
Identical configurations must produce byte-identical output, so payloads
never contain timings or environment data; wall time goes to stderr.
Data reaches bytes through ``jsonable`` once, at the boundary: the suite
applies it to each check's data, the CLI to each command's payload.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .fields import Frozen

SCHEMA = "idealizer-report/1"

PASS = "pass"
FAIL = "fail"
OBSERVED = "observed"
SKIPPED = "skipped"

__all__ = [
    "SCHEMA",
    "PASS",
    "FAIL",
    "OBSERVED",
    "SKIPPED",
    "CheckRecord",
    "VerificationReport",
    "csv_text",
    "json_text",
    "jsonable",
    "table_payload",
]


def jsonable(value):
    """Deterministic JSON-safe view of report data."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    raise TypeError("cannot serialize %r" % (value,))


class CheckRecord(Frozen):
    def __init__(
        self,
        name: str,
        status: str,
        statement: str,
        data: dict | None = None,
        window: dict | None = None,
    ):
        if status not in (PASS, FAIL, OBSERVED, SKIPPED):
            raise ValueError("unknown status %r" % status)
        if status == OBSERVED and not window:
            raise ValueError("observed claims must carry their window")
        data = {} if data is None else data
        self.__dict__.update(
            name=name, status=status, statement=statement, data=data, window=window
        )

    def payload(self) -> dict:
        out = {
            "name": self.name,
            "status": self.status,
            "statement": self.statement,
            "data": self.data,
        }
        if self.window is not None:
            out["window"] = self.window
        return out


class VerificationReport(Frozen):
    def __init__(self, config: dict, checks: tuple[CheckRecord, ...]):
        self.__dict__.update(config=config, checks=checks)

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, OBSERVED: 0, SKIPPED: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def payload(self) -> dict:
        return {
            "schema": SCHEMA,
            "config": self.config,
            "checks": [c.payload() for c in self.checks],
            "counts": self.counts(),
            "ok": self.ok,
        }


def json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def table_payload(command: str, config: dict, columns, rows, extra: dict | None = None) -> dict:
    out = {
        "schema": SCHEMA,
        "command": command,
        "config": config,
        "columns": list(columns),
        "rows": [list(r) for r in rows],
    }
    if extra:
        out.update(extra)
    return out


def csv_text(payload: dict) -> str:
    """CSV rendering of a table payload: echo comments, header, rows."""
    buf = io.StringIO()
    buf.write("# schema: %s\n" % payload["schema"])
    buf.write("# command: %s\n" % payload["command"])
    buf.write(
        "# config: %s\n"
        % json.dumps(payload["config"], sort_keys=True, separators=(",", ":"))
    )
    for key in sorted(payload):
        if key in ("schema", "command", "config", "columns", "rows"):
            continue
        buf.write(
            "# %s: %s\n"
            % (key, json.dumps(payload[key], sort_keys=True, separators=(",", ":")))
        )
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(payload["columns"])
    for row in payload["rows"]:
        writer.writerow(row)
    return buf.getvalue()
