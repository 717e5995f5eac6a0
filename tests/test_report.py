"""Report records and deterministic serialization."""

import json
from fractions import Fraction

import pytest

from idealizer.report import (
    OBSERVED,
    PASS,
    SCHEMA,
    CheckRecord,
    VerificationReport,
    csv_text,
    json_text,
    jsonable,
    table_payload,
)


def test_check_record_rejects_unknown_status():
    with pytest.raises(ValueError):
        CheckRecord("x", "maybe", "statement")


def test_observed_requires_window():
    with pytest.raises(ValueError):
        CheckRecord("x", OBSERVED, "statement")
    rec = CheckRecord("x", OBSERVED, "statement", window={"max_degree": 10})
    assert rec.payload()["window"] == {"max_degree": 10}


def test_report_ok_and_counts():
    checks = (
        CheckRecord("a", PASS, "s1"),
        CheckRecord("b", "fail", "s2"),
    )
    rep = VerificationReport({"d": 2}, checks)
    assert not rep.ok
    assert rep.counts()["fail"] == 1
    payload = rep.payload()
    assert payload["schema"] == SCHEMA
    assert payload["ok"] is False


def test_json_text_is_canonical():
    text = json_text({"b": 1, "a": [2, 3]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": [2, 3]}


def test_csv_text_echoes_context():
    payload = table_payload("hilbert", {"d": 2}, ["degree", "dim"], [[0, 1], [1, 3]], {"series": "T"})
    text = csv_text(payload)
    lines = text.split("\n")
    assert lines[0] == "# schema: %s" % SCHEMA
    assert lines[1] == "# command: hilbert"
    assert lines[2].startswith("# config: ")
    assert "# series:" in text
    assert "degree,dim" in lines
    assert "0,1" in lines
    assert text.endswith("\n")


def test_csv_text_sorted_extra_keys():
    payload = table_payload("t", {}, ["a"], [[1]], {"zeta": 1, "alpha": 2})
    text = csv_text(payload)
    assert text.index("# alpha") < text.index("# zeta")


def test_jsonable_reads_fractions_tuples_and_keys():
    value = {1: (Fraction(1, 2), Fraction(4, 2)), "a": [{2: None}, True, "s"]}
    assert jsonable(value) == {"1": ["1/2", 2], "a": [{"2": None}, True, "s"]}
    assert jsonable(jsonable(value)) == jsonable(value)


def test_jsonable_rejects_unknown_objects():
    with pytest.raises(TypeError):
        jsonable({"x": [object()]})
