"""Configuration parsing, validation, and instance construction."""

import json
from fractions import Fraction

import pytest

from idealizer.cli import main
from idealizer.config import ConfigError, RingConfig


def test_default_config():
    cfg = RingConfig().validate()
    assert cfg.d == 2
    assert cfg.multipliers == (Fraction(2), Fraction(3))
    assert cfg.point == (Fraction(1), Fraction(1), Fraction(1))
    assert cfg.field == "rational"
    assert cfg.max_degree == 10
    assert cfg.trailing_zeros == 3


def test_from_mapping_aliases():
    cfg = RingConfig.from_mapping(
        {"d": 2, "automorphism": {"diag": ["2", "3"]}, "maxDegree": 6, "trailingZeros": 2}
    ).validate()
    assert cfg.max_degree == 6
    assert cfg.trailing_zeros == 2


@pytest.mark.parametrize(
    "data",
    [
        {"max_degree": 5, "maxDegree": 7},
        {"max_degree": 5, "maxDegree": 5},
        {"max_degree": 6, "trailing_zeros": 2, "trailingZeros": 3},
    ],
    ids=["max-degree", "max-degree-same-value", "trailing-zeros"],
)
def test_from_mapping_rejects_a_key_given_twice(data):
    """Both spellings of one key are an error, not a silent choice of the later one."""
    with pytest.raises(ConfigError, match="given twice"):
        RingConfig.from_mapping(data)


def test_config_file_naming_a_key_twice_exits_2(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"max_degree": 5, "maxDegree": 7}), encoding="utf-8")
    assert main(["verify-suite", "--config", str(path)]) == 2
    assert "max degree is given twice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [
        {"d": True},
        {"max_degree": True},
        {"maxDegree": True},
        {"trailing_zeros": True},
        {"trailingZeros": True},
        {"automorphism": {"diag": [True, 3]}},
        {"automorphism": {"matrix": [[True, 0, 0], [0, 2, 0], [0, 0, 3]]}},
        {"point": [True, 1, 1]},
    ],
    ids=[
        "d",
        "max_degree",
        "maxDegree",
        "trailing_zeros",
        "trailingZeros",
        "diag",
        "matrix",
        "point",
    ],
)
def test_config_file_boolean_is_no_number(tmp_path, capsys, data):
    """A JSON true is not read as 1: it exits 2 and prints no report."""
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["hilbert", "--series", "S", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err


def test_from_mapping_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RingConfig.from_mapping({"d": 2, "bogus": 1})


def test_matrix_automorphism_config():
    cfg = RingConfig.from_mapping(
        {
            "d": 2,
            "automorphism": {
                "matrix": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]
            },
        }
    ).validate()
    assert cfg.multipliers is None
    assert cfg.matrix is not None
    inst = cfg.build()
    assert inst.ring.phi.entry(1, 1) == 2


def test_rejects_both_diag_and_matrix():
    with pytest.raises(ConfigError):
        RingConfig.from_mapping(
            {
                "d": 2,
                "automorphism": {"diag": ["2", "3"], "matrix": [["1"]]},
            }
        ).validate()


def test_rejects_wrong_multiplier_count():
    with pytest.raises(ConfigError):
        RingConfig.from_mapping({"d": 3, "automorphism": {"diag": ["2", "3"]}}).validate()


def test_rejects_zero_multiplier():
    with pytest.raises(ConfigError):
        RingConfig.from_mapping({"d": 2, "automorphism": {"diag": ["0", "3"]}}).validate()


def test_rejects_zero_point():
    with pytest.raises(ConfigError):
        RingConfig.from_mapping({"d": 2, "point": ["0", "0", "0"]}).validate()


def test_rejects_small_dimension():
    with pytest.raises(ConfigError):
        RingConfig.from_mapping({"d": 1, "automorphism": {"diag": ["2"]}}).validate()


def test_rejects_bad_field_name():
    with pytest.raises(ConfigError):
        RingConfig.from_mapping({"d": 2, "field": "real"}).validate()


def test_rejects_bad_trailing_zeros():
    with pytest.raises(ConfigError):
        RingConfig.from_mapping({"d": 2, "max_degree": 4, "trailing_zeros": 9}).validate()


def test_updated_overrides():
    # what the command line passes for --p 2,5 --max-degree 7
    cfg = RingConfig().updated({"automorphism": {"diag": "2,5"}, "max_degree": 7}).validate()
    assert cfg.multipliers == (Fraction(2), Fraction(5))
    assert cfg.max_degree == 7
    # untouched fields survive
    assert cfg.point == (Fraction(1), Fraction(1), Fraction(1))


def test_from_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "d": 2,
                "automorphism": {"diag": ["2", "3"]},
                "point": ["1", "1", "1"],
                "max_degree": 5,
            }
        )
    )
    cfg = RingConfig.from_file(str(path)).validate()
    assert cfg.max_degree == 5


def test_from_file_missing(tmp_path):
    with pytest.raises(ConfigError):
        RingConfig.from_file(str(tmp_path / "nope.json"))


def test_from_file_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        RingConfig.from_file(str(path))


def test_canonical_text_is_stable():
    a = RingConfig().validate().canonical_text()
    b = RingConfig().validate().canonical_text()
    assert a == b
    assert json.loads(a)["d"] == 2


def test_build_prime_field_instance():
    cfg = RingConfig.from_mapping({"d": 2, "field": "prime:10007"}).validate()
    inst = cfg.build()
    assert inst.field.char == 10007
    assert not inst.rational


def test_build_rejects_multiplier_vanishing_in_field():
    cfg = RingConfig.from_mapping(
        {"d": 2, "field": "prime:7", "automorphism": {"diag": ["7", "3"]}}
    ).validate()
    with pytest.raises(ConfigError):
        cfg.build()


def test_payload_uses_strings_for_fractions():
    payload = RingConfig().validate().payload()
    assert payload["automorphism"]["diag"] == ["2", "3"]
    assert payload["point"] == ["1", "1", "1"]
