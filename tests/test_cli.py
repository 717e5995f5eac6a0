"""Command-line interface: payload shapes, exit codes, determinism."""

import contextlib
import io
import json

from oracles import brute_force_relation
from properties import FIELDS, property_test

from idealizer import orbit
from idealizer.cli import _parse_ideal, main
from idealizer.config import RingConfig


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, _ = _run(capsys, *argv)
    return code, json.loads(out)


COMMON = ("--max-degree", "6")


def test_verify_suite_default_passes(capsys):
    code, payload = _run_json(capsys, "verify-suite", *COMMON)
    assert code == 0
    assert payload["ok"] is True
    assert payload["schema"] == "idealizer-report/1"
    assert payload["counts"]["fail"] == 0
    names = [c["name"] for c in payload["checks"]]
    assert names[0] == "twist-normalization-pin"
    assert "segre-witness" in names


def test_verify_suite_csv_format(capsys):
    code, out, _ = _run(capsys, "verify-suite", "--format", "csv", *COMMON)
    assert code == 0
    lines = out.split("\n")
    assert lines[0].startswith("# schema:")
    assert "check,status" in lines
    assert any(line.startswith("twist-associativity,") for line in lines)


def test_hilbert_series_t(capsys):
    code, out, _ = _run(capsys, "hilbert", "--series", "T", *COMMON)
    assert code == 0
    rows = [line for line in out.split("\n") if line and not line.startswith("#")]
    assert rows[0] == "degree,dim"
    assert rows[1:] == ["0,1", "1,2", "2,5", "3,9", "4,14", "5,20", "6,27"]


def test_hilbert_series_s_mod_t_json(capsys):
    code, payload = _run_json(
        capsys, "hilbert", "--series", "S_mod_T", "--format", "json", *COMMON
    )
    assert code == 0
    assert payload["series"] == "S_mod_T"
    assert [r[1] for r in payload["rows"]] == [0, 1, 1, 1, 1, 1, 1]


def test_idealizer_gens(capsys):
    code, out, _ = _run(capsys, "idealizer-gens", *COMMON)
    assert code == 0
    rows = [line for line in out.split("\n") if line and not line.startswith("#")]
    assert rows[1] == "1,2"
    assert rows[2] == "2,1"
    assert rows[3] == "3,0"


def test_critdense_independent(capsys):
    code, payload = _run_json(capsys, "critdense")
    assert code == 0
    assert payload["certificate"]["verdict"] == "independent"


def test_critdense_dependent_with_relation(capsys):
    code, payload = _run_json(capsys, "critdense", "--p", "2,4")
    assert code == 0
    cert = payload["certificate"]
    assert cert["verdict"] == "dependent"
    assert cert["relation"] == [2, -1]
    assert cert["relation_verified"] is True


def test_negative_multipliers_as_separate_token(capsys):
    code, payload = _run_json(capsys, "critdense", "--p", "-1,3", "--max-degree", "3")
    assert code == 0
    assert payload["config"]["automorphism"]["diag"] == ["-1", "3"]
    assert payload["certificate"]["relation"] == [2, 0]


def test_negative_point_as_separate_token(capsys):
    code, payload = _run_json(
        capsys, "hilbert", "--series", "T", "--point", "-1,2,3", "--format", "json", *COMMON
    )
    assert code == 0
    assert payload["config"]["point"] == ["-1", "2", "3"]
    assert [r[1] for r in payload["rows"]] == [1, 2, 5, 9, 14, 20, 27]


def test_critdense_window_evidence(capsys):
    code, payload = _run_json(capsys, "critdense", "--window", "4", "--degree", "2")
    assert code == 0
    ev = payload["window_evidence"]
    assert ev["distinct"] is True
    assert all(r["full"] for r in ev["ranks"])


def test_probe_two_point_vanishing(capsys):
    code, payload = _run_json(capsys, "probe", "--f", "x0 - 2*x1 + x2")
    assert code == 0
    assert payload["support"] == [1, 2]
    assert payload["totals"] == {"coker": 2, "torsion": 1}


def test_probe_rejects_non_member(capsys):
    code, out, err = _run(capsys, "probe", "--f", "x0 + x1")
    assert code == 2
    assert "config error" in err


def test_ext_table_zero_ideal(capsys):
    code, out, _ = _run(capsys, "ext-table", "--J", "0", "--max-degree", "4")
    assert code == 0
    rows = [line for line in out.split("\n") if line and not line.startswith("#")]
    # top row: constant 1 from degree -d on
    assert rows[-1] == "2,0,0,1,1,1,1,1,1,1"
    assert rows[1] == "0,0,0,0,0,0,0,0,0,0"


def test_hom_table_orbit_ideal(capsys):
    code, out, _ = _run(capsys, "hom-table", "--J", "orbit:3", *COMMON)
    assert code == 0
    rows = [line for line in out.split("\n") if line and not line.startswith("#")]
    assert rows[1:] == ["0,0", "1,0", "2,0", "3,1", "4,0", "5,0", "6,0"]
    assert "# total: 1" in out


def test_hom_table_far_orbit_ideal(capsys):
    """c_3000 is one more point: no automorphism power is taken."""
    code, out, _ = _run(capsys, "hom-table", "--J", "orbit:3000", "--max-degree", "2")
    assert code == 0
    rows = [line for line in out.split("\n") if line and not line.startswith("#")]
    assert rows[1:] == ["0,0", "1,0", "2,0"]


def test_orbit_spec_walks_one_side(monkeypatch):
    """orbit:k takes |k| steps on k's side and reads the point of the window."""
    instance = RingConfig().build()
    steps = []

    def counted(name):
        real = getattr(orbit, name)

        def step(auto, pt):
            steps.append(name)
            return real(auto, pt)

        return step

    for name in ("point_image", "pullback_point"):
        monkeypatch.setattr(orbit, name, counted(name))
    for k in (-5, -1, 0, 3, 7):
        window = orbit.orbit_points(instance.ring.phi, instance.point, abs(k))
        steps.clear()
        J, label = _parse_ideal(instance, "orbit:%d" % k)
        assert label == "orbit:%d" % k
        assert J.point == window.points[k]
        side = "pullback_point" if k > 0 else "point_image"
        assert steps == [side] * abs(k)


def test_hom_table_point_spec(capsys):
    code, out, _ = _run(capsys, "hom-table", "--J", "point:1,5,7", *COMMON)
    assert code == 0
    assert "# total: 0" in out


def test_hom_table_gens_spec(capsys):
    code, out, _ = _run(
        capsys, "hom-table", "--J", "gens:x0 - x1;x0 - x2", "--max-degree", "4"
    )
    assert code == 0
    assert "# total: 1" in out


def test_bad_ideal_spec_exits_two(capsys):
    code, out, err = _run(capsys, "hom-table", "--J", "orbit:x", *COMMON)
    assert code == 2
    assert "config error" in err


def test_segre_witness(capsys):
    code, out, _ = _run(capsys, "segre", "--max-degree", "4")
    assert code == 0
    rows = [line for line in out.split("\n") if line and not line.startswith("#")]
    assert rows[0] == "m,witness_dim,meet_dim,product_dim"
    assert rows[1] == "1,1,1,0"
    assert rows[2] == "2,1,13,12"


def test_opposite_check(capsys):
    code, payload = _run_json(capsys, "opposite-check", "--total-degree", "4")
    assert code == 0
    assert payload["ok"] is True
    assert payload["checked_pairs"] == 210


def test_veronese(capsys):
    code, payload = _run_json(capsys, "veronese", "--n", "2", *COMMON)
    assert code == 0
    assert payload["generated_in_degree_one"]["generated"] is False
    assert payload["idealizer_agreement"]["least_agreement_degree"] == 0


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = _run(capsys, "hilbert", "--series", "T", "--out", str(target), *COMMON)
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("# schema:")


def test_determinism_byte_identical(capsys):
    _, first, _ = _run(capsys, "verify-suite", *COMMON)
    _, second, _ = _run(capsys, "verify-suite", *COMMON)
    assert first == second


def test_bad_field_exits_two(capsys):
    code, out, err = _run(capsys, "verify-suite", "--field", "prime:9")
    assert code == 2
    assert "config error" in err


def test_missing_config_file_exits_two(capsys, tmp_path):
    code, out, err = _run(capsys, "hilbert", "--series", "T", "--config", str(tmp_path / "x.json"))
    assert code == 2


def test_config_file_with_flag_override(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"d": 2, "max_degree": 9}))
    code, payload = _run_json(
        capsys, "hilbert", "--series", "T", "--config", str(path),
        "--max-degree", "3", "--format", "json",
    )
    assert code == 0
    # the flag wins over the file
    assert payload["config"]["max_degree"] == 3
    assert len(payload["rows"]) == 4


def test_suite_failure_maps_to_exit_one(capsys, monkeypatch):
    import idealizer.cli as cli_mod
    from idealizer.report import CheckRecord, VerificationReport

    def fake_suite(instance):
        return VerificationReport(
            instance.config.payload(),
            (CheckRecord("stub", "fail", "forced failure for exit-code wiring"),),
        )

    monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
    code, payload = _run_json(capsys, "verify-suite")
    assert code == 1
    assert payload["ok"] is False


# -- fuzz over small configs ------------------------------------------------------


def _generic(field, multipliers, point, max_degree, trailing):
    """A valid window, independent multipliers, nonzero coordinates, distinct orbit.

    With c0 fixed, c_n = c_m iff every multiplier has (n - m)-th power 1.
    """
    p = field.char
    if trailing > max_degree or brute_force_relation(multipliers) is not None:
        return False
    if any((c % p if p else c) == 0 for c in point):
        return False
    return not any(
        all((pow(m, k, p) if p else m**k) == 1 for m in multipliers)
        for k in range(1, 2 * max_degree + 1)
    )


@property_test(
    lambda st: st.tuples(
        st.sampled_from(FIELDS),
        st.lists(
            st.sampled_from((-3, -2, -1, 2, 3, 4, 5)), min_size=2, max_size=2, unique=True
        ),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        # trailing zeros up to one past the max degree, which is a usage error
        st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n + 1))),
    ),
    max_examples=20,
)
def test_small_configs_exit_cleanly(field, multipliers, point, window):
    """Every run exits 0, 1 or 2; a config meeting the generic gates exits 0."""
    max_degree, trailing = window
    argv = [
        "verify-suite",
        "--field", field.name,
        "--p", ",".join(map(str, multipliers)),
        "--point", ",".join(map(str, point)),
        "--max-degree", str(max_degree),
        "--trailing-zeros", str(trailing),
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if _generic(field, multipliers, point, max_degree, trailing):
        assert code == 0, (argv, out.getvalue())
