"""The verification suite: regimes, statuses, and determinism of payloads."""

import json
import marshal
import os
import select
import subprocess
import sys
import pytest

from idealizer import suite
from idealizer.cli import main
from idealizer.config import RingConfig
from idealizer.report import json_text
from idealizer.suite import run_suite, second_prime

CHECK_ORDER = [
    "twist-normalization-pin",
    "twist-associativity",
    "opposite-ring-transport",
    "orbit-distinct-window",
    "multiplier-independence",
    "general-position-ranks",
    "idealizer-structure",
    "hilbert-s-mod-t",
    "hilbert-s-mod-is",
    "generator-degrees",
    "veronese-generation",
    "veronese-idealizer-agreement",
    "koszul-acyclicity",
    "ext-top-twisted",
    "euler-identity",
    "hom-quotient-tables",
    "right-noetherian-probes",
    "chi-sample",
    "segre-local-witness",
    "segre-diagonal-dim",
    "segre-witness",
    "prime-mode-crosscheck",
]


def _report(**overrides):
    data = {"d": 2, "max_degree": 6, "trailing_zeros": 2}
    data.update(overrides)
    cfg = RingConfig.from_mapping(data).validate()
    return run_suite(cfg.build())


@pytest.fixture(scope="module")
def generic():
    return _report()


def test_check_names_fixed_order(generic):
    assert [c.name for c in generic.checks] == CHECK_ORDER


def test_generic_regime_all_green(generic):
    assert generic.ok
    by_name = {c.name: c for c in generic.checks}
    assert by_name["twist-normalization-pin"].status == "pass"
    assert by_name["idealizer-structure"].status == "pass"
    assert by_name["multiplier-independence"].status == "pass"
    assert by_name["right-noetherian-probes"].status == "pass"
    assert by_name["orbit-distinct-window"].status == "observed"
    assert by_name["orbit-distinct-window"].data["distinct"] is True
    assert by_name["prime-mode-crosscheck"].status == "skipped"


def test_identity_regime_degenerates_cleanly():
    rep = _report(automorphism={"diag": ["1", "1"]})
    assert rep.ok
    by_name = {c.name: c for c in rep.checks}
    assert by_name["orbit-distinct-window"].data["identity_automorphism"] is True
    assert by_name["orbit-distinct-window"].data["distinct"] is False
    # T = S when phi is trivial
    assert by_name["idealizer-structure"].status == "pass"
    assert by_name["right-noetherian-probes"].status == "skipped"
    assert by_name["chi-sample"].status == "skipped"


def test_dependent_multipliers_skip_density_checks():
    rep = _report(automorphism={"diag": ["2", "4"]})
    assert rep.ok
    by_name = {c.name: c for c in rep.checks}
    cert = by_name["multiplier-independence"]
    assert cert.status == "pass"
    assert cert.data["verdict"] == "dependent"
    assert cert.data["relation"] == [2, -1]
    for name in ("general-position-ranks", "hom-quotient-tables", "chi-sample"):
        assert by_name[name].status == "skipped"
    # probes only need a distinct window, which (2, 4) still provides
    assert by_name["right-noetherian-probes"].status == "pass"


MATRIX_REASON = "automorphism given as a matrix"
DENSITY_REASON = (
    "multipliers are not certified multiplicatively independent, so "
    "density-based statements do not apply"
)


def test_matrix_automorphism_skips_diagonal_and_density_checks():
    rep = _report(
        automorphism={"matrix": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]}
    )
    assert rep.ok
    by_name = {c.name: c for c in rep.checks}
    for name, reason in (
        ("twist-normalization-pin", MATRIX_REASON),
        ("multiplier-independence", MATRIX_REASON),
        ("general-position-ranks", DENSITY_REASON),
        ("hom-quotient-tables", DENSITY_REASON),
        ("chi-sample", DENSITY_REASON),
    ):
        assert by_name[name].status == "skipped", name
        assert by_name[name].data["reason"] == reason, name
    assert by_name["idealizer-structure"].status == "pass"


STRUCTURE_REASON = "orbit points collide in the window without phi being the identity"
DENSITY_CHECKS = ("general-position-ranks", "hom-quotient-tables", "chi-sample")


def test_residual_point_skips_density_checks():
    # (1:0:0) is fixed by phi, so the orbit collides although the
    # multipliers are certified independent
    rep = _report(point=["1", "0", "0"], max_degree=5, trailing_zeros=3)
    assert rep.ok
    by_name = {c.name: c for c in rep.checks}
    assert by_name["multiplier-independence"].data["verdict"] == "independent"
    for name in DENSITY_CHECKS:
        assert by_name[name].status == "skipped", name
        assert by_name[name].data["reason"] == STRUCTURE_REASON, name


def test_prime_field_collision_skips_density_checks():
    # 2 and 3 have finite order mod 5, so the orbit collides in the window
    rep = _report(
        field="prime:5",
        point=["1", "2", "3"],
        automorphism={"diag": ["2", "3"]},
        max_degree=4,
        trailing_zeros=3,
    )
    by_name = {c.name: c for c in rep.checks}
    assert by_name["orbit-distinct-window"].data["distinct"] is False
    for name in DENSITY_CHECKS:
        assert by_name[name].status == "skipped", name
        assert by_name[name].data["reason"] == STRUCTURE_REASON, name
    # the second prime sees a distinct orbit, so its dims answer another regime
    assert not [c.name for c in rep.checks if c.status == "fail"]
    assert by_name["prime-mode-crosscheck"].status == "skipped"


HYPERPLANE_REASON = (
    "the point has a coordinate that is zero in the field in use, so its "
    "orbit stays in a coordinate hyperplane"
)


@pytest.mark.parametrize(
    "argv",
    [
        ("--p", "2,3", "--point", "0,1,1", "--max-degree", "6"),
        # 10007 vanishes only in the field the arithmetic runs in
        ("--field", "prime:10007", "--point", "10007,1,1", "--max-degree", "6"),
    ],
)
def test_point_on_coordinate_hyperplane_skips_density_checks(capsys, argv):
    # the orbit is pairwise distinct but never leaves x0 = 0
    assert main(["verify-suite", "--format", "json", *argv]) == 0
    by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert by_name["orbit-distinct-window"]["data"]["distinct"] is True
    for name in DENSITY_CHECKS:
        assert by_name[name]["status"] == "skipped", name
        assert by_name[name]["data"]["reason"] == HYPERPLANE_REASON, name


def test_crosscheck_skips_when_config_degenerates_mod_second_prime(monkeypatch):
    monkeypatch.setattr(suite, "second_prime", lambda instance: 11)
    rep = _report(field="prime:10007", automorphism={"diag": ["2", "11"]}, max_degree=3)
    cross = {c.name: c for c in rep.checks}["prime-mode-crosscheck"]
    assert cross.status == "skipped"
    assert cross.data["reason"].startswith("second prime unusable")


def test_crosscheck_skips_when_primes_decide_regime_differently(capsys):
    # mod 5 the orbit collides (dim T_4 = 15); mod 15727 it does not (14)
    argv = ["--field", "prime:5", "--point", "1,2,3", "--p", "2,3", "--max-degree", "4"]
    assert main(["verify-suite", "--format", "json", *argv]) == 0
    by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    cross = by_name["prime-mode-crosscheck"]
    assert cross["status"] == "skipped"
    assert cross["data"]["reason"] == "the distinct gate is unmet mod 5 but met mod 15727"


def test_short_window_skips_trailing_zero_checks(capsys):
    # degrees 0 and 1 never vanish, so N = 3 leaves room for 2 trailing zeros, not 3
    argv = ["--d", "3", "--p", "2,3,5", "--point", "1,1,1,1", "--max-degree", "3"]
    assert main(["verify-suite", "--format", "json", *argv]) == 0
    by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    for name in ("hilbert-s-mod-is", "generator-degrees"):
        assert by_name[name]["status"] == "skipped", name
        assert by_name[name]["data"]["reason"] == (
            "the window leaves 2 degrees after degree 1, fewer than the 3 "
            "trailing zero degrees required"
        )
    assert by_name["idealizer-structure"]["status"] == "pass"


def test_generator_window_leaves_room_after_degree_two(capsys):
    # degree 2 holds a new generator, so N = 4 leaves room for 2 trailing zeros, not 3
    assert main(["verify-suite", "--format", "json", "--max-degree", "4"]) == 0
    by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert by_name["hilbert-s-mod-is"]["status"] == "observed"
    assert by_name["generator-degrees"]["status"] == "skipped"
    assert by_name["generator-degrees"]["data"]["reason"] == (
        "the window leaves 2 degrees after degree 2, fewer than the 3 "
        "trailing zero degrees required"
    )


@pytest.mark.parametrize("max_degree", [1, 2])
def test_unset_tail_fits_a_short_window(capsys, max_degree):
    # the default tail of 3 shrinks to N; the window gates then skip
    assert main(["verify-suite", "--format", "json", "--max-degree", str(max_degree)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["trailing_zeros"] == max_degree
    by_name = {c["name"]: c for c in payload["checks"]}
    for name in ("hilbert-s-mod-is", "generator-degrees"):
        assert by_name[name]["status"] == "skipped", name
    # an explicit tail beyond the window is still a usage error
    argv = ["--max-degree", str(max_degree), "--trailing-zeros", "3"]
    assert main(["verify-suite", "--format", "json", *argv]) == 2


def test_rank_drop_mod_p_is_observed(capsys):
    # mod 7 the six orbit points c_-3..c_2 of (1:1:1) lie on a conic
    argv = ["--field", "prime:7", "--p", "-3,-2", "--point", "1,1,1"]
    argv += ["--max-degree", "1", "--trailing-zeros", "1"]
    assert main(["verify-suite", "--format", "json", *argv]) == 0
    by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    check = by_name["general-position-ranks"]
    assert check["status"] == "observed"
    assert [r["rank"] for r in check["data"]["ranks"]] == [3, 5]


def test_prime_mode_runs_crosscheck():
    rep = _report(field="prime:10007", max_degree=5)
    by_name = {c.name: c for c in rep.checks}
    cross = by_name["prime-mode-crosscheck"]
    assert cross.status == "observed"
    assert cross.data["agree"] is True
    assert len(cross.data["primes"]) == 2
    assert rep.ok


def test_second_prime_is_deterministic_and_distinct():
    cfg = RingConfig.from_mapping({"d": 2, "field": "prime:10007"}).validate()
    inst = cfg.build()
    p = second_prime(inst)
    assert p == second_prime(inst)
    assert p != 10007
    assert p > 10007


def test_payload_serializes_and_is_stable(generic):
    first = json_text(generic.payload())
    again = json_text(_report().payload())
    assert first == again


def test_every_observed_check_carries_window(generic):
    for c in generic.checks:
        if c.status == "observed":
            assert c.window and "max_degree" in c.window


def test_ext_top_twisted_reuses_the_koszul_ranks(monkeypatch):
    """The free module's ranks live on the zero ideal, so ext-top-twisted
    ranks nothing after koszul-acyclicity; run alone it does rank."""
    from idealizer import ext

    bodies = {name: body for name, _, _, body in suite.CHECKS}
    instance = RingConfig.from_mapping({"d": 2, "max_degree": 5}).validate().build()
    calls = []
    real = ext.rank_rows
    monkeypatch.setattr(ext, "rank_rows", lambda *args: calls.append(args) or real(*args))

    alone = suite._Context(instance)
    assert bodies["ext-top-twisted"](alone)[0] == "pass"
    assert calls

    ctx = suite._Context(instance)
    assert bodies["koszul-acyclicity"](ctx)[0] == "pass"
    calls.clear()
    assert bodies["ext-top-twisted"](ctx)[0] == "pass"
    assert not calls


def test_chi_sample_reuses_the_free_ranks(monkeypatch):
    """chi-sample's zero row is U, ranked on the zero ideal, so after
    koszul-acyclicity and ext-top-twisted it reads no cochain row of it;
    run alone it does, and after them it still reads its other samples."""
    from idealizer import ext

    bodies = {name: body for name, _, _, body in suite.CHECKS}
    instance = RingConfig.from_mapping({"d": 2, "max_degree": 5}).validate().build()
    read = []
    real = ext.KoszulComplex.cochain_matrix

    def recording(self, J, i, n):
        for row in real(self, J, i, n):
            read.append(J)
            yield row

    monkeypatch.setattr(ext.KoszulComplex, "cochain_matrix", recording)
    alone = suite._Context(instance)
    bodies["chi-sample"](alone)
    assert any(J is alone.zero_ideal for J in read)

    ctx = suite._Context(instance)
    for name in ("koszul-acyclicity", "ext-top-twisted"):
        assert bodies[name](ctx)[0] == "pass"
    read.clear()
    bodies["chi-sample"](ctx)
    assert read
    assert not any(J is ctx.zero_ideal for J in read)


# -- the groups of checks, claimed by the parent and one forked worker ----------

SEED0_CONFIGS = {
    "ref-q": {"d": 2, "max_degree": 10},
    "wide-q": {
        "d": 3,
        "automorphism": {"diag": ["2", "3", "5"]},
        "point": ["1"] * 4,
        "max_degree": 5,
    },
    "deep-gf": {"d": 2, "max_degree": 14, "field": "prime:10007"},
    "matrix": {
        "automorphism": {"matrix": [["1", "1", "0"], ["0", "2", "1"], ["1", "0", "3"]]},
        "point": ["1", "2", "3"],
        "max_degree": 6,
    },
}


def _cpus(monkeypatch, count):
    """Let run_suite see ``count`` usable CPUs, and count its forks."""
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("name", sorted(SEED0_CONFIGS))
def test_forked_and_inline_runs_give_the_same_bytes(monkeypatch, name):
    instance = RingConfig.from_mapping(SEED0_CONFIGS[name]).validate().build()
    forks = _cpus(monkeypatch, 2)
    fds = _open_fds()
    forked = json_text(run_suite(instance).payload())
    assert forks == [1]
    _no_child_left()
    assert _open_fds() == fds
    forks = _cpus(monkeypatch, 1)
    inline = json_text(run_suite(instance).payload())
    assert forks == []
    assert forked == inline


def test_failed_fork_runs_every_check_inline(monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    instance = RingConfig.from_mapping(SEED0_CONFIGS["ref-q"]).validate().build()
    inline = json_text(run_suite(instance).payload())
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    fds = _open_fds()
    assert json_text(run_suite(instance).payload()) == inline
    assert _open_fds() == fds


def test_raising_worker_body_raises_in_the_parent(monkeypatch):
    def broken(*args):
        raise ArithmeticError("associativity broke")

    monkeypatch.setattr(suite, "associativity_sample", broken)
    forks = _cpus(monkeypatch, 2)
    instance = RingConfig.from_mapping({"d": 2, "max_degree": 3}).validate().build()
    fds = _open_fds()
    with pytest.raises(ArithmeticError, match="associativity broke"):
        run_suite(instance)
    assert forks == [1]
    _no_child_left()
    assert _open_fds() == fds


def test_raising_parent_check_leaves_no_worker(monkeypatch):
    def broken(*args):
        raise ArithmeticError("segre broke")

    monkeypatch.setattr(suite, "local_witness_check", broken)
    forks = _cpus(monkeypatch, 2)
    instance = RingConfig.from_mapping({"d": 2, "max_degree": 3}).validate().build()
    fds = _open_fds()
    with pytest.raises(ArithmeticError, match="segre broke"):
        run_suite(instance)
    assert forks == [1]
    _no_child_left()
    assert _open_fds() == fds


@pytest.mark.parametrize("path", ["forked", "inline", "failed-fork"])
def test_first_raising_check_surfaces_on_every_path(monkeypatch, path):
    """twist-associativity precedes segre-local-witness in CHECKS, so its
    exception surfaces, whichever process ran either body."""

    def broken(what):
        def raising(*args):
            raise ArithmeticError("%s broke" % what)

        return raising

    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(suite, "associativity_sample", broken("associativity"))
    monkeypatch.setattr(suite, "local_witness_check", broken("segre"))
    forks = _cpus(monkeypatch, 1 if path == "inline" else 2)
    if path == "failed-fork":
        monkeypatch.setattr(os, "fork", no_fork)
    instance = RingConfig.from_mapping({"d": 2, "max_degree": 3}).validate().build()
    fds = _open_fds()
    with pytest.raises(ArithmeticError, match="associativity broke"):
        run_suite(instance)
    assert forks == ([1] if path == "forked" else [])
    _no_child_left()
    assert _open_fds() == fds


def test_unflushed_stdout_appears_once():
    # the worker inherits the parent's stdout buffer; leaving through
    # os._exit, it never flushes that buffer a second time
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "fork = os.fork\n"
        "os.fork = lambda: sys.stderr.write('fork\\n') and fork()\n"
        "from idealizer.config import RingConfig\n"
        "from idealizer.suite import run_suite\n"
        "sys.stdout.write('written before the run\\n')\n"
        "run_suite(RingConfig.from_mapping({'d': 2, 'max_degree': 3}).validate().build())\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # stdout into a pipe must stay block-buffered
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=120
    )
    assert out.stderr == "fork\n"
    assert out.stdout == "written before the run\n"


REGIME_CONFIGS = {
    "identity": {"d": 2, "max_degree": 6, "automorphism": {"diag": ["1", "1"]}},
    "dependent": {"d": 2, "max_degree": 6, "automorphism": {"diag": ["2", "4"]}},
    "residual": {"d": 2, "max_degree": 5, "trailing_zeros": 3, "point": ["1", "0", "0"]},
    "matrix": {
        "d": 2,
        "max_degree": 6,
        "automorphism": {"matrix": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]},
    },
    "prime": {"d": 2, "max_degree": 6, "field": "prime:10007"},
}

# fractional multipliers: the pin's raw p1 is a Fraction, which marshal rejects
FRACTIONAL_CONFIG = {
    "d": 2,
    "automorphism": {"diag": ["1/2", "2/3"]},
    "point": ["2", "3", "5"],
    "max_degree": 10,
}


def test_groups_partition_the_checks():
    """The groups derived from the registry, in the order whose split of a
    run across two processes ``BENCH_groups.json`` measured."""
    assert suite.GROUPS == (
        (
            "idealizer-structure",
            "hilbert-s-mod-t",
            "hilbert-s-mod-is",
            "generator-degrees",
            "veronese-generation",
            "veronese-idealizer-agreement",
            "right-noetherian-probes",
            "prime-mode-crosscheck",
        ),
        (
            "koszul-acyclicity",
            "ext-top-twisted",
            "euler-identity",
            "hom-quotient-tables",
            "chi-sample",
        ),
        ("twist-associativity",),
        ("opposite-ring-transport",),
        ("segre-local-witness", "segre-diagonal-dim", "segre-witness"),
        (
            "twist-normalization-pin",
            "orbit-distinct-window",
            "multiplier-independence",
            "general-position-ranks",
        ),
    )
    names = [name for group in suite.GROUPS for name in group]
    assert sorted(names) == sorted(CHECK_ORDER)
    assert len(names) == len(set(names))


def _runnable(ctx, group):
    """The (name, body) pairs of ``group`` whose gates ctx meets, gates
    decided on ctx as run_suite decides them before it forks."""
    checks = {name: (requires, body) for name, _, requires, body in suite.CHECKS}
    return [
        (name, checks[name][1]) for name in group if suite._unmet(ctx, checks[name][0]) is None
    ]


@pytest.mark.parametrize("config", ["deep-gf", "wide-q"])
def test_ext_and_idealizer_groups_share_no_work(monkeypatch, config):
    """Run alone, the Ext group builds no piece of T, IS or a point ideal,
    and the idealizer group ranks no Koszul differential."""
    from idealizer import ext, idealizer_ring, twist

    calls = {}
    for owner, attr in (
        (idealizer_ring.IdealizerRing, "idealizer_piece"),
        (idealizer_ring.IdealizerRing, "is_piece"),
        (twist.PointIdeal, "_build_piece"),
        (ext.KoszulComplex, "rank"),
    ):
        real = getattr(owner, attr)

        def counting(*args, _real=real, _attr=attr):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _real(*args)

        monkeypatch.setattr(owner, attr, counting)

    idealizer_group, ext_group = suite.GROUPS[:2]
    assert "koszul-acyclicity" in ext_group and "idealizer-structure" in idealizer_group
    seen = {}
    for label, group in (("ext", ext_group), ("idealizer", idealizer_group)):
        ctx = suite._Context(RingConfig.from_mapping(SEED0_CONFIGS[config]).validate().build())
        bodies = _runnable(ctx, group)
        calls.clear()
        for name, body in bodies:
            assert body(ctx)[0] != "fail", name
        seen[label] = dict(calls)
    assert seen["ext"].get("rank")
    assert not {"idealizer_piece", "is_piece", "_build_piece"} & set(seen["ext"])
    assert seen["idealizer"].get("idealizer_piece") and seen["idealizer"].get("_build_piece")
    assert "rank" not in seen["idealizer"]


@pytest.mark.parametrize(
    "config",
    [SEED0_CONFIGS[name] for name in sorted(SEED0_CONFIGS)]
    + [REGIME_CONFIGS[name] for name in sorted(REGIME_CONFIGS)]
    + [FRACTIONAL_CONFIG],
    ids=sorted(SEED0_CONFIGS)
    + ["regime-" + name for name in sorted(REGIME_CONFIGS)]
    + ["fractional"],
)
def test_every_result_survives_marshal(config):
    """Any check may run in the worker, whose results come back marshalled;
    one that did not survive would silently run again in the parent."""
    ctx = suite._Context(RingConfig.from_mapping(config).validate().build())
    ran = 0
    for group in suite.GROUPS:
        for name, body in _runnable(ctx, group):
            result = suite._result(body, ctx)
            assert repr(marshal.loads(marshal.dumps(result))) == repr(result), name
            ran += 1
    assert ran


@pytest.mark.parametrize(
    "config", [SEED0_CONFIGS["ref-q"], FRACTIONAL_CONFIG], ids=["ref-q", "fractional"]
)
def test_parent_runs_no_body_the_worker_sent(monkeypatch, config):
    """The worker sends the result of every body it ran, Fraction data
    included, so the parent runs none of them again."""
    instance = RingConfig.from_mapping(config).validate().build()
    inline = json_text(run_suite(instance).payload())
    parent = os.getpid()
    ran_here, sent = [], {}
    ready_r, ready_w = os.pipe()

    def recording(name, body):
        def run(ctx):
            if os.getpid() != parent:
                os.write(ready_w, b".")
            else:
                if not ran_here:
                    # wait until the worker runs a body, so it surely claims a group
                    assert select.select([ready_r], [], [], 60)[0]
                ran_here.append(name)
            return body(ctx)

        return run

    real_join = suite._join_worker

    def join(*args):
        got = real_join(*args)
        sent.update(got)
        return got

    monkeypatch.setattr(
        suite,
        "CHECKS",
        [(name, st, req, recording(name, body)) for name, st, req, body in suite.CHECKS],
    )
    monkeypatch.setattr(suite, "_join_worker", join)
    forks = _cpus(monkeypatch, 2)
    try:
        forked = json_text(run_suite(instance).payload())
    finally:
        os.close(ready_r)
        os.close(ready_w)
    assert forks == [1]
    assert forked == inline
    assert sent
    assert not set(ran_here) & set(sent)
    assert len(ran_here) == len(set(ran_here))
    ctx = suite._Context(instance)
    runnable = [name for group in suite.GROUPS for name, _ in _runnable(ctx, group)]
    assert sorted(ran_here + list(sent)) == sorted(runnable)
