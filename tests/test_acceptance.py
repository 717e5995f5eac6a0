"""Acceptance gate: thirteen go/no-go criteria on the reference instance.

Reference instance: three variables, diagonal family (2, 3), base point
(1 : 1 : 1), rational field, window degree 10.  Each criterion prints one
PASS/FAIL line (run pytest with -s or -v to see them) and asserts.
"""

import math

import pytest
from oracles import brute_force_relation

from idealizer.automorphism import AutoMap, ProjPoint
from idealizer.config import RingConfig
from idealizer.ext import ExtEngine, euler_characteristic_check
from idealizer.fields import QQ
from idealizer.idealizer_ring import IdealizerRing
from idealizer.orbit import multiplicative_independence
from idealizer.poly import parse_poly
from idealizer.report import json_text
from idealizer.segre import SegreContext, local_witness_check
from idealizer.suite import run_suite
from idealizer.twist import GradedIdeal, TwistRing, associativity_sample, point_ideal_forms

N = 10


def _announce(num: int, ok: bool, label: str) -> None:
    print("%s  criterion %2d  %s" % ("PASS" if ok else "FAIL", num, label))
    assert ok, "criterion %d failed: %s" % (num, label)


@pytest.fixture(scope="module")
def instance():
    return RingConfig().validate().build()


@pytest.fixture(scope="module")
def engine(instance):
    return ExtEngine(instance.idealizer)


def test_criterion_01_idealizer_structure(instance):
    idl = instance.idealizer
    rec = idl.check_T_equals_k_plus_I(N)
    ok = rec["agrees"] and all(
        rec["dims"][n] == math.comb(n + 2, 2) - 1 for n in range(1, N + 1)
    )
    _announce(1, ok, "T_n equals I_n with dim C(n+2,2)-1 for 1 <= n <= 10")


def test_criterion_02_twist_law(instance):
    S = instance.ring
    x0, x1 = S.variable(0), S.variable(1)
    pin = S.mul(x1, x0) == S.mul(x0, x1).scale(QQ.from_int(2))
    assoc = associativity_sample(S, trials=200, seed=811)
    _announce(2, pin and assoc, "x1*x0 = 2*(x0*x1) and associativity on 200 triples")


def test_criterion_03_veronese_non_generation(instance):
    idl = instance.idealizer
    recs = [idl.veronese_gen_in_degree_one(n) for n in (1, 2, 3)]
    none_generated = not any(r["generated"] for r in recs)
    bound = recs[0]["product_dim"] <= 4 and recs[0]["target_dim"] == 5
    _announce(3, none_generated and bound, "no Veronese regenerates in degree one; dim T1*T1 <= 4 < 5")


def test_criterion_04_s_mod_is_vanishes(instance):
    dims = instance.idealizer.s_mod_is_dims(N)
    m0 = next((m for m in range(N + 1) if all(v == 0 for v in dims[m:])), None)
    ok = m0 is not None and m0 <= N and N - m0 + 1 >= 3
    phi1 = AutoMap.identity(3, QQ)
    ring1 = TwistRing(2, phi1, QQ)
    control = IdealizerRing(ring1, ProjPoint.make([QQ.one] * 3, QQ))
    ok = ok and control.s_mod_is_dims(6) == [1] * 7
    _announce(4, ok, "S/IS vanishes from observed m0 with 3 trailing zeros; identity control constant 1")


def test_criterion_05_s_mod_t_constant_one(instance):
    dims = instance.idealizer.s_mod_t_dims(N)
    ok = dims[0] == 0 and dims[1:] == [1] * N
    _announce(5, ok, "dim (S/T)_n = 1 exactly for 1 <= n <= 10")


def test_criterion_06_critical_density_certificates():
    c23 = multiplicative_independence((2, 3))
    c24 = multiplicative_independence((2, 4))
    c236 = multiplicative_independence((2, 3, 6))
    ok = (
        c23.verdict == "independent"
        and c24.verdict == "dependent"
        and c24.relation_verified
        and c236.verdict == "dependent"
        and c236.relation_verified
    )
    for ms, cert in (((2, 3), c23), ((2, 4), c24), ((2, 3, 6), c236)):
        brute = brute_force_relation(ms)
        if cert.verdict == "independent":
            ok = ok and brute is None
        else:
            rel = cert.relation
            ok = ok and brute is not None and all(
                rel[i] * brute[j] == rel[j] * brute[i]
                for i in range(len(rel))
                for j in range(len(rel))
            )
    _announce(6, ok, "(2,3) independent; (2,4) and (2,3,6) dependent, verified; brute force agrees")


def test_criterion_07_koszul_chi_witnesses(engine):
    U = GradedIdeal(engine.idealizer.ring, [])
    acyclic = all(
        engine.koszul.ext(U, i, n) == 0 for i in (0, 1) for n in range(-3, N + 1)
    )
    zero = GradedIdeal(engine.idealizer.ring, [])
    top = all(engine.ext_S_twisted(2, zero, n) == 1 for n in range(N + 1))
    ring = engine.idealizer.ring
    ideals = [
        U,
        GradedIdeal(ring, engine.idealizer.forms),
        GradedIdeal(ring, [ring.variable(i) for i in range(3)]),
    ]
    euler = all(
        lhs == rhs
        for J in ideals
        for n in range(-3, 4)
        for lhs, rhs in [euler_characteristic_check(engine.koszul, J, n)]
    )
    _announce(7, acyclic and top and euler, "Koszul acyclic below top; top twisted ext constant 1; Euler identity exact")


def test_criterion_08_left_noetherian_hom_totals(engine):
    ring = engine.idealizer.ring
    orbit5 = GradedIdeal(ring, [ring.power(5).apply(f) for f in engine.idealizer.forms])
    t_orbit = engine.hom_table(orbit5, N)
    off = GradedIdeal(
        ring,
        point_ideal_forms(ring, ProjPoint.make([QQ.from_int(v) for v in (1, 5, 7)], QQ)),
    )
    t_off = engine.hom_table(off, N)
    mx = GradedIdeal(ring, [ring.variable(i) for i in range(3)])
    t_max = engine.hom_table(mx, N)
    ok = (
        t_orbit == [1 if n == 5 else 0 for n in range(N + 1)]
        and t_off == [0] * (N + 1)
        and t_max == [1] + [0] * N
        and all(v == 0 for v in t_orbit[-3:])
    )
    _announce(8, ok, "hom totals: orbit ideal 1 at n=5, off-orbit 0, maximal ideal 1 at n=0")


def test_criterion_09_right_noetherian_probes(engine):
    f1 = parse_poly("x0 - 2*x1 + x2", 3, QQ)
    f2 = parse_poly("x0 - x1", 3, QQ)
    r1 = engine.right_noeth_probe(f1, N)
    r2 = engine.right_noeth_probe(f2, N)
    ok = (
        r1["support"] == [1, 2]
        and r1["coker_total"] == 2
        and r2["support"] == [1]
        and r2["coker_total"] == 1
        and r1["support_matches"]
        and r2["support_matches"]
    )
    _announce(9, ok, "probe supports {1,2} and {1} match orbit vanishing exactly")


def test_criterion_10_segre_witness():
    local = all(local_witness_check(d, QQ)["ok"] for d in (2, 3))
    ctx = SegreContext(2, QQ)
    rec = ctx.witness_dims(6)
    positive = all(rec["witness_dims"][m] >= 1 for m in range(2, 7))
    diag = ctx.diagonal_ideal_piece(1).dim == 3
    _announce(10, local and positive and diag, "local witness holds; (J meet K)/(J*K) nonzero through degree 6; dim J1 = 3")


def test_criterion_11_opposite_ring(instance):
    ok, checked, first_bad = instance.ring.opposite_iso_check(6)
    _announce(11, ok and first_bad is None, "opposite-ring transport identity exhaustive through total degree 6")


def test_criterion_12_veronese_idealizer_agreement(instance):
    rec = instance.idealizer.veronese_idealizer_compare(2, 6)
    D = rec["least_agreement_degree"]
    ok = D is not None and all(rec["agree"][D:])
    _announce(12, ok, "square Veronese of T agrees with the idealizer inside S^(2) from degree D on")


def test_criterion_13_determinism(instance):
    first = json_text(run_suite(instance).payload())
    second = json_text(run_suite(instance).payload())
    _announce(13, first == second, "verify-suite output is byte-identical across runs")
