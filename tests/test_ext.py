"""Koszul cohomology, hom tables, noetherian probes, chi sampling.

Expected dimension tables were computed independently from the Koszul
definitions (rank counts of explicit cochain matrices) and frozen here.
"""

import pytest

from idealizer.automorphism import AutoMap, ProjPoint
from idealizer.ext import ExtEngine, KoszulComplex, QuotientModule, euler_characteristic_check
from idealizer.fields import QQ
from idealizer.idealizer_ring import IdealizerRing
from idealizer.linalg import rank_rows
from idealizer.poly import parse_poly
from idealizer.twist import GradedIdeal, PointIdeal, TwistRing, point_ideal_forms


def _instance():
    phi = AutoMap.diagonal_family([QQ.from_int(2), QQ.from_int(3)], QQ)
    ring = TwistRing(2, phi, QQ)
    c = ProjPoint.make([QQ.one, QQ.one, QQ.one], QQ)
    return IdealizerRing(ring, c)


@pytest.fixture(scope="module")
def engine():
    return ExtEngine(_instance())


def test_koszul_rejects_dependent_forms():
    f = parse_poly("x0 - x1", 3, QQ)
    with pytest.raises(ValueError):
        KoszulComplex([f, f.scale(QQ.from_int(2))], QQ)
    with pytest.raises(ValueError):
        KoszulComplex([parse_poly("x0^2", 3, QQ)], QQ)


def test_chain_complex_composes_to_zero(engine):
    kos = engine.koszul
    U = QuotientModule(GradedIdeal(engine.idealizer.ring, []))
    for n in (2, 3, 5):
        d2 = kos.cochain_matrix(U, 1, n)
        d1 = kos.cochain_matrix(U, 0, n)
        if not d2 or not d1:
            continue
        width = len(d1)
        composed = []
        for row in d2:
            out = [QQ.zero] * len(d1[0]) if d1 else []
            for a, drow in zip(row, d1):
                if a:
                    out = [x + a * y for x, y in zip(out, drow)]
            composed.append(out)
        assert rank_rows(composed, len(composed[0]), QQ) == 0


def test_koszul_acyclic_below_top(engine):
    """The forms are a regular sequence, so Ext^i(U/I_total, U) = 0 for i < d."""
    U = QuotientModule(GradedIdeal(engine.idealizer.ring, []))
    for i in (0, 1):
        for n in range(-3, 8):
            assert engine.koszul.ext(U, i, n) == 0


def test_top_ext_is_shifted_quotient(engine):
    """Ext^2 against U concentrates the quotient ring shifted by d."""
    U = QuotientModule(GradedIdeal(engine.idealizer.ring, []))
    for n in range(-6, 8):
        assert engine.koszul.ext(U, 2, n) == (1 if n >= -2 else 0)


def test_top_twisted_ext_constant_one(engine):
    zero = GradedIdeal(engine.idealizer.ring, [])
    assert [engine.ext_S_twisted(2, zero, n) for n in range(11)] == [1] * 11


def test_euler_identity(engine):
    kos = engine.koszul
    ring = engine.idealizer.ring
    U = QuotientModule(GradedIdeal(ring, []))
    UI = QuotientModule(GradedIdeal(ring, engine.idealizer.forms))
    Umax = QuotientModule(GradedIdeal(ring, [ring.variable(i) for i in range(3)]))
    for module in (U, UI, Umax):
        for n in range(-3, 4):
            lhs, rhs = euler_characteristic_check(kos, module, n)
            assert lhs == rhs


def test_hom_table_orbit_ideal(engine):
    ring = engine.idealizer.ring
    J = GradedIdeal(ring, [ring.power(5).apply(f) for f in engine.idealizer.forms])
    table = engine.hom_table(J, 10)
    assert table == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]


def test_hom_table_off_orbit_vanishes(engine):
    ring = engine.idealizer.ring
    pt = ProjPoint.make([QQ.from_int(1), QQ.from_int(5), QQ.from_int(7)], QQ)
    J = GradedIdeal(ring, point_ideal_forms(ring, pt))
    assert engine.hom_table(J, 10) == [0] * 11


def test_hom_table_max_ideal(engine):
    ring = engine.idealizer.ring
    J = GradedIdeal(ring, [ring.variable(i) for i in range(3)])
    assert engine.hom_table(J, 10) == [1] + [0] * 10


def test_hom_equals_ext_zero(engine):
    ring = engine.idealizer.ring
    J = GradedIdeal(ring, [ring.power(5).apply(f) for f in engine.idealizer.forms])
    for n in range(8):
        assert engine.hom_S_quotient(J, n) == engine.ext_S_twisted(0, J, n)


def test_probe_vanishing_at_two_orbit_points(engine):
    f = parse_poly("x0 - 2*x1 + x2", 3, QQ)
    rec = engine.right_noeth_probe(f, 10)
    assert rec["support"] == [1, 2]
    assert rec["torsion_support"] == [2]
    assert rec["coker_total"] == 2
    assert rec["support_matches"] and rec["torsion_matches"]


def test_probe_vanishing_at_one_orbit_point(engine):
    f = parse_poly("x0 - x1", 3, QQ)
    rec = engine.right_noeth_probe(f, 10)
    assert rec["support"] == [1]
    assert rec["torsion_support"] == []
    assert rec["coker_total"] == 1
    assert rec["support_matches"] and rec["torsion_matches"]


def test_probe_rejects_non_member(engine):
    with pytest.raises(ValueError):
        engine.right_noeth_probe(parse_poly("x0 + x1", 3, QQ), 6)


def test_chi_sample_rows(engine):
    ring = engine.idealizer.ring
    k = 5
    family = [
        ("zero", GradedIdeal(ring, [])),
        ("orbit", GradedIdeal(ring, [ring.power(k).apply(f) for f in engine.idealizer.forms])),
        ("principal", GradedIdeal(ring, [ring.variable(0)])),
    ]
    chi = engine.chi_sample_report(family, 6, trailing=3)
    degrees = list(range(-6, 7))

    zero = chi["zero"]
    assert zero["table"][2] == [1 if n >= -2 else 0 for n in degrees]
    assert zero["table"][0] == [0] * 13
    assert not zero["stabilized"][2]
    assert zero["stabilized"][0] and zero["stabilized"][1]

    orbit = chi["orbit"]
    # boundary class at n = -2 plus a self-extension burst where the
    # twisted module returns to U/I itself
    assert orbit["table"][2] == [1 if n in (-2, k) else 0 for n in degrees]
    assert orbit["table"][1] == [{-1: 1, k: 2}.get(n, 0) for n in degrees]
    assert orbit["table"][0] == [1 if n == k else 0 for n in degrees]
    assert orbit["totals"] == {0: 1, 1: 3, 2: 2}

    principal = chi["principal"]
    assert principal["table"][2] == [1 if n == -2 else 0 for n in degrees]
    assert principal["totals"] == {0: 0, 1: 0, 2: 1}
    assert all(principal["stabilized"][j] for j in range(3))


def test_ext_independent_of_form_basis():
    """Replacing the point forms by an invertible combination changes nothing."""
    idl = _instance()
    f1, f2 = idl.forms
    alt = [f1 + f2, f1 - f2]
    kos_a = ExtEngine(idl).koszul
    kos_b = KoszulComplex(alt, QQ)
    U = QuotientModule(GradedIdeal(idl.ring, []))
    for n in range(-4, 5):
        assert kos_a.ext_row(U, n) == kos_b.ext_row(U, n)


def test_ext_row_matches_pointwise(engine):
    U = QuotientModule(GradedIdeal(engine.idealizer.ring, []))
    for n in (-3, 0, 2, 5):
        row = engine.koszul.ext_row(U, n)
        assert row == [engine.koszul.ext(U, i, n) for i in range(3)]


def test_rank_memo_is_keyed_by_complex_index_and_degree():
    """Ranks kept on a module are never reused for another complex, index or degree."""
    idl = _instance()
    ring = idl.ring
    other = ProjPoint.make([QQ.from_int(v) for v in (1, 2, 3)], QQ)

    def fresh_row(forms, ideal, power, n):
        return KoszulComplex(forms, QQ).ext_row(QuotientModule(ideal, power), n)

    kos_c = KoszulComplex(idl.forms, QQ)
    kos_o = KoszulComplex(point_ideal_forms(ring, other), QQ)
    M = QuotientModule(PointIdeal(ring, idl.point))
    for n in range(3):
        assert kos_c.ext_row(M, n) == [1, 2, 1]
        assert kos_o.ext_row(M, n) == [0, 0, 0]
        assert fresh_row(idl.forms, PointIdeal(ring, idl.point), 0, n) == [1, 2, 1]
        assert fresh_row(kos_o.forms, PointIdeal(ring, idl.point), 0, n) == [0, 0, 0]

    J = GradedIdeal(ring, [ring.power(2).apply(f) for f in idl.forms])
    twisted = {k: QuotientModule(J, -k) for k in (0, 1, 2, 3)}
    for n in range(-3, 4):
        for k, module in twisted.items():
            for kos in (kos_c, kos_o):
                assert kos.ext_row(module, n) == fresh_row(kos.forms, J, -k, n)


def test_each_differential_is_ranked_once(engine, monkeypatch):
    calls = []
    original = KoszulComplex.cochain_matrix

    def counting(self, module, i, n):
        calls.append((id(self), id(module), i, n))
        return original(self, module, i, n)

    monkeypatch.setattr(KoszulComplex, "cochain_matrix", counting)
    ring = engine.idealizer.ring
    U = QuotientModule(GradedIdeal(ring, []))
    UI = QuotientModule(GradedIdeal(ring, engine.idealizer.forms))
    for module in (U, UI, U):
        for n in range(-3, 4):
            engine.koszul.ext_row(module, n)
            for i in range(3):
                engine.koszul.ext(module, i, n)
            euler_characteristic_check(engine.koszul, module, n)
    assert calls
    assert len(calls) == len(set(calls)) == 2 * 2 * 7
