"""Koszul cohomology, hom tables, noetherian probes, chi sampling.

Expected dimension tables were computed independently from the Koszul
definitions (rank counts of explicit cochain matrices) and frozen here.
"""

import random

import pytest
from oracles import hom_S_quotient_kernel, probe_dims_intersect, recursive_piece_polys

from idealizer import ext
from idealizer.automorphism import AutoMap, ProjPoint
from idealizer.ext import ExtEngine, KoszulComplex, QuotientModule, euler_characteristic_check
from idealizer.fields import QQ, PrimeField
from idealizer.idealizer_ring import IdealizerRing
from idealizer.linalg import kernel, rank_rows, span
from idealizer.orbit import orbit_point
from idealizer.poly import (
    HomogPoly,
    basis_dim,
    monomial_values,
    monomials,
    parse_poly,
    vector_to_poly,
)
from idealizer.twist import GradedIdeal, PointIdeal, TwistRing, point_ideal_forms


def _instance(multipliers=(2, 3), field=QQ, point=(1, 1, 1)):
    phi = AutoMap.diagonal_family([field.from_int(p) for p in multipliers], field)
    ring = TwistRing(len(multipliers), phi, field)
    c = ProjPoint.make([field.from_int(v) for v in point], field)
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


# -- the int-row and rank routes against the polynomial and subspace routes ---------

# generic; identity (phi = id); residual (a point fixed by phi); d = 3
REGIMES = [
    ((2, 3), (1, 1, 1)),
    ((1, 1), (1, 1, 1)),
    ((2, 3), (1, 0, 0)),
    ((2, 3, 5), (1, 1, 1, 1)),
]
REGIME_IDS = ["generic", "identity", "residual", "d3"]
FIELD_CASES = pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])


def _ideals(idl):
    ring, field = idl.ring, idl.field
    off = ProjPoint.make([field.from_int(v) for v in (1, 5, 7, 11)[: ring.nvars]], field)
    return {
        "zero": GradedIdeal(ring, []),
        "max": GradedIdeal(ring, [ring.variable(i) for i in range(ring.nvars)]),
        "orbit": PointIdeal(ring, orbit_point(ring.phi, idl.point, 3)),
        "off-orbit": PointIdeal(ring, off),
        "principal": GradedIdeal(ring, [ring.variable(0)]),
        "twisted-I": GradedIdeal(ring, [ring.power(5).apply(f) for f in idl.forms]),
    }


@FIELD_CASES
@pytest.mark.parametrize("multipliers, point", REGIMES, ids=REGIME_IDS)
def test_hom_rank_count_matches_kernel_span(field, multipliers, point):
    """dim U_n - rank M - dim J_n is the dimension of the spanned kernel, n <= 6."""
    idl = _instance(multipliers, field, point)
    engine = ExtEngine(idl)
    for label, J in _ideals(idl).items():
        want = [hom_S_quotient_kernel(engine, J, n) for n in range(7)]
        assert engine.hom_table(J, 6) == want, label


@FIELD_CASES
@pytest.mark.parametrize("multipliers, point", REGIMES, ids=REGIME_IDS)
def test_probe_meet_count_matches_intersect(field, multipliers, point):
    """dim fS + dim T - dim (fS + T) is the dimension of the Zassenhaus meet."""
    idl = _instance(multipliers, field, point)
    engine = ExtEngine(idl)
    f1, f2 = idl.forms[:2]
    for f in (f1, f2, f1 + f2, f1 * f2, _through_orbit(idl, 1, 2), _through_orbit(idl, 2, 4)):
        rec = engine.right_noeth_probe(f, 6)
        assert (rec["coker_dims"], rec["torsion_dims"]) == probe_dims_intersect(engine, f, 6)


def _through_orbit(idl, degree, count):
    """A form of the given degree vanishing at c_0, c_-1, ..., c_(1-count)."""
    ring, field = idl.ring, idl.field
    rows = [
        monomial_values(orbit_point(ring.phi, idl.point, -k).coords, field, degree)
        for k in range(count)
    ]
    vec = kernel(rows, basis_dim(ring.nvars, degree), field)[0]
    return vector_to_poly(vec, ring.nvars, degree, field.char)


def _random_gens(ring, seed):
    rng = random.Random(seed)
    gens = []
    for deg in (1, 2, 2, 3):
        coeffs = {m: ring.field.from_int(rng.randint(-3, 3)) for m in monomials(ring.nvars, deg)}
        gens.append(HomogPoly.from_dict(ring.nvars, deg, coeffs, ring.field.char))
    return gens


@FIELD_CASES
@pytest.mark.parametrize("d", [2, 3])
def test_ideal_pieces_match_polynomial_recursion(field, d):
    """J_n from scattered int rows equals J_n from HomogPoly products, n <= 6."""
    ring = _instance((2, 3, 5)[:d], field, (1,) * (d + 1)).ring
    cases = {
        "max": [ring.variable(i) for i in range(ring.nvars)],
        "principal": [ring.variable(0)],
        "random": _random_gens(ring, d),
        "random-top": _random_gens(ring, d)[2:],
    }
    for label, gens in cases.items():
        J = GradedIdeal(ring, gens)
        for n in range(7):
            assert J.piece(n) == recursive_piece_polys(J, n), (label, n)


def test_hom_guard_fires_when_J_escapes(monkeypatch):
    """A constraint block that J_n does not satisfy is an error, not a count."""
    engine = ExtEngine(_instance())
    J = PointIdeal(engine.ring, engine.idealizer.point)
    real = ext._mult_rows

    def broken(*args):
        rows = real(*args)
        return [[v + 1 if k == 0 else v for k, v in enumerate(rows[0])]] + rows[1:]

    monkeypatch.setattr(ext, "_mult_rows", broken)
    with pytest.raises(ArithmeticError, match="J_n escapes its own hom constraints"):
        engine.hom_S_quotient(J, 1)


def test_probe_guard_fires_when_fT_escapes(monkeypatch):
    """An fS that misses fT is an error, not a torsion count."""
    engine = ExtEngine(_instance())
    ring = engine.ring
    monkeypatch.setattr(
        ring, "principal_right_piece", lambda f, m: span([], ring.ambient(m), ring.field)
    )
    with pytest.raises(ArithmeticError, match="fT escapes fS meet T"):
        engine.right_noeth_probe(parse_poly("x0 - x1", 3, QQ), 3)
