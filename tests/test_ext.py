"""Koszul cohomology, hom tables, noetherian probes, chi sampling.

Expected dimension tables were computed independently from the Koszul
definitions (rank counts of explicit cochain matrices) and frozen here.
"""

import random

import pytest
from oracles import (
    cochain_matrix_eager,
    evaluate_at,
    hom_S_quotient_kernel,
    koszul_ext_eager,
    koszul_rank_eager,
    mult_matrix_per_column,
    mult_rows_per_column,
    orbit_point,
    probe_dims_intersect,
    probe_dims_spanning,
    recursive_piece_polys,
)

from idealizer import ext, linalg, suite
from idealizer.automorphism import AutoMap, ProjPoint
from idealizer.config import RingConfig
from idealizer.ext import ExtEngine, KoszulComplex, euler_characteristic_check
from idealizer.fields import QQ, PrimeField
from idealizer.idealizer_ring import IdealizerRing
from idealizer.linalg import Echelon, kernel, rank_rows, span
from idealizer.poly import (
    HomogPoly,
    basis_dim,
    monomial_values,
    monomials,
    parse_poly,
    vanishes_at,
)
from idealizer.twist import GradedIdeal, PointIdeal, TwistRing, point_ideal_forms


EXT_FIELDS = pytest.mark.parametrize(
    "field", [QQ, PrimeField(7), PrimeField(10007)], ids=["Q", "GF7", "GF10007"]
)


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


def _free(d, field=QQ):
    """The Koszul complex of the point (1 : ... : 1) for the multipliers
    2, 3, 5, 11 cut to d (distinct and nonzero mod 7), and the zero ideal,
    whose quotient is the free module U."""
    idl = _instance((2, 3, 5, 11)[:d], field, (1,) * (d + 1))
    return KoszulComplex(idl.forms, field), GradedIdeal(idl.ring, [])


KOSZUL_DIMS = pytest.mark.parametrize("d", [2, 3, 4])


def test_chain_complex_composes_to_zero():
    """delta^(i+1) delta^i = 0 on U for every i <= d - 2 at d = 2, 3, 4, the
    identity that caps the free module's ranks."""
    for d in (2, 3, 4):
        kos, U = _free(d)
        for n in (2, 3, 5):
            for i in range(d - 1):
                later = list(kos.cochain_matrix(U, i + 1, n))
                first = list(kos.cochain_matrix(U, i, n))
                assert later and first
                for row in later:
                    composed = {}
                    for c, a in row:
                        for k, v in first[c]:
                            composed[k] = composed.get(k, 0) + a * v
                    assert not any(composed.values()), (d, i, n)


@KOSZUL_DIMS
def test_cochain_matrix_outside_the_complex_yields_no_rows(d):
    """delta^-1 and delta^d are zero maps: no rows, for U and U/I."""
    kos, U = _free(d)
    UI = GradedIdeal(U.ring, kos.forms)
    for J in (U, UI):
        for i in (-1, d):
            for n in range(-d - 1, 4):
                assert list(kos.cochain_matrix(J, i, n)) == [], (i, n)


@EXT_FIELDS
@KOSZUL_DIMS
def test_capped_free_ranks_match_eager_ranks(field, d):
    """The free module's ranks, read with reversed columns and stopped at
    dim C^i - rank delta^(i-1), equal the ranks of every eager row, for
    i = -1..d and n = -d-1..5."""
    kos, U = _free(d, field)
    for n in range(-d - 1, 6):
        for i in range(-1, d + 1):
            assert kos.rank(U, i, n) == koszul_rank_eager(kos, U, i, n), (i, n)


def test_free_rank_reads_no_row_past_its_cap(monkeypatch):
    """On U the rank of delta^i, 0 < i < d, stops at the row that brings it
    to dim C^i - rank delta^(i-1): the rows read before it have rank one
    less, and some differential leaves rows unread."""
    pulled = []
    real = KoszulComplex.cochain_matrix

    def counting(self, J, i, n):
        for row in real(self, J, i, n):
            pulled.append(row)
            yield row

    monkeypatch.setattr(KoszulComplex, "cochain_matrix", counting)
    kos, U = _free(3)
    unread = 0
    for n in range(4):
        for i in (1, 2):
            width = kos.cochain_dim(U, i, n)
            cap = width - kos.rank(U, i - 1, n)
            pulled.clear()
            assert kos.rank(U, i, n) == cap < width
            assert rank_rows(pulled[:-1], width, QQ) == cap - 1, (i, n)
            unread += len(list(real(kos, U, i, n))) - len(pulled)
    assert unread > 0


def test_koszul_acyclic_below_top(engine):
    """The forms are a regular sequence, so Ext^i(U/I_total, U) = 0 for i < d."""
    U = GradedIdeal(engine.idealizer.ring, [])
    for i in (0, 1):
        for n in range(-3, 8):
            assert engine.koszul.ext(U, i, n) == 0


def test_top_ext_is_shifted_quotient(engine):
    """Ext^2 against U concentrates the quotient ring shifted by d."""
    U = GradedIdeal(engine.idealizer.ring, [])
    for n in range(-6, 8):
        assert engine.koszul.ext(U, 2, n) == (1 if n >= -2 else 0)


def test_top_twisted_ext_constant_one(engine):
    zero = GradedIdeal(engine.idealizer.ring, [])
    assert [engine.ext_S_twisted(2, zero, n) for n in range(11)] == [1] * 11


def test_euler_identity(engine):
    kos = engine.koszul
    ring = engine.idealizer.ring
    U = GradedIdeal(ring, [])
    UI = GradedIdeal(ring, engine.idealizer.forms)
    Umax = GradedIdeal(ring, [ring.variable(i) for i in range(3)])
    for J in (U, UI, Umax):
        for n in range(-3, 4):
            lhs, rhs = euler_characteristic_check(kos, J, n)
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
    U = GradedIdeal(idl.ring, [])
    for n in range(-4, 5):
        assert kos_a.ext_row(U, n) == kos_b.ext_row(U, n)


def test_ext_row_matches_pointwise(engine):
    U = GradedIdeal(engine.idealizer.ring, [])
    for n in (-3, 0, 2, 5):
        row = engine.koszul.ext_row(U, n)
        assert row == [engine.koszul.ext(U, i, n) for i in range(3)]


def test_rank_memo_is_keyed_by_complex_index_and_degree():
    """Ranks kept on an ideal are never reused for another complex, index or degree."""
    idl = _instance()
    ring = idl.ring
    other = ProjPoint.make([QQ.from_int(v) for v in (1, 2, 3)], QQ)

    def fresh_row(forms, ideal, power, n):
        return KoszulComplex(forms, QQ).ext_row(ideal.moved(power), n)

    kos_c = KoszulComplex(idl.forms, QQ)
    kos_o = KoszulComplex(point_ideal_forms(ring, other), QQ)
    M = PointIdeal(ring, idl.point)
    for n in range(3):
        assert kos_c.ext_row(M, n) == [1, 2, 1]
        assert kos_o.ext_row(M, n) == [0, 0, 0]
        assert fresh_row(idl.forms, PointIdeal(ring, idl.point), 0, n) == [1, 2, 1]
        assert fresh_row(kos_o.forms, PointIdeal(ring, idl.point), 0, n) == [0, 0, 0]

    J = GradedIdeal(ring, [ring.power(2).apply(f) for f in idl.forms])
    twisted = {k: J.moved(-k) for k in (0, 1, 2, 3)}
    for n in range(-3, 4):
        for k, moved in twisted.items():
            for kos in (kos_c, kos_o):
                assert kos.ext_row(moved, n) == fresh_row(kos.forms, J, -k, n)


def test_each_differential_is_ranked_once(engine, monkeypatch):
    calls = []
    original = KoszulComplex.cochain_matrix

    def counting(self, J, i, n):
        calls.append((id(self), id(J), i, n))
        return original(self, J, i, n)

    monkeypatch.setattr(KoszulComplex, "cochain_matrix", counting)
    ring = engine.idealizer.ring
    U = GradedIdeal(ring, [])
    UI = GradedIdeal(ring, engine.idealizer.forms)
    for J in (U, UI, U):
        for n in range(-3, 4):
            engine.koszul.ext_row(J, n)
            for i in range(3):
                engine.koszul.ext(J, i, n)
            euler_characteristic_check(engine.koszul, J, n)
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
        "I": idl.I,
    }


def test_chi_sample_point_modules_build_no_piece(monkeypatch):
    """The chi-sample check's orbit and off-orbit modules read their
    dimensions, columns and projections off the evaluation row: no
    ``PointIdeal`` piece is built."""
    ctx = suite._Context(RingConfig().build())
    body = next(check for name, _, _, check in suite.CHECKS if name == "chi-sample")
    built = []
    real = PointIdeal._build_piece
    monkeypatch.setattr(PointIdeal, "_build_piece", lambda J, n: built.append(n) or real(J, n))
    payload = body(ctx)[2]
    assert {"orbit-point", "off-orbit-point"} <= set(payload)
    assert built == []


@EXT_FIELDS
def test_module_reads_one_projection_per_degree(field):
    """The forms of one Koszul block share one projection: an Ext row on
    U/J asks J for each degree's projection at most once."""
    idl = _instance(field=field)
    kos = KoszulComplex(idl.forms, field)
    reads_total = 0
    for n in range(-3, 5):
        # fresh ideals, so that no rank is already kept on them
        for label, J in _ideals(_instance(field=field)).items():
            moved = J.moved(-n)
            reads = []
            real = moved.quotient
            moved.quotient = lambda k: reads.append(k) or real(k)
            try:
                kos.ext_row(moved, n)
            finally:
                del moved.quotient
            assert len(reads) == len(set(reads)), (label, n, reads)
            reads_total += len(reads)
    assert reads_total


@FIELD_CASES
@pytest.mark.parametrize("multipliers, point", REGIMES, ids=REGIME_IDS)
def test_hom_rank_count_matches_kernel_span(field, multipliers, point):
    """dim U_n - rank M - dim J_n is the dimension of the spanned kernel, n <= 6,
    and against I it is dim T_n - dim I_n, because T/I = End_S(S/I)."""
    idl = _instance(multipliers, field, point)
    engine = ExtEngine(idl)
    for label, J in _ideals(idl).items():
        want = [hom_S_quotient_kernel(engine, J, n) for n in range(7)]
        assert engine.hom_table(J, 6) == want, label
    assert engine.hom_table(idl.I, 6) == [idl.t_dim(n) - idl.I.dim(n) for n in range(7)]


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


# the maps of the golden configs matrix.json and frac.json, with their points
MATRIX_MAPS = [
    ((("1", "1", "0"), ("0", "2", "0"), ("0", "0", "3")), (1, 1, 1)),
    ((("1/2", "1", "0"), ("0", "2/3", "1"), ("1", "0", "3")), (1, 2, 3)),
]


@FIELD_CASES
@pytest.mark.parametrize("rows, point", MATRIX_MAPS, ids=["matrix", "frac"])
def test_probe_counts_match_spans_under_matrix_maps(field, rows, point):
    """Leading-column counts equal the Zassenhaus meet and the spanned fS
    and fT when phi is a full matrix, with a denominator for frac."""
    phi = AutoMap.from_matrix([[field.parse(x) for x in r] for r in rows], field)
    c = ProjPoint.make([field.from_int(v) for v in point], field)
    idl = IdealizerRing(TwistRing(2, phi, field), c)
    engine = ExtEngine(idl)
    f1, f2 = idl.forms[:2]
    for f in (f1, f2, f1 + f2, f1 * f2, _through_orbit(idl, 1, 2), _through_orbit(idl, 2, 4)):
        rec = engine.right_noeth_probe(f, 6)
        got = (rec["coker_dims"], rec["torsion_dims"])
        assert got == probe_dims_intersect(engine, f, 6) == probe_dims_spanning(engine, f, 6)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])
@pytest.mark.parametrize("case", ["matrix", "frac", "point"])
def test_hom_of_I_is_T_mod_I(field, case):
    """T/I = End_S(S/I) degreewise, n <= 8, when phi is a full matrix
    (with a denominator for frac) and at a point with a negative coordinate."""
    if case == "point":
        idl = _instance((2, 3), field, (1, 2, -3))
    else:
        idl = _matrix_instance(field, *MATRIX_MAPS[case == "frac"])
    engine = ExtEngine(idl)
    assert engine.hom_table(idl.I, 8) == [idl.t_dim(n) - idl.I.dim(n) for n in range(9)]


def _through_orbit(idl, degree, count):
    """A form of the given degree vanishing at c_0, c_-1, ..., c_(1-count)."""
    ring, field = idl.ring, idl.field
    rows = [
        monomial_values(orbit_point(ring.phi, idl.point, -k).coords, field, degree)
        for k in range(count)
    ]
    vec = kernel(rows, basis_dim(ring.nvars, degree), field)[0]
    return HomogPoly.from_row(ring.nvars, degree, vec, 1, field.char)


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
    real = TwistRing.left_mult_rows

    def broken(self, *args):
        rows = list(real(self, *args))
        first = dict(rows[0])
        first[0] = first.get(0, 0) + 1
        return [list(first.items())] + rows[1:]

    monkeypatch.setattr(TwistRing, "left_mult_rows", broken)
    with pytest.raises(ArithmeticError, match="J_n escapes its own hom constraints"):
        engine.hom_S_quotient(J, 1)


def test_probe_guard_fires_when_fT_escapes(monkeypatch):
    """A T_m that misses fT, m > deg f, is an error, not a torsion count."""
    engine = ExtEngine(_instance())
    idl = engine.idealizer
    real = idl.idealizer_piece

    def faulty(m):
        return span([], idl.ring.ambient(m), idl.field) if m == 3 else real(m)

    monkeypatch.setattr(idl, "idealizer_piece", faulty)
    with pytest.raises(ArithmeticError, match="fT escapes T"):
        engine.right_noeth_probe(parse_poly("x0 - x1", 3, QQ), 3)


@pytest.mark.parametrize("rows", ["fS", "fT"])
def test_probe_certificate_fires_on_a_repeated_row(monkeypatch, rows):
    """Product rows that share a least column are an error, not a count."""
    engine = ExtEngine(_instance())
    ring = engine.ring
    if rows == "fS":
        real = ring.principal_right_rows
        monkeypatch.setattr(ring, "principal_right_rows", lambda *a: real(*a) * 2)
    else:
        real, first = ext.row_product, {}
        # every product of one twisted f repeats the first
        monkeypatch.setattr(
            ext, "row_product", lambda u, g, *a: first.setdefault(tuple(u), real(u, g, *a))
        )
    with pytest.raises(ArithmeticError, match="product rows share a least column"):
        engine.right_noeth_probe(parse_poly("x0 - x1", 3, QQ), 3)


# -- lazy Koszul rows and quotient-map blocks against the eager routes --------------

EXT_MAPS = pytest.mark.parametrize(
    "rows, point",
    [((("1", "0", "0"), ("0", "2", "0"), ("0", "0", "3")), (1, 1, 1))] + MATRIX_MAPS,
    ids=["diagonal", "matrix", "frac"],
)


def _matrix_instance(field, rows, point):
    phi = AutoMap.from_matrix([[field.parse(x) for x in r] for r in rows], field)
    c = ProjPoint.make([field.from_int(v) for v in point], field)
    return IdealizerRing(TwistRing(2, phi, field), c)


@FIELD_CASES
@EXT_MAPS
def test_vanishing_on_the_evaluation_row_matches_the_value(field, rows, point):
    """Whether f vanishes at an orbit point c_k, |k| <= 4, read off the
    evaluation row (``poly.vanishes_at``), agrees with f's value summed
    term by term (``oracles.evaluate_at``): for the point forms, their
    product, forms through several orbit points and random forms."""
    idl = _matrix_instance(field, rows, point)
    f1, f2 = idl.forms[:2]
    forms = [f1, f2, f1 + f2, f1 * f2] + _random_gens(idl.ring, 7)
    forms += [_through_orbit(idl, deg, count) for deg, count in ((1, 2), (2, 4), (3, 5))]
    seen = set()
    for f in forms:
        for k, pt in idl.orbit(4).points.items():
            zero = vanishes_at(f, pt.coords, field)
            assert zero == (evaluate_at(f, pt, field) == 0), (f, k)
            seen.add(zero)
    assert seen == {False, True}


def _ext_modules(idl):
    """The ideals J of the modules U/J: U, U/I, U/max, U/(x0) and the
    point ideal moved by phi^k, k = -3..3."""
    ring = idl.ring
    point = PointIdeal(ring, idl.point)
    modules = {
        "U": GradedIdeal(ring, []),
        "U/I": GradedIdeal(ring, idl.forms),
        "U/max": GradedIdeal(ring, [ring.variable(i) for i in range(ring.nvars)]),
        "U/(x0)": GradedIdeal(ring, [ring.variable(0)]),
    }
    modules.update({"point@%d" % k: point.moved(k) for k in range(-3, 4)})
    return modules


@EXT_FIELDS
@EXT_MAPS
def test_lazy_cochain_rows_match_eager_rows(field, rows, point):
    """The yielded rows, the ranks read from them and Ext equal the eager
    list route, for i = -1..d and n = -d-1..5."""
    idl = _matrix_instance(field, rows, point)
    kos = KoszulComplex(idl.forms, field)
    d = kos.d
    for label, J in _ext_modules(idl).items():
        for n in range(-d - 1, 6):
            for i in range(-1, d + 1):
                where = (label, i, n)
                if i >= 0:
                    assert list(kos.cochain_matrix(J, i, n)) == cochain_matrix_eager(
                        kos, J, i, n
                    ), where
                assert kos.rank(J, i, n) == koszul_rank_eager(kos, J, i, n), where
                assert kos.ext(J, i, n) == koszul_ext_eager(kos, J, i, n), where


@EXT_FIELDS
@EXT_MAPS
def test_quotient_map_blocks_match_per_column_blocks(field, rows, point):
    """Koszul blocks and hom constraint blocks summed off the quotient map
    equal the blocks of one quotient_coords call per column.  A Koszul
    block is ``linalg.mult_rows`` from J's quotient columns in degree n
    off ``J.quotient(n + 1)``, as ``KoszulComplex.cochain_matrix`` reads
    them."""
    idl = _matrix_instance(field, rows, point)
    ring = idl.ring
    kos = KoszulComplex(idl.forms, field)
    for label, J in _ext_modules(idl).items():
        for n in range(-3, 6):
            indices, quotient = J.nonpivot_columns(n), J.quotient(n + 1)
            for form in kos.rows:
                got = linalg.mult_rows(form, 1, indices, n, quotient, ring.nvars, field)
                assert got == mult_matrix_per_column(J, form, n), (label, n)
        for n in range(6):
            width = basis_dim(ring.nvars, n)
            for form in kos.rows:
                u = ring.power(n).apply_row(form, 1)
                want = mult_rows_per_column(u, 1, range(width), J.piece(n + 1), field)
                assert list(ring.left_mult_rows([form], 1, n, J)) == want, (label, n)


# -- the work the lazy rows skip ----------------------------------------------------


def _count_blocks(monkeypatch):
    """Record the source degree of every Koszul block built."""
    calls = []
    real = ext.mult_rows

    def counting(u, a, indices, n, *rest):
        calls.append(n)
        return real(u, a, indices, n, *rest)

    monkeypatch.setattr(ext, "mult_rows", counting)
    return calls


def test_free_delta0_builds_one_block_per_degree(monkeypatch):
    """forms[0] is injective on U, so delta^0 reaches full rank on the rows
    of its first target summand and the block of forms[1] is never built."""
    calls = _count_blocks(monkeypatch)
    engine = ExtEngine(_instance())
    U = GradedIdeal(engine.ring, [])
    for n in range(8):
        calls.clear()
        assert engine.koszul.rank(U, 0, n) == basis_dim(3, n)
        assert calls == [n]


def test_rank_of_width_zero_builds_no_block(monkeypatch):
    calls = _count_blocks(monkeypatch)
    engine = ExtEngine(_instance())
    ring = engine.ring
    U = GradedIdeal(ring, [])
    Umax = GradedIdeal(ring, [ring.variable(i) for i in range(3)])
    for n in range(-5, 0):
        assert engine.koszul.rank(U, 0, n) == 0
    for n in range(1, 5):
        for i in (0, 1):
            assert engine.koszul.cochain_dim(Umax, i, n) == 0
            assert engine.koszul.rank(Umax, i, n) == 0
    assert calls == []


def test_hom_against_max_ideal_visits_no_column(monkeypatch):
    """J_(n+1) = U_(n+1) for n >= 0 leaves no quotient rows, so the hom
    constraint blocks return before building a product table; the pieces
    of J are spanned by monomials and written down, so no ``Echelon`` row
    is inserted at all."""
    tables, inserted = [], []
    real = linalg.product_index
    monkeypatch.setattr(linalg, "product_index", lambda *a: tables.append(a) or real(*a))
    engine = ExtEngine(_instance())
    insert = Echelon.insert
    monkeypatch.setattr(
        Echelon, "insert", lambda ech, row: inserted.append(row) or insert(ech, row)
    )
    ring = engine.ring
    J = GradedIdeal(ring, [ring.variable(i) for i in range(3)])
    assert engine.hom_table(J, 8) == [1] + [0] * 8
    assert tables == []
    assert inserted == []
