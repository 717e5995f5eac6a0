"""The one-shot verification suite.

Checks run in a fixed order and fall into three regimes decided up
front from the configuration: the generic regime (orbit pairwise
distinct in the window), the identity regime (phi = id, where T = S and
every twist-sensitive statement degenerates), and the residual regime
(orbit collides without phi being the identity), where structure checks
are skipped with a reason rather than reported as failures.  Checks
whose statements quote density hypotheses are additionally skipped when
the multiplier certificate does not come back independent.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from .automorphism import ProjPoint, evaluate_at
from .config import Instance
from .ext import ExtEngine, euler_characteristic_check
from .fields import is_prime
from .linalg import kernel
from .orbit import (
    FactorBoundError,
    distinct_window,
    general_position_rank,
    multiplicative_independence,
    orbit_points,
)
from .poly import HomogPoly, basis_dim, format_poly
from .report import FAIL, OBSERVED, PASS, SKIPPED, CheckRecord, VerificationReport
from .segre import SegreContext, local_witness_check
from .twist import GradedIdeal, PointIdeal, associativity_sample

ASSOCIATIVITY_TRIALS = 200
ASSOCIATIVITY_SEED = 811
OPPOSITE_DEGREE_CAP = 6
SEGRE_DEGREE_CAP = 6

__all__ = ["run_suite", "second_prime"]


def jsonable(value):
    """Deterministic JSON-safe view of suite data."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if hasattr(value, "value") and hasattr(value, "modulus"):
        return int(value.value)
    raise TypeError("cannot serialize %r" % (value,))


def second_prime(instance: Instance) -> int:
    """Deterministic companion prime for the prime-mode cross-check."""
    digest = hashlib.sha256(instance.config.canonical_text().encode()).hexdigest()
    candidate = 10007 + 2 * (int(digest, 16) % 5000)
    if candidate % 2 == 0:
        candidate += 1
    while not is_prime(candidate) or candidate == instance.field.char:
        candidate += 2
    return candidate


def _window(cfg) -> dict:
    return {"max_degree": cfg.max_degree, "trailing_zeros": cfg.trailing_zeros}


def _trailing_zero_count(values) -> int:
    count = 0
    for v in reversed(values):
        if v != 0:
            break
        count += 1
    return count


def _off_orbit_point(instance: Instance, orbit) -> ProjPoint | None:
    """A deterministic point avoiding the orbit window, or None."""
    primes = []
    q = 5
    while len(primes) < instance.config.d:
        if is_prime(q):
            primes.append(q)
        q += 2
    coords = [1] + primes
    taken = {orbit.points[n].coords for n in range(orbit.lo, orbit.hi + 1)}
    for _ in range(64):
        try:
            pt = ProjPoint.make(
                [instance.field.from_int(c) for c in coords], instance.field
            )
        except ValueError:
            return None
        if pt.coords not in taken:
            return pt
        coords[-1] *= 2
    return None


def run_suite(instance: Instance) -> VerificationReport:
    cfg = instance.config
    ring = instance.ring
    idl = instance.idealizer
    field = instance.field
    N = cfg.max_degree
    window = _window(cfg)
    checks: list[CheckRecord] = []

    # regime discovery
    orbit = orbit_points(ring.phi, instance.point, N)
    orbit_ok, collision = distinct_window(orbit)
    identity = ring.phi.is_identity()

    certificate = None
    cert_error = None
    if cfg.multipliers is not None:
        try:
            certificate = multiplicative_independence(cfg.multipliers)
        except (FactorBoundError, ValueError) as exc:
            cert_error = str(exc)
    density = certificate is not None and certificate.verdict == "independent"

    # 1. twist normalization pin
    if cfg.multipliers is None:
        checks.append(
            CheckRecord(
                "twist-normalization-pin",
                SKIPPED,
                "x1.x0 = p1 (x0 . x1): stated for the diagonal family only",
                {"reason": "automorphism given as a matrix"},
            )
        )
    else:
        x0 = ring.variable(0)
        x1 = ring.variable(1)
        p1 = ring.phi.matrix[1][1]
        ok = ring.mul(x1, x0) == ring.mul(x0, x1).scale(p1)
        checks.append(
            CheckRecord(
                "twist-normalization-pin",
                PASS if ok else FAIL,
                "x1.x0 equals p1 times x0.x1 in the twisted product",
                {"p1": jsonable(p1)},
            )
        )

    # 2. associativity on random triples
    ok = associativity_sample(ring, ASSOCIATIVITY_TRIALS, ASSOCIATIVITY_SEED)
    checks.append(
        CheckRecord(
            "twist-associativity",
            PASS if ok else FAIL,
            "(f.g).h = f.(g.h) for %d seeded random triples" % ASSOCIATIVITY_TRIALS,
            {"trials": ASSOCIATIVITY_TRIALS, "seed": ASSOCIATIVITY_SEED},
        )
    )

    # 3. opposite ring
    ok, checked, first_bad = ring.opposite_iso_check(OPPOSITE_DEGREE_CAP)
    checks.append(
        CheckRecord(
            "opposite-ring-transport",
            PASS if ok else FAIL,
            "powers of phi transport the opposite product onto the twist by "
            "the inverse, exhaustively to total degree %d" % OPPOSITE_DEGREE_CAP,
            {"checked_pairs": checked, "first_failure": jsonable(first_bad)},
        )
    )

    # 4. orbit distinctness is an observation about the window, not a claim
    checks.append(
        CheckRecord(
            "orbit-distinct-window",
            OBSERVED,
            "pairwise distinctness of the orbit points c_n for |n| <= N",
            {
                "distinct": orbit_ok,
                "collision": jsonable(collision),
                "identity_automorphism": identity,
            },
            window,
        )
    )

    # 5. multiplier independence certificate
    if certificate is None:
        checks.append(
            CheckRecord(
                "multiplier-independence",
                SKIPPED,
                "multiplicative independence of the diagonal multipliers",
                {
                    "reason": cert_error
                    if cert_error
                    else "automorphism given as a matrix"
                },
            )
        )
    else:
        sound = certificate.verdict == "independent" or certificate.relation_verified
        checks.append(
            CheckRecord(
                "multiplier-independence",
                PASS if sound else FAIL,
                "certificate for multiplicative independence of the multipliers, "
                "with any relation verified exactly",
                certificate.payload(),
            )
        )

    density_reason = (
        "multipliers are not certified multiplicatively independent, so "
        "density-based statements do not apply"
    )

    # 6. evaluation ranks at orbit samples
    if not density:
        checks.append(
            CheckRecord(
                "general-position-ranks",
                SKIPPED,
                "evaluation matrices at consecutive orbit points have full rank",
                {"reason": density_reason},
            )
        )
    else:
        ranks = []
        all_full = True
        for m in (1, 2):
            dim = basis_dim(ring.nvars, m)
            lo = -((dim + 1) // 2)
            idx = list(range(lo, lo + dim))
            rec = general_position_rank(ring.phi, instance.point, m, idx, field)
            ranks.append(rec)
            all_full = all_full and rec["full"]
        checks.append(
            CheckRecord(
                "general-position-ranks",
                OBSERVED if all_full else FAIL,
                "degree-m evaluation at dim U_m consecutive orbit points has "
                "full rank for m = 1, 2",
                {"ranks": jsonable(ranks)},
                window,
            )
        )

    structural = orbit_ok or identity
    structure_reason = (
        "orbit points collide in the window without phi being the identity"
    )

    # 7. idealizer structure
    if identity:
        dims = [idl.t_dim(n) for n in range(N + 1)]
        expected = [basis_dim(ring.nvars, n) for n in range(N + 1)]
        checks.append(
            CheckRecord(
                "idealizer-structure",
                PASS if dims == expected else FAIL,
                "phi is the identity, so the idealizer is all of S",
                {"mode": "identity", "dims": dims, "expected": expected},
            )
        )
    elif not orbit_ok:
        checks.append(
            CheckRecord(
                "idealizer-structure",
                SKIPPED,
                "T_n = I_n for 1 <= n <= N",
                {"reason": structure_reason},
            )
        )
    else:
        rec = idl.check_T_equals_k_plus_I(N)
        checks.append(
            CheckRecord(
                "idealizer-structure",
                PASS if rec["agrees"] else FAIL,
                "T_0 = k and T_n = I_n for 1 <= n <= N",
                jsonable(rec),
            )
        )

    # 8. Hilbert function of S/T
    if not structural:
        checks.append(
            CheckRecord(
                "hilbert-s-mod-t",
                SKIPPED,
                "dim (S/T)_n = 1 for 1 <= n <= N",
                {"reason": structure_reason},
            )
        )
    else:
        dims = idl.s_mod_t_dims(N)
        expected = [0] * (N + 1) if identity else [0] + [1] * N
        checks.append(
            CheckRecord(
                "hilbert-s-mod-t",
                PASS if dims == expected else FAIL,
                "dim (S/T)_n = 0 for all n when phi = id, otherwise exactly 1 "
                "for 1 <= n <= N",
                {"dims": dims, "expected": expected},
            )
        )

    # 9. Hilbert function of S/IS
    if not structural:
        checks.append(
            CheckRecord(
                "hilbert-s-mod-is",
                SKIPPED,
                "dim (S/IS)_m vanishes from some m0 on",
                {"reason": structure_reason},
            )
        )
    else:
        dims = idl.s_mod_is_dims(N)
        if identity:
            ok = all(v == 1 for v in dims)
            checks.append(
                CheckRecord(
                    "hilbert-s-mod-is",
                    OBSERVED if ok else FAIL,
                    "phi = id control: dim (S/IS)_m = 1 in every window degree",
                    {"dims": dims},
                    window,
                )
            )
        else:
            tz = _trailing_zero_count(dims)
            m0 = None
            for m, v in enumerate(dims):
                if v == 0 and all(x == 0 for x in dims[m:]):
                    m0 = m
                    break
            ok = m0 is not None and tz >= cfg.trailing_zeros
            checks.append(
                CheckRecord(
                    "hilbert-s-mod-is",
                    OBSERVED if ok else FAIL,
                    "dim (S/IS)_m = 0 from an observed m0 <= N on, with the "
                    "required count of trailing zero degrees",
                    {"dims": dims, "m0": jsonable(m0), "trailing_zeros_seen": tz},
                    window,
                )
            )

    # 10. algebra generator degrees of T
    if not structural:
        checks.append(
            CheckRecord(
                "generator-degrees",
                SKIPPED,
                "minimal generator degrees of T",
                {"reason": structure_reason},
            )
        )
    else:
        gens = idl.algebra_generator_degrees(N)
        counts = [c for _, c in gens]
        tz = _trailing_zero_count(counts)
        ok = tz >= cfg.trailing_zeros
        checks.append(
            CheckRecord(
                "generator-degrees",
                OBSERVED if ok else FAIL,
                "new algebra generators of T appear only in an initial range "
                "of degrees, zero counts afterwards",
                {"counts_by_degree": jsonable(gens), "trailing_zeros_seen": tz},
                window,
            )
        )

    # 11. Veronese generation in degree one
    if not structural:
        checks.append(
            CheckRecord(
                "veronese-generation",
                SKIPPED,
                "T_n.T_n versus T_2n for n = 1, 2, 3",
                {"reason": structure_reason},
            )
        )
    else:
        recs = [idl.veronese_gen_in_degree_one(n) for n in (1, 2, 3)]
        want = identity
        ok = all(r["generated"] == want for r in recs)
        checks.append(
            CheckRecord(
                "veronese-generation",
                PASS if ok else FAIL,
                "the n-th Veronese of T is generated in degree one exactly "
                "when phi is the identity (n = 1, 2, 3)",
                {"records": jsonable(recs), "expected_generated": want},
            )
        )

    # 12. Veronese idealizer agreement
    if identity or not orbit_ok:
        checks.append(
            CheckRecord(
                "veronese-idealizer-agreement",
                SKIPPED,
                "the degree-2 Veronese of T agrees with the idealizer inside "
                "the Veronese of S from some degree on",
                {
                    "reason": "phi is the identity"
                    if identity
                    else structure_reason
                },
            )
        )
    else:
        cap = min(N, 6)
        rec = idl.veronese_idealizer_compare(2, cap)
        ok = rec["least_agreement_degree"] is not None
        checks.append(
            CheckRecord(
                "veronese-idealizer-agreement",
                OBSERVED if ok else FAIL,
                "pieces of the degree-2 Veronese of T match the idealizer of "
                "the Veronese ideal from the observed degree D on",
                jsonable(rec),
                {"max_degree": cap, "trailing_zeros": cfg.trailing_zeros},
            )
        )

    # 13-15. Koszul cohomology
    engine = ExtEngine(idl)
    U = engine.module_free()
    d = cfg.d

    bad = []
    for n in range(-d, N + 1):
        for i in range(d):
            v = engine.ext_U(i, U, n)
            if v != 0:
                bad.append((i, n, v))
    checks.append(
        CheckRecord(
            "koszul-acyclicity",
            PASS if not bad else FAIL,
            "ext_U(i, U, n) = 0 for i < d: the point's linear forms are a "
            "regular sequence",
            {"failures": jsonable(bad), "degrees": [-d, N]},
        )
    )

    zero_ideal = GradedIdeal(ring, [])
    row = [engine.ext_S_twisted(d, zero_ideal, n) for n in range(N + 1)]
    checks.append(
        CheckRecord(
            "ext-top-twisted",
            PASS if all(v == 1 for v in row) else FAIL,
            "ext_S_twisted(d, 0, n) = 1 for 0 <= n <= N: the top Koszul "
            "cohomology of S against S/I never dies",
            {"row": row},
        )
    )

    max_ideal = GradedIdeal(ring, [ring.variable(i) for i in range(ring.nvars)])
    euler_bad = []
    for module in (U, engine.module_quotient(idl.I, "U/I"), engine.module_quotient(max_ideal, "U/max")):
        for n in range(-d - 1, 4):
            lhs, rhs = euler_characteristic_check(engine.koszul, module, n)
            if lhs != rhs:
                euler_bad.append((module.label, n, lhs, rhs))
    checks.append(
        CheckRecord(
            "euler-identity",
            PASS if not euler_bad else FAIL,
            "the alternating sum of ext dims equals the alternating sum of "
            "binomial-weighted module dims at every sampled degree",
            {"failures": jsonable(euler_bad)},
        )
    )

    # 16. hom tables
    if not density:
        checks.append(
            CheckRecord(
                "hom-quotient-tables",
                SKIPPED,
                "hom_S_quotient totals for orbit, off-orbit, and maximal ideals",
                {"reason": density_reason},
            )
        )
    else:
        k = (N + 1) // 2
        J_orbit = GradedIdeal(ring, [ring.power(k).apply(f) for f in idl.forms])
        table_orbit = engine.hom_table(J_orbit, N)
        expected_orbit = [1 if n == k else 0 for n in range(N + 1)]
        off = _off_orbit_point(instance, orbit)
        if off is None:
            checks.append(
                CheckRecord(
                    "hom-quotient-tables",
                    SKIPPED,
                    "hom_S_quotient totals for orbit, off-orbit, and maximal ideals",
                    {"reason": "no off-orbit sample point found"},
                )
            )
        else:
            J_off = PointIdeal(ring, off)
            table_off = engine.hom_table(J_off, N)
            J_max = max_ideal
            table_max = engine.hom_table(J_max, N)
            expected_max = [1 if n == 0 else 0 for n in range(N + 1)]
            ok = (
                table_orbit == expected_orbit
                and all(v == 0 for v in table_off)
                and table_max == expected_max
            )
            checks.append(
                CheckRecord(
                    "hom-quotient-tables",
                    PASS if ok else FAIL,
                    "hom against the ideal of c_k is 1 exactly at n = k, "
                    "vanishes for an off-orbit point, and is 1 at n = 0 for "
                    "the maximal ideal",
                    {
                        "k": k,
                        "orbit_table": table_orbit,
                        "off_orbit_point": off.render(instance.field),
                        "off_orbit_table": table_off,
                        "max_ideal_table": table_max,
                    },
                )
            )

    # 17. right-noetherian probes
    if identity or not orbit_ok:
        checks.append(
            CheckRecord(
                "right-noetherian-probes",
                SKIPPED,
                "supports of S/(fS+T) and (fS meet T)/fT match the vanishing "
                "set of f along the orbit",
                {
                    "reason": "phi is the identity"
                    if identity
                    else structure_reason
                },
            )
        )
    else:
        probes = []
        ok = True
        c0 = orbit.points[0]
        cm1 = orbit.points[-1]
        rows = [list(c0.coords), list(cm1.coords)]
        two_point = kernel(rows, ring.nvars, field)
        f_a = None
        if two_point:
            f_a = HomogPoly.from_dict(
                ring.nvars,
                1,
                dict(
                    zip(
                        [
                            tuple(1 if j == i else 0 for j in range(ring.nvars))
                            for i in range(ring.nvars)
                        ],
                        two_point[0],
                    )
                ),
            )
        f_b = None
        for f in idl.forms:
            if bool(evaluate_at(f, cm1, field)):
                f_b = f
                break
        for f in (f_a, f_b):
            if f is None:
                continue
            rec = engine.right_noeth_probe(f, N)
            probes.append(
                {
                    "f": format_poly(f, field),
                    "degrees": rec["degrees"],
                    "coker_dims": rec["coker_dims"],
                    "torsion_dims": rec["torsion_dims"],
                    "support": rec["support"],
                    "predicted_support": rec["predicted_support"],
                    "support_matches": rec["support_matches"],
                    "torsion_matches": rec["torsion_matches"],
                }
            )
            ok = ok and rec["support_matches"] and rec["torsion_matches"]
        checks.append(
            CheckRecord(
                "right-noetherian-probes",
                PASS if ok and probes else FAIL,
                "for probe elements f of T_1, S/(fS+T) is supported exactly "
                "where f vanishes along the orbit, and the torsion quotient "
                "drops the initial degree",
                {"probes": jsonable(probes)},
            )
        )

    # 18. chi sampling
    if not density:
        checks.append(
            CheckRecord(
                "chi-sample",
                SKIPPED,
                "twisted ext tables over a sample of quotient modules",
                {"reason": density_reason},
            )
        )
    else:
        k = (N + 1) // 2
        family = [
            ("zero", zero_ideal),
            ("orbit-point", GradedIdeal(ring, [ring.power(k).apply(f) for f in idl.forms])),
        ]
        off = _off_orbit_point(instance, orbit)
        if off is not None:
            family.append(("off-orbit-point", PointIdeal(ring, off)))
        family.append(("principal", GradedIdeal(ring, [ring.variable(0)])))
        chi = engine.chi_sample_report(family, min(N, 6), cfg.trailing_zeros)
        top_never_stabilizes = not chi["zero"]["stabilized"][d]
        low_rows_stabilize = all(
            rec["stabilized"][j]
            for label, rec in chi.items()
            for j in range(d)
            if label != "orbit-point"
        )
        checks.append(
            CheckRecord(
                "chi-sample",
                OBSERVED if top_never_stabilizes and low_rows_stabilize else FAIL,
                "the sampled ext tables are consistent with the finiteness "
                "conditions holding below the top cohomological index and "
                "failing there; a sample cannot verify the general condition",
                jsonable(chi),
                {"max_degree": min(N, 6), "trailing_zeros": cfg.trailing_zeros},
            )
        )

    # 19-21. Segre witnesses
    local = local_witness_check(d, field)
    checks.append(
        CheckRecord(
            "segre-local-witness",
            PASS if local["ok"] else FAIL,
            "u1 v2 - u2 v1 lies in J' meet K' while the degree-2 piece of "
            "J'.K' vanishes",
            jsonable(local),
        )
    )

    segre = SegreContext(d, field, instance.point)
    j1 = segre.diagonal_ideal_piece(1).dim
    expected_j1 = d * (d + 1) // 2
    checks.append(
        CheckRecord(
            "segre-diagonal-dim",
            PASS if j1 == expected_j1 else FAIL,
            "the degree-1 piece of the multiplication kernel has dimension "
            "d(d+1)/2",
            {"dim": j1, "expected": expected_j1},
        )
    )

    cap = min(N, SEGRE_DEGREE_CAP)
    block = segre.witness_dims(cap)
    wdims = [block["witness_dims"][m] for m in range(1, cap + 1)]
    first_pos = None
    for m, v in enumerate(wdims, start=1):
        if v > 0:
            first_pos = m
            break
    all_pos = all(v >= 1 for v in wdims)
    checks.append(
        CheckRecord(
            "segre-witness",
            OBSERVED if all_pos else FAIL,
            "dim ((J meet K)/(J.K))_m >= 1 in every window degree: the "
            "witness module never dies",
            {
                "witness_dims": wdims,
                "meet_dims": [block["meet_dims"][m] for m in range(1, cap + 1)],
                "product_dims": [block["product_dims"][m] for m in range(1, cap + 1)],
                "nonvanishing_from": jsonable(first_pos),
            },
            {"max_degree": cap, "trailing_zeros": cfg.trailing_zeros},
        )
    )

    # 22. prime-mode cross-check
    if instance.rational:
        checks.append(
            CheckRecord(
                "prime-mode-crosscheck",
                SKIPPED,
                "dimension agreement with a second prime",
                {"reason": "rational arithmetic is exact"},
            )
        )
    else:
        q = second_prime(instance)
        from dataclasses import replace as dc_replace

        twin_cfg = dc_replace(cfg, field="prime:%d" % q)
        try:
            twin = twin_cfg.build()
            twin_dims = {
                "t_dims": [twin.idealizer.t_dim(n) for n in range(N + 1)],
                "s_mod_t": twin.idealizer.s_mod_t_dims(N),
                "s_mod_is": twin.idealizer.s_mod_is_dims(N),
            }
            here_dims = {
                "t_dims": [idl.t_dim(n) for n in range(N + 1)],
                "s_mod_t": idl.s_mod_t_dims(N),
                "s_mod_is": idl.s_mod_is_dims(N),
            }
            agree = twin_dims == here_dims
            checks.append(
                CheckRecord(
                    "prime-mode-crosscheck",
                    OBSERVED if agree else FAIL,
                    "prime arithmetic is heuristic: dimensions are compared "
                    "against an independently chosen second prime",
                    {
                        "heuristic": True,
                        "primes": [field.char, q],
                        "agree": agree,
                        "dims": here_dims,
                        "second_dims": twin_dims,
                    },
                    window,
                )
            )
        except Exception as exc:  # config degenerates mod q
            checks.append(
                CheckRecord(
                    "prime-mode-crosscheck",
                    SKIPPED,
                    "dimension agreement with a second prime",
                    {"reason": "second prime unusable: %s" % exc},
                )
            )

    return VerificationReport(cfg.payload(), tuple(checks))
