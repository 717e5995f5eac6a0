"""The one-shot verification suite.

Checks run in the fixed order of ``CHECKS``.  Each check lists the
requirements it needs; ``run_suite`` skips it with the reason of the
first unmet one, in the order listed, and otherwise runs its body.

==============  ============================================================
requirement     reason when unmet
==============  ============================================================
diagonal        automorphism given as a matrix
certificate     the certificate's error, or "automorphism given as a matrix"
density         multipliers are not certified multiplicatively independent,
                so density-based statements do not apply
structural      orbit points collide in the window without phi being the
                identity (met by a distinct orbit or by phi = id)
non-identity    phi is the identity
distinct        orbit points collide in the window without phi being the
                identity
nonzero-coords  the point has a coordinate that is zero in the field in use,
                so its orbit stays in a coordinate hyperplane
window          the window leaves fewer degrees after degree 1 than the
                required trailing zeros
generator-      the window leaves fewer degrees after degree 2 than the
window          required trailing zeros
prime           rational arithmetic is exact
off-orbit       no off-orbit sample point found
twin            second prime unusable: <why the config fails mod q>
twin-regime     the primes decide a regime gate (distinct, nonzero-coords)
                differently
==============  ============================================================

The window gates are skips, not usage errors: degrees 0 and 1 of S/IS
never vanish, nor do the generator counts in degree 1 and, off phi = id,
degree 2 (T_1.T_1 vanishes at two orbit points, T_2 at one), so the
required trailing zeros fit only if trailing_zeros <= N - 1, resp. N - 2.

``run_suite`` decides every gate first, in ``CHECKS`` order.  Each check
names its group as it registers; the ``GROUPS`` of checks that read the
same caches are the idealizer checks (T's pieces and products), the Ext
checks (Koszul ranks and moved ideals), each self-check of twisted
arithmetic, the Segre checks and the window checks.  One byte per group
with a check to run goes into a pipe whose write end closes before the
suite forks one worker; the parent and the worker then each claim the
next group with a one-byte read until the pipe is empty, so whichever is
free takes it, in the fixed order of ``GROUP_ORDER`` (largest first on
the reference and prime instances).  ``_result`` makes a body's data
JSON-safe in the process that ran it, before the worker marshals its
results back through a second pipe (``marshal`` rejects a
``Fraction``).  The suite forks only where ``os.fork`` and
``os.sched_getaffinity`` exist, the process may use at least two CPUs,
and no other thread is running; otherwise, or when the fork fails, every
check runs inline.  A check with no result, because its body raised in
either process or the worker died, runs again in the merge loop, in
``CHECKS`` order, so the first check that raises surfaces on every
path.  The worker leaves through ``os._exit``: it never flushes the
parent's stdio buffers, and ``run_suite`` waits for it before it returns
or raises.  Records merge in ``CHECKS`` order, so the report is the same
on both paths.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import threading
from functools import cached_property
from itertools import count, islice
from typing import Callable

from .automorphism import ProjPoint
from .config import ConfigError, Instance
from .ext import ExtEngine, euler_characteristic_check
from .fields import int_row, is_prime
from .linalg import kernel
from .orbit import (
    FactorBoundError,
    centred_indices,
    distinct_window,
    general_position_rank,
    multiplicative_independence,
)
from .poly import basis_dim, format_poly, vanishes_at
from .report import FAIL, OBSERVED, PASS, SKIPPED, CheckRecord, VerificationReport, jsonable
from .segre import SegreContext, local_witness_check, nonvanishing_from
from .twist import GradedIdeal, PointIdeal, associativity_sample, kernel_form

ASSOCIATIVITY_TRIALS = 200
ASSOCIATIVITY_SEED = 811
OPPOSITE_DEGREE_CAP = 6
SEGRE_DEGREE_CAP = 6

MATRIX_REASON = "automorphism given as a matrix"
DENSITY_REASON = (
    "multipliers are not certified multiplicatively independent, so "
    "density-based statements do not apply"
)
STRUCTURE_REASON = "orbit points collide in the window without phi being the identity"
HYPERPLANE_REASON = (
    "the point has a coordinate that is zero in the field in use, so its "
    "orbit stays in a coordinate hyperplane"
)
REGIME_GATES = ("distinct", "nonzero-coords")

PROBE_KEYS = (
    "degrees",
    "coker_dims",
    "torsion_dims",
    "support",
    "predicted_support",
    "support_matches",
    "torsion_matches",
)

__all__ = ["run_suite", "second_prime", "skip_reason"]


def second_prime(instance: Instance) -> int:
    """Deterministic companion prime for the prime-mode cross-check."""
    digest = hashlib.sha256(instance.config.canonical_text().encode()).hexdigest()
    candidate = 10007 + 2 * (int(digest, 16) % 5000)
    while not is_prime(candidate) or candidate == instance.field.char:
        candidate += 2
    return candidate


def _trailing_zero_count(values) -> int:
    count = 0
    for v in reversed(values):
        if v != 0:
            break
        count += 1
    return count


def _verdict(ok: bool, good: str = PASS) -> str:
    return good if ok else FAIL


class _Context:
    """State shared by the checks of one run; each field is built at most once."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.cfg = instance.config
        self.ring = instance.ring
        self.idl = instance.idealizer
        self.field = instance.field
        self.N = self.cfg.max_degree
        self.window = {"max_degree": self.N, "trailing_zeros": self.cfg.trailing_zeros}

    def capped_window(self, cap: int) -> dict:
        return {"max_degree": cap, "trailing_zeros": self.cfg.trailing_zeros}

    @property
    def orbit(self):
        return self.idl.orbit(self.N)

    @cached_property
    def distinct(self) -> tuple[bool, tuple[int, int] | None]:
        return distinct_window(self.orbit)

    @property
    def orbit_ok(self) -> bool:
        return self.distinct[0]

    @cached_property
    def identity(self) -> bool:
        return self.ring.phi.is_identity()

    @cached_property
    def certificate(self):
        """The multiplier certificate, or the reason there is none (a str)."""
        if self.cfg.multipliers is None:
            return MATRIX_REASON
        try:
            return multiplicative_independence(self.cfg.multipliers)
        except (FactorBoundError, ValueError) as exc:
            return str(exc)

    @property
    def density(self) -> bool:
        return getattr(self.certificate, "verdict", None) == "independent"

    @cached_property
    def engine(self) -> ExtEngine:
        return ExtEngine(self.idl)

    @cached_property
    def zero_ideal(self) -> GradedIdeal:
        return GradedIdeal(self.ring, [])

    @cached_property
    def max_ideal(self) -> GradedIdeal:
        return GradedIdeal(self.ring, [self.ring.variable(i) for i in range(self.ring.nvars)])

    @property
    def k(self) -> int:
        return (self.N + 1) // 2

    @cached_property
    def j_orbit(self) -> PointIdeal:
        """The ideal of the orbit point c_k."""
        return PointIdeal(self.ring, self.orbit.points[self.k])

    @cached_property
    def off(self) -> ProjPoint | None:
        """A deterministic point avoiding the orbit window, or None."""
        coords = [1] + list(islice(filter(is_prime, count(5, 2)), self.cfg.d))
        taken = {pt.coords for pt in self.orbit.points.values()}
        for _ in range(64):
            # the leading coordinate 1 keeps every candidate a valid point
            pt = ProjPoint.make([self.field.from_int(c) for c in coords], self.field)
            if pt.coords not in taken:
                return pt
            coords[-1] *= 2
        return None

    @cached_property
    def j_off(self) -> PointIdeal:
        return PointIdeal(self.ring, self.off)

    @cached_property
    def twin(self):
        """The config rebuilt over the second prime, or why it cannot be (a str)."""
        q = second_prime(self.instance)
        try:
            return self.cfg.updated({"field": "prime:%d" % q}).build()
        except ConfigError as exc:
            return "second prime unusable: %s" % exc

    @cached_property
    def twin_regime(self) -> str | None:
        """Why the second prime decides another regime, or None."""
        twin = _Context(self.twin)
        for gate in REGIME_GATES:
            here, there = GATES[gate](self) is None, GATES[gate](twin) is None
            if here != there:
                return "the %s gate is %s mod %d but %s mod %d" % (
                    gate,
                    "met" if here else "unmet",
                    self.field.char,
                    "met" if there else "unmet",
                    twin.field.char,
                )
        return None


def _window_after(last: int) -> Callable[[_Context], str | None]:
    """The gate of a trailing-zero check whose degrees up to ``last`` never vanish."""
    return lambda ctx: (
        None
        if ctx.cfg.trailing_zeros <= ctx.N - last
        else "the window leaves %d degrees after degree %d, fewer than the %d trailing "
        "zero degrees required" % (ctx.N - last, last, ctx.cfg.trailing_zeros)
    )


GATES: dict[str, Callable[[_Context], str | None]] = {
    "diagonal": lambda ctx: MATRIX_REASON if ctx.cfg.multipliers is None else None,
    "certificate": lambda ctx: ctx.certificate if isinstance(ctx.certificate, str) else None,
    "density": lambda ctx: None if ctx.density else DENSITY_REASON,
    "structural": lambda ctx: None if ctx.orbit_ok or ctx.identity else STRUCTURE_REASON,
    "non-identity": lambda ctx: "phi is the identity" if ctx.identity else None,
    "distinct": lambda ctx: None if ctx.orbit_ok else STRUCTURE_REASON,
    "nonzero-coords": lambda ctx: None if all(ctx.instance.point.coords) else HYPERPLANE_REASON,
    "prime": lambda ctx: "rational arithmetic is exact" if ctx.instance.rational else None,
    "off-orbit": lambda ctx: None if ctx.off is not None else "no off-orbit sample point found",
    "window": _window_after(1),
    "generator-window": _window_after(2),
    "twin": lambda ctx: ctx.twin if isinstance(ctx.twin, str) else None,
    "twin-regime": lambda ctx: ctx.twin_regime,
}


# (name, statement of the skipped record, requires, body); a body returns
# (status, statement, data[, window])
CHECKS: list[tuple[str, str | None, tuple[str, ...], Callable[[_Context], tuple]]] = []

# The groups of checks that read the same caches, in a fixed order:
# largest first on the reference and prime instances, while in four
# variables twist-associativity costs more than either of the first two.
# Every check is in exactly one, so the two processes of a run share no
# work.
GROUP_ORDER = ("idealizer", "ext", "associativity", "opposite", "segre", "window")
_GROUPED: dict[str, list[str]] = {group: [] for group in GROUP_ORDER}


def _check(group: str, name: str, statement: str | None = None, requires: tuple[str, ...] = ()):
    def register(body):
        CHECKS.append((name, statement, requires, body))
        _GROUPED[group].append(name)
        return body

    return register


def _unmet(ctx: _Context, requires: tuple[str, ...]) -> str | None:
    """The reason of the first unmet gate among ``requires``, or None."""
    return next(filter(None, (GATES[r](ctx) for r in requires)), None)


def skip_reason(instance: Instance, name: str) -> str | None:
    """Why the suite skips the named check on this instance, or None."""
    requires = next(req for check, _, req, _ in CHECKS if check == name)
    return _unmet(_Context(instance), requires)


def _may_fork() -> bool:
    """A second CPU for the worker, and no thread that could hold a lock
    across the fork."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _result(body, ctx: _Context) -> tuple:
    """The body's result, its data made JSON-safe."""
    status, statement, data, *window = body(ctx)
    return (status, statement, jsonable(data), *window)


def _claim(ctx: _Context, groups, claims: int) -> dict:
    """Run the groups whose indices this process reads from ``claims``
    until the pipe is empty; {name: result} of the bodies that returned.
    A body that raises has no result, so the merge loop runs it again."""
    results = {}
    while index := os.read(claims, 1):
        for name, body in groups[index[0]]:
            try:
                results[name] = _result(body, ctx)
            except Exception:
                pass
    return results


def _join_worker(pid: int, read_end: int) -> dict:
    """The worker's results, {} if it sent none; it has exited on return."""
    try:
        with os.fdopen(read_end, "rb") as pipe:
            data = pipe.read()
    finally:
        os.waitpid(pid, 0)
    try:
        return marshal.loads(data)
    except (EOFError, ValueError):
        return {}


def _split(ctx: _Context, groups) -> dict:
    """The results of the groups, claimed by the parent and one forked
    worker that sends its own marshalled through a pipe; {} if the fork
    failed."""
    claims, write_end = os.pipe()
    os.write(write_end, bytes(range(len(groups))))
    os.close(write_end)  # before the fork, so both readers reach the end
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (claims, read_end, write_end):
            os.close(fd)
        return {}
    if not pid:
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as out:
                out.write(marshal.dumps(_claim(ctx, groups, claims)))
        finally:
            os._exit(0)
    os.close(write_end)
    results = {}
    try:
        results = _claim(ctx, groups, claims)
    finally:
        os.close(claims)
        results.update(_join_worker(pid, read_end))
    return results


def run_suite(instance: Instance) -> VerificationReport:
    ctx = _Context(instance)
    reasons = {name: _unmet(ctx, requires) for name, _, requires, _ in CHECKS}
    runnable = {name: body for name, _, _, body in CHECKS if reasons[name] is None}
    groups = [[(name, runnable[name]) for name in group if name in runnable] for group in GROUPS]
    groups = list(filter(None, groups))
    results = _split(ctx, groups) if len(groups) > 1 and _may_fork() else {}
    checks = []
    for name, statement, _, body in CHECKS:
        if reasons[name] is not None:
            checks.append(CheckRecord(name, SKIPPED, statement, {"reason": reasons[name]}))
        else:
            result = results[name] if name in results else _result(body, ctx)
            checks.append(CheckRecord(name, *result))
    return VerificationReport(ctx.cfg.payload(), tuple(checks))


@_check(
    "window", "twist-normalization-pin",
    "x1.x0 = p1 (x0 . x1): stated for the diagonal family only",
    ("diagonal",),
)
def _twist_normalization_pin(ctx):
    ring = ctx.ring
    x0, x1 = ring.variable(0), ring.variable(1)
    p1 = ring.phi.entry(1, 1)
    ok = ring.mul(x1, x0) == ring.mul(x0, x1).scale(p1)
    return (
        _verdict(ok),
        "x1.x0 equals p1 times x0.x1 in the twisted product",
        {"p1": p1},
    )


@_check("associativity", "twist-associativity")
def _twist_associativity(ctx):
    ok = associativity_sample(ctx.ring, ASSOCIATIVITY_TRIALS, ASSOCIATIVITY_SEED)
    return (
        _verdict(ok),
        "(f.g).h = f.(g.h) for %d seeded random triples" % ASSOCIATIVITY_TRIALS,
        {"trials": ASSOCIATIVITY_TRIALS, "seed": ASSOCIATIVITY_SEED},
    )


@_check("opposite", "opposite-ring-transport")
def _opposite_ring_transport(ctx):
    ok, checked, first_bad = ctx.ring.opposite_iso_check(OPPOSITE_DEGREE_CAP)
    return (
        _verdict(ok),
        "powers of phi transport the opposite product onto the twist by "
        "the inverse, exhaustively to total degree %d" % OPPOSITE_DEGREE_CAP,
        {"checked_pairs": checked, "first_failure": first_bad},
    )


@_check("window", "orbit-distinct-window")
def _orbit_distinct_window(ctx):
    # an observation about the window, not a claim
    ok, collision = ctx.distinct
    return (
        OBSERVED,
        "pairwise distinctness of the orbit points c_n for |n| <= N",
        {
            "distinct": ok,
            "collision": collision,
            "identity_automorphism": ctx.identity,
        },
        ctx.window,
    )


@_check(
    "window", "multiplier-independence",
    "multiplicative independence of the diagonal multipliers",
    ("certificate",),
)
def _multiplier_independence(ctx):
    cert = ctx.certificate
    return (
        _verdict(cert.verdict == "independent" or cert.relation_verified),
        "certificate for multiplicative independence of the multipliers, "
        "with any relation verified exactly",
        cert.payload(),
    )


@_check(
    "window", "general-position-ranks",
    "evaluation matrices at consecutive orbit points have full rank",
    ("density", "distinct", "nonzero-coords"),
)
def _general_position_ranks(ctx):
    indices = [centred_indices(basis_dim(ctx.ring.nvars, m)) for m in (1, 2)]
    # the shared window of size N lacks the outer indices when N is small
    window = ctx.idl.orbit(max(ctx.N, *(abs(k) for idx in indices for k in idx)))
    ranks = [general_position_rank(window, m, idx, ctx.field) for m, idx in zip((1, 2), indices)]
    # mod p a rank can drop on specialization, so only full rank is evidence
    full = all(rec["full"] for rec in ranks) or not ctx.instance.rational
    return (
        _verdict(full, OBSERVED),
        "degree-m evaluation at dim U_m consecutive orbit points has "
        "full rank for m = 1, 2",
        {"ranks": ranks},
        ctx.window,
    )


@_check("idealizer", "idealizer-structure", "T_n = I_n for 1 <= n <= N", ("structural",))
def _idealizer_structure(ctx):
    N, idl = ctx.N, ctx.idl
    if ctx.identity:
        dims = [idl.t_dim(n) for n in range(N + 1)]
        expected = [basis_dim(ctx.ring.nvars, n) for n in range(N + 1)]
        return (
            _verdict(dims == expected),
            "phi is the identity, so the idealizer is all of S",
            {"mode": "identity", "dims": dims, "expected": expected},
        )
    rec = idl.check_T_equals_k_plus_I(N)
    return (
        _verdict(rec["agrees"]),
        "T_0 = k and T_n = I_n for 1 <= n <= N",
        rec,
    )


@_check("idealizer", "hilbert-s-mod-t", "dim (S/T)_n = 1 for 1 <= n <= N", ("structural",))
def _hilbert_s_mod_t(ctx):
    N = ctx.N
    dims = ctx.idl.s_mod_t_dims(N)
    expected = [0] * (N + 1) if ctx.identity else [0] + [1] * N
    return (
        _verdict(dims == expected),
        "dim (S/T)_n = 0 for all n when phi = id, otherwise exactly 1 "
        "for 1 <= n <= N",
        {"dims": dims, "expected": expected},
    )


@_check(
    "idealizer", "hilbert-s-mod-is",
    "dim (S/IS)_m vanishes from some m0 on",
    ("structural", "window"),
)
def _hilbert_s_mod_is(ctx):
    dims = ctx.idl.s_mod_is_dims(ctx.N)
    if ctx.identity:
        return (
            _verdict(all(v == 1 for v in dims), OBSERVED),
            "phi = id control: dim (S/IS)_m = 1 in every window degree",
            {"dims": dims},
            ctx.window,
        )
    tz = _trailing_zero_count(dims)
    m0 = len(dims) - tz if tz else None
    return (
        _verdict(m0 is not None and tz >= ctx.cfg.trailing_zeros, OBSERVED),
        "dim (S/IS)_m = 0 from an observed m0 <= N on, with the "
        "required count of trailing zero degrees",
        {"dims": dims, "m0": m0, "trailing_zeros_seen": tz},
        ctx.window,
    )


@_check(
    "idealizer", "generator-degrees",
    "minimal generator degrees of T",
    ("structural", "window", "generator-window"),
)
def _generator_degrees(ctx):
    gens = ctx.idl.algebra_generator_degrees(ctx.N)
    tz = _trailing_zero_count([c for _, c in gens])
    return (
        _verdict(tz >= ctx.cfg.trailing_zeros, OBSERVED),
        "new algebra generators of T appear only in an initial range "
        "of degrees, zero counts afterwards",
        {"counts_by_degree": gens, "trailing_zeros_seen": tz},
        ctx.window,
    )


@_check(
    "idealizer", "veronese-generation", "T_n.T_n versus T_2n for n = 1, 2, 3", ("structural",)
)
def _veronese_generation(ctx):
    recs = [ctx.idl.veronese_gen_in_degree_one(n) for n in (1, 2, 3)]
    want = ctx.identity
    return (
        _verdict(all(r["generated"] == want for r in recs)),
        "the n-th Veronese of T is generated in degree one exactly "
        "when phi is the identity (n = 1, 2, 3)",
        {"records": recs, "expected_generated": want},
    )


@_check(
    "idealizer", "veronese-idealizer-agreement",
    "the degree-2 Veronese of T agrees with the idealizer inside "
    "the Veronese of S from some degree on",
    ("non-identity", "distinct"),
)
def _veronese_idealizer_agreement(ctx):
    cap = min(ctx.N, 6)
    rec = ctx.idl.veronese_idealizer_compare(2, cap)
    return (
        _verdict(rec["least_agreement_degree"] is not None, OBSERVED),
        "pieces of the degree-2 Veronese of T match the idealizer of "
        "the Veronese ideal from the observed degree D on",
        rec,
        ctx.capped_window(cap),
    )


@_check("ext", "koszul-acyclicity")
def _koszul_acyclicity(ctx):
    d = ctx.cfg.d
    bad = []
    for n in range(-d, ctx.N + 1):
        for i in range(d):
            v = ctx.engine.koszul.ext(ctx.zero_ideal, i, n)
            if v != 0:
                bad.append((i, n, v))
    return (
        _verdict(not bad),
        "ext_U(i, U, n) = 0 for i < d: the point's linear forms are a "
        "regular sequence",
        {"failures": bad, "degrees": [-d, ctx.N]},
    )


@_check("ext", "ext-top-twisted")
def _ext_top_twisted(ctx):
    row = [ctx.engine.ext_S_twisted(ctx.cfg.d, ctx.zero_ideal, n) for n in range(ctx.N + 1)]
    return (
        _verdict(all(v == 1 for v in row)),
        "ext_S_twisted(d, 0, n) = 1 for 0 <= n <= N: the top Koszul "
        "cohomology of S against S/I never dies",
        {"row": row},
    )


@_check("ext", "euler-identity")
def _euler_identity(ctx):
    modules = (
        ("U", ctx.zero_ideal),
        ("U/I", ctx.idl.I),
        ("U/max", ctx.max_ideal),
    )
    bad = []
    for label, J in modules:
        for n in range(-ctx.cfg.d - 1, 4):
            lhs, rhs = euler_characteristic_check(ctx.engine.koszul, J, n)
            if lhs != rhs:
                bad.append((label, n, lhs, rhs))
    return (
        _verdict(not bad),
        "the alternating sum of ext dims equals the alternating sum of "
        "binomial-weighted module dims at every sampled degree",
        {"failures": bad},
    )


@_check(
    "ext", "hom-quotient-tables",
    "hom_S_quotient totals for orbit, off-orbit, and maximal ideals",
    ("density", "distinct", "nonzero-coords", "off-orbit"),
)
def _hom_quotient_tables(ctx):
    N, k, engine = ctx.N, ctx.k, ctx.engine
    table_orbit = engine.hom_table(ctx.j_orbit, N)
    table_off = engine.hom_table(ctx.j_off, N)
    table_max = engine.hom_table(ctx.max_ideal, N)
    ok = (
        table_orbit == [1 if n == k else 0 for n in range(N + 1)]
        and all(v == 0 for v in table_off)
        and table_max == [1 if n == 0 else 0 for n in range(N + 1)]
    )
    return (
        _verdict(ok),
        "hom against the ideal of c_k is 1 exactly at n = k, "
        "vanishes for an off-orbit point, and is 1 at n = 0 for "
        "the maximal ideal",
        {
            "k": k,
            "orbit_table": table_orbit,
            "off_orbit_point": ctx.off.render(ctx.field),
            "off_orbit_table": table_off,
            "max_ideal_table": table_max,
        },
    )


@_check(
    "idealizer", "right-noetherian-probes",
    "supports of S/(fS+T) and (fS meet T)/fT match the vanishing "
    "set of f along the orbit",
    ("non-identity", "distinct"),
)
def _right_noetherian_probes(ctx):
    ring, field = ctx.ring, ctx.field
    cm1 = ctx.orbit.points[-1]
    # f_a vanishes at c_0 and c_{-1}; f_b is the first form of I_1 that
    # does not vanish at c_{-1}
    rows = [int_row(pt.coords, field) for pt in (ctx.orbit.points[0], cm1)]
    two_point = kernel(rows, ring.nvars, field)
    f_a = kernel_form(ring, two_point[0]) if two_point else None
    f_b = next((f for f in ctx.idl.forms if not vanishes_at(f, cm1.coords, field)), None)
    probes = []
    ok = True
    for f in (f_a, f_b):
        if f is None:
            continue
        rec = ctx.engine.right_noeth_probe(f, ctx.N)
        probes.append({"f": format_poly(f, field), **{key: rec[key] for key in PROBE_KEYS}})
        ok = ok and rec["support_matches"] and rec["torsion_matches"]
    return (
        _verdict(ok and bool(probes)),
        "for probe elements f of T_1, S/(fS+T) is supported exactly "
        "where f vanishes along the orbit, and the torsion quotient "
        "drops the initial degree",
        {"probes": probes},
    )


@_check(
    "ext", "chi-sample",
    "twisted ext tables over a sample of quotient modules",
    ("density", "distinct", "nonzero-coords"),
)
def _chi_sample(ctx):
    d, cap = ctx.cfg.d, min(ctx.N, 6)
    family = [("zero", ctx.zero_ideal), ("orbit-point", ctx.j_orbit)]
    if ctx.off is not None:
        family.append(("off-orbit-point", ctx.j_off))
    family.append(("principal", GradedIdeal(ctx.ring, [ctx.ring.variable(0)])))
    chi = ctx.engine.chi_sample_report(family, cap, ctx.cfg.trailing_zeros)
    top_never_stabilizes = not chi["zero"]["stabilized"][d]
    low_rows_stabilize = all(
        rec["stabilized"][j]
        for label, rec in chi.items()
        for j in range(d)
        if label != "orbit-point"
    )
    return (
        _verdict(top_never_stabilizes and low_rows_stabilize, OBSERVED),
        "the sampled ext tables are consistent with the finiteness "
        "conditions holding below the top cohomological index and "
        "failing there; a sample cannot verify the general condition",
        chi,
        ctx.capped_window(cap),
    )


@_check("segre", "segre-local-witness")
def _segre_local_witness(ctx):
    local = local_witness_check(ctx.cfg.d, ctx.field)
    return (
        _verdict(local["ok"]),
        "u1 v2 - u2 v1 lies in J' meet K' while the degree-2 piece of "
        "J'.K' vanishes",
        local,
    )


@_check("segre", "segre-diagonal-dim")
def _segre_diagonal_dim(ctx):
    d = ctx.cfg.d
    j1 = SegreContext(d, ctx.field).diagonal_ideal_piece(1).dim
    expected = d * (d + 1) // 2
    return (
        _verdict(j1 == expected),
        "the degree-1 piece of the multiplication kernel has dimension "
        "d(d+1)/2",
        {"dim": j1, "expected": expected},
    )


@_check("segre", "segre-witness")
def _segre_witness(ctx):
    cap = min(ctx.N, SEGRE_DEGREE_CAP)
    block = SegreContext(ctx.cfg.d, ctx.field).witness_dims(cap)
    ms = range(1, cap + 1)
    wdims = [block["witness_dims"][m] for m in ms]
    return (
        _verdict(all(v >= 1 for v in wdims), OBSERVED),
        "dim ((J meet K)/(J.K))_m >= 1 in every window degree: the "
        "witness module never dies",
        {
            "witness_dims": wdims,
            "meet_dims": [block["meet_dims"][m] for m in ms],
            "product_dims": [block["product_dims"][m] for m in ms],
            "nonvanishing_from": nonvanishing_from(block["witness_dims"]),
        },
        ctx.capped_window(cap),
    )


@_check(
    "idealizer", "prime-mode-crosscheck",
    "dimension agreement with a second prime",
    ("prime", "twin", "twin-regime"),
)
def _prime_mode_crosscheck(ctx):
    N = ctx.N

    def dims(idl):
        return {
            "t_dims": [idl.t_dim(n) for n in range(N + 1)],
            "s_mod_t": idl.s_mod_t_dims(N),
            "s_mod_is": idl.s_mod_is_dims(N),
        }

    twin_dims = dims(ctx.twin.idealizer)
    here_dims = dims(ctx.idl)
    agree = twin_dims == here_dims
    return (
        _verdict(agree, OBSERVED),
        "prime arithmetic is heuristic: dimensions are compared "
        "against an independently chosen second prime",
        {
            "heuristic": True,
            "primes": [ctx.field.char, ctx.twin.field.char],
            "agree": agree,
            "dims": here_dims,
            "second_dims": twin_dims,
        },
        ctx.window,
    )


# each group's checks in CHECKS order, the groups in GROUP_ORDER
GROUPS = tuple(tuple(names) for names in _GROUPED.values())
