"""Koszul cohomology, hom spaces, and the right-noetherian probes.

The linear forms cutting out a point are a regular sequence of length d
in U, so the Koszul complex on them resolves U/I and

    Ext^i_U(U/I, M)_n  =  H^i of the cochain complex with C^i(M)_n a
    direct sum of C(d, i) copies of M_{n+i},

computed as dim C^i minus the ranks of the two adjacent differentials.
Twisting enters only through a change of module: the degree-n behaviour
over S is the degree-n behaviour over U after replacing J by its
pullback under phi^n.

There is one module type, QuotientModule(J, power) = U/phi^power(J);
the free module U is the quotient by the zero ideal.  Each differential
is ranked at most once per complex, module and degree: the rank is kept
on the module, so it is freed with it, and Ext^i reuses the ranks of
delta^i and delta^(i-1) that its neighbours already paid for.

Every product here is an int-row product through ``poly.product_index``,
fed nonzero by nonzero into the target piece's cached quotient map; no
polynomial is multiplied and no full-width product row is built.  The
hom spaces and the probes report dimensions, so they count them from
ranks and never build the spaces: dim Hom_n is dim U_n - rank M - dim J_n
for the constraint matrix M.  The probe counts its sum in the quotient
by T_m: dim (fS + T)_m is dim T_m plus the rank r of the image of the
rows of (fS)_m in U_m/T_m, a dim fS x codim T_m matrix (codim T_m is 1
in the generic regime), so S/(fS + T) has dimension codim T_m - r and
(fS meet T)_m has dimension dim fS - r.  Each keeps an exact guard on
the space it no longer builds: J_n lies in ker M, and fT lies in both
fS and T.

The probes at the end are the finite-dimensional noetherian witnesses:
for f in T_n they tabulate (S/(fS + T))_m and ((fS meet T)/fT)_m and
compare the supports with the vanishing set of f along the orbit.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .automorphism import evaluate_at
from .idealizer_ring import IdealizerRing
from .linalg import rank_rows, span
from .orbit import orbit_points
from .poly import HomogPoly, basis_dim, poly_to_vector, product_index, row_product
from .twist import GradedIdeal

__all__ = [
    "ExtEngine",
    "KoszulComplex",
    "QuotientModule",
]


class QuotientModule:
    """U/J for a graded ideal J, pulled back by phi^power.

    The degree-n piece is J.twisted_piece(power, n), memoized by the
    ideal.  The degree-n basis is the set of monomials at the non-pivot
    columns of that piece, so multiplication matrices are reductions of
    honest products.  Ranks of Koszul differentials on this module are
    kept in `ranks`, keyed (complex, i, n), and live as long as it does.
    """

    def __init__(self, ideal: GradedIdeal, power: int = 0):
        self.ideal = ideal
        self.power = power
        self.ring = ideal.ring
        self.ranks = {}

    def piece(self, n: int):
        return self.ideal.twisted_piece(self.power, n)

    def dim(self, n: int) -> int:
        if n < 0:
            return 0
        return basis_dim(self.ring.nvars, n) - self.piece(n).dim

    def mult_matrix(self, form: HomogPoly, n: int):
        """Matrix of multiplication by a linear form, degree n to n + 1."""
        if n < 0:
            return [[] for _ in range(self.dim(n + 1))]
        return _mult_rows(form, self.piece(n).nonpivot_columns, self.piece(n + 1), self.ring.field)


def _mult_rows(g: HomogPoly, indices, target, field) -> list[list[int]]:
    """Int matrix of x -> g * x from the span of the monomials m_k, k in
    ``indices``, into U / target.

    Column k is g * m_k: the nonzeros of g's int row, scattered by
    ``poly.product_index``, go straight into the target's quotient map,
    so no full-width row is built.  It is exact for one nonzero multiple
    of g: every column shares the scale of g's int row and the one
    denominator of the target's quotient map (the lcm of its int pivots
    over Q, 1 mod p).  That rescales a hom constraint block's rows and
    conjugates a Koszul differential by a diagonal rescaling of the e_A,
    so no kernel or rank sees it.  A scale per column would change ranks.
    """
    terms = [(i, x) for i, x in enumerate(poly_to_vector(g, field)) if x]
    table = product_index(g.nvars, target.ambient.degree - g.degree, g.degree)
    cols = [target.quotient_terms((table[k][i], x) for i, x in terms)[0] for k in indices]
    return [[col[r] for col in cols] for r in range(target.ambient.dim - target.dim)]


class KoszulComplex:
    """Koszul complex on a regular sequence of linear forms."""

    def __init__(self, forms, field):
        forms = list(forms)
        if not forms:
            raise ValueError("need at least one form")
        nvars = forms[0].nvars
        if any(f.degree != 1 or f.nvars != nvars for f in forms):
            raise ValueError("forms must be linear in a common ring")
        width = basis_dim(nvars, 1)
        if rank_rows([poly_to_vector(f, field) for f in forms], width, field) != len(forms):
            raise ValueError("forms must be linearly independent")
        self.forms = forms
        self.field = field
        self.d = len(forms)

    def cochain_matrix(self, module, i: int, n: int):
        """delta^i: C^i(M)_n -> C^{i+1}(M)_n."""
        src_index = {A: p for p, A in enumerate(combinations(range(self.d), i))}
        tgt = list(combinations(range(self.d), i + 1))
        sdim = module.dim(n + i)
        tdim = module.dim(n + i + 1)
        rows = [[0] * (sdim * len(src_index)) for _ in range(tdim * len(tgt))]
        mults = {}
        for q, B in enumerate(tgt):
            for t, b in enumerate(B):
                p = src_index[B[:t] + B[t + 1:]]
                if b not in mults:
                    mults[b] = module.mult_matrix(self.forms[b], n + i)
                for r, block_row in enumerate(mults[b]):
                    row = rows[q * tdim + r]
                    for k, v in enumerate(block_row):
                        if v:
                            row[p * sdim + k] = -v if t % 2 else v
        return rows

    def cochain_dim(self, module, i: int, n: int) -> int:
        if i < 0 or i > self.d:
            return 0
        return comb(self.d, i) * module.dim(n + i)

    def rank(self, module, i: int, n: int) -> int:
        """Rank of delta^i on M in degree n, ranked once and kept on M."""
        if i < 0 or i >= self.d:
            return 0
        key = (self, i, n)
        got = module.ranks.get(key)
        if got is None:
            width = self.cochain_dim(module, i, n)
            got = rank_rows(self.cochain_matrix(module, i, n), width, self.field)
            module.ranks[key] = got
        return got

    def ext(self, module, i: int, n: int) -> int:
        """dim Ext^i_U(U/(forms), M)_n."""
        if i < 0 or i > self.d:
            return 0
        return self.cochain_dim(module, i, n) - self.rank(module, i, n) - self.rank(module, i - 1, n)

    def ext_row(self, module, n: int) -> list[int]:
        """All of Ext^0..Ext^d at degree n."""
        return [self.ext(module, i, n) for i in range(self.d + 1)]


class ExtEngine:
    """Degreewise Ext and Hom witnesses for the twist and its idealizer."""

    def __init__(self, idealizer: IdealizerRing):
        self.idealizer = idealizer
        self.ring = idealizer.ring
        self.field = idealizer.field
        self.koszul = KoszulComplex(idealizer.forms, idealizer.field)

    def ext_S_twisted(self, i: int, J: GradedIdeal, n: int) -> int:
        """dim Ext^i_S(S/I, (S/J))_n via the pullback of J under phi^n."""
        return self.koszul.ext(QuotientModule(J, -n), i, n)

    def hom_S_quotient(self, J: GradedIdeal, n: int) -> int:
        """dim of { x in U_n : phi^n(I_1) . x <= J_{n+1} } / J_n.

        Generation of J as a left ideal makes the degree-1 constraints
        sufficient, and this count equals ext_S_twisted(0, J, n).  The
        solutions are ker M for the constraint matrix M, so the count is
        dim U_n - rank M - dim J_n; the guard that J_n lies in ker M is the
        exact product M x for every row x of J_n.
        """
        if n < 0:
            return 0
        width = basis_dim(self.ring.nvars, n)
        target = J.piece(n + 1)
        rows = [
            r
            for f in self.idealizer.forms
            for r in _mult_rows(self.ring.twisted(n, f), range(width), target, self.field)
        ]
        inner = J.piece(n)
        p = self.field.char
        for x in inner.rows:
            terms = [(k, v) for k, v in enumerate(x) if v]
            for r in rows:
                s = sum(r[k] * v for k, v in terms)
                if (s % p if p else s) != 0:
                    raise ArithmeticError("J_n escapes its own hom constraints")
        return width - rank_rows(rows, width, self.field) - inner.dim

    def hom_table(self, J: GradedIdeal, max_degree: int) -> list[int]:
        return [self.hom_S_quotient(J, n) for n in range(max_degree + 1)]

    # -- noetherian probes ---------------------------------------------------

    def right_noeth_probe(self, f: HomogPoly, max_degree: int) -> dict:
        """Tabulate the two quotients attached to f in T_n, n = deg f."""
        n = f.degree
        idl = self.idealizer
        if not idl.idealizer_piece(n).contains_poly(f):
            raise ValueError("probe element does not lie in the idealizer")
        window = orbit_points(self.ring.phi, idl.point, max_degree)
        coker = []
        torsion = []
        predicted = []
        for m in range(n, max_degree + 1):
            fS = self.ring.principal_right_piece(f, m)
            T = idl.idealizer_piece(m)
            # dim (fS + T) = dim T + rank of the image of fS in U/T
            image = [T.quotient_coords(r)[0] for r in fS.rows]
            rank = rank_rows(image, T.ambient.dim - T.dim, self.field)
            coker.append(T.ambient.dim - T.dim - rank)
            # f . t = phi^(m-n)(f) * t for t in T_{m-n}
            u = poly_to_vector(self.ring.twisted(m - n, f), self.field)
            fT = span(
                (
                    row_product(u, t, self.ring.nvars, n, m - n, self.field.char)
                    for t in idl.idealizer_piece(m - n).rows
                ),
                self.ring.ambient(m),
                self.field,
            )
            if not (fS.contains_subspace(fT) and T.contains_subspace(fT)):
                raise ArithmeticError("fT escapes fS meet T")
            torsion.append(fS.dim - rank - fT.dim)
            value = evaluate_at(f, window.points[n - m], self.field)
            predicted.append(not bool(value))
        degrees = list(range(n, max_degree + 1))
        support = [m for m, v in zip(degrees, coker) if v]
        torsion_support = [m for m, v in zip(degrees, torsion) if v]
        predicted_support = [m for m, v in zip(degrees, predicted) if v]
        return {
            "f": f,
            "n": n,
            "degrees": degrees,
            "coker_dims": coker,
            "torsion_dims": torsion,
            "support": support,
            "torsion_support": torsion_support,
            "predicted_support": predicted_support,
            "support_matches": support == predicted_support,
            "torsion_matches": torsion_support
            == [m for m in predicted_support if m != n],
            "coker_total": sum(coker),
        }

    # -- chi sampling ----------------------------------------------------------

    def chi_sample_report(self, family, max_degree: int, trailing: int = 3) -> dict:
        """ext_S_twisted(j, J, n) over j <= d and |n| <= N for each sample J.

        A row is flagged stabilized when its last `trailing` entries at the
        positive end vanish; the top row of the zero ideal never does.
        """
        out = {}
        degrees = list(range(-max_degree, max_degree + 1))
        for label, J in family:
            columns = [self.koszul.ext_row(QuotientModule(J, -n), n) for n in degrees]
            table = {}
            stab = {}
            totals = {}
            for j in range(self.koszul.d + 1):
                row = [col[j] for col in columns]
                table[j] = row
                tail = row[-trailing:] if trailing else []
                stab[j] = all(v == 0 for v in tail)
                totals[j] = sum(row)
            out[label] = {
                "degrees": degrees,
                "table": table,
                "stabilized": stab,
                "totals": totals,
            }
        return out


def euler_characteristic_check(kos: KoszulComplex, module, n: int) -> tuple[int, int]:
    """Both sides of the Euler identity at degree n; they must agree."""
    lhs = 0
    rhs = 0
    for i in range(kos.d + 1):
        sign = 1 if i % 2 == 0 else -1
        lhs += sign * kos.ext(module, i, n)
        rhs += sign * comb(kos.d, i) * module.dim(n + i)
    return lhs, rhs
