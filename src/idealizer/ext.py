"""Koszul cohomology, hom spaces, and the right-noetherian probes.

The linear forms cutting out a point are a regular sequence of length d
in U, so the Koszul complex on them resolves U/I and

    Ext^i_U(U/I, M)_n  =  H^i of the cochain complex with C^i(M)_n a
    direct sum of C(d, i) copies of M_{n+i},

computed as dim C^i minus the ranks of the two adjacent differentials.
Twisting enters only through a change of module: the degree-n behaviour
over S is the degree-n behaviour over U after replacing J by its
pullback under phi^n.

A module is its ideal: each ``KoszulComplex`` method takes the ideal J
of U/J, the zero ideal for the free module U, and U/phi^k(J) is
``J.moved(k)``.  Each differential is ranked at most once per complex,
ideal and degree, and the rank is kept on the ideal (``J.ranks``), so
it is freed with the ideal.  The zero ideal is its own twist, so the
free module's ranks, paid for by ``koszul-acyclicity``, serve
``ext-top-twisted`` and ``chi-sample``, and Ext^i reuses the ranks of
delta^i and delta^(i-1) that its neighbours already paid for.  A rank
builds only the rows it reads: the cochain rows are yielded one at a
time, target summand by target summand, and the multiplication block
of a form is built when the first row that needs it is asked for.
``rank_rows`` stops at its cap and reads nothing at width 0, so the
blocks past that point are never built; delta^0 on U reads the one
block of forms[0], which is injective on U.

A rank reads the cochain rows with column k renamed width - 1 - k, so
the least-column pivots of ``Echelon`` fall in the last source summand;
a rank does not depend on the column order.  On the free module the
rank of delta^i stops at dim C^i - rank delta^(i-1), a bound because
delta^i delta^(i-1) = 0 on U, so that needs no guard.  On U the
complex is exact below the top, so the bound is the rank and every row
after the one that reaches it goes unread.  Quotient modules are ranked
up to their width: on U/J the bound holds only if J is closed under the
forms, and a guard for that costs more than the cap saves.

Every product here is an int-row product through ``poly.product_index``.
A differential asks J for ``codim`` and ``nonpivot_columns``, never for
the piece, so a point ideal builds no piece: it answers from the
evaluation row.  A Koszul block is ``linalg.mult_rows`` into U/J,
summed off J's projection ``J.quotient``, which a differential reads
once, for all the forms of its degree; the hom constraints are the same
route twisted, ``TwistRing.left_mult_rows`` of the forms, as T_n's are;
the probe's fS and fT rows are f twisted once per degree and multiplied by
monomials and by the rows of T.  No polynomial is multiplied or twisted
and no full-width product row is built.  The hom spaces and the probes
report dimensions, so they count them and never build the spaces: dim
Hom_n is dim U_n - rank M - dim J_n = codim J_n - rank M for the
constraint matrix M, and ``J.annihilated_by``, the guard of T_n's
constraints too, checks exactly that J_n lies in ker M; a point ideal
answers both from its evaluation row, with no piece.

The probes at the end are the finite-dimensional noetherian witnesses:
for f in T_n they tabulate (S/(fS + T))_m and ((fS meet T)/fT)_m and
compare the supports with the vanishing set of f along the orbit.  With
b = m - n and u = phi^b(f), (fS)_m is spanned by u times the monomials of
degree b and (fT)_m by u times the RREF rows of T_b.  The Zhang twist of
a domain is a domain (Zhang, Proc. LMS 1996), so left multiplication by
f is injective: dim (fS)_m = dim U_b and dim (fT)_m = dim T_b, and fT
lies in fS because the product is bilinear.  No span checks this.
Descending lex is a monomial order, so the least column of u * g is the
product of the least monomials of u and g, and each list of rows has
pairwise distinct least columns; one pass over them certifies both
dimensions, and a repeat raises ``ArithmeticError``.  dim (fS + T)_m is
dim T_m plus the rank r of the image of the fS rows in U_m/T_m, a dim U_b
x codim T_m matrix (codim T_m is 1 in the generic regime), so S/(fS + T)
has dimension codim T_m - r and (fS meet T)_m has dimension dim U_b - r.
The one containment left is exact: every fT row lies in T_m.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterator

from .idealizer_ring import IdealizerRing
from .linalg import mult_rows, rank_rows
from .poly import HomogPoly, basis_dim, poly_to_vector, row_product, vanishes_at
from .twist import GradedIdeal

__all__ = ["ExtEngine", "KoszulComplex"]


class KoszulComplex:
    """Koszul complex on a regular sequence of linear forms."""

    def __init__(self, forms, field):
        forms = list(forms)
        if not forms:
            raise ValueError("need at least one form")
        nvars = forms[0].nvars
        if any(f.degree != 1 or f.nvars != nvars for f in forms):
            raise ValueError("forms must be linear in a common ring")
        self.rows = [poly_to_vector(f, field) for f in forms]
        if rank_rows(self.rows, basis_dim(nvars, 1), field) != len(forms):
            raise ValueError("forms must be linearly independent")
        self.forms = forms
        self.field = field
        self.nvars = nvars
        self.d = len(forms)

    def cochain_matrix(self, J: GradedIdeal, i: int, n: int) -> Iterator[list[tuple[int, int]]]:
        """delta^i: C^i(U/J)_n -> C^{i+1}(U/J)_n, as sparse int rows yielded
        one at a time, target summand by target summand.

        Block (B, B minus b) is +-(multiplication by forms[b]); each of its
        rows lands in the row of its target summand, shifted to the
        columns of its source summand.  The block of forms[b] is built
        when the first row of a summand that needs it is asked for, so a
        reader that stops early (``rank_rows`` at its cap, or at width
        0) never builds the blocks of the summands it did not reach.
        delta^i is the zero map for i outside 0..d-1 and yields no rows."""
        if i < 0 or i >= self.d:
            return
        m = n + i
        sdim, tdim = J.codim(m), J.codim(m + 1)
        if not tdim:
            return
        quotient, indices = J.quotient(m + 1), J.nonpivot_columns(m)
        src_index = {A: p for p, A in enumerate(combinations(range(self.d), i))}
        mults: dict[int, list] = {}
        for B in combinations(range(self.d), i + 1):
            parts = []
            for t, b in enumerate(B):
                if b not in mults:
                    mults[b] = mult_rows(
                        self.rows[b], 1, indices, m, quotient, self.nvars, self.field
                    )
                offset = src_index[B[:t] + B[t + 1:]] * sdim
                parts.append((mults[b], offset, -1 if t % 2 else 1))
            for r in range(tdim):
                row: list[tuple[int, int]] = []
                for block, offset, sign in parts:
                    row.extend((offset + k, sign * v) for k, v in block[r])
                yield row

    def cochain_dim(self, J: GradedIdeal, i: int, n: int) -> int:
        if i < 0 or i > self.d:
            return 0
        return comb(self.d, i) * J.codim(n + i)

    def rank(self, J: GradedIdeal, i: int, n: int) -> int:
        """Rank of delta^i on U/J in degree n, ranked once and kept on J.

        The rows are read with column k renamed width - 1 - k, so the
        least-column pivots fall in the last source summand.  On the free
        module U (J = 0) the rank stops at dim C^i - rank delta^(i-1),
        which bounds it because delta^i delta^(i-1) = 0 on U; a quotient
        module is ranked up to its width."""
        if i < 0 or i >= self.d:
            return 0
        key = (self, i, n)
        got = J.ranks.get(key)
        if got is None:
            width = self.cochain_dim(J, i, n)
            cap = width if J.gens else width - self.rank(J, i - 1, n)
            last = width - 1
            rows = ([(last - k, v) for k, v in r] for r in self.cochain_matrix(J, i, n))
            got = J.ranks[key] = rank_rows(rows, width, self.field, cap)
        return got

    def ext(self, J: GradedIdeal, i: int, n: int) -> int:
        """dim Ext^i_U(U/(forms), U/J)_n."""
        if i < 0 or i > self.d:
            return 0
        return self.cochain_dim(J, i, n) - self.rank(J, i, n) - self.rank(J, i - 1, n)

    def ext_row(self, J: GradedIdeal, n: int) -> list[int]:
        """All of Ext^0..Ext^d against U/J at degree n."""
        return [self.ext(J, i, n) for i in range(self.d + 1)]


class ExtEngine:
    """Degreewise Ext and Hom witnesses for the twist and its idealizer."""

    def __init__(self, idealizer: IdealizerRing):
        self.idealizer = idealizer
        self.ring = idealizer.ring
        self.field = idealizer.field
        self.koszul = KoszulComplex(idealizer.forms, idealizer.field)

    def ext_S_twisted(self, i: int, J: GradedIdeal, n: int) -> int:
        """dim Ext^i_S(S/I, (S/J))_n via the pullback of J under phi^n."""
        return self.koszul.ext(J.moved(-n), i, n)

    def hom_S_quotient(self, J: GradedIdeal, n: int) -> int:
        """dim of { x in U_n : phi^n(I_1) . x <= J_{n+1} } / J_n.

        Generation of J as a left ideal makes the degree-1 constraints
        sufficient, and this count equals ext_S_twisted(0, J, n).  The
        solutions are ker M for the constraint matrix M, the rows of
        ``TwistRing.left_mult_rows``, so the count is dim U_n - rank M -
        dim J_n = codim J_n - rank M once ``J.annihilated_by`` finds J_n
        in ker M.
        """
        if n < 0:
            return 0
        rows = list(self.ring.left_mult_rows(self.koszul.rows, 1, n, J))
        if not J.annihilated_by(rows, n):
            raise ArithmeticError("J_n escapes its own hom constraints")
        return J.codim(n) - rank_rows(rows, basis_dim(self.ring.nvars, n), self.field)

    def hom_table(self, J: GradedIdeal, max_degree: int) -> list[int]:
        return [self.hom_S_quotient(J, n) for n in range(max_degree + 1)]

    # -- noetherian probes ---------------------------------------------------

    def right_noeth_probe(self, f: HomogPoly, max_degree: int) -> dict:
        """Tabulate the two quotients attached to f in T_n, n = deg f.

        In degree m = n + b the rows of (fS)_m are u = phi^b(f) times the
        monomials of degree b, and the rows of (fT)_m are u times the
        RREF rows of T_b.  S is a domain, so both lists are bases:
        ``_leading_count`` certifies it and ``T.contains_vector`` guards
        fT inside T.  dim (fS + T)_m is dim T_m plus the rank of the
        image of fS in U_m/T_m; the image is built lazily, so it is read
        only until its rank reaches codim T_m.
        """
        n = f.degree
        idl, ring, p = self.idealizer, self.ring, self.field.char
        if f.is_zero():
            raise ValueError("probe element is zero")
        if not idl.idealizer_piece(n).contains_poly(f):
            raise ValueError("probe element does not lie in the idealizer")
        window = idl.orbit(max_degree)
        f_row = poly_to_vector(f, self.field)
        coker = []
        torsion = []
        predicted = []
        for m in range(n, max_degree + 1):
            b = m - n
            u = ring.power(b).apply_row(f_row, n)
            fS = ring.principal_right_rows(u, n, b)
            fT = [row_product(u, g, ring.nvars, n, b, p) for g in idl.idealizer_piece(b).rows]
            T = idl.idealizer_piece(m)
            if not all(T.contains_vector(r) for r in fT):
                raise ArithmeticError("fT escapes T")
            # dim (fS + T) = dim T + rank of the image of fS in U/T
            image = (T.quotient_coords(r)[0] for r in fS)
            rank = rank_rows(image, T.ambient.dim - T.dim, self.field)
            coker.append(T.ambient.dim - T.dim - rank)
            torsion.append(_leading_count(fS) - rank - _leading_count(fT))
            predicted.append(vanishes_at(f, window.points[n - m].coords, self.field))
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
            columns = [self.koszul.ext_row(J.moved(-n), n) for n in degrees]
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


def _leading_count(rows) -> int:
    """The dimension of the span of the rows, certified by their least
    columns: nonzero rows whose least columns are pairwise distinct are
    linearly independent.  A repeated least column raises
    ``ArithmeticError``: the least column of u * g is that of u times
    that of g, so u times distinct monomials or distinct RREF rows never
    repeats one."""
    leads = [min(r)[0] for r in rows if r]
    if len(set(leads)) != len(leads):
        raise ArithmeticError("product rows share a least column")
    return len(leads)


def euler_characteristic_check(kos: KoszulComplex, J: GradedIdeal, n: int) -> tuple[int, int]:
    """Both sides of the Euler identity for U/J at degree n; they must agree."""
    lhs = 0
    rhs = 0
    for i in range(kos.d + 1):
        sign = 1 if i % 2 == 0 else -1
        lhs += sign * kos.ext(J, i, n)
        rhs += sign * kos.cochain_dim(J, i, n)
    return lhs, rhs
