"""Koszul cohomology, hom spaces, and the right-noetherian probes.

The linear forms cutting out a point are a regular sequence of length d
in U, so the Koszul complex on them resolves U/I and

    Ext^i_U(U/I, M)_n  =  H^i of the cochain complex with C^i(M)_n a
    direct sum of C(d, i) copies of M_{n+i},

computed as dim C^i minus the ranks of the two adjacent differentials.
Twisting enters only through a change of module: the degree-n behaviour
over S is the degree-n behaviour over U after replacing J by its
pullback under phi^n.

The probes at the end are the finite-dimensional noetherian witnesses:
for f in T_n they tabulate (S/(fS + T))_m and ((fS meet T)/fT)_m and
compare the supports with the vanishing set of f along the orbit.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .automorphism import evaluate_at
from .idealizer_ring import IdealizerRing
from .linalg import intersect, kernel, rank_rows, span, span_polys
from .orbit import orbit_points
from .poly import HomogPoly, basis_dim, monomial_basis, poly_to_vector
from .twist import GradedIdeal

__all__ = [
    "ExtEngine",
    "KoszulComplex",
    "QuotientModule",
    "free_module",
]


class QuotientModule:
    """U/J for a graded ideal J handed over as a piece function.

    The degree-n basis is the set of monomials at the non-pivot columns
    of J_n, so multiplication matrices are reductions of honest products.
    """

    def __init__(self, nvars: int, field, piece_fn, label: str = "U/J"):
        self.nvars = nvars
        self.field = field
        self.label = label
        self._piece_fn = piece_fn
        self._pieces = {}

    def piece(self, n: int):
        got = self._pieces.get(n)
        if got is None:
            got = self._piece_fn(n)
            self._pieces[n] = got
        return got

    def dim(self, n: int) -> int:
        if n < 0:
            return 0
        return basis_dim(self.nvars, n) - self.piece(n).dim

    def mult_matrix(self, form: HomogPoly, n: int):
        """Matrix of multiplication by a linear form, degree n to n + 1."""
        if n < 0:
            return [[] for _ in range(self.dim(n + 1))]
        source = self.piece(n)
        target = self.piece(n + 1)
        basis = monomial_basis(self.nvars - 1, n)
        cols = []
        for k in source.nonpivot_columns():
            prod = form * HomogPoly.monomial(basis[k], self.field.one)
            cols.append(target.quotient_coords(poly_to_vector(prod, self.field)))
        rows = self.dim(n + 1)
        return [[col[r] for col in cols] for r in range(rows)]


def free_module(nvars: int, field, ring) -> QuotientModule:
    """U itself, as the quotient by the zero ideal."""
    empty = GradedIdeal(ring, [])
    return QuotientModule(nvars, field, empty.piece, label="U")


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
        self.nvars = nvars
        self.d = len(forms)

    def subsets(self, i: int):
        return tuple(combinations(range(self.d), i))

    def chain_matrix(self, i: int, n: int):
        """d_i: K_i -> K_{i-1} in internal degree n, K_i a sum of U(-i)."""
        src = self.subsets(i)
        tgt = self.subsets(i - 1)
        tgt_index = {A: p for p, A in enumerate(tgt)}
        sdim = basis_dim(self.nvars, n - i)
        tdim = basis_dim(self.nvars, n - i + 1)
        zero = self.field.zero
        rows = [[zero] * (sdim * len(src)) for _ in range(tdim * len(tgt))]
        basis = monomial_basis(self.nvars - 1, n - i)
        for a, A in enumerate(src):
            for t, b in enumerate(A):
                sign = self.field.one if t % 2 == 0 else -self.field.one
                p = tgt_index[tuple(x for x in A if x != b)]
                for k, mono in enumerate(basis):
                    prod = (self.forms[b] * HomogPoly.monomial(mono, sign))
                    vec = poly_to_vector(prod, self.field)
                    for r, val in enumerate(vec):
                        if val:
                            rows[p * tdim + r][a * sdim + k] = val
        return rows

    def cochain_matrix(self, module, i: int, n: int):
        """delta^i: C^i(M)_n -> C^{i+1}(M)_n."""
        src = self.subsets(i)
        tgt = self.subsets(i + 1)
        src_index = {A: p for p, A in enumerate(src)}
        sdim = module.dim(n + i)
        tdim = module.dim(n + i + 1)
        zero = self.field.zero
        rows = [[zero] * (sdim * len(src)) for _ in range(tdim * len(tgt))]
        mults = {}
        for q, B in enumerate(tgt):
            for t, b in enumerate(B):
                A = tuple(x for x in B if x != b)
                p = src_index[A]
                if b not in mults:
                    mults[b] = module.mult_matrix(self.forms[b], n + i)
                block = mults[b]
                if t % 2 == 0:
                    for r in range(tdim):
                        for k in range(sdim):
                            v = block[r][k]
                            if v:
                                rows[q * tdim + r][p * sdim + k] = rows[q * tdim + r][p * sdim + k] + v
                else:
                    for r in range(tdim):
                        for k in range(sdim):
                            v = block[r][k]
                            if v:
                                rows[q * tdim + r][p * sdim + k] = rows[q * tdim + r][p * sdim + k] - v
        return rows

    def cochain_dim(self, module, i: int, n: int) -> int:
        if i < 0 or i > self.d:
            return 0
        return comb(self.d, i) * module.dim(n + i)

    def ext(self, module, i: int, n: int) -> int:
        """dim Ext^i_U(U/(forms), M)_n."""
        if i < 0 or i > self.d:
            return 0
        total = self.cochain_dim(module, i, n)
        rank_out = 0
        if i < self.d:
            width = total
            rank_out = rank_rows(self.cochain_matrix(module, i, n), width, self.field)
        rank_in = 0
        if i > 0:
            width = self.cochain_dim(module, i - 1, n)
            rank_in = rank_rows(self.cochain_matrix(module, i - 1, n), width, self.field)
        return total - rank_out - rank_in

    def ext_row(self, module, n: int) -> list[int]:
        """All of Ext^0..Ext^d at degree n, each differential ranked once."""
        ranks = [
            rank_rows(
                self.cochain_matrix(module, i, n),
                self.cochain_dim(module, i, n),
                self.field,
            )
            for i in range(self.d)
        ]
        out = []
        for i in range(self.d + 1):
            total = self.cochain_dim(module, i, n)
            rank_out = ranks[i] if i < self.d else 0
            rank_in = ranks[i - 1] if i > 0 else 0
            out.append(total - rank_out - rank_in)
        return out


class ExtEngine:
    """Degreewise Ext and Hom witnesses for the twist and its idealizer."""

    def __init__(self, idealizer: IdealizerRing):
        self.idealizer = idealizer
        self.ring = idealizer.ring
        self.field = idealizer.field
        self.koszul = KoszulComplex(idealizer.forms, idealizer.field)

    def module_free(self) -> QuotientModule:
        return free_module(self.ring.nvars, self.field, self.ring)

    def module_quotient(self, J: GradedIdeal, label: str = "U/J") -> QuotientModule:
        return QuotientModule(self.ring.nvars, self.field, J.piece, label=label)

    def module_quotient_twisted(self, J: GradedIdeal, power: int, label: str = "U/J") -> QuotientModule:
        return QuotientModule(
            self.ring.nvars,
            self.field,
            lambda m: J.twisted_piece(power, m),
            label="%s twisted %d" % (label, power),
        )

    def ext_U(self, i: int, module, n: int) -> int:
        return self.koszul.ext(module, i, n)

    def ext_S_twisted(self, i: int, J: GradedIdeal, n: int) -> int:
        """dim Ext^i_S(S/I, (S/J))_n via the pullback of J under phi^n."""
        return self.koszul.ext(self.module_quotient_twisted(J, -n), i, n)

    def hom_S_quotient(self, J: GradedIdeal, n: int) -> int:
        """dim of { x in U_n : phi^n(I_1) . x <= J_{n+1} } / J_n.

        Generation of J as a left ideal makes the degree-1 constraints
        sufficient, and this count equals ext_S_twisted(0, J, n).
        """
        if n < 0:
            return 0
        target = J.piece(n + 1)
        sdim = basis_dim(self.ring.nvars, n)
        basis = monomial_basis(self.ring.d, n)
        rows = []
        for f in self.idealizer.forms:
            g = self.ring.twisted(n, f)
            cols = []
            for mono in basis:
                prod = g * HomogPoly.monomial(mono, self.field.one)
                cols.append(target.quotient_coords(poly_to_vector(prod, self.field)))
            height = len(cols[0]) if cols else 0
            rows.extend([col[r] for col in cols] for r in range(height))

        vecs = kernel(rows, sdim, self.field)
        sol = span(vecs, self.ring.ambient(n), self.field)
        inner = J.piece(n)
        if not sol.contains_subspace(inner):
            raise ArithmeticError("J_n escapes its own hom constraints")
        return sol.dim - inner.dim

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
            coker.append(basis_dim(self.ring.nvars, m) - fS.sum(T).dim)
            meet = intersect(fS, T)
            fT = self.ring.product_piece(
                span_polys([f], self.ring.ambient(n), self.field),
                idl.idealizer_piece(m - n),
            )
            if not meet.contains_subspace(fT):
                raise ArithmeticError("fT escapes fS meet T")
            torsion.append(meet.dim - fT.dim)
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
            columns = [
                self.koszul.ext_row(self.module_quotient_twisted(J, -n), n)
                for n in degrees
            ]
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
