"""Finite-dimensional quotients S/I and finite S-modules.

A FiniteModule is a finite-dimensional vector space with one multiplication
matrix per ring variable.  The quotient by a zero-dimensional ideal is the
main instance: its basis is the set of standard monomials (monomials outside
the leading-term ideal of the Groebner basis).
"""

from __future__ import annotations

from .groebner import IdealPresentation
from .linalg import (coordinates_in_rows, mat_mul, matvec, row_space_basis,
                     sparse_combination, sparse_mat_mul)
from .rings import GradedRing, Polynomial, div_exps, mul_exps


def series_string(coeffs: dict) -> str:
    """Render {degree: value} as a Laurent polynomial in T, e.g. '4T^-1+98+84T'."""
    items = [(d, v) for d, v in sorted(coeffs.items()) if v]
    if not items:
        return "0"
    parts = []
    for d, v in items:
        if d == 0:
            parts.append(str(v))
        else:
            power = "T" if d == 1 else f"T^{d}"
            parts.append(power if v == 1 else f"{v}{power}")
    return "+".join(parts)


class HilbertFunction:
    """Dimension count per weighted degree of a finite graded space."""

    def __init__(self, dims: dict):
        self.dims = {d: v for d, v in dims.items() if v}

    def __getitem__(self, d: int) -> int:
        return self.dims.get(d, 0)

    def total(self) -> int:
        return sum(self.dims.values())

    def top_degree(self) -> int:
        return max(self.dims) if self.dims else -1

    def as_list(self):
        """Values from degree 0 through the top degree."""
        top = self.top_degree()
        return [self[d] for d in range(top + 1)]

    def series(self) -> str:
        return series_string(self.dims)

    def __eq__(self, other):
        if isinstance(other, HilbertFunction):
            return self.dims == other.dims
        if isinstance(other, (list, tuple)):
            return self.as_list() == list(other)
        return NotImplemented

    def __repr__(self):
        return f"HilbertFunction({self.series()})"


class FiniteModule:
    """Finite-dimensional S-module given by multiplication matrices.

    `matrices[i]` is the dense dim x dim matrix (list of rows) of the i-th
    variable's action on coordinate column vectors.  The action matrices of
    monomials and polynomials are sparse: one {column: value} dict of
    nonzero entries per row.  `degrees[j]` is the weighted degree of the
    j-th basis vector.
    """

    def __init__(self, ring: GradedRing, degrees, matrices):
        self.ring = ring
        self.degrees = list(degrees)
        self.dim = len(self.degrees)
        self.matrices = matrices
        self._monomial_matrices = {}

    def apply_var(self, i: int, vec):
        return matvec(self.matrices[i], vec, self.ring.field)

    def monomial_matrix(self, exps):
        """Sparse matrix of multiplication by x^exps, memoized: x_i times
        the matrix of x^exps / x_i, i the first variable x^exps uses."""
        cached = self._monomial_matrices.get(exps)
        if cached is not None:
            return cached
        i = next((k for k, e in enumerate(exps) if e > 0), None)
        if i is None:
            m = [{r: self.ring.field.one} for r in range(self.dim)]
        else:
            prev = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
            if any(prev):
                unit = tuple(int(k == i) for k in range(len(exps)))
                m = sparse_mat_mul(self.monomial_matrix(unit),
                                   self.monomial_matrix(prev), self.ring.field)
            else:
                m = [{j: x for j, x in enumerate(row) if x}
                     for row in self.matrices[i]]
        self._monomial_matrices[exps] = m
        return m

    def poly_matrix(self, p: Polynomial):
        """Sparse matrix of multiplication by p."""
        return sparse_combination(
            [(c, self.monomial_matrix(exps)) for exps, c in p.terms.items()],
            self.dim, self.ring.field)

    def hilbert_function(self) -> HilbertFunction:
        dims = {}
        for d in self.degrees:
            dims[d] = dims.get(d, 0) + 1
        return HilbertFunction(dims)

    def top_degree(self) -> int:
        return max(self.degrees) if self.degrees else -1

    def has_nilpotent_action(self) -> bool:
        """True when every variable acts nilpotently (module supported at
        the origin): a matrix of size n is nilpotent exactly when its
        2^k-th power vanishes for 2^k >= n, so square until then."""
        f = self.ring.field
        for m in self.matrices:
            power, exponent = m, 1
            while any(any(row) for row in power):
                if exponent >= self.dim:
                    return False
                power = mat_mul(power, power, self.dim, f)
                exponent *= 2
        return True


class ArtinianQuotient(FiniteModule):
    """S/I for a zero-dimensional ideal, on the standard-monomial basis."""

    def __init__(self, ideal: IdealPresentation):
        ring = ideal.ring
        leads = ideal.leading_exponents()
        if any(all(e == 0 for e in lead) for lead in leads):
            raise ValueError("ideal is the unit ideal; quotient is zero")
        for i in range(ring.n):
            if not any(
                lead[i] > 0 and all(lead[j] == 0 for j in range(ring.n) if j != i)
                for lead in leads
            ):
                raise ValueError(
                    f"ideal is not zero-dimensional: no pure power of "
                    f"{ring.variables[i]} among the leading terms"
                )
        self.ideal = ideal
        std = self._standard_monomials(ring, leads)
        std.sort(key=ring.order_key)
        self.monomials = std
        self.index = {e: j for j, e in enumerate(std)}
        degrees = [ring.degree(e) for e in std]
        matrices = [self._var_matrix(i) for i in range(ring.n)]
        super().__init__(ring, degrees, matrices)

    @staticmethod
    def _standard_monomials(ring, leads):
        seen = set()
        out = []
        stack = [(0,) * ring.n]
        while stack:
            e = stack.pop()
            if e in seen:
                continue
            if any(div_exps(e, lead) is not None for lead in leads):
                continue
            seen.add(e)
            out.append(e)
            for i in range(ring.n):
                stack.append(e[:i] + (e[i] + 1,) + e[i + 1 :])
        return out

    def _var_matrix(self, i):
        # built before super().__init__, so work from self.monomials directly
        ring = self.ideal.ring
        f = ring.field
        n = len(self.monomials)
        step = tuple(1 if j == i else 0 for j in range(ring.n))
        cols = []
        for e in self.monomials:
            prod = mul_exps(e, step)
            if prod in self.index:
                col = [f.zero] * n
                col[self.index[prod]] = f.one
            else:
                col = self._reduce_to_vector(ring.monomial(prod))
            cols.append(col)
        return [[cols[c][r] for c in range(n)] for r in range(n)]

    def _reduce_to_vector(self, p: Polynomial):
        f = self.ideal.ring.field
        nf = self.ideal.reduce(p)
        vec = [f.zero] * len(self.monomials)
        for e, c in nf.terms.items():
            vec[self.index[e]] = c
        return vec

    def poly_vector(self, p: Polynomial):
        """Coordinates of the class of p on the standard-monomial basis."""
        return self._reduce_to_vector(p)

    def socle_degree(self) -> int:
        return self.top_degree()

    def filtration_start(self) -> int:
        """Least k such that every monomial of weighted degree >= k reduces
        to zero modulo the ideal.

        It suffices that all monomials with degree in [k, k + w_max) reduce
        to zero: dividing any higher-degree monomial by one variable lands
        back in that range or above, and normal forms are multiplicative
        against zero.  Exists only when the variables act nilpotently.
        """
        ring = self.ring
        if self.ideal.homogeneous:
            return self.top_degree() + 1
        if not self.has_nilpotent_action():
            raise ValueError(
                "quotient is not supported at the origin; no degree bound exists"
            )
        w = ring.max_weight
        k = 0
        while True:
            ok = True
            for d in range(k, k + w):
                for e in ring.monomials_of_degree(d):
                    if not self.ideal.reduce(ring.monomial(e)).is_zero():
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return k
            k += 1


def submodule(ambient: FiniteModule, vectors) -> tuple:
    """S-stable span of the given coordinate vectors inside `ambient`.

    Returns (module, basis_rows): a FiniteModule on the closure's basis, and
    the basis expressed as rows in the ambient coordinates.  For a graded
    result the input vectors must be homogeneous in the ambient grading.
    """
    ring = ambient.ring
    f = ring.field
    frontier = [list(v) for v in vectors if any(v)]
    rows = row_space_basis(frontier, ambient.dim, f)
    while True:
        new = []
        for row in rows:
            for i in range(ring.n):
                new.append(ambient.apply_var(i, row))
        grown = row_space_basis(rows + new, ambient.dim, f)
        if len(grown) == len(rows):
            rows = grown
            break
        rows = grown
    degrees = []
    for row in rows:
        degs = {ambient.degrees[j] for j, c in enumerate(row) if c != f.zero}
        if len(degs) != 1:
            raise ValueError("submodule basis vector is not homogeneous")
        degrees.append(degs.pop())
    matrices = []
    for i in range(ring.n):
        cols = []
        for row in rows:
            image = ambient.apply_var(i, row)
            coords = coordinates_in_rows(rows, ambient.dim, image, f)
            if coords is None:
                raise AssertionError("closure is not stable; this is a bug")
            cols.append(coords)
        n = len(rows)
        matrices.append([[cols[c][r] for c in range(n)] for r in range(n)])
    return FiniteModule(ring, degrees, matrices), rows
