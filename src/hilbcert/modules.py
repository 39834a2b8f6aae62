"""Free modules over a graded ring, with degree shifts.

A vector in S(-d_1) + ... + S(-d_r) is a dict mapping (component, exponent
tuple) to a nonzero field element.  The degree of a module term is the
weighted degree of its monomial plus the shift of its component, so that a
vector hitting generator i with a degree-e monomial sits in degree e + d_i.
"""

from __future__ import annotations

from .rings import GradedRing, Polynomial, mul_exps


class FreeModule:
    """S^r with per-component degree shifts."""

    def __init__(self, ring: GradedRing, shifts):
        self.ring = ring
        self.shifts = tuple(int(s) for s in shifts)
        self.rank = len(self.shifts)

    def zero(self) -> "ModuleVector":
        return ModuleVector(self, {})

    def basis_vector(self, i: int) -> "ModuleVector":
        return ModuleVector(self, {(i, (0,) * self.ring.n): self.ring.field.one})

    def from_polys(self, polys) -> "ModuleVector":
        """Vector with the i-th coordinate equal to polys[i]."""
        polys = list(polys)
        if len(polys) != self.rank:
            raise ValueError("one polynomial per component required")
        terms = {}
        for i, p in enumerate(polys):
            for e, c in p.terms.items():
                terms[(i, e)] = c
        return ModuleVector(self, terms)

    def term_degree(self, comp: int, exps) -> int:
        return self.ring.degree(exps) + self.shifts[comp]

    def order_key(self, comp: int, exps):
        """Term-over-position order, degree first: compare shifted degree,
        then the ring's monomial order, then prefer earlier components."""
        return (self.term_degree(comp, exps), self.ring.order_key(exps), -comp)

    def same_module(self, other: "FreeModule") -> bool:
        return self.ring.same_ring(other.ring) and self.shifts == other.shifts

    def __repr__(self):
        return f"FreeModule({self.ring!r}, shifts={self.shifts})"


class ModuleVector:
    """Element of a FreeModule; immutable by convention, which lets it
    cache its leading term."""

    __slots__ = ("module", "terms", "_lead")

    def __init__(self, module: FreeModule, terms: dict):
        self.module = module
        self.terms = terms
        self._lead = None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        f = self.module.ring.field
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = f.add(terms.get(k, f.zero), c)
            if s == f.zero:
                terms.pop(k, None)
            else:
                terms[k] = s
        return ModuleVector(self.module, terms)

    def __neg__(self) -> "ModuleVector":
        f = self.module.ring.field
        return ModuleVector(self.module, {k: f.neg(c) for k, c in self.terms.items()})

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return self + (-other)

    def scale(self, c) -> "ModuleVector":
        f = self.module.ring.field
        c = f.of(c)
        if c == f.zero:
            return self.module.zero()
        return ModuleVector(self.module, {k: f.mul(c, v) for k, v in self.terms.items()})

    def term_mul(self, exps, c) -> "ModuleVector":
        """Multiply by the ring term c * x^exps."""
        f = self.module.ring.field
        return ModuleVector(
            self.module,
            {(i, mul_exps(e, exps)): f.mul(c, v) for (i, e), v in self.terms.items()},
        )

    def poly_mul(self, p: Polynomial) -> "ModuleVector":
        out = self.module.zero()
        for e, c in p.terms.items():
            out = out + self.term_mul(e, c)
        return out

    def coordinate(self, i: int) -> Polynomial:
        ring = self.module.ring
        return Polynomial(ring, {e: c for (j, e), c in self.terms.items() if j == i})

    def coordinates(self):
        return [self.coordinate(i) for i in range(self.module.rank)]

    def leading_term(self):
        """(component, exponents) maximal in the module order."""
        if self._lead is None:
            if not self.terms:
                raise ValueError("zero vector has no leading term")
            key = self.module.order_key
            self._lead = max(self.terms, key=lambda k: key(*k))
        return self._lead

    def leading_coefficient(self):
        return self.terms[self.leading_term()]

    def monic(self) -> "ModuleVector":
        if not self.terms:
            return self
        f = self.module.ring.field
        return self.scale(f.inv(self.leading_coefficient()))

    def degree(self) -> int:
        """Max shifted degree over terms; -1 for the zero vector."""
        if not self.terms:
            return -1
        td = self.module.term_degree
        return max(td(i, e) for i, e in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        td = self.module.term_degree
        degs = {td(i, e) for i, e in self.terms}
        return len(degs) == 1

    def __eq__(self, other):
        return (
            isinstance(other, ModuleVector)
            and self.module.same_module(other.module)
            and self.terms == other.terms
        )

    def __str__(self):
        if not self.terms:
            return "0"
        coords = self.coordinates()
        return "(" + ", ".join(str(p) for p in coords) + ")"

    def __repr__(self):
        return f"ModuleVector{self}"
