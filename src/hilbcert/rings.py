"""Weighted-graded polynomial rings with exact coefficients.

Monomials are exponent tuples; polynomials map exponent tuples to nonzero
field elements.  The monomial order is weighted-degree reverse-lexicographic,
a global order: weighted degree first, ties broken so that the monomial whose
trailing exponents are smaller wins.
"""

from __future__ import annotations

from operator import add

from .fields import QQ, field_name

_MAX_EXPONENT = 1 << 16


class GradedRing:
    """Polynomial ring k[x_1..x_n] with positive integer variable weights."""

    def __init__(self, variables, weights=None, field=QQ):
        variables = list(variables)
        if not variables:
            raise ValueError("need at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be unique")
        if weights is None:
            weights = [1] * len(variables)
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(variables):
            raise ValueError("one weight per variable required")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        self.variables = tuple(variables)
        self.weights = weights
        self.field = field
        self.n = len(variables)
        self.max_weight = max(weights)
        self._var_index = {v: i for i, v in enumerate(variables)}
        self._order_cache = {}
        self._monomials = {}

    # -- monomials ---------------------------------------------------------

    def degree(self, exps) -> int:
        """Weighted degree of an exponent tuple."""
        if len(exps) != self.n:
            raise ValueError(
                f"exponent vector of length {len(exps)}, ring has {self.n} variables"
            )
        return sum(w * e for w, e in zip(self.weights, exps))

    def order_key(self, exps):
        """Sort key; larger key means larger monomial (weighted degrevlex)."""
        key = self._order_cache.get(exps)
        if key is None:
            key = (self.degree(exps), tuple(-e for e in reversed(exps)))
            self._order_cache[exps] = key
        return key

    def monomial(self, exps) -> "Polynomial":
        return Polynomial(self, {tuple(exps): self.field.one})

    def variable(self, name: str) -> "Polynomial":
        exps = [0] * self.n
        exps[self._var_index[name]] = 1
        return self.monomial(exps)

    def gens(self):
        return [self.variable(v) for v in self.variables]

    def monomials_of_degree(self, d: int):
        """All exponent tuples of weighted degree exactly d (none for d < 0),
        as a tuple built once per ring and degree."""
        if d in self._monomials:
            return self._monomials[d]
        out = []

        def rec(i, rest, prefix):
            w = self.weights[i]
            if i == self.n - 1:
                if rest % w == 0:
                    out.append(prefix + (rest // w,))
                return
            for e in range(rest // w + 1):
                rec(i + 1, rest - e * w, prefix + (e,))

        if d >= 0:
            rec(0, d, ())
        self._monomials[d] = out = tuple(out)
        return out

    # -- polynomials -------------------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    @property
    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        c = self.field.of(c)
        if c == self.field.zero:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.n: c})

    def poly(self, terms: dict) -> "Polynomial":
        zero = self.field.zero
        clean = {}
        for exps, c in terms.items():
            c = self.field.of(c)
            if c != zero:
                if any(e >= _MAX_EXPONENT or e < 0 for e in exps):
                    raise OverflowError("exponent out of supported range")
                clean[tuple(exps)] = c
        return Polynomial(self, clean)

    def same_ring(self, other: "GradedRing") -> bool:
        return (
            self.variables == other.variables
            and self.weights == other.weights
            and self.field == other.field
        )

    def describe(self) -> dict:
        return {
            "field": field_name(self.field),
            "variables": list(self.variables),
            "weights": list(self.weights),
        }

    def __eq__(self, other):
        return isinstance(other, GradedRing) and self.same_ring(other)

    def __hash__(self):
        return hash((self.variables, self.weights, self.field))

    def __repr__(self):
        return f"GradedRing({field_name(self.field)}[{', '.join(self.variables)}], weights={self.weights})"


def mul_exps(a, b):
    return tuple(map(add, a, b))


def div_exps(a, b):
    """a / b, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def lcm_exps(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class Polynomial:
    """Immutable multivariate polynomial over a GradedRing."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other: "Polynomial"):
        if self.ring is not other.ring and not self.ring.same_ring(other.ring):
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        f = self.ring.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(terms.get(e, f.zero), c)
            if s == f.zero:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Polynomial(self.ring, terms)

    def __neg__(self) -> "Polynomial":
        f = self.ring.field
        return Polynomial(self.ring, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        f = self.ring.field
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = mul_exps(ea, eb)
                s = f.add(terms.get(e, f.zero), f.mul(ca, cb))
                if s == f.zero:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return Polynomial(self.ring, terms)

    def scale(self, c) -> "Polynomial":
        if not self.terms:
            return self
        f = self.ring.field
        c = f.of(c)
        if c == f.zero:
            return self.ring.zero
        return Polynomial(self.ring, {e: f.mul(c, v) for e, v in self.terms.items()})

    def term_mul(self, exps, c) -> "Polynomial":
        """Multiply by the single term c * x^exps."""
        f = self.ring.field
        return Polynomial(
            self.ring, {mul_exps(e, exps): f.mul(c, v) for e, v in self.terms.items()}
        )

    def __pow__(self, k: int) -> "Polynomial":
        out = self.ring.one
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring.same_ring(other.ring)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- order-dependent views --------------------------------------------

    def sorted_terms(self):
        """Terms in strictly descending monomial order."""
        key = self.ring.order_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = self.ring.order_key
        return max(self.terms, key=key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        f = self.ring.field
        inv = f.inv(self.leading_coefficient())
        return self.scale(inv)

    def degree(self) -> int:
        """Weighted degree (max over terms); -1 for the zero polynomial."""
        if not self.terms:
            return -1
        deg = self.ring.degree
        return max(deg(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        deg = self.ring.degree
        degs = {deg(e) for e in self.terms}
        return len(degs) == 1

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to the i-th variable."""
        f = self.ring.field
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1 :]
            nc = f.mul(c, f.of(e[i]))
            if nc != f.zero:
                s = f.add(terms.get(ne, f.zero), nc)
                if s == f.zero:
                    terms.pop(ne, None)
                else:
                    terms[ne] = s
        return Polynomial(self.ring, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            coeff = str(c)
            if factors and coeff == "1":
                part = "*".join(factors)
            elif factors and coeff == "-1":
                part = "-" + "*".join(factors)
            elif factors:
                part = coeff + "*" + "*".join(factors)
            else:
                part = coeff
            parts.append(part)
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self):
        return f"Polynomial({self})"
