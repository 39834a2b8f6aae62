"""Exact coefficient fields: prime fields GF(p) and the rationals.

Field elements are plain Python values: ints in [0, p) for GF(p), and for
QQ an `int` when the value is integral and a `fractions.Fraction` with
denominator > 1 otherwise.  Both are `numbers.Rational`, and equal values
compare and hash equal, so the mix is invisible to every answer; most QQ
values met in practice are integers, whose arithmetic and truth tests run
in C.  A field object bundles the arithmetic so the rest of the library
never touches floating point.
"""

from __future__ import annotations

from fractions import Fraction

_MAX_PRIME = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field with p elements, p a prime below 2**31."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p >= _MAX_PRIME:
            raise ValueError(f"modulus {p} too large (need p < 2^31)")
        self.char = p

    def of(self, n) -> int:
        if isinstance(n, Fraction):
            if n.denominator % self.char == 0:
                raise ZeroDivisionError("denominator vanishes mod p")
            return n.numerator * self.inv(n.denominator % self.char) % self.char
        return n % self.char

    def add(self, a, b):
        return (a + b) % self.char

    def sub(self, a, b):
        return (a - b) % self.char

    def mul(self, a, b):
        return a * b % self.char

    def neg(self, a):
        return -a % self.char

    def inv(self, a):
        if a % self.char == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, self.char - 2, self.char)

    def div(self, a, b):
        return a * self.inv(b) % self.char

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.char == self.char

    def __hash__(self):
        return hash(("GF", self.char))

    def __repr__(self):
        return f"GF({self.char})"


def _norm(x):
    """The canonical form of a rational value: an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


class RationalField:
    """The rationals, exact: ints where integral, Fractions otherwise."""

    char = 0
    zero = 0
    one = 1

    def of(self, n):
        return n if type(n) is int else _norm(Fraction(n))

    def add(self, a, b):
        return _norm(a + b)

    def sub(self, a, b):
        return _norm(a - b)

    def mul(self, a, b):
        return _norm(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return _norm(Fraction(1, a))

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        return _norm(Fraction(a, b))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_name(field) -> str:
    """Stable textual name, matching the ideal-file header grammar."""
    if field.char:
        return f"GF({field.char})"
    return "QQ"


def field_from_name(name: str):
    name = name.strip()
    if name == "QQ":
        return QQ
    if name.startswith("GF(") and name.endswith(")"):
        return PrimeField(int(name[3:-1]))
    raise ValueError(f"unknown field {name!r} (expected QQ or GF(p))")
