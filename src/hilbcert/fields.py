"""Exact coefficient fields: prime fields GF(p) and the rationals.

Field elements are plain Python values (ints in [0, p) for GF(p),
`fractions.Fraction` for QQ).  A field object bundles the arithmetic so the
rest of the library never touches floating point.
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


class RationalField:
    """The rationals with arbitrary-precision Fraction arithmetic."""

    char = 0
    # Fractions are immutable, so every caller can share these two
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, n) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / b

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
