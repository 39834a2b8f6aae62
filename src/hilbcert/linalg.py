"""Exact dense linear algebra over a coefficient field.

Matrices are lists of rows; rows are lists of field elements.  All routines
are exact.  GF(2) rows are packed into integers and eliminated with xor;
other prime fields use inline modular arithmetic; QQ is eliminated over
the integers and turned back into Fractions only on output.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _rref_gf2(rows, ncols):
    packed = []
    for row in rows:
        v = 0
        for j, x in enumerate(row):
            if x:
                v |= 1 << j
        if v:
            packed.append(v)
    out = []
    pivots = []
    for c in range(ncols):
        bit = 1 << c
        piv = None
        for i, v in enumerate(packed):
            if v & bit:
                piv = i
                break
        if piv is None:
            continue
        pv = packed.pop(piv)
        packed = [v ^ pv if v & bit else v for v in packed]
        out = [v ^ pv if v & bit else v for v in out]
        out.append(pv)
        pivots.append(c)
        if not packed:
            break
    unpacked = [[(v >> j) & 1 for j in range(ncols)] for v in out]
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [unpacked[i] for i in order], sorted(pivots)


def _rref_gfp(rows, ncols, p):
    m = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    nrows = len(m)
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        if inv != 1:
            m[r] = [x * inv % p for x in m[r]]
        row_r = m[r]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def _rref_qq(rows, ncols, zero):
    """Gauss-Jordan over the integers.  Each row is scaled by the lcm of its
    denominators and every row built is divided by its content, so that
    entries stay small; `Fraction`s are built again only when each pivot
    row is divided by its pivot, which gives the unique reduced form."""
    m = []
    for row in rows:
        nonzero = [(j, x) for j, x in enumerate(row) if x]
        if not nonzero:
            continue
        den = lcm(*[x.denominator for _, x in nonzero])
        ints = [0] * len(row)
        for j, x in nonzero:
            ints[j] = x.numerator * (den // x.denominator)
        g = gcd(*ints)
        m.append([x // g for x in ints] if g > 1 else ints)
    pivots = []
    r = 0
    nrows = len(m)
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        row_r = m[r]
        a = row_r[c]
        for i in range(nrows):
            b = m[i][c]
            if b and i != r:
                g = gcd(a, b)
                fa, fb = a // g, b // g
                new = [fa * x - fb * y for x, y in zip(m[i], row_r)]
                g = gcd(*new)
                m[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for row, c in zip(m, pivots):
        a = row[c]
        out.append([Fraction(x, a) if x else zero for x in row])
    return out, pivots


def rref(rows, ncols, field):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    if not rows:
        return [], []
    p = field.char
    if p == 2:
        return _rref_gf2(rows, ncols)
    if p:
        return _rref_gfp(rows, ncols, p)
    return _rref_qq(rows, ncols, field.zero)


def rank(rows, ncols, field) -> int:
    return len(rref(rows, ncols, field)[0])


def nullspace(rows, ncols, field):
    """Basis of {x : M x = 0} for the matrix M with the given rows."""
    red, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    zero = field.zero
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = field.one
        for i, c in enumerate(pivots):
            vec[c] = field.neg(red[i][f])
        basis.append(vec)
    return basis


def row_space_basis(rows, ncols, field):
    return rref(rows, ncols, field)[0]


class _Columns:
    """The transpose of a list of rows, one column at a time: `rref`'s own
    working copy is then the only full copy of it."""

    def __init__(self, rows, ncols):
        self.rows = rows
        self.ncols = ncols

    def __len__(self):
        return self.ncols

    def __iter__(self):
        for j in range(self.ncols):
            yield [row[j] for row in self.rows]


def independent_modulo(base, candidates, ncols, field):
    """Indices of the candidates outside the span of `base` and of the
    candidates before them: a greedy basis of the candidates modulo `base`.

    One elimination of the stacked rows' transpose: its pivot columns are
    the rows independent of all rows before them.
    """
    stack = list(base) + list(candidates)
    if not stack or not ncols:
        return []
    _, pivots = rref(_Columns(stack, ncols), len(stack), field)
    offset = len(base)
    return [c - offset for c in pivots if c >= offset]


def solve(rows, ncols, rhs, field):
    """One solution x of M x = rhs, or None if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug, ncols + 1, field)
    if ncols in pivots:
        return None
    zero = field.zero
    x = [zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols]
    return x


def coordinates_in_rows(basis_rows, ncols, vec, field):
    """Coefficients c with sum c_i * basis_i = vec, or None."""
    if not basis_rows:
        return None if any(vec) else []
    cols = [[basis_rows[i][j] for i in range(len(basis_rows))] for j in range(ncols)]
    return solve(cols, len(basis_rows), list(vec), field)


def left_nullspace(rows, ncols, field):
    """Basis of {y : y M = 0}; functionals vanishing on the row space."""
    nrows = len(rows)
    transpose = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    return nullspace(transpose, nrows, field)


def matvec(rows, vec, field):
    out = []
    for row in rows:
        acc = field.zero
        for a, b in zip(row, vec):
            if a and b:
                acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


def mat_mul(a, b, field):
    """Matrix product; a is m x k, b is k x n, both lists of rows."""
    if not a or not b:
        return [[] for _ in a]
    k = len(b)
    n = len(b[0])
    zero = field.zero
    p = field.char
    out = []
    if p:
        for row in a:
            acc = [0] * n
            for t, x in enumerate(row):
                if x:
                    bt = b[t]
                    for j in range(n):
                        if bt[j]:
                            acc[j] += x * bt[j]
            out.append([v % p for v in acc])
        return out
    for row in a:
        acc = [zero] * n
        for t, x in enumerate(row):
            if x:
                bt = b[t]
                for j in range(n):
                    if bt[j]:
                        acc[j] = field.add(acc[j], field.mul(x, bt[j]))
        out.append(acc)
    return out


def det(matrix, field):
    """Determinant of a square matrix, by elimination to triangular form."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    out = field.one
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return field.zero
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            out = field.neg(out)
        out = field.mul(out, rows[c][c])
        inv = field.inv(rows[c][c])
        for i in range(c + 1, n):
            if rows[i][c]:
                factor = field.mul(rows[i][c], inv)
                rows[i] = [
                    field.sub(a, field.mul(factor, b))
                    for a, b in zip(rows[i], rows[c])
                ]
    return out


def identity(n, field):
    zero, one = field.zero, field.one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]
