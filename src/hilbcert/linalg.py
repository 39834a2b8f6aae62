"""Exact linear algebra over a coefficient field.

Matrices are lists of rows.  A dense row is a list of field elements; a
sparse row is a {column: value} dict of its nonzero entries, the form the
action matrices of `artinian` take.  All routines are exact.  GF(2) rows
are packed into integers and eliminated with xor; other prime fields use
inline modular arithmetic over each pivot row's support; QQ is eliminated
over the integers and divided back into canonical QQ values (ints where
integral) only on output.  `rref` alone builds that output: `rank` and
`independent_modulo` read the pivots of the bare elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import _norm


def _eliminate_gf2(rows, ncols):
    """Rows packed into ints (bit j is column j), reduced with xor.  The
    reduced rows come out in pivot order."""
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
    return out, pivots


def _eliminate_gfp(rows, ncols, p):
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
        row_r = m[r]
        # the pivot row is zero before column c: update over its support
        inv = pow(row_r[c], p - 2, p)
        support = [(j, y * inv % p) for j, y in enumerate(row_r[c:], c) if y]
        for j, y in support:
            row_r[j] = y
        for i in range(nrows):
            row = m[i]
            f = row[c]
            if f and i != r:
                for j, y in support:
                    row[j] = (row[j] - f * y) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def _eliminate_qq(rows, ncols):
    """Gauss-Jordan over the integers.  Each row is scaled by the lcm of its
    denominators and every row built is divided by its content, so that
    entries stay small.  Row i is the reduced row of pivot i times a
    nonzero integer."""
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
    return m[:r], pivots


def _eliminate(rows, ncols, field):
    """The elimination alone: (working rows, pivot columns), the rows in
    the kernel's own form (packed ints for GF(2), integer multiples of the
    reduced rows for QQ)."""
    if not rows:
        return [], []
    p = field.char
    if p == 2:
        return _eliminate_gf2(rows, ncols)
    if p:
        return _eliminate_gfp(rows, ncols, p)
    return _eliminate_qq(rows, ncols)


def rref(rows, ncols, field):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    work, pivots = _eliminate(rows, ncols, field)
    p = field.char
    if p == 2:
        return [[(v >> j) & 1 for j in range(ncols)] for v in work], pivots
    if p:
        return work, pivots
    out = []
    for row, c in zip(work, pivots):
        a = row[c]
        # zero entries stay the int 0 without a division
        out.append([x and (Fraction(x, a) if x % a else x // a) for x in row])
    return out, pivots


def rank(rows, ncols, field) -> int:
    return len(_eliminate(rows, ncols, field)[1])


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
    """The transpose of a list of rows, one column at a time: the
    elimination's own working copy is then the only full copy of it."""

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
    _, pivots = _eliminate(_Columns(stack, ncols), len(stack), field)
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


def mat_mul(a, b, ncols, field):
    """Matrix product; a is m x k, b is k x ncols.  The rows of a are dense
    or sparse, the rows of b dense; each row of b is read by its nonzero
    entries, found once per row.  Sums are native, and each output row is
    reduced once: mod p, or over QQ to canonical form, where an integral
    Fraction sum becomes an int."""
    p = field.char
    support = [None] * len(b)
    out = []
    for row in a:
        acc = [0] * ncols
        for k, x in row.items() if type(row) is dict else enumerate(row):
            if x:
                bk = support[k]
                if bk is None:
                    bk = support[k] = [(j, y) for j, y in enumerate(b[k]) if y]
                for j, y in bk:
                    acc[j] += x * y
        if p:
            out.append([v % p for v in acc])
        else:
            out.append([v if type(v) is int else _norm(v) for v in acc])
    return out


def _canonical_rows(rows, field):
    """Sparse rows of native sums reduced to canonical nonzero values: mod
    p, or over QQ an int where integral."""
    p = field.char
    if p:
        return [{j: v for j, v in ((j, v % p) for j, v in acc.items()) if v}
                if acc else acc for acc in rows]
    return [{j: v if type(v) is int else _norm(v) for j, v in acc.items() if v}
            if acc else acc for acc in rows]


def sparse_mat_mul(a, b, field):
    """Matrix product of sparse matrices: row r of the result is the sum
    of x * b[k] over the entries (k, x) of a[r]."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append(acc)
    return _canonical_rows(out, field)


def sparse_combination(terms, nrows, field):
    """The sum of c * m over (c, m) in terms, each m a sparse matrix with
    nrows rows."""
    out = [{} for _ in range(nrows)]
    for c, m in terms:
        for acc, row in zip(out, m):
            for j, x in row.items():
                acc[j] = acc.get(j, 0) + c * x
    return _canonical_rows(out, field)


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
