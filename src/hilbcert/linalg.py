"""Exact linear algebra over a coefficient field.

Matrices are lists of rows.  A dense row is a list of field elements; a
sparse row is a {column: value} dict, the form the action matrices of
`artinian` and the Hom constraints of `homology` take.  All routines are
exact.  There is one elimination, `Echelon.insert`, and it is sparse: it
reads only the nonzero entries of dense or sparse rows, in any mix, and
inserts the rows one at a time into an echelon keyed by each row's lowest
column.  GF(2) rows are packed into integers and reduced with xor; other prime
fields reduce over each pivot row's support; QQ rows are integer rows
divided by their content, turned back into canonical QQ values (ints where
integral) only on output.  `rank` is the echelon's length and
`independent_modulo` reads which rows it kept; `rref` alone back-substitutes
and writes dense rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm

from .fields import _norm


def _entries(row):
    """(column, value) pairs of a row's nonzero entries; a sparse row may
    also hold zeros and other non-canonical values, such as native sums."""
    if type(row) is dict:
        return row.items()
    return [(j, row[j]) for j in compress(count(), row)]


def _primitive(row):
    """An integer row divided by its content (the empty row stays)."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _reducer(p):
    """(read, reduce, store) for GF(p), or for QQ when p is 0: a row read
    into the kernel's form (a packed int for GF(2), bit j column j, else a
    dict of nonzero entries); `reduce` cancels a row's entry at column c
    against the echelon row `known` there, and `store` brings a new
    echelon row into its kept form."""
    if p == 2:
        def read(row):
            v = 0
            for j, x in _entries(row):
                if x % 2:
                    v |= 1 << j
            return v

        return read, lambda row, known, c: row ^ known, lambda row, c: row
    if p:
        def read(row):
            return {j: v for j, v in [(j, x % p) for j, x in _entries(row)] if v}

        def reduce(row, known, c):
            f = row[c]
            get = row.get
            for j, y in known.items():
                v = (get(j, 0) - f * y) % p
                if v:
                    row[j] = v
                else:  # f * y is nonzero, so a zero sum had an entry there
                    del row[j]
            return row

        def store(row, c):
            inv = pow(row[c], p - 2, p)
            return {j: x * inv % p for j, x in row.items()}

        return read, reduce, store

    def read(row):
        items = [(j, x) for j, x in _entries(row) if x]
        den = lcm(*[x.denominator for _, x in items])
        return _primitive({j: x.numerator * (den // x.denominator)
                           for j, x in items})

    def reduce(row, known, c):
        a, b = known[c], row[c]
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            row = {j: a * x for j, x in row.items()}
        get = row.get
        for j, y in known.items():
            v = get(j, 0) - b * y
            if v:
                row[j] = v
            else:
                del row[j]
        return _primitive(row)

    return read, reduce, lambda row, c: row


class Echelon:
    """`rows` maps each pivot column to its row in the kernel's form: a
    packed int for GF(2), a dict with a one at the pivot for GF(p), a dict
    of coprime ints for QQ."""

    def __init__(self, field):
        self.char, self.rows = field.char, {}
        self.read, self._reduce, self._store = _reducer(field.char)
        self._low = (lambda v: (v & -v).bit_length() - 1) if field.char == 2 else min

    def insert(self, row):
        """Reduce a dense or sparse row by the echelon and store what is
        left under its lowest column, returned (None when nothing is)."""
        echelon, reduce = self.rows, self._reduce
        row = self.read(row)
        low = self._low  # the lowest column
        while row:
            c = low(row)
            known = echelon.get(c)
            if known is None:
                echelon[c] = self._store(row, c)
                return c
            row = reduce(row, known, c)
        return None

    def reduce_at(self, row, columns):
        """A row in the kernel's form (changed in place) reduced at the
        pivots `columns`, in increasing order (so none comes back; any
        order when the rows there are themselves reduced)."""
        for c in columns:
            if (row >> c & 1) if self.char == 2 else c in row:
                row = self._reduce(row, self.rows[c], c)
        return row

    def values(self, row, c=None):
        """{column: field value} of a row in the kernel's form, over QQ
        divided by its entry at column c when c is given (over GF(p) a
        pivot row, or a row that `reduce_at` was given, is one there)."""
        if self.char == 2:
            return {j: 1 for j in range(row.bit_length()) if row >> j & 1}
        a = 1 if self.char or c is None else row[c]
        return {j: x // a if x % a == 0 else Fraction(x, a) for j, x in row.items()}


def _eliminate(rows, ncols, field):
    """(echelon, kept): the `Echelon.rows` of the rows, and the indices of
    the rows independent of the rows before them; `ncols` is their width."""
    echelon = Echelon(field)
    kept = [i for i, row in enumerate(rows) if echelon.insert(row) is not None]
    return echelon.rows, kept


def rref(rows, ncols, field):
    """Reduced row echelon form.  Returns (rows, pivot_columns): the
    echelon back-substituted from the last pivot up, as dense rows."""
    echelon = Echelon(field)
    for row in rows:
        echelon.insert(row)
    red = echelon.rows
    pivots = sorted(red)
    p = field.char
    done = 0  # GF(2): the bits of the pivots already reduced
    for c in reversed(pivots):
        row = red[c]
        # the rows below are reduced, with no other pivot's entry: reducing
        # at the row's own later pivots brings none back
        if p == 2:
            above = row & done
            later = [k for k in range(above.bit_length()) if above >> k & 1]
            done |= 1 << c
        else:
            later = [k for k in row if k > c and k in red]
        red[c] = echelon.reduce_at(row, later)
    if p == 2:
        return [[(red[c] >> j) & 1 for j in range(ncols)] for c in pivots], pivots
    out = []
    for c in pivots:
        row = red[c]
        a = row[c]  # one over GF(p)
        dense = [0] * ncols
        for j, x in row.items():
            dense[j] = x if p else Fraction(x, a) if x % a else x // a
        out.append(dense)
    return out, pivots


def rank(rows, ncols, field) -> int:
    return len(_eliminate(rows, ncols, field)[0])


def nullspace(rows, ncols, field):
    """Basis of {x : M x = 0} for the matrix M with the given rows."""
    red, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    zero, one, neg = field.zero, field.one, field.neg
    basis = {}  # one vector per free column, in column order
    for f in range(ncols):
        if f not in pivot_set:
            vec = basis[f] = [zero] * ncols
            vec[f] = one
    # a reduced row's entries off its pivot lie in free columns
    for row, c in zip(red, pivots):
        for f in compress(count(), row):
            if f != c:
                basis[f][c] = neg(row[f])
    return list(basis.values())


def row_space_basis(rows, ncols, field):
    return rref(rows, ncols, field)[0]


def independent_modulo(base, candidates, ncols, field):
    """Indices of the candidates outside the span of `base` and of the
    candidates before them: a greedy basis of the candidates modulo `base`,
    read off the rows that one elimination of the stacked rows keeps."""
    offset = len(base)
    _, kept = _eliminate(list(base) + list(candidates), ncols, field)
    return [i - offset for i in kept if i >= offset]


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
    """Matrix product; a is m x k, b is k x ncols.  The rows of a and b are
    dense or sparse; each row of b is read by its nonzero entries, found
    once per row.  Sums are native, and each output row is dense and
    reduced once: mod p, or over QQ, when a sum is a Fraction, to canonical
    form, where an integral Fraction sum becomes an int."""
    p = field.char
    support = [None] * len(b)
    out = []
    for row in a:
        acc = [0] * ncols
        for k, x in row.items() if type(row) is dict else enumerate(row):
            if x:
                bk = support[k]
                if bk is None:
                    bk = support[k] = _entries(b[k])
                for j, y in bk:
                    acc[j] += x * y
        if p:
            acc = [v % p for v in acc]
        elif type(sum(acc)) is not int:  # the sum of ints alone is an int
            acc = [v if type(v) is int else _norm(v) for v in acc]
        out.append(acc)
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

