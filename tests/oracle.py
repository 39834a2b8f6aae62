"""Brute-force reference computations for graded Hom and Ext^1 spaces and
minimal syzygy degrees.

Everything here works degree by degree with plain linear algebra on monomial
coordinates: the degree-e piece of a homogeneous ideal is spanned by the
monomial multiples of its generators, the quotient piece is a complement of
pivot columns, and a homomorphism of graded degree d is a family of linear
maps I_e -> (S/I)_{e+d} commuting with multiplication by each variable.
No Groebner bases or normal forms are involved, so these numbers
are an independent check on the main library.  The dense elimination
kernels below are kept here, not imported from `hilbcert.linalg`, so that
the library's sparse elimination is checked against separate code.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


# -- dense elimination kernels ---------------------------------------------


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


# -- degree pieces ---------------------------------------------------------




def ideal_piece(ring, gens, e):
    """rref basis and pivots of I_e on the monomial basis of S_e."""
    mons = ring.monomials_of_degree(e)
    index = {m: j for j, m in enumerate(mons)}
    rows = []
    for g in gens:
        dg = g.degree()
        if dg > e or dg < 0:
            continue
        for m in ring.monomials_of_degree(e - dg):
            row = [ring.field.zero] * len(mons)
            for ge, c in g.terms.items():
                prod = tuple(a + b for a, b in zip(ge, m))
                row[index[prod]] = ring.field.add(row[index[prod]], c)
            rows.append(row)
    basis, pivots = rref(rows, len(mons), ring.field)
    return mons, index, basis, pivots


def project(vec, basis, pivots, field):
    """Reduce vec modulo the rref rows; return coordinates on the non-pivot
    columns (a basis of the quotient)."""
    v = list(vec)
    for row, p in zip(basis, pivots):
        c = v[p]
        if c != field.zero:
            for j, x in enumerate(row):
                if x != field.zero:
                    v[j] = field.sub(v[j], field.mul(c, x))
    pivot_set = set(pivots)
    return [v[j] for j in range(len(v)) if j not in pivot_set]


def quotient_dims(ring, gens, top, pieces=None):
    """Hilbert function of S/I in degrees 0..top, as a list."""
    pieces = _pieces_of(ring, gens, pieces)
    out = []
    for e in range(top + 1):
        mons, _, basis, _ = pieces.ideal(e)
        out.append(len(mons) - len(basis))
    return out


def socle_degree(ring, gens, limit=64, pieces=None):
    """Largest e with (S/I)_e nonzero; raises if the quotient is not finite
    within the search limit.  `pieces` may pass in the caller's `_Pieces`
    of the same ideal, so that each I_e is eliminated once."""
    pieces = _pieces_of(ring, gens, pieces)
    last = -1
    streak = 0
    for e in range(limit):
        mons, _, basis, _ = pieces.ideal(e)
        if len(mons) > len(basis):
            last = e
            streak = 0
        else:
            streak += 1
            if streak > ring.max_weight:
                return last
    raise ValueError("quotient does not appear to be finite-dimensional")


def syzygy_kernel(ring, gens, d):
    """Basis of K_d = ker(F_d -> S_d), F the free module with one generator
    of degree deg g_j per generator g_j, on the monomial coordinates of F_d:
    labels (j, m) with deg m = d - deg g_j.  Returns (basis, labels, free
    columns)."""
    f = ring.field
    mons = ring.monomials_of_degree(d)
    index = {m: j for j, m in enumerate(mons)}
    cols = []  # one per label
    labels = []
    for j, g in enumerate(gens):
        if g.degree() > d:
            continue
        for m in ring.monomials_of_degree(d - g.degree()):
            col = [f.zero] * len(mons)
            for ge, cc in g.terms.items():
                key = tuple(a + b for a, b in zip(ge, m))
                col[index[key]] = f.add(col[index[key]], cc)
            cols.append(col)
            labels.append((j, m))
    matrix = [[cols[c][r] for c in range(len(cols))] for r in range(len(mons))]
    red, pivots = rref(matrix, len(cols), f)
    # one kernel vector per free column: one there, zero at the other free
    # columns, so a kernel element's coordinates are its free entries
    pivot_set = set(pivots)
    free = [c for c in range(len(cols)) if c not in pivot_set]
    kern = []
    for c in free:
        vec = [f.zero] * len(cols)
        vec[c] = f.one
        for row, p in zip(red, pivots):
            vec[p] = f.neg(row[c])
        kern.append(vec)
    return kern, labels, free


class _Pieces:
    """The degree pieces of I and of its syzygy module K, each computed
    once."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = gens
        self._ideal = {}
        self._syzygies = {}

    def ideal(self, e):
        """`ideal_piece` of I_e."""
        if e not in self._ideal:
            self._ideal[e] = ideal_piece(self.ring, self.gens, e)
        return self._ideal[e]

    def ideal_source(self, e):
        """I_e as a `_hom_dim` source: labels (0, m), m a monomial."""
        mons, _, basis, pivots = self.ideal(e)
        return [(0, m) for m in mons], basis, pivots

    def syzygy_source(self, e):
        """K_e as a `_hom_dim` source, its free columns as the pivots."""
        if e not in self._syzygies:
            kern, labels, free = syzygy_kernel(self.ring, self.gens, e)
            self._syzygies[e] = (labels, kern, free)
        return self._syzygies[e]


_LAST = []  # the `_Pieces` of the ideal asked about last


def _pieces_of(ring, gens, pieces=None):
    """`pieces` when given; else the `_Pieces` of the ideal asked about
    last, if it is this one (the same ring, equal generators), or new ones.
    A caller that asks several questions of one ideal without passing its
    pieces still eliminates each piece once."""
    if pieces is not None:
        return pieces
    if not (_LAST and _LAST[0].ring is ring and _LAST[0].gens == list(gens)):
        _LAST[:] = [_Pieces(ring, list(gens))]
    return _LAST[0]


def _hom_dim(pieces, source, e_min, d, socle):
    """dim of the degree-d part of Hom_S(P, S/I), for a graded submodule P
    of a free module with P_e = 0 below e_min.  `source(e)` gives P_e as
    (labels, basis, pivots) over the labels (j, m) of the free module's
    degree-e monomial coordinates: each basis vector is one at its own pivot
    column and zero at the others.  A degree-d hom is a family of
    linear maps P_e -> (S/I)_{e+d} commuting with every variable."""
    ring = pieces.ring
    field = ring.field
    zero = field.zero
    e_max = socle - d
    if e_max < e_min:
        return 0
    src = {e: source(e) for e in range(e_min, e_max + 1)}
    # N_t for 0 <= t <= socle: rref data of I_t and the monomials of the
    # non-pivot columns, a basis of N_t
    quots = {}
    for t in range(max(e_min + d, 0), socle + 1):
        mons, index, basis, pivots = pieces.ideal(t)
        pivot_set = set(pivots)
        quots[t] = (index, basis, pivots,
                    [m for j, m in enumerate(mons) if j not in pivot_set])

    def n_dim(t):
        return len(quots[t][3]) if t in quots else 0

    # unknowns: for each e, the matrix of P_e -> N_{e+d}, entry (b, c) at
    # offsets[e] + b * n_dim(e + d) + c
    offsets = {}
    total = 0
    for e in range(e_min, e_max + 1):
        offsets[e] = total
        total += len(src[e][1]) * n_dim(e + d)
    if total == 0:
        return 0
    constraints = []
    for e in range(e_min, e_max):
        labels, basis, _ = src[e]
        next_labels, _, next_pivots = src[e + 1]
        next_index = {lab: k for k, lab in enumerate(next_labels)}
        width_next = n_dim(e + 1 + d)
        if not width_next:
            continue  # the constraint lands in the zero space
        t_index, t_basis, t_pivots, _ = quots[e + 1 + d]
        here = quots[e + d][3] if e + d in quots else []
        for b, brow in enumerate(basis):
            for i in range(ring.n):
                # x_i * (basis vector b of P_e) in P_{e+1}: its coordinates
                # on the basis are its entries at the pivot columns
                shifted = [zero] * len(next_labels)
                for (j, m), c in zip(labels, brow):
                    if c != zero:
                        k = next_index[(j, m[:i] + (m[i] + 1,) + m[i + 1:])]
                        shifted[k] = field.add(shifted[k], c)
                coords = [shifted[p] for p in next_pivots]
                # one sparse row (unknown -> coefficient) per basis
                # monomial r of N_{e+1+d}: phi(x_i b)_r - (x_i phi(b))_r = 0
                rows = [{} for _ in range(width_next)]
                for b2, c2 in enumerate(coords):
                    if c2 != zero:
                        for r in range(width_next):
                            rows[r][offsets[e + 1] + b2 * width_next + r] = c2
                for c, m in enumerate(here):
                    vec = [zero] * len(t_index)
                    vec[t_index[m[:i] + (m[i] + 1,) + m[i + 1:]]] = field.one
                    u = offsets[e] + b * len(here) + c
                    for r, x in enumerate(project(vec, t_basis, t_pivots, field)):
                        if x != zero:
                            rows[r][u] = field.sub(rows[r].get(u, zero), x)
                constraints.extend(rows)
    return total - sparse_rank(constraints, field)


def sparse_rank(rows, field):
    """Rank of sparse rows (column -> coefficient dicts) by Gaussian
    elimination that keeps each pivot row under its largest column.  The
    arithmetic is native: reduced mod p over GF(p), exact over QQ."""
    p = field.char
    pivots = {}
    for row in rows:
        row = {u: x % p if p else x for u, x in row.items()}
        row = {u: x for u, x in row.items() if x}
        while row:
            col = max(row)
            known = pivots.get(col)
            if known is None:
                inv = field.inv(row[col])
                pivots[col] = [(u, x * inv % p if p else x * inv)
                               for u, x in row.items()]
                break
            c = row[col]
            get = row.get
            for u, x in known:
                val = get(u, 0) - c * x
                if p:
                    val %= p
                if val:
                    row[u] = val
                else:
                    # c * x is nonzero, so a zero sum had an entry to cancel
                    del row[u]
    return len(pivots)


def hom_dim(ring, gens, d, socle=None, pieces=None):
    """dim of the degree-d part of Hom_S(I, S/I) for a homogeneous ideal I."""
    pieces = _pieces_of(ring, gens, pieces)
    if socle is None:
        socle = socle_degree(ring, gens, pieces=pieces)
    gen_degs = [g.degree() for g in gens if not g.is_zero()]
    if not gen_degs:
        return 0
    return _hom_dim(pieces, pieces.ideal_source, min(gen_degs), d, socle)


def hom_dims(ring, gens, dmin, dmax):
    pieces = _pieces_of(ring, gens)
    socle = socle_degree(ring, gens, pieces=pieces)
    return {d: hom_dim(ring, gens, d, socle=socle, pieces=pieces)
            for d in range(dmin, dmax + 1)}


def ext1_dims(ring, gens, dmin, dmax):
    """dim Ext^1_S(I, S/I)_d for dmin <= d <= dmax, from the exact sequence
    0 -> Hom(I, N) -> Hom(F, N) -> Hom(K, N) -> Ext^1(I, N) -> 0 of
    0 -> K -> F -> I -> 0, F the free module on the generators and N = S/I:
    dim Ext^1_d = dim Hom(K, N)_d - dim Hom(F, N)_d + dim Hom(I, N)_d."""
    pieces = _pieces_of(ring, gens)
    socle = socle_degree(ring, gens, pieces=pieces)
    n_dims = quotient_dims(ring, gens, socle, pieces=pieces)
    degs = [g.degree() for g in gens]
    out = {}
    for d in range(dmin, dmax + 1):
        hom_f = sum(n_dims[a + d] for a in degs if 0 <= a + d <= socle)
        out[d] = (_hom_dim(pieces, pieces.syzygy_source, min(degs), d, socle)
                  - hom_f + hom_dim(ring, gens, d, socle=socle, pieces=pieces))
    return out


def minimal_syzygy_degrees(ring, gens, up_to):
    """Degrees of a minimal generating set of the first-syzygy module,
    computed degree by degree with plain linear algebra (kernel of the
    evaluation map on monomial coordinates, modulo the variable multiples
    of lower-degree kernels: x_i times the kernel in degree d - w_i)."""
    f = ring.field
    gd = [g.degree() for g in gens]
    out = {}
    kernels = {}
    for d in range(min(gd), up_to + 1):
        kern, labels, _ = syzygy_kernel(ring, gens, d)
        label_index = {lab: i for i, lab in enumerate(labels)}
        shifted = []
        for i, w in enumerate(ring.weights):
            pk, pl = kernels.get(d - w, ((), ()))
            for vec in pk:
                row = [f.zero] * len(labels)
                for c, (j, m) in zip(vec, pl):
                    if c != f.zero:
                        key = (j, m[:i] + (m[i] + 1,) + m[i + 1 :])
                        pos = label_index[key]
                        row[pos] = f.add(row[pos], c)
                shifted.append(row)
        # kernel vectors outside the span of the lower-degree multiples
        new = len(independent_modulo(shifted, kern, len(labels), f))
        if new:
            out[d] = new
        kernels[d] = (kern, labels)
    return out
