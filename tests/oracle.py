"""Brute-force reference computations for graded Hom spaces and minimal
syzygy degrees.

Everything here works degree by degree with plain linear algebra on monomial
coordinates: the degree-e piece of a homogeneous ideal is spanned by the
monomial multiples of its generators, the quotient piece is a complement of
pivot columns, and a homomorphism of graded degree d is a family of linear
maps I_e -> (S/I)_{e+d} commuting with multiplication by each variable.
No Groebner bases or normal forms are involved, so these numbers
are an independent check on the main library.
"""

from __future__ import annotations

from hilbcert.linalg import coordinates_in_rows, independent_modulo, nullspace, rref


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


def quotient_dims(ring, gens, top):
    """Hilbert function of S/I in degrees 0..top, as a list."""
    out = []
    for e in range(top + 1):
        mons, _, basis, _ = ideal_piece(ring, gens, e)
        out.append(len(mons) - len(basis))
    return out


def socle_degree(ring, gens, limit=64):
    """Largest e with (S/I)_e nonzero; raises if the quotient is not finite
    within the search limit."""
    last = -1
    streak = 0
    for e in range(limit):
        mons, _, basis, _ = ideal_piece(ring, gens, e)
        if len(mons) > len(basis):
            last = e
            streak = 0
        else:
            streak += 1
            if streak > ring.max_weight:
                return last
    raise ValueError("quotient does not appear to be finite-dimensional")


def hom_dim(ring, gens, d, socle=None):
    """dim of the degree-d part of Hom_S(I, S/I) for a homogeneous ideal I."""
    field = ring.field
    if socle is None:
        socle = socle_degree(ring, gens)
    gen_degs = [g.degree() for g in gens if not g.is_zero()]
    if not gen_degs:
        return 0
    e_min = min(gen_degs)
    e_max = socle - d
    if e_max < e_min:
        return 0
    pieces = {}
    for e in range(e_min, e_max + 2):
        pieces[e] = ideal_piece(ring, gens, e)
    quots = {}
    for e in range(e_min, e_max + 2):
        t = e + d
        if 0 <= t <= socle:
            quots[t] = ideal_piece(ring, gens, t)
    # unknowns: for each e, a matrix I_e -> N_{e+d}
    offsets = {}
    total = 0
    for e in range(e_min, e_max + 1):
        src = len(pieces[e][2])
        t = e + d
        tgt_mons, _, tgt_basis, tgt_pivots = quots.get(t, (None, None, None, None)) if t in quots else (None, None, None, None)
        tgt = (len(tgt_mons) - len(tgt_basis)) if t in quots else 0
        offsets[e] = (total, src, tgt)
        total += src * tgt
    if total == 0:
        return 0

    def unknown(e, b, t):
        off, src, tgt = offsets[e]
        return off + b * tgt + t

    constraints = []
    zero, one = field.zero, field.one
    for e in range(e_min, e_max + 1):
        off, src, tgt = offsets[e]
        if src == 0:
            continue
        mons, index, basis, pivots = pieces[e]
        t_here = e + d
        t_next = e + 1 + d
        next_mons, next_index, next_basis, next_pivots = pieces[e + 1]
        # quotient data in target degrees
        if t_next in quots:
            q_mons, q_index, q_basis, q_pivots = quots[t_next]
            q_nonpivot = [j for j in range(len(q_mons)) if j not in set(q_pivots)]
        else:
            q_nonpivot = []
        if not q_nonpivot:
            continue  # constraint lands in the zero space
        # non-pivot monomials of N_{e+d} (columns of the unknown matrices)
        if t_here in quots:
            h_mons, h_index, h_basis, h_pivots = quots[t_here]
            h_nonpivot = [j for j in range(len(h_mons)) if j not in set(h_pivots)]
        else:
            h_nonpivot = []
        for b, brow in enumerate(basis):
            for i in range(ring.n):
                # x_i * (basis vector b of I_e) as a vector in S_{e+1}
                shifted = [zero] * len(next_mons)
                for j, c in enumerate(brow):
                    if c != zero:
                        m = mons[j]
                        prod = m[:i] + (m[i] + 1,) + m[i + 1 :]
                        k = next_index[prod]
                        shifted[k] = field.add(shifted[k], c)
                coords = coordinates_in_rows(next_basis, len(next_mons), shifted, field)
                assert coords is not None, "x_i * I_e not inside I_{e+1}"
                # one constraint row per non-pivot monomial of N_{e+1+d}
                rows = [
                    dict() for _ in q_nonpivot
                ]
                # phi(x_i b) term: sum over basis vectors of I_{e+1}
                onp, snp, tnp = offsets[e + 1]
                if tnp:
                    for b2, c2 in enumerate(coords):
                        if c2 == zero:
                            continue
                        for tcol in range(tnp):
                            u = unknown(e + 1, b2, tcol)
                            for r in range(len(q_nonpivot)):
                                if r == tcol:
                                    rows[r][u] = field.add(rows[r].get(u, zero), c2)
                # minus x_i * phi(b): phi(b) = sum over h_nonpivot columns
                for tcol, hj in enumerate(h_nonpivot):
                    m = h_mons[hj]
                    prod = m[:i] + (m[i] + 1,) + m[i + 1 :]
                    # image monomial in S_{e+1+d}, projected to N_{e+1+d}
                    vec = [zero] * len(q_mons)
                    vec[q_index[prod]] = one
                    pr = project(vec, q_basis, q_pivots, field)
                    u = unknown(e, b, tcol)
                    for r, c2 in enumerate(pr):
                        if c2 != zero:
                            rows[r][u] = field.sub(rows[r].get(u, zero), c2)
                for r in rows:
                    if r:
                        constraints.append(r)
    dense = []
    for r in constraints:
        row = [zero] * total
        for u, c in r.items():
            row[u] = c
        dense.append(row)
    return total - len(rref(dense, total, field)[0])


def hom_dims(ring, gens, dmin, dmax):
    socle = socle_degree(ring, gens)
    return {d: hom_dim(ring, gens, d, socle=socle) for d in range(dmin, dmax + 1)}


def minimal_syzygy_degrees(ring, gens, up_to):
    """Degrees of a minimal generating set of the first-syzygy module,
    computed degree by degree with plain linear algebra (kernel of the
    evaluation map on monomial coordinates, modulo the variable multiples
    of lower-degree kernels)."""
    f = ring.field
    gd = [g.degree() for g in gens]

    def kernel_basis(d):
        mons = ring.monomials_of_degree(d)
        index = {m: j for j, m in enumerate(mons)}
        cols = []  # one per (generator j, monomial of degree d - deg g_j)
        labels = []
        for j, g in enumerate(gens):
            if gd[j] > d:
                continue
            for m in ring.monomials_of_degree(d - gd[j]):
                col = [f.zero] * len(mons)
                for ge, cc in g.terms.items():
                    key = tuple(a + b for a, b in zip(ge, m))
                    col[index[key]] = f.add(col[index[key]], cc)
                cols.append(col)
                labels.append((j, m))
        matrix = [[cols[c][r] for c in range(len(cols))] for r in range(len(mons))]
        return nullspace(matrix, len(cols), f), labels

    out = {}
    prev = None
    for d in range(min(gd), up_to + 1):
        kern, labels = kernel_basis(d)
        shifted = []
        if prev is not None:
            pk, pl = prev
            label_index = {lab: i for i, lab in enumerate(labels)}
            for vec in pk:
                for i in range(ring.n):
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
        prev = (kern, labels)
    return out
