"""Per-element loops that the library replaced, kept as test references.

- "Independent modulo a span": keep a candidate when appending it raises
  the rank of the current span, then re-reduce the span (two eliminations
  per candidate).  `linalg.independent_modulo` and the homology routines
  built on it must agree with it.
- Evaluating homs on a vector one hom at a time, rebuilding each action
  matrix per hom.  `homology.evaluate`, which applies one action to a whole
  batch of homs, must agree with it column by column; the filtration
  constraints of `hom_nonneg_filtration` and the `T^2` evaluations below
  are built on it.
- Trimming a generating set: keep a vector unless the Groebner basis of
  the ones kept so far contains it, building a fresh basis per kept vector.
  `groebner.minimal_generators` must agree with it.
"""

from hilbcert.groebner import ModuleGroebner
from hilbcert.linalg import matvec, nullspace, rank, row_space_basis


def independent_greedy(base, candidates, ncols, field):
    current = row_space_basis(base, ncols, field)
    kept = []
    for i, v in enumerate(candidates):
        trial = current + [list(v)]
        if rank(trial, ncols, field) > len(current):
            current = row_space_basis(trial, ncols, field)
            kept.append(i)
    return kept


class _MembershipEngine(ModuleGroebner):
    """The Groebner engine without its syzygy transcripts, which membership
    tests never read."""

    def _record_syzygy(self, *args):
        pass


def groebner_trim(vectors):
    """The nonzero vectors, stably sorted by degree, that the Groebner basis
    of the ones kept before them does not contain."""
    kept = []
    engine = None
    for v in sorted((v for v in vectors if v), key=lambda v: v.degree()):
        if engine is not None and engine.contains(v):
            continue
        kept.append(v)
        engine = _MembershipEngine(v.module, kept)
    return kept


def unflatten(vec, r, dimn):
    return [vec[j * dimn : (j + 1) * dimn] for j in range(r)]


def evaluate_polys(polys, images, target):
    """Value sum(p_j acting on images_j) of one hom, given by its generator
    images, on the vector with coordinates `polys`."""
    f = target.ring.field
    out = target.zero_vector()
    for j, p in enumerate(polys):
        if p.is_zero():
            continue
        img = matvec(target.poly_matrix(p), images[j], f)
        for t, x in enumerate(img):
            if x != f.zero:
                out[t] = f.add(out[t], x)
    return out


def _group(pairs):
    out = {}
    for d, x in pairs:
        out.setdefault(d, []).append(x)
    return out


def ext1_representatives(ext1):
    """(degree, hom element) representatives of Ext^1, per degree in
    increasing order, chosen by the greedy loop."""
    f = ext1.syz_hom.target.ring.field
    img_by_deg = _group(ext1.image_rows)
    by_deg = _group((h.degree, h) for h in ext1.syz_hom.elements)
    reps = []
    for d, elems in sorted(by_deg.items()):
        kept = independent_greedy(img_by_deg.get(d, []),
                                  [h.flatten() for h in elems], ext1.width, f)
        reps.extend((d, elems[i]) for i in kept)
    return reps


def t2_dims(ideal, target, ext1, syz_engine):
    """Per degree, the number of Ext^1 classes killing the trivial
    syzygies: rank(kernel + image) - rank(image), with the kernel's
    vectors summed entry by entry."""
    f = ideal.ring.field
    width = ext1.width
    koszul_lifts = [syz_engine.normal_form(v)[1] for v in ideal.koszul_vectors()]
    img_by_deg = _group(ext1.image_rows)
    dims = {}
    for d, reps in sorted(_group(ext1_representatives(ext1)).items()):
        img = img_by_deg.get(d, [])
        candidates = [h.flatten() for h in reps] + img
        eval_rows = []
        for vec in candidates:
            images = unflatten(vec, len(ideal.syzygies), target.dim)
            row = []
            for lift in koszul_lifts:
                row.extend(evaluate_polys(lift, images, target))
            eval_rows.append(row)
        ncols = len(eval_rows[0])
        kern = nullspace(
            [[row[t] for row in eval_rows] for t in range(ncols)],
            len(candidates), f,
        ) if ncols else [
            [f.one if i == j else f.zero for j in range(len(candidates))]
            for i in range(len(candidates))
        ]
        kern_vectors = []
        for coeffs in kern:
            vec = [f.zero] * width
            for c, cand in zip(coeffs, candidates):
                for t in range(width):
                    vec[t] = f.add(vec[t], f.mul(c, cand[t]))
            kern_vectors.append(vec)
        dim = rank(kern_vectors + img, width, f) - rank(img, width, f)
        if dim:
            dims[d] = dim
    return dims


def hom_nonneg_filtration(ideal, quotient, hom, start=None):
    """(dimension, coefficient vectors) as `homology.hom_nonneg_filtration`."""
    ring = ideal.ring
    f = ring.field
    n0 = quotient.filtration_start() if start is None else start
    m = len(hom.elements)
    if m == 0:
        return 0, []

    def values_on(poly):
        nf, lift = ideal.normal_form(poly)
        assert nf.is_zero()
        return [evaluate_polys(lift, h.images, quotient) for h in hom.elements]

    constraints = []
    for d in range(n0, n0 + ring.max_weight):
        for e in ring.monomials_of_degree(d):
            vals = values_on(ring.monomial(e))
            for t in range(quotient.dim):
                row = [vals[i][t] for i in range(m)]
                if any(x != f.zero for x in row):
                    constraints.append(row)
    for k in range(1, n0):
        window = []
        for d in range(k, n0):
            window.extend(ring.monomials_of_degree(d))
        if not window:
            continue
        nf_rows = [quotient.poly_vector(ring.monomial(e)) for e in window]
        kernel = nullspace(
            [[row[t] for row in nf_rows] for t in range(quotient.dim)],
            len(window), f,
        )
        functionals = nullspace(row_space_basis(nf_rows, quotient.dim, f),
                                quotient.dim, f)
        for coeffs in kernel:
            poly = ring.zero
            for c, e in zip(coeffs, window):
                poly = poly + ring.monomial(e).scale(c)
            if poly.is_zero():
                continue
            vals = values_on(poly)
            for lam in functionals:
                row = []
                for i in range(m):
                    acc = f.zero
                    for t, l in enumerate(lam):
                        acc = f.add(acc, f.mul(l, vals[i][t]))
                    row.append(acc)
                if any(x != f.zero for x in row):
                    constraints.append(row)
    coeff_basis = nullspace(constraints, m, f) if constraints else [
        [f.one if i == j else f.zero for j in range(m)] for i in range(m)
    ]
    return len(coeff_basis), coeff_basis
