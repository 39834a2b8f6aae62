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
- The Buchberger engine's bookkeeping as it was: every leading term a fresh
  maximum over the module order, the lead list rebuilt for each normal
  form, each quotient grown by one polynomial addition per reduction step,
  and transcripts and lifts composed by polynomial products and sums.
  `groebner.ModuleGroebner`, which caches leading terms, keeps its lead
  list and composes term dicts, must agree with it term for term, and a
  graded Artinian `IdealPresentation`, built degree by degree, must have
  its reduced basis.
- Nilpotency of a finite module's variables by shrinking the image span of
  each matrix with one elimination per multiplication.
  `FiniteModule.has_nilpotent_action`, which squares the matrices instead,
  must agree with it.
- Acting with a polynomial on a vector one variable at a time (`act`).
  `FiniteModule.poly_matrix`, built from memoized monomial matrices, must
  agree with it.
- Post-composing homs with a matrix one hom and one generator image at a
  time.  `homology.post_composition`, one product per generator block, must
  agree with it.
- Gauss-Jordan elimination over QQ in `Fraction` arithmetic (`rref_fraction`,
  and `eliminate_fraction` in the form of `linalg._eliminate`).
  `linalg.rref`, which eliminates QQ rows over the integers, must return the
  same rows and pivots.
"""

import heapq
from fractions import Fraction
from math import lcm

from hilbcert.groebner import ModuleGroebner, _heap_key
from hilbcert.homology import (Presentation, _restriction_rows, actions,
                               relation_window)
from hilbcert.linalg import matvec, nullspace, rank, row_space_basis
from hilbcert.modules import ModuleVector
from hilbcert.rings import Polynomial, div_exps, lcm_exps, mul_exps


def identity(n, field):
    zero, one = field.zero, field.one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rref_fraction(rows, ncols, field):
    zero, one = field.zero, field.one
    m = [list(row) for row in rows]
    pivots = []
    r = 0
    nrows = len(m)
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != zero:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][c])
        if inv != one:
            m[r] = [field.mul(inv, x) for x in m[r]]
        row_r = m[r]
        for i in range(nrows):
            if i != r and m[i][c] != zero:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def eliminate_fraction(rows, ncols, field):
    """`linalg._eliminate`'s (echelon, kept) over QQ from `rref_fraction`:
    each reduced row under its pivot column, cleared of denominators (its
    content is then one, as in the kernel), and the indices of the rows
    that raise the rank of the rows before them, one elimination each."""
    kept = []
    for i in range(len(rows)):
        if len(rref_fraction(rows[: i + 1], ncols, field)[1]) > len(kept):
            kept.append(i)
    red, pivots = rref_fraction(rows, ncols, field)
    echelon = {}
    for row, c in zip(red, pivots):
        den = lcm(*[Fraction(x).denominator for x in row])
        echelon[c] = {j: int(x * den) for j, x in enumerate(row) if x}
    return echelon, kept


def independent_greedy(base, candidates, ncols, field):
    current = row_space_basis(base, ncols, field)
    kept = []
    for i, v in enumerate(candidates):
        trial = current + [list(v)]
        if rank(trial, ncols, field) > len(current):
            current = row_space_basis(trial, ncols, field)
            kept.append(i)
    return kept


def fresh_leading_term(v):
    """The module-order maximum of v's terms, computed afresh."""
    key = v.module.order_key
    return max(v.terms, key=lambda k: key(*k))


def normal_form_reference(v, basis):
    """(remainder, quotients) as `groebner.vector_normal_form`."""
    module = v.module
    ring = module.ring
    f = ring.field
    zero = f.zero
    leads = [fresh_leading_term(b) for b in basis]
    quotients = [ring.zero] * len(basis)
    remainder = {}
    work = dict(v.terms)
    heap = [(_heap_key(module, c, e, ring.degree(e)), (c, e)) for (c, e) in work]
    heapq.heapify(heap)
    while heap:
        _, t = heapq.heappop(heap)
        coeff = work.get(t)
        if coeff is None:
            continue
        comp, exps = t
        hit = None
        for k, (bcomp, bexps) in enumerate(leads):
            if bcomp != comp:
                continue
            q = div_exps(exps, bexps)
            if q is not None:
                hit = (k, q)
                break
        if hit is None:
            remainder[t] = coeff
            del work[t]
            continue
        k, q = hit
        factor = f.div(coeff, basis[k].terms[leads[k]])
        quotients[k] = quotients[k] + Polynomial(ring, {q: factor})
        for (bc, be), bcoef in basis[k].terms.items():
            nt = (bc, mul_exps(be, q))
            delta = f.mul(factor, bcoef)
            cur = work.get(nt)
            if cur is None:
                val = f.neg(delta)
                if val != zero:
                    work[nt] = val
                    heapq.heappush(heap, (_heap_key(module, bc, nt[1], ring.degree(nt[1])), nt))
            else:
                val = f.sub(cur, delta)
                if val == zero:
                    del work[nt]
                else:
                    work[nt] = val
    return ModuleVector(module, remainder), quotients


class ReferenceGroebner(ModuleGroebner):
    """The engine with its bookkeeping as it was: every transcript syzygy
    up to `max_degree`; attributes as `ModuleGroebner`."""

    def _add(self, v, lift, pairs, counter):
        k = len(self.basis)
        comp, exps = fresh_leading_term(v)
        for i, b in enumerate(self.basis):
            bcomp, bexps = fresh_leading_term(b)
            if bcomp != comp:
                continue
            lcm = lcm_exps(exps, bexps)
            d = self.module.term_degree(comp, lcm)
            if self.max_degree is not None and d > self.max_degree:
                continue
            counter += 1
            heapq.heappush(pairs, (d, counter, i, k))
        self.basis.append(v)
        self.lifts.append(lift)
        return counter

    def _process_pair(self, i, j, pairs, counter):
        f = self.ring.field
        bi, bj = self.basis[i], self.basis[j]
        (comp, ei) = fresh_leading_term(bi)
        (_, ej) = fresh_leading_term(bj)
        lcm = lcm_exps(ei, ej)
        qi = div_exps(lcm, ei)
        qj = div_exps(lcm, ej)
        ci = f.inv(bi.terms[(comp, ei)])
        cj = f.inv(bj.terms[(comp, ej)])
        spair = bi.term_mul(qi, ci) - bj.term_mul(qj, cj)
        remainder, quotients = normal_form_reference(spair, self.basis)
        if remainder.is_zero():
            self._record_syzygy(i, j, qi, ci, qj, cj, quotients)
            return counter
        lift = self._combine_lifts(quotients, extra=[(i, qi, ci), (j, qj, f.neg(cj))])
        return self._add(remainder, lift, pairs, counter)

    def _combine_lifts(self, quotients, extra=()):
        ring = self.ring
        lift = [ring.zero] * len(self.inputs)
        for idx, exps, coeff in extra:
            term = Polynomial(ring, {exps: coeff})
            for j, p in enumerate(self.lifts[idx]):
                if p:
                    lift[j] = lift[j] + term * p
        for k, q in enumerate(quotients):
            if q.is_zero():
                continue
            for j, p in enumerate(self.lifts[k]):
                if p:
                    lift[j] = lift[j] - q * p
        return lift

    def _record_syzygy(self, i, j, qi, ci, qj, cj, quotients):
        ring = self.ring
        coeffs = [ring.zero] * len(self.basis)
        coeffs[i] = coeffs[i] + Polynomial(ring, {qi: ci})
        coeffs[j] = coeffs[j] - Polynomial(ring, {qj: cj})
        for k, q in enumerate(quotients):
            if q:
                coeffs[k] = coeffs[k] - q
        out = [ring.zero] * len(self.inputs)
        for k, c in enumerate(coeffs):
            if c.is_zero():
                continue
            for j0, p in enumerate(self.lifts[k]):
                if p:
                    out[j0] = out[j0] + c * p
        syz = self.syzygy_module.from_polys(out)
        if syz:
            self.syzygies.append(syz)

    def _interreduce(self):
        order = sorted(
            range(len(self.basis)),
            key=lambda k: self.module.order_key(*fresh_leading_term(self.basis[k])),
        )
        kept = []
        kept_lifts = []
        lead_list = []
        for k in order:
            comp, exps = lt = fresh_leading_term(self.basis[k])
            if any(
                bcomp == comp and div_exps(exps, bexps) is not None
                for bcomp, bexps in lead_list
            ):
                continue
            kept.append(self.basis[k])
            kept_lifts.append(list(self.lifts[k]))
            lead_list.append(lt)
        changed = True
        while changed:
            changed = False
            for k in range(len(kept)):
                others = kept[:k] + kept[k + 1 :]
                other_lifts = kept_lifts[:k] + kept_lifts[k + 1 :]
                remainder, quotients = normal_form_reference(kept[k], others)
                if any(q for q in quotients):
                    changed = True
                    lift = list(kept_lifts[k])
                    for idx, q in enumerate(quotients):
                        if q.is_zero():
                            continue
                        for j, p in enumerate(other_lifts[idx]):
                            if p:
                                lift[j] = lift[j] - q * p
                    kept[k] = remainder
                    kept_lifts[k] = lift
        f = self.ring.field
        for k in range(len(kept)):
            c = kept[k].terms[fresh_leading_term(kept[k])]
            if c != f.one:
                inv = f.inv(c)
                kept[k] = kept[k].scale(inv)
                kept_lifts[k] = [p.scale(inv) for p in kept_lifts[k]]
        return kept, kept_lifts


def nilpotent_by_spans(module):
    """True when every variable of the finite module acts nilpotently:
    the image span of each matrix's powers, re-reduced after every
    multiplication, dies within dim + 1 steps."""
    f = module.ring.field
    for m in module.matrices:
        span = identity(module.dim, f)
        for _ in range(module.dim + 1):
            span = row_space_basis([matvec(m, row, f) for row in span], module.dim, f)
            if not span:
                break
        if span:
            return False
    return True


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


def apply_monomial(module, exps, vec):
    """The vector x^exps * vec, one variable matrix at a time."""
    for i, e in enumerate(exps):
        for _ in range(e):
            vec = module.apply_var(i, vec)
            if not any(vec):
                return vec
    return vec


def act(module, p, vec):
    """The vector p * vec."""
    f = module.ring.field
    out = [f.zero] * module.dim
    for exps, c in p.terms.items():
        image = apply_monomial(module, exps, list(vec))
        for j, x in enumerate(image):
            if x != f.zero:
                out[j] = f.add(out[j], f.mul(c, x))
    return out


def vector_poly(quotient, vec):
    """The polynomial on the quotient's standard monomials with
    coordinates `vec`."""
    f = quotient.ring.field
    return Polynomial(
        quotient.ring,
        {e: c for e, c in zip(quotient.monomials, vec) if c != f.zero},
    )


def post_composition_rank(hom, pi):
    """Rank per degree of the homs in `hom` followed by `pi`, each generator
    image mapped by its own matvec."""
    f = hom.target.ring.field
    width = hom.source.rank * len(pi)
    rows = {}
    for h in hom.elements:
        flat = []
        for v in h.images:
            flat.extend(matvec(pi, v, f))
        rows.setdefault(h.degree, []).append(flat)
    return {d: rank(r, width, f) for d, r in rows.items()}


def unflatten(vec, r, dimn):
    return [vec[j * dimn : (j + 1) * dimn] for j in range(r)]


def evaluate_polys(polys, images, target):
    """Value sum(p_j acting on images_j) of one hom, given by its generator
    images, on the vector with coordinates `polys`."""
    f = target.ring.field
    out = [f.zero] * target.dim
    for j, p in enumerate(polys):
        if p.is_zero():
            continue
        for t, row in enumerate(target.poly_matrix(p)):
            for b, x in row.items():
                out[t] = f.add(out[t], f.mul(x, images[j][b]))
    return out


def _group(pairs):
    out = {}
    for d, x in pairs:
        out.setdefault(d, []).append(x)
    return out


def restriction_images(ideal, ext1):
    """(restriction rows, flat width) of `ext1 = ext1_space(ideal, target,
    floor)`: the images of Hom(free cover, target) in Hom(relations,
    target), rebuilt from the relations the window keeps."""
    pres = Presentation.of_ideal(ideal)
    target = ext1.syz_hom.target
    _, _, kept = relation_window(pres, target, ext1.floor)
    width = len(kept) * target.dim
    rows = []
    for d, sparse in _restriction_rows(
            pres, [actions(pres.relations[i].coordinates(), target) for i in kept],
            target, ext1.floor):
        flat = [target.ring.field.zero] * width
        for u, x in sparse.items():
            flat[u] = x
        rows.append((d, flat))
    return rows, width


def ext1_representatives(ideal, ext1):
    """(degree, hom element) representatives of Ext^1, per degree in
    increasing order, chosen by the greedy loop."""
    f = ext1.syz_hom.target.ring.field
    image_rows, width = restriction_images(ideal, ext1)
    img_by_deg = _group(image_rows)
    by_deg = _group((h.degree, h) for h in ext1.syz_hom.elements)
    reps = []
    for d, elems in sorted(by_deg.items()):
        kept = independent_greedy(img_by_deg.get(d, []),
                                  [h.flatten() for h in elems], width, f)
        reps.extend((d, elems[i]) for i in kept)
    return reps


def t2_dims(ideal, target, ext1, syz_engine):
    """Per degree, the number of Ext^1 classes killing the trivial
    syzygies: rank(kernel + image) - rank(image), with the kernel's
    vectors summed entry by entry."""
    f = ideal.ring.field
    image_rows, width = restriction_images(ideal, ext1)
    koszul_lifts = [syz_engine.normal_form(v)[1] for v in ideal.koszul_vectors()]
    img_by_deg = _group(image_rows)
    dims = {}
    for d, reps in sorted(_group(ext1_representatives(ideal, ext1)).items()):
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
