"""Groebner bases over free modules, with lifts and syzygies.

A graded Artinian ideal is presented degree by degree with linear algebra
(`IdealPresentation._present_by_degree`), the Macaulay-matrix view of
Lazard and of F4.  Other input runs one Buchberger engine, for ideals
(rank-one free module) and submodules of shifted free modules.  Every basis
element carries a lift expressing it in the input generators, and every
S-pair that reduces to zero yields a syzygy of the input generators (the
reduction transcript composed with the lifts).  To make the syzygy
transcripts a generating set, the input generators all stay in the working
basis and no S-pair below the degree cap is skipped while the basis may
still grow.
"""

from __future__ import annotations

import heapq
from operator import itemgetter

from .linalg import Echelon
from .modules import FreeModule, ModuleVector
from .rings import GradedRing, Polynomial, div_exps, lcm_exps, mul_exps


def poly_to_vector(p: Polynomial, module: FreeModule) -> ModuleVector:
    return ModuleVector(module, {(0, e): c for e, c in p.terms.items()})


def _multiples(ring, kept, d, ids):
    """Sparse echelon of the degree-d monomial multiples of the kept
    (degree, vector) pairs, their terms numbered by `ids` (a new term as
    first seen)."""
    echelon = Echelon(ring.field)
    for kd, k in kept:
        for m in ring.monomials_of_degree(d - kd):
            echelon.insert({ids.setdefault((c, mul_exps(e, m)), len(ids)): x
                            for (c, e), x in k.terms.items()})
    return echelon


def minimal_generators(vectors):
    """The nonzero vectors, stably sorted by degree, outside the submodule
    generated by the ones kept before them.  For homogeneous vectors the
    degree-d part of that submodule is spanned by the kept vectors' monomial
    multiples, so each degree needs one sparse echelon form of those
    multiples and no Groebner basis; by graded Nakayama the kept vectors
    generate the input's module minimally."""
    decorated = []  # (degree, vector), each degree found in one pass
    for v in vectors:
        if not v:
            continue
        td = v.module.term_degree
        degrees = {td(i, e) for i, e in v.terms}
        if len(degrees) != 1:
            raise ValueError("minimal generators need homogeneous vectors")
        decorated.append((degrees.pop(), v))
    decorated.sort(key=itemgetter(0))
    kept, degree = [], None
    for d, v in decorated:
        if d != degree:
            degree, ids = d, {}
            span = _multiples(v.module.ring, kept, d, ids)
        row = {ids.setdefault(t, len(ids)): x for t, x in v.terms.items()}
        if span.insert(row) is not None:
            kept.append((d, v))
    return [v for _, v in kept]


def _heap_key(module, comp, exps, rd):
    """Negated module order key of a term whose monomial has degree rd:
    popping the min of these from a heap yields terms in decreasing module
    order."""
    return (-(rd + module.shifts[comp]), -rd, tuple(reversed(exps)), comp)


def vector_normal_form(v: ModuleVector, basis, leads=None):
    """Fully reduce v modulo basis.

    Returns (remainder, quotients) with v = sum(q_k * basis_k) + remainder
    and no term of the remainder divisible by a basis leading term.
    `leads`, when given, lists the basis leading terms.
    """
    module = v.module
    ring = module.ring
    f = ring.field
    zero = f.zero
    if leads is None:
        leads = [b.leading_term() for b in basis]
    quotients = [{} for _ in basis]
    remainder = {}
    work = dict(v.terms)
    # lazy max-heap: every reduction step only introduces terms strictly
    # below the one being cancelled, so stale entries can be skipped
    order_key = ring.order_key
    heap = [(_heap_key(module, c, e, order_key(e)[0]), (c, e)) for (c, e) in work]
    heapq.heapify(heap)
    while heap:
        key, t = heapq.heappop(heap)
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
        factor = f.div(coeff, basis[k].leading_coefficient())
        # terms are cancelled in decreasing order, so each q is new here
        quotients[k][q] = factor
        for (bc, be), bcoef in basis[k].terms.items():
            nt = (bc, mul_exps(be, q))
            delta = f.mul(factor, bcoef)
            cur = work.get(nt)
            if cur is None:
                val = f.neg(delta)
                if val != zero:
                    work[nt] = val
                    # deg(be * q) = deg(be) + deg(t) - deg(lead), where
                    # deg(t) = -key[1]; a basis term's order key, cached
                    # when its leading term was found, starts with its degree
                    rd = order_key(be)[0] - key[1] - order_key(leads[k][1])[0]
                    heapq.heappush(heap, (_heap_key(module, bc, nt[1], rd), nt))
            else:
                val = f.sub(cur, delta)
                if val == zero:
                    del work[nt]
                else:
                    work[nt] = val
    return ModuleVector(module, remainder), [Polynomial(ring, q) for q in quotients]


class ModuleGroebner:
    """Groebner basis of a submodule, with lifts and transcript syzygies.

    Attributes:
      syzygies   -- every transcript syzygy: ModuleVectors over the input
                    generators that generate their syzygy module (up to
                    max_degree when capped)
      syzygy_module -- the free module of the syzygies, one component per
                    input vector
      reduced    -- reduced Groebner basis: monic, in increasing lead order,
                    built in one pass over the minimal leads
      reduced_lifts -- lifts of the reduced basis in the input generators

    While it runs, the engine keeps the input vectors and a working basis
    (input vectors first, then new elements) with, per element, its leading
    term and its lift: a list of polynomials, one per input vector.  All of
    these are dropped once the reduced basis is built.
    """

    def __init__(self, module: FreeModule, vectors, max_degree=None):
        self.module = module
        self.ring = module.ring
        self.inputs = list(vectors)
        self.max_degree = max_degree
        self.syzygy_module = FreeModule(self.ring, [v.degree() for v in self.inputs])
        self.syzygies = []
        self.basis = []
        self.leads = []
        self.lifts = []
        self._run()
        self.reduced, self.reduced_lifts = self._interreduce()
        del self.inputs, self.basis, self.leads, self.lifts

    # -- construction -----------------------------------------------------

    def _unit_lift(self, j):
        lift = [self.ring.zero] * self.syzygy_module.rank
        lift[j] = self.ring.one
        return lift

    def _run(self):
        pairs = []
        counter = 0
        for j, v in enumerate(self.inputs):
            if v.is_zero():
                self.syzygies.append(self.syzygy_module.basis_vector(j))
                continue
            counter = self._add(v, self._unit_lift(j), pairs, counter)
        # no pair above max_degree is ever queued
        while pairs:
            _, _, i, j = heapq.heappop(pairs)
            counter = self._process_pair(i, j, pairs, counter)

    def _add(self, v, lift, pairs, counter):
        k = len(self.basis)
        comp, exps = lead = v.leading_term()
        for i, (bcomp, bexps) in enumerate(self.leads):
            if bcomp != comp:
                continue
            lcm = lcm_exps(exps, bexps)
            d = self.module.term_degree(comp, lcm)
            if self.max_degree is not None and d > self.max_degree:
                continue
            counter += 1
            heapq.heappush(pairs, (d, counter, i, k))
        self.basis.append(v)
        self.leads.append(lead)
        self.lifts.append(lift)
        return counter

    def _process_pair(self, i, j, pairs, counter):
        f = self.ring.field
        bi, bj = self.basis[i], self.basis[j]
        (comp, ei), (_, ej) = self.leads[i], self.leads[j]
        lcm = lcm_exps(ei, ej)
        qi = div_exps(lcm, ei)
        qj = div_exps(lcm, ej)
        ci = f.inv(bi.leading_coefficient())
        cj = f.inv(bj.leading_coefficient())
        spair = bi.term_mul(qi, ci) - bj.term_mul(qj, cj)
        remainder, quotients = vector_normal_form(spair, self.basis, self.leads)
        if remainder.is_zero():
            self._record_syzygy(i, j, qi, ci, qj, cj, quotients)
            return counter
        lift = [Polynomial(self.ring, t)
                for t in self._transcript(i, j, qi, ci, qj, cj, quotients)]
        return self._add(remainder, lift, pairs, counter)

    def _transcript(self, i, j, qi, ci, qj, cj, quotients):
        """Per input vector, the term dict of the lift of
        spair - sum(q_k basis_k), where spair = u_i b_i - u_j b_j with
        u_i = ci x^qi and u_j = cj x^qj."""
        f = self.ring.field
        zero, add, mul, neg = f.zero, f.add, f.mul, f.neg
        coeffs = [{e: neg(c) for e, c in q.terms.items()} for q in quotients]
        # the quotients reduce terms below the S-pair's lcm, so they never
        # hold qi in slot i or qj in slot j
        coeffs[i] = {qi: ci, **coeffs[i]}
        coeffs[j] = {qj: neg(cj), **coeffs[j]}
        out = [{} for _ in range(self.syzygy_module.rank)]
        for k, c in enumerate(coeffs):
            if not c:
                continue
            for acc, p in zip(out, self.lifts[k]):
                for ea, ca in c.items():
                    for eb, cb in p.terms.items():
                        e = mul_exps(ea, eb)
                        s = add(acc.get(e, zero), mul(ca, cb))
                        if s == zero:
                            del acc[e]
                        else:
                            acc[e] = s
        return out

    def _record_syzygy(self, i, j, qi, ci, qj, cj, quotients):
        """The S-pair reduced to zero: its transcript, composed with the
        lifts, is a syzygy of the inputs."""
        terms = {(j0, e): c
                 for j0, t in enumerate(self._transcript(i, j, qi, ci, qj, cj, quotients))
                 for e, c in t.items()}
        if terms:
            self.syzygies.append(ModuleVector(self.syzygy_module, terms))

    # -- reduced basis ----------------------------------------------------

    def _interreduce(self):
        """The basis elements with minimal leads, in increasing lead order,
        each reduced by the ones kept before it (a larger lead divides no
        smaller term) and made monic."""
        order = sorted(
            range(len(self.basis)),
            key=lambda k: self.module.order_key(*self.leads[k]),
        )
        f = self.ring.field
        kept, kept_lifts, kept_leads = [], [], []
        for k in order:
            comp, exps = self.leads[k]
            if any(bcomp == comp and div_exps(exps, bexps) is not None
                   for bcomp, bexps in kept_leads):
                continue
            remainder, quotients = vector_normal_form(self.basis[k], kept,
                                                      kept_leads)
            lift = list(self.lifts[k])
            for q, other in zip(quotients, kept_lifts):
                if q.is_zero():
                    continue
                for j, p in enumerate(other):
                    if p:
                        lift[j] = lift[j] - q * p
            inv = f.inv(remainder.leading_coefficient())
            if inv != f.one:
                remainder = remainder.scale(inv)
                lift = [p.scale(inv) for p in lift]
            kept.append(remainder)
            kept_lifts.append(lift)
            kept_leads.append((comp, exps))
        return kept, kept_lifts

    # -- queries -----------------------------------------------------------

    def normal_form(self, v: ModuleVector):
        """(remainder, lift) with v - remainder = sum(lift_j * input_j)."""
        remainder, quotients = vector_normal_form(v, self.reduced)
        lift = [self.ring.zero] * self.syzygy_module.rank
        for k, q in enumerate(quotients):
            if q.is_zero():
                continue
            for j, p in enumerate(self.reduced_lifts[k]):
                if p:
                    lift[j] = lift[j] + q * p
        return remainder, lift

    def contains(self, v: ModuleVector) -> bool:
        return vector_normal_form(v, self.reduced)[0].is_zero()


class IdealPresentation:
    """An ideal with its reduced Groebner basis, lifts, and first syzygies.

    The generators are kept as given.  A graded Artinian ideal is presented
    degree by degree, with minimal syzygies.  Other input runs the engine,
    whose transcript syzygies a graded ideal trims to a minimal set.
    """

    def __init__(self, ring: GradedRing, gens):
        gens = [g for g in gens]
        if not gens:
            raise ValueError("ideal needs at least one generator")
        self.ring = ring
        self.gens = gens
        self.homogeneous = all(g.is_homogeneous() for g in gens)
        self.gen_degrees = [g.degree() for g in gens]
        self.free = FreeModule(ring, (0,))
        self.syzygy_module = FreeModule(ring, self.gen_degrees)
        self._engine = None
        self._lifting = {}  # degree -> its tagged echelon, once a lift needs it
        if not (self.homogeneous and self._present_by_degree()):
            self._engine = ModuleGroebner(
                self.free, [poly_to_vector(g, self.free) for g in gens]
            )
            self.reduced = self._engine.reduced
            self.syzygies = self._engine.syzygies
        self.trim_syzygies()

    def _tagged_echelon(self, d, kept=(), vanished=False):
        """(columns, index, labels, echelon) of degree d, `index` mapping
        each monomial to its place in `columns`.  Row i is m*g_j for
        labels[i] = (j, m), generators with fewer terms first (so that a
        syzygy involves few generators), over the monomials of S_d in
        decreasing order, tagged with a one at column len(columns) +
        len(labels) - 1 - i: a row that reduces to zero over S_d keeps its
        own tag as its lowest column, and lands there as a kernel vector of
        F_d -> S_d.  A row at a pivot of the multiples of the `kept`
        (degree, syzygy) pairs, echelonized on the tags, is spanned by the
        rows before it and left out.  None when S/I has `vanished` in
        degree d and those multiples span dim F_d - dim S_d = dim Syz_d."""
        ring = self.ring
        gens, mons = self.gens, ring.monomials_of_degree
        columns = sorted(mons(d), key=ring.order_key, reverse=True)
        order = sorted(range(len(gens)), key=lambda j: len(gens[j].terms))
        labels = [(j, m) for j in order if gens[j]
                  for m in mons(d - self.gen_degrees[j])]
        tag = len(columns) + len(labels) - 1
        span = _multiples(ring, kept, d, {lab: tag - i for i, lab in enumerate(labels)})
        if vanished and len(span.rows) == len(labels) - len(columns):
            return None
        index = {m: c for c, m in enumerate(columns)}
        echelon = Echelon(ring.field)
        for i, (j, m) in enumerate(labels):
            if tag - i not in span.rows:
                row = {index[mul_exps(e, m)]: x for e, x in gens[j].terms.items()}
                row[tag - i] = 1
                echelon.insert(row)
        return columns, index, labels, echelon

    def _present_by_degree(self):
        """Present a graded ideal degree by degree; False, having set
        nothing, when it is not Artinian.  The rows left in a degree span
        I_d, and their kernel is a complement in Syz_d of the multiples of
        the syzygies kept below: by graded Nakayama the kernel vectors kept
        generate minimally.  The pivots below len(columns) are the leads of
        in(I)_d; one that no lower lead divides is a new reduced Groebner
        element, its row reduced at the pivots above it.  Once S/I has
        vanished in max_weight consecutive degrees it vanishes above, and t
        is its top degree; Tor_2(S/I, k)_j = 0 for j > t + w1 + w2 (the
        Koszul complex; the two largest weights), so syzygies alone are
        sought up to max(t + w1 + w2, largest generator degree).  An
        Artinian ideal generated in degrees <= delta has S/I = 0 above
        n(delta - 1) (substitute x_i -> x_i^w_i and bound by a complete
        intersection over the algebraic closure)."""
        ring = self.ring
        live = [e for g, e in zip(self.gens, self.gen_degrees) if g]
        if not live:
            return False
        reduced, leads, kept = [], [], []  # kept: (degree, syzygy) pairs
        last, cap, d = -1, None, 0  # last: the top degree of S/I so far
        while cap is None or d <= cap:
            found = self._tagged_echelon(d, kept, cap is not None)
            if found is not None:
                columns, _, labels, echelon = found
                width = len(columns)
                pivots = sorted(c for c in echelon.rows if c < width)
                if cap is None:
                    new = [c for c in pivots
                           if all(div_exps(columns[c], e) is None for e in leads)]
                    for c in reversed(new):  # increasing lead order
                        row = echelon.reduce_at(echelon.rows[c],
                                                [k for k in pivots if k > c])
                        reduced.append(ModuleVector(self.free, {
                            (0, columns[k]): x
                            for k, x in echelon.values(row, c).items() if k < width}))
                    leads += [columns[c] for c in new]
                    if len(pivots) < width:
                        if d > ring.n * (max(live) - 1):
                            return False
                        last = d
                    elif d - last == ring.max_weight:
                        cap = max(last + sum(sorted(ring.weights)[-2:]), max(live))
                tag = width + len(labels) - 1
                for c in sorted(c for c in echelon.rows if c >= width):
                    kept.append((d, ModuleVector(self.syzygy_module, {
                        labels[tag - k]: x
                        for k, x in echelon.values(echelon.rows[c]).items()})))
            d += 1
        self.reduced = reduced
        self.syzygies = [self.syzygy_module.basis_vector(j)
                         for j, g in enumerate(self.gens) if not g]
        self.syzygies += [v for _, v in kept]
        return True

    @property
    def gb(self):
        """The reduced Groebner basis as polynomials."""
        return [b.coordinate(0) for b in self.reduced]

    def normal_form(self, p: Polynomial):
        """(nf, lift) with p - nf = sum(lift_j * gens_j).  Built degree by
        degree, each homogeneous part of p is reduced by its degree's tagged
        echelon, whose tags record the lift; a column past the tags keeps
        the row's scale (QQ rows are kept primitive)."""
        if self._engine is not None:
            remainder, lift = self._engine.normal_form(poly_to_vector(p, self.free))
            return remainder.coordinate(0), lift
        ring = self.ring
        nf, lift = {}, [{} for _ in self.gens]
        for d in {ring.degree(e) for e in p.terms}:
            if d not in self._lifting:
                self._lifting[d] = self._tagged_echelon(d)
            columns, index, labels, echelon = self._lifting[d]
            scale = len(columns) + len(labels)
            row = {index[e]: x for e, x in p.terms.items()
                   if ring.degree(e) == d}
            row[scale] = 1
            row = echelon.reduce_at(echelon.read(row),
                                    sorted(c for c in echelon.rows if c < len(columns)))
            for k, x in echelon.values(row, scale).items():
                if k < len(columns):
                    nf[columns[k]] = x
                elif k < scale:
                    j, m = labels[scale - 1 - k]
                    lift[j][m] = ring.field.neg(x)
        return Polynomial(ring, nf), [Polynomial(ring, t) for t in lift]

    def reduce(self, p: Polynomial) -> Polynomial:
        return vector_normal_form(poly_to_vector(p, self.free), self.reduced)[
            0
        ].coordinate(0)

    def contains(self, p: Polynomial) -> bool:
        return self.reduce(p).is_zero()

    def leading_exponents(self):
        return [b.leading_term()[1] for b in self.reduced]

    def koszul_vectors(self):
        """g_i e_j - g_j e_i over the generators: the trivial syzygies."""
        out = []
        for i in range(len(self.gens)):
            for j in range(i + 1, len(self.gens)):
                v = self.syzygy_module.basis_vector(j).poly_mul(self.gens[i]) - \
                    self.syzygy_module.basis_vector(i).poly_mul(self.gens[j])
                if v:
                    out.append(v)
        return out

    def trim_syzygies(self):
        """Thin the transcript syzygies of a graded ideal that is not
        Artinian to a minimal generating set; a presentation built degree
        by degree keeps minimal syzygies already, and inhomogeneous input
        keeps every transcript."""
        if self.homogeneous and self._engine is not None:
            # the engine drops its copy too, so the redundant transcripts
            # do not stay alive with the presentation
            self.syzygies = self._engine.syzygies = minimal_generators(self.syzygies)
