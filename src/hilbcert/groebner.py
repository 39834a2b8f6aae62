"""Groebner bases over free modules, with lifts and syzygies.

One Buchberger engine handles both ideals (rank-one free module) and
submodules of shifted free modules.  Every basis element carries a lift
expressing it in the input generators, and every S-pair that reduces to zero
yields a syzygy of the input generators (the reduction transcript composed
with the lifts).  To make the syzygy transcripts a generating set, the input
generators all stay in the working basis and no S-pair below the degree cap
is skipped while the basis may still grow.  A graded Artinian ideal sets
that cap itself, at the regularity bound past which it has no minimal
syzygy.  From there on its basis is complete and a pair only yields a
transcript, so the engine trims the transcripts as it records them and
skips the rest of a degree once the kept syzygies span it.
"""

from __future__ import annotations

import heapq
from operator import itemgetter

from .modules import FreeModule, ModuleVector
from .rings import GradedRing, Polynomial, div_exps, lcm_exps, mul_exps


def poly_to_vector(p: Polynomial, module: FreeModule) -> ModuleVector:
    return ModuleVector(module, {(0, e): c for e, c in p.terms.items()})


def _echelon_insert(echelon, row, field):
    """Reduce `row` (a term-id -> coefficient dict, consumed) by the echelon,
    whose rows sit under their largest term id with coefficient one there.
    Stores the remainder and returns True unless it is zero."""
    zero, mul, sub = field.zero, field.mul, field.sub
    while row:
        t = max(row)
        known = echelon.get(t)
        if known is None:
            inv = field.inv(row[t])
            echelon[t] = {u: mul(inv, x) for u, x in row.items()}
            return True
        c = row[t]
        for u, x in known.items():
            val = sub(row.get(u, zero), mul(c, x))
            if val == zero:
                row.pop(u, None)
            else:
                row[u] = val
    return False


class _DegreeSpan:
    """Sparse echelon form of homogeneous vectors of one degree d, started
    from the degree-d monomial multiples of the kept (degree, vector)
    pairs; rows sit under their largest term id, terms numbered as first
    seen.  Its length is its rank."""

    def __init__(self, ring, kept, d):
        self.degree = d
        self.field = ring.field
        self.echelon, self.ids = {}, {}
        ids = self.ids
        for kd, k in kept:
            for m in ring.monomials_of_degree(d - kd):
                row = {ids.setdefault((c, mul_exps(e, m)), len(ids)): x
                       for (c, e), x in k.terms.items()}
                _echelon_insert(self.echelon, row, self.field)

    def __len__(self):
        return len(self.echelon)

    def add(self, terms):
        """Insert a degree-d term dict (left as it is); returns whether it
        lies outside the span."""
        ids = self.ids
        row = {ids.setdefault(t, len(ids)): x for t, x in terms.items()}
        return _echelon_insert(self.echelon, row, self.field)


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
    kept = []
    span = None
    for d, v in decorated:
        if span is None or span.degree != d:
            span = _DegreeSpan(v.module.ring, kept, d)
        if span.add(v.terms):
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
      syzygies   -- ModuleVectors over the input generators that generate
                    their syzygy module (up to max_degree when capped); for
                    a graded Artinian ideal, a minimal generating set: the
                    greedy trim (`minimal_generators`) of the transcripts
                    up to its regularity cap, which the engine sets in
                    max_degree
      trimmed    -- whether `syzygies` is that trim already
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
        self.trimmed = False
        self._span = None  # the top degree's trim echelon, once trimming
        self.basis = []
        self.leads = []
        self.lifts = []
        self._run()
        self.reduced, self.reduced_lifts = self._interreduce()
        del self.inputs, self.basis, self.leads, self.lifts, self._span

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
        # a graded ideal looks for a regularity cap at each new pair degree
        watch = (self.module.shifts == (0,)
                 and all(v.is_homogeneous() for v in self.inputs))
        current = None
        while pairs:
            d = pairs[0][0]
            if d != current:
                # max_degree only moves here, and no pair above a cap given
                # up front is ever queued
                current = d
                if watch and self._cap_at_regularity(d):
                    # the basis is complete: every pair left reduces to zero
                    watch = False
                    self.syzygies = minimal_generators(self.syzygies)
                    self.trimmed = True
                if self.max_degree is not None and d > self.max_degree:
                    break
                if self.trimmed:
                    self._span = _DegreeSpan(
                        self.ring, [(s.degree(), s) for s in self.syzygies], d)
                    full = self._syzygy_dim(d)
            if self.trimmed and len(self._span) == full:
                # the kept syzygies span Syz_d, so the trim would drop every
                # transcript the degree's other pairs could give
                while pairs and pairs[0][0] == d:
                    heapq.heappop(pairs)
                continue
            _, _, i, j = heapq.heappop(pairs)
            counter = self._process_pair(i, j, pairs, counter)

    def _cap_at_regularity(self, d):
        """Lower max_degree once a graded ideal's quotient has vanished.

        Pairs come in increasing degree, so before the first pair of degree d
        the leads generate the initial ideal below d.  If no monomial of
        degree d - max_weight .. d - 1 is standard, S/I vanishes from there
        up (every larger monomial is a multiple of one of those degrees), so
        the leads generate the whole initial ideal: the basis is complete,
        each Groebner element has degree <= t + max_weight < d, t the top
        degree of S/I, and every pair left reduces to zero.  The Koszul
        complex gives Tor_2(S/I, k)_j = 0 for j > t + w1 + w2 (the two
        largest weights), so minimal syzygies sit in degrees
        <= max(t + w1 + w2, largest input degree), and the transcripts up to
        that cap still generate the syzygy module.
        Returns whether S/I has vanished: capped, or the unit ideal."""
        ring = self.ring
        leads = [e for _, e in self.leads]
        for t in range(d - 1, -1, -1):
            if any(all(div_exps(m, e) is None for e in leads)
                   for m in ring.monomials_of_degree(t)):
                break
        else:
            return True
        if t >= d - ring.max_weight:
            return False
        cap = max(t + sum(sorted(ring.weights)[-2:]),
                  max(v.degree() for v in self.inputs))
        if self.max_degree is None or cap < self.max_degree:
            self.max_degree = cap
        return True

    def _syzygy_dim(self, d):
        """dim Syz_d = sum_j dim S_{d - deg g_j} - dim S_d, from
        0 -> Syz -> F -> I -> 0 with S/I zero in degree d.  Zero and
        redundant inputs count: they are summands of F."""
        mons = self.ring.monomials_of_degree

        def dim(k):
            return len(mons(k)) if k >= 0 else 0

        return sum(dim(d - s) for s in self.syzygy_module.shifts) - dim(d)

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
        lifts, is a syzygy of the inputs.  Once trimming, it is kept only
        outside the span of the kept syzygies."""
        terms = {(j0, e): c
                 for j0, t in enumerate(self._transcript(i, j, qi, ci, qj, cj, quotients))
                 for e, c in t.items()}
        if terms and (not self.trimmed or self._span.add(terms)):
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

    The generators are kept as given.  The syzygies generate the first-syzygy
    module: for homogeneous generators they are a minimal generating set
    (trimmed by the engine from the transcripts up to its regularity cap
    when the ideal is Artinian), otherwise they are every Groebner
    transcript syzygy.
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
        self._engine = ModuleGroebner(
            self.free, [poly_to_vector(g, self.free) for g in gens]
        )
        self.syzygies = self._engine.syzygies
        self.syzygy_module = self._engine.syzygy_module
        self.trim_syzygies()

    @property
    def gb(self):
        """The reduced Groebner basis as polynomials."""
        return [b.coordinate(0) for b in self._engine.reduced]

    def normal_form(self, p: Polynomial):
        """(nf, lift) with p - nf = sum(lift_j * gens_j)."""
        remainder, lift = self._engine.normal_form(poly_to_vector(p, self.free))
        return remainder.coordinate(0), lift

    def reduce(self, p: Polynomial) -> Polynomial:
        return vector_normal_form(poly_to_vector(p, self.free), self._engine.reduced)[
            0
        ].coordinate(0)

    def contains(self, p: Polynomial) -> bool:
        return self.reduce(p).is_zero()

    def leading_exponents(self):
        return [b.leading_term()[1] for b in self._engine.reduced]

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
        """Thin the transcript syzygies of a graded ideal to a minimal
        generating set, unless the engine trimmed them at its regularity
        cap; inhomogeneous input keeps every transcript."""
        if self.homogeneous and not self._engine.trimmed:
            # the engine drops its copy too, so the redundant transcripts
            # do not stay alive with the presentation
            self.syzygies = self._engine.syzygies = minimal_generators(self.syzygies)
