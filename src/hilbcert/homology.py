"""Hom, Ext^1, and the obstruction subspace for finitely presented modules.

A module is given by a presentation: generator degrees plus a generating set
of relations among the generators.  Targets are finite-dimensional modules
with explicit multiplication matrices, so a homomorphism is pinned down by
the generator images, one finite vector each, subject to one linear
constraint block per relation.

Grading convention: a homomorphism has degree d when it sends the degree-e
part of the source into the degree-(e+d) part of the target.
"""

from __future__ import annotations

from itertools import compress, count

from .artinian import ArtinianQuotient, FiniteModule, series_string, submodule
from .groebner import IdealPresentation, ModuleGroebner
from .linalg import independent_modulo, left_nullspace, mat_mul, nullspace, rank
from .modules import FreeModule


class Presentation:
    """Finitely presented graded module: generators and their relations."""

    def __init__(self, ring, gen_degrees, relations, homogeneous=None):
        self.ring = ring
        self.gen_degrees = list(gen_degrees)
        self.relations = list(relations)
        if homogeneous is None:
            homogeneous = all(r.is_homogeneous() for r in self.relations)
        self.homogeneous = homogeneous

    @classmethod
    def of_ideal(cls, ideal: IdealPresentation):
        return cls(
            ideal.ring,
            ideal.gen_degrees,
            ideal.syzygies,
            homogeneous=ideal.homogeneous,
        )

    @property
    def rank(self):
        return len(self.gen_degrees)


class HomElement:
    """A homomorphism, recorded by its generator images.

    `degree` is the graded degree for homogeneous data, else None.
    """

    __slots__ = ("degree", "images")

    def __init__(self, degree, images):
        self.degree = degree
        self.images = images

    def flatten(self):
        out = []
        for v in self.images:
            out.extend(v)
        return out


class HomSpace:
    """A basis of Hom(source, target), with degrees when graded.  `actions`
    holds each source relation's `actions` on the target: the kernel's map."""

    def __init__(self, source: Presentation, target: FiniteModule, elements, actions):
        self.source = source
        self.target = target
        self.elements = elements
        self.actions = actions
        self.graded = source.homogeneous

    def dims(self) -> dict:
        if not self.graded:
            raise ValueError("hom space is not graded")
        out = {}
        for h in self.elements:
            out[h.degree] = out.get(h.degree, 0) + 1
        return out

    def series(self) -> str:
        return series_string(self.dims())

    def total_dim(self) -> int:
        return len(self.elements)

    def dim_nonneg(self) -> int:
        return sum(v for d, v in self.dims().items() if d >= 0)

    def dim_negative(self) -> int:
        return sum(v for d, v in self.dims().items() if d < 0)

    def flat_rows(self):
        return [h.flatten() for h in self.elements]


def actions(polys, target: FiniteModule):
    """How a vector over the generators acts on homs: (generator index,
    action matrix) for each nonzero coordinate polynomial."""
    return [(j, target.poly_matrix(p)) for j, p in enumerate(polys)
            if not p.is_zero()]


def image_matrix(flat_rows):
    """Flattened generator images of a batch of homs as columns: row
    j * dim + b holds coordinate b of generator j's image under every hom."""
    return [list(col) for col in zip(*flat_rows)]


def evaluate(action, images, target: FiniteModule):
    """Values of a batch of homs on one vector, given the vector's `actions`
    and the homs' `image_matrix`: row t holds coordinate t of every value.
    One product serves every hom."""
    dim = target.dim
    if not images:
        return [[] for _ in range(dim)]
    # row t of the action on the flattened images: entry j * dim + b
    stacked = [{} for _ in range(dim)]
    for j, m in action:
        offset = j * dim
        for row, m_row in zip(stacked, m):
            for b, x in m_row.items():
                row[offset + b] = x
    return mat_mul(stacked, images, len(images[0]), target.ring.field)


def hom_space(pres: Presentation, target: FiniteModule, floor=None) -> HomSpace:
    """Basis of Hom over the ring, graded when the data is homogeneous: one
    kernel per hom degree, where ungraded data has the single degree None.

    `floor` is the lowest hom degree to compute; by default every degree a
    nonzero hom can have."""
    f = target.ring.field
    zero = f.zero
    r = pres.rank
    dimn = target.dim
    tdegs = target.degrees
    rel_actions = [actions(s.coordinates(), target) for s in pres.relations]
    rel_degrees = [s.degree() if pres.homogeneous else None
                   for s in pres.relations]
    if not pres.homogeneous:
        if floor is not None:
            raise ValueError("a degree floor needs graded data")
        degrees = [None]
    elif tdegs and r:
        lowest = min(tdegs) - max(pres.gen_degrees)
        degrees = range(lowest if floor is None else max(floor, lowest),
                        max(tdegs) - min(pres.gen_degrees) + 1)
    else:
        degrees = []
    # the target basis by degree; ungraded data has the single degree None
    basis = (_by_degree((t, b) for b, t in enumerate(tdegs))
             if pres.homogeneous else {None: range(dimn)})
    elements = []
    for d in degrees:
        # slot_of[j][b]: the unknown for coordinate b of generator j's image
        slot_of = []
        slots = []
        for j, gdeg in enumerate(pres.gen_degrees):
            block = basis.get(None if d is None else d + gdeg, ())
            slot_of.append({b: len(slots) + i for i, b in enumerate(block)})
            slots.extend((j, b) for b in block)
        if not slots:
            continue
        # one row {slot: native sum} per relation and target coordinate
        rows = []
        for delta, action in zip(rel_degrees, rel_actions):
            for t in basis.get(None if d is None else d + delta, ()):
                row = {}
                for j, m in action:
                    at = slot_of[j].get
                    for b, x in m[t].items():
                        idx = at(b)
                        if idx is not None:
                            row[idx] = row.get(idx, 0) + x
                if row:
                    rows.append(row)
        for vec in nullspace(rows, len(slots), f):
            images = [[zero] * dimn for _ in range(r)]
            for i in compress(count(), vec):
                j, b = slots[i]
                images[j][b] = vec[i]
            elements.append(HomElement(d, images))
    return HomSpace(pres, target, elements, rel_actions)


# -- nonnegative part for non-homogeneous ideals ---------------------------


def hom_nonneg_filtration(ideal: IdealPresentation, quotient: ArtinianQuotient,
                          hom: HomSpace, start=None):
    """Span, inside the given Hom basis, of the maps that respect the degree
    filtration: elements of order >= k map into classes of order >= k.

    `start` overrides the certified filtration bound (used to check that the
    answer is stable under enlarging the window).  Returns (dimension,
    coefficient vectors over hom.elements).
    """
    ring = ideal.ring
    f = ring.field
    n0 = quotient.filtration_start() if start is None else start
    wmax = ring.max_weight
    m = len(hom.elements)
    if m == 0:
        return 0, []

    images = image_matrix(hom.flat_rows())

    def values_on(poly):
        """Values of the basis homs on an ideal element, via its lift: row t
        holds coordinate t of every value."""
        nf, lift = ideal.normal_form(poly)
        if not nf.is_zero():
            raise ValueError("filtration test vector is not in the ideal")
        return evaluate(actions(lift, quotient), images, quotient)

    constraints = []  # rows over the m hom coefficients

    # the maps must kill every element of order >= n0: those all lie in the
    # ideal and are generated by one weight-window of monomials
    for d in range(n0, n0 + wmax):
        for e in ring.monomials_of_degree(d):
            for row in values_on(ring.monomial(e)):
                if any(x != f.zero for x in row):
                    constraints.append(row)

    # orders 1..n0-1: ideal elements of order >= k, taken modulo the killed
    # tail, must land in the span of classes of order >= k
    for k in range(1, n0):
        window = []
        for d in range(k, n0):
            window.extend(ring.monomials_of_degree(d))
        if not window:
            continue
        nf_rows = [quotient.poly_vector(ring.monomial(e)) for e in window]
        # ideal elements supported in the window
        kernel = left_nullspace(nf_rows, quotient.dim, f)
        # functionals vanishing on the classes of order >= k
        functionals = nullspace(nf_rows, quotient.dim, f)
        if not functionals:
            continue
        for coeffs in kernel:
            poly = ring.zero
            for c, e in zip(coeffs, window):
                if c != f.zero:
                    poly = poly + ring.monomial(e).scale(c)
            if poly.is_zero():
                continue
            for row in mat_mul(functionals, values_on(poly), m, f):
                if any(x != f.zero for x in row):
                    constraints.append(row)

    coeff_basis = nullspace(constraints, m, f)
    return len(coeff_basis), coeff_basis


# -- Ext^1 and the obstruction subspace ------------------------------------


def _by_degree(pairs):
    """Group (degree, item) pairs into {degree: [items]}, keeping order."""
    out = {}
    for d, x in pairs:
        out.setdefault(d, []).append(x)
    return out


class DegreeCounts:
    """Dimensions of a space of Ext^1 classes per hom degree (the single
    degree None for ungraded data)."""

    def __init__(self, dims, graded):
        self.dims = dims
        self.graded = graded

    def total_dim(self):
        return sum(self.dims.values())

    def dim_nonneg(self):
        return sum(v for d, v in self.dims.items() if d is not None and d >= 0)

    def series(self):
        if not self.graded:
            raise ValueError("ext1 space is not graded")
        return series_string(self.dims)


class Ext1Space(DegreeCounts):
    """Ext^1(M, N) presented as Hom(first syzygies, N) modulo restrictions
    of Hom(free cover, N), in the hom degrees from `floor` up (None for
    ungraded data, which has no window).  `rel_engine` is the Groebner data
    of the relations it was built from; `t2_space` reuses it."""

    def __init__(self, syz_hom: HomSpace, image_rows, rel_engine, floor=None):
        self.syz_hom = syz_hom
        self.rel_engine = rel_engine
        self.floor = floor
        f = syz_hom.target.ring.field
        width = syz_hom.source.rank * syz_hom.target.dim
        # the sparse restriction rows, with degrees when graded
        img_by_deg = _by_degree(image_rows)
        # ungraded data has the single degree None
        by_deg = _by_degree((h.degree, h) for h in syz_hom.elements)
        dims = {}
        self.representatives = []
        for d, elems in sorted(by_deg.items()):
            new = independent_modulo(img_by_deg.get(d, []),
                                     [h.flatten() for h in elems], width, f)
            if new:
                dims[d] = len(new)
                self.representatives.extend((d, elems[i]) for i in new)
        super().__init__(dims, syz_hom.graded)


def relation_window(pres: Presentation, target: FiniteModule, floor=None):
    """(floor, cap, kept) for homs of degree >= floor out of the relation
    module of `pres` into a finite graded target; `kept` lists the indices
    of the relations that matter.

    A hom of degree d sends a relation of degree e into the target's degree
    e + d, which is zero above the top degree `top`.  So from `floor` up only
    the relations of degree <= cap = top - floor can have nonzero images, and
    a relation among relations of degree <= cap involves only those.  The
    default floor is the lowest degree a nonzero hom can have, which keeps
    every relation.  Ungraded data, or an empty target or relation list, has
    no window: (floor, None, every index)."""
    relations = pres.relations
    if not (pres.homogeneous and relations and target.degrees):
        return floor, None, list(range(len(relations)))
    if floor is None:
        floor = min(target.degrees) - max(s.degree() for s in relations)
    cap = max(target.degrees) - floor
    return floor, cap, [i for i, s in enumerate(relations) if s.degree() <= cap]


def ext1_generic(hom: HomSpace, floor=None, rel_engine=None):
    """Ext^1 of the module `hom.source` presents, against `hom.target`:
    Hom(relations, target) modulo maps that extend to the whole free module,
    in hom degrees >= floor (by default all of them).  The restrictions are
    read off `hom.actions`.

    `rel_engine` may pass in precomputed Groebner data for the relations
    the window keeps (it carries the relations-among-relations); otherwise
    it is computed here, capped at the window's top relation degree.
    """
    pres, target = hom.source, hom.target
    floor, _, kept = relation_window(pres, target, floor)
    if rel_engine is None:
        rel_engine = relation_syzygy_engine(pres, target, floor)
    elif rel_engine.syzygy_module.rank != len(kept):
        raise ValueError("relation engine built on other relations")
    rel_pres = Presentation(
        pres.ring,
        [pres.relations[i].degree() for i in kept],
        rel_engine.syzygies,
        homogeneous=pres.homogeneous,
    )
    rel_hom = hom_space(rel_pres, target, floor=floor)
    image_rows = _restriction_rows(pres, [hom.actions[i] for i in kept],
                                   target, floor)
    return Ext1Space(rel_hom, image_rows, rel_engine, floor)


def relation_syzygy_engine(pres: Presentation, target: FiniteModule,
                           floor=None):
    """Groebner data of the relations of `pres` that homs of degree >= floor
    into the target see, with the relations among them up to the window's cap."""
    _, cap, kept = relation_window(pres, target, floor)
    return ModuleGroebner(FreeModule(pres.ring, pres.gen_degrees),
                          [pres.relations[i] for i in kept], max_degree=cap)


def ext1_space(ideal: IdealPresentation, target: FiniteModule, floor=None):
    """Ext^1(I, target) for an ideal against its chosen generators, in hom
    degrees >= floor (by default all of them)."""
    return ext1_generic(hom_space(Presentation.of_ideal(ideal), target, floor),
                        floor)


def _restriction_rows(pres: Presentation, rel_actions, target, floor=None):
    """Flattened images in Hom(relations, target) of a basis of maps defined
    on the free module of `pres`, given the relations' `actions`, in hom
    degrees >= floor when graded: (degree, sparse row) pairs, the row's
    column k * dim + t coordinate t of the value on relation k."""
    dimn = target.dim
    # a map sending generator j to basis vector b evaluates on relation k
    # as column b of the action matrix of the j-th coordinate of relation
    # k: columns[j][b] lists the nonzero (k * dimn + t, value) entries
    columns = [{} for _ in pres.gen_degrees]
    for k, action in enumerate(rel_actions):
        for j, m in action:
            col = columns[j]
            for t, m_row in enumerate(m):
                for b, x in m_row.items():
                    col.setdefault(b, []).append((k * dimn + t, x))
    rows = []
    for j, gdeg in enumerate(pres.gen_degrees):
        for b in range(dimn):
            d = target.degrees[b] - gdeg if pres.homogeneous else None
            if floor is not None and d < floor:
                continue
            rows.append((d, dict(columns[j].get(b, ()))))
    return rows


def t2_space(ideal: IdealPresentation, ext1: Ext1Space) -> DegreeCounts:
    """The obstruction classes inside `ext1 = ext1_space(ideal, target)`,
    against the same target and through the same second-syzygy engine: the
    classes that kill the trivial syzygies, for S/I the genuine obstructions.
    The target must be S/J with I inside J: a map phi from the free cover
    then sends the lift of g_i e_j - g_j e_i to g_i phi(e_j) - g_j phi(e_i)
    = 0, so a class's values there do not depend on its representative."""
    if not ideal.homogeneous:
        raise ValueError("obstruction space computation requires homogeneous input")
    syz_engine = ext1.rel_engine
    target = ext1.syz_hom.target
    if not (isinstance(target, ArtinianQuotient)
            and all(target.ideal.contains(g) for g in ideal.gens)):
        raise ValueError("obstruction space needs a target S/J with the ideal inside J")
    f = ideal.ring.field
    # express each trivial (Koszul) syzygy in the first-syzygy generators;
    # one above the engine's degree cap lands above the target's top degree
    # under every hom that can be nonzero, so it imposes no condition
    cap = syz_engine.max_degree
    koszul_actions = []
    for v in ideal.koszul_vectors():
        if cap is not None and v.degree() > cap:
            continue
        remainder, lift = syz_engine.normal_form(v)
        if not remainder.is_zero():
            raise AssertionError("trivial syzygy outside the syzygy module")
        koszul_actions.append(actions(lift, target))
    dims = {}
    for d, reps in sorted(_by_degree(ext1.representatives).items()):
        # the representatives' values on the trivial syzygies, one row per
        # (syzygy, coordinate): the classes killing them are its kernel
        images = image_matrix([h.flatten() for h in reps])
        values = []
        for action in koszul_actions:
            values.extend(evaluate(action, images, target))
        dim = len(reps) - rank(values, len(reps), f)
        if dim:
            dims[d] = dim
    return DegreeCounts(dims, graded=True)


# -- the comparison diagram for a pair of ideals ---------------------------


class DiagramMaps:
    """What the relative criterion reads off a subideal pair: the source
    ideal sits inside the larger one, the quotient module J records the
    difference, and the connecting maps measure how deformations of the big
    scheme restrict.

    Built by `diagram_maps`: Hom(I_R, S/I_R) (`hom_big`, whose target is
    S/I_R), the Hom and Ext^1 spaces of the dimension count, and exact
    surjectivity and exactness flags.
    """


def _rank_by_degree(pairs, width, field):
    """pairs: list of (degree, flat row); rank of the span per degree."""
    return {d: rank(rows, width, field) for d, rows in _by_degree(pairs).items()}


def post_composition(hom: HomSpace, pi):
    """Flat rows of every hom in `hom` followed by the matrix `pi` out of
    its target: one product per generator block."""
    f = hom.target.ring.field
    dim = hom.target.dim
    images = image_matrix(hom.flat_rows())
    width = len(hom.elements)
    rows = []
    for j in range(hom.source.rank):
        rows.extend(mat_mul(pi, images[j * dim : (j + 1) * dim], width, f))
    return [list(col) for col in zip(*rows)]


def _j_presentation(M, R):
    """J = I_R / I_M as a source module.  Returns (extras, combined, J):
    R's generators outside I_M, the ideal presented on the extras followed
    by M's generators, and J generated by the extras with relations the
    projections of the combined ideal's syzygies."""
    ring = M.ring
    extras = [g for g in R.gens if not M.reduce(g).is_zero()]
    combined = IdealPresentation(ring, extras + list(M.gens))
    degrees = [g.degree() for g in extras]
    j_free = FreeModule(ring, degrees)
    relations = [j_free.from_polys(s.coordinates()[: len(extras)])
                 for s in combined.syzygies]
    return extras, combined, Presentation(ring, degrees, relations,
                                          homogeneous=True)


def _connecting_target(M, R, m_lifts, combined, j_pres, j_engine, target):
    """The long exact sequence obtained by mapping the pair's short exact
    sequence into one finite target module."""
    f = M.ring.field
    h_rn = hom_space(Presentation.of_ideal(R), target)
    h_mn = hom_space(Presentation.of_ideal(M), target)
    h_jn = hom_space(j_pres, target)
    e_jn = ext1_generic(h_jn, rel_engine=j_engine)
    width_m = len(M.gens) * target.dim
    # restriction: value of each Hom(I_R, N) basis element on the small
    # ideal's generators, via their lifts
    images = image_matrix(h_rn.flat_rows())
    values = []
    for lift in m_lifts:
        values.extend(evaluate(actions(lift, target), images, target))
    rho_pairs = [(h.degree, [row[i] for row in values])
                 for i, h in enumerate(h_rn.elements)]
    rho_rank = _rank_by_degree(rho_pairs, width_m, f)
    h_mn_dims = h_mn.dims()
    h_rn_dims = h_rn.dims()
    h_jn_dims = h_jn.dims()
    # induced map Ext^1(J, N) -> Ext^1(I_R, N): a class is sent to zero
    # exactly when its flat representative lies in the span of the maps
    # extending to the free cover of I_R (same flat coordinates: the
    # relations of J are indexed by the syzygies of the combined ideal, and
    # are their coordinates on the extras, so those actions are Hom(J, N)'s)
    k = j_pres.rank
    combined_actions = [
        j_action + [(k + j, m) for j, m in actions(s.coordinates()[k:], target)]
        for j_action, s in zip(h_jn.actions, combined.syzygies)
    ]
    img_by_deg = _by_degree(_restriction_rows(
        Presentation.of_ideal(combined), combined_actions, target))
    width_s = len(combined.syzygies) * target.dim
    reps_by_deg = _by_degree((d, h.flatten()) for d, h in e_jn.representatives)
    induced_kernel = {}
    for d, dim_e in e_jn.dims.items():
        induced_kernel[d] = dim_e - len(independent_modulo(
            img_by_deg.get(d, []), reps_by_deg.get(d, []), width_s, f
        ))
    # exactness bookkeeping along the five-term sequence, per degree
    exact = True
    degrees = set(h_rn_dims) | set(h_mn_dims) | set(h_jn_dims) | set(e_jn.dims)
    for d in degrees:
        r = rho_rank.get(d, 0)
        if h_rn_dims.get(d, 0) - r != h_jn_dims.get(d, 0):
            exact = False
        if induced_kernel.get(d, 0) != h_mn_dims.get(d, 0) - r:
            exact = False
    return {
        "hom_big": h_rn,
        "hom_small": h_mn,
        "hom_j": h_jn,
        "ext_j": e_jn,
        "connecting_surjective_all": all(
            induced_kernel[d] == e_jn.dims[d] for d in e_jn.dims
        ),
        "connecting_surjective_nonneg": all(
            induced_kernel[d] == e_jn.dims[d] for d in e_jn.dims if d >= 0
        ),
        "exactness_ok": exact,
    }


def diagram_maps(M: IdealPresentation, R: IdealPresentation):
    """Compare a pair of zero-dimensional ideals, small inside big.

    M's ideal must be contained in R's; J denotes the quotient ideal
    (R's ideal modulo M's).  Returns a DiagramMaps record with Hom and
    Ext^1 data against both quotients, surjectivity of the post-composition
    map on tangents and of the connecting maps, in degrees >= 0 and
    overall, and exactness bookkeeping.
    """
    ring = M.ring
    if not ring.same_ring(R.ring):
        raise ValueError("pair of ideals must live in the same ring")
    if not (M.homogeneous and R.homogeneous):
        raise ValueError("pair comparison requires homogeneous ideals")
    f = ring.field
    # lifts of M's generators into R's generators
    m_lifts = []
    for g in M.gens:
        nf, lift = R.normal_form(g)
        if not nf.is_zero():
            raise ValueError("first ideal is not contained in the second")
        m_lifts.append(lift)
    q_m = ArtinianQuotient(M)
    q_r = ArtinianQuotient(R)
    extras, combined, j_pres = _j_presentation(M, R)
    # J as a target: the S-stable span of the extra generators inside S/I_M
    j_target, _ = submodule(q_m, [q_m.poly_vector(g) for g in extras])
    # one engine for J's relations serves both rows: S/I_M spans the wider
    # degree range, and a relation above the cap for S/I_R maps into no
    # degree of S/I_R
    j_engine = relation_syzygy_engine(j_pres, q_m)
    big = _connecting_target(M, R, m_lifts, combined, j_pres, j_engine, q_r)
    small = _connecting_target(M, R, m_lifts, combined, j_pres, j_engine, q_m)
    out = DiagramMaps()
    out.hom_big = big["hom_big"]
    out.hom_mm = h_mm = small["hom_small"]
    # post-composition on tangents, Hom(I_M, O_M) -> Hom(I_M, O_R), with
    # the projection S/I_M -> S/I_R on the standard-monomial bases
    cols = [q_r.poly_vector(ring.monomial(e)) for e in q_m.monomials]
    pi = [list(row) for row in zip(*cols)]
    phi_rank = _rank_by_degree(
        zip((h.degree for h in h_mm.elements), post_composition(h_mm, pi)),
        len(M.gens) * q_r.dim, f,
    )
    mr_dims = big["hom_small"].dims()
    out.phi_surjective_all = all(
        phi_rank.get(d, 0) == v for d, v in mr_dims.items()
    )
    out.phi_surjective_nonneg = all(
        phi_rank.get(d, 0) == v for d, v in mr_dims.items() if d >= 0
    )
    # Hom(I_M, J): kernel of the post-composition, checked by dimensions
    out.hom_mj = h_mj = hom_space(Presentation.of_ideal(M), j_target)
    mm_dims = h_mm.dims()
    mj_dims = h_mj.dims()
    exact = big["exactness_ok"] and small["exactness_ok"]
    for d in set(mm_dims) | set(mj_dims):
        if mm_dims.get(d, 0) - phi_rank.get(d, 0) != mj_dims.get(d, 0):
            exact = False
    out.exactness_ok = exact
    out.hom_jr = big["hom_j"]
    out.ext_jr = big["ext_j"]
    out.partial_surjective_nonneg = big["connecting_surjective_nonneg"]
    out.partial_surjective_all = big["connecting_surjective_all"]
    out.psi_surjective_nonneg = small["connecting_surjective_nonneg"]
    out.psi_surjective_all = small["connecting_surjective_all"]
    return out
