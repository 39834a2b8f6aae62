from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poly, random_zero_dim_ideal, rng_for
from hilbcert import groebner, search
from hilbcert.artinian import ArtinianQuotient
from hilbcert.fields import GF, QQ
from hilbcert.gallery import build_entry, build_R
from hilbcert.groebner import (
    IdealPresentation,
    ModuleGroebner,
    minimal_generators,
    poly_to_vector,
    vector_normal_form,
)
from hilbcert.homology import Presentation, relation_syzygy_engine
from hilbcert.modules import FreeModule
from hilbcert.rings import GradedRing, mul_exps

import loop_reference
import oracle

F101 = GF(101)


def _ideal(field=QQ, names=("x", "y"), gens_text=("x^2", "y^2")):
    from hilbcert.parsing import parse_polynomial

    ring = GradedRing(list(names), None, field)
    return IdealPresentation(
        ring, [parse_polynomial(t, ring) for t in gens_text]
    )


def test_gb_of_simple_ideal():
    ideal = _ideal(gens_text=("x^2", "x*y - y^2", "y^3"))
    x, y = ideal.ring.gens()
    assert ideal.contains(y**3)
    assert ideal.contains(x**2 * y)
    assert not ideal.contains(x * y)
    assert not ideal.contains(x + y)


def test_normal_form_lift_identity():
    ideal = _ideal(gens_text=("x^2 - y", "y^2"))
    x, y = ideal.ring.gens()
    p = x**4 + x * y
    nf, lift = ideal.normal_form(p)
    rebuilt = nf
    for q, g in zip(lift, ideal.gens):
        rebuilt = rebuilt + q * g
    assert rebuilt == p


def test_gb_idempotence():
    """Recomputing the basis from the reduced basis reproduces it."""
    for seed in range(5):
        ideal = random_zero_dim_ideal(rng_for(seed))
        again = IdealPresentation(ideal.ring, [g for g in ideal.gb])
        assert sorted(g.monic().terms.items() for g in again.gb) == sorted(
            g.monic().terms.items() for g in ideal.gb
        )


def test_syzygies_evaluate_to_zero():
    for seed in range(8):
        ideal = random_zero_dim_ideal(rng_for(100 + seed),
                                      homogeneous=(seed % 2 == 0))
        for s in ideal.syzygies:
            total = ideal.ring.zero
            for q, g in zip(s.coordinates(), ideal.gens):
                total = total + q * g
            assert total.is_zero()


def test_koszul_vectors_inside_syzygy_module():
    for seed in range(4):
        ideal = random_zero_dim_ideal(rng_for(200 + seed))
        engine = ModuleGroebner(ideal.syzygy_module, ideal.syzygies)
        for v in ideal.koszul_vectors():
            assert engine.contains(v)


def test_trim_syzygies_preserves_generation():
    ideal = random_zero_dim_ideal(rng_for(42))
    # the presentation trims on construction
    full = _transcripts(ideal)
    assert len(ideal.syzygies) <= len(full)
    engine = ModuleGroebner(ideal.syzygy_module, ideal.syzygies)
    for v in full:
        assert engine.contains(v)


def test_normal_form_is_linear():
    ideal = _ideal(gens_text=("x^2 - y", "y^3"))
    ring = ideal.ring
    rng = rng_for(7)
    for _ in range(10):
        a = random_poly(ring, rng)
        b = random_poly(ring, rng)
        assert ideal.reduce(a + b) == ideal.reduce(a) + ideal.reduce(b)
        assert ideal.reduce(a - ideal.reduce(a)).is_zero()


def test_normal_form_does_not_mutate_input():
    ideal = _ideal(gens_text=("x^2", "y^2"))
    ring = ideal.ring
    x, y = ring.gens()
    v = poly_to_vector(x**2 + x * y, ideal.free)
    before = dict(v.terms)
    vector_normal_form(v, ideal.reduced)
    assert v.terms == before


def test_module_groebner_with_shifts():
    ring = GradedRing(["x", "y"], None, QQ)
    x, y = ring.gens()
    module = FreeModule(ring, (0, 1))
    v1 = module.from_polys([x, ring.one])
    v2 = module.from_polys([y, ring.zero])
    engine = ModuleGroebner(module, [v1, v2])
    # x*v2*... membership: y*v1 - x-scaled things; check a known member
    member = v1.poly_mul(y) - v2.poly_mul(x)
    assert engine.contains(member)
    for s in engine.syzygies:
        total = module.zero()
        for q, inp in zip(s.coordinates(), [v1, v2]):
            total = total + inp.poly_mul(q)
        assert total.is_zero()


def test_degree_cap_is_sound_for_homogeneous():
    ring = GradedRing(["x", "y", "z"], None, F101)
    x, y, z = ring.gens()
    gens = [x**2 + y * z, y**2, z**2 + x * y]
    free = FreeModule(ring, (0,))
    vectors = [poly_to_vector(g, free) for g in gens]
    full = ModuleGroebner(free, vectors)
    capped = ModuleGroebner(free, vectors, max_degree=4)
    probe = (x + y) ** 2 * z - z * y * x
    for p in (probe, x**2 * y, (x + z) ** 3):
        if p.degree() <= 3:
            v = poly_to_vector(p, free)
            assert full.contains(v) == capped.contains(v)
    # the engine keeps every transcript up to its cap, and the greedy trim
    # runs degree by degree, so trimming commutes with the cap
    ref = loop_reference.ReferenceGroebner(free, vectors)
    assert full.syzygies == ref.syzygies
    assert capped.syzygies == [s for s in ref.syzygies if s.degree() <= 4]
    trimmed = minimal_generators(full.syzygies)
    assert minimal_generators(capped.syzygies) == [
        s for s in trimmed if s.degree() <= 4]
    # the graded presentation finds as many minimal syzygies per degree
    ideal = IdealPresentation(ring, gens)
    assert ideal.gb == [b.coordinate(0) for b in ref.reduced]
    assert _degrees(ideal.syzygies) == _degrees(trimmed)


def test_unit_ideal_and_empty():
    ring = GradedRing(["x"], None, QQ)
    with pytest.raises(ValueError):
        IdealPresentation(ring, [])
    one = IdealPresentation(ring, [ring.one])
    assert one.contains(ring.one)


def _generator_vectors(ideal):
    return [poly_to_vector(g, ideal.free) for g in ideal.gens]


def _degrees(vectors):
    return Counter(v.degree() for v in vectors)


def _transcripts(ideal):
    """Every Groebner transcript syzygy of the ideal's generators, with no
    degree cap and before a graded presentation trims them."""
    return loop_reference.ReferenceGroebner(
        ideal.free, _generator_vectors(ideal)).syzygies


def _assert_same_kept(vectors):
    """The echelon trim keeps the very vectors, in the very order, that the
    per-vector Groebner loop keeps."""
    kept = minimal_generators(vectors)
    assert [id(v) for v in kept] == [
        id(v) for v in loop_reference.groebner_trim(vectors)
    ]
    return kept


def _assert_minimal_presentation(ideal):
    """A graded Artinian presentation, built degree by degree with no
    Groebner engine, against the linear-algebra oracle.  Every syzygy kills
    the generators.  In each degree d up to max(t + w1 + w2, largest
    generator degree) + max_weight, t the quotient's top degree, the
    degree-d multiples of the syzygies span Syz_d, the kernel of F_d -> S_d
    (rank by the oracle's own elimination).  There are as many syzygies per
    degree as a minimal generating set has, none above that bound.
    Returns (bound, oracle degrees)."""
    ring = ideal.ring
    assert ideal._engine is None
    for s in ideal.syzygies:
        total = ring.zero
        for q, g in zip(s.coordinates(), ideal.gens):
            total = total + q * g
        assert total.is_zero()
    top = oracle.socle_degree(ring, ideal.gens)
    bound = max(top + sum(sorted(ring.weights)[-2:]), max(ideal.gen_degrees))
    want = oracle.minimal_syzygy_degrees(ring, ideal.gens, bound + ring.max_weight)
    assert max(want, default=bound) <= bound
    assert _degrees(ideal.syzygies) == want
    for d in range(min(ideal.gen_degrees), bound + ring.max_weight + 1):
        kernel, labels, _ = oracle.syzygy_kernel(ring, ideal.gens, d)
        index = {lab: i for i, lab in enumerate(labels)}
        multiples = [{index[(j, mul_exps(e, m))]: x for (j, e), x in s.terms.items()}
                     for s in ideal.syzygies
                     for m in ring.monomials_of_degree(d - s.degree())]
        assert oracle.sparse_rank(multiples, ring.field) == len(kernel), d
    return bound, want


def _assert_lifts(ideal, polys):
    """p - nf = sum(lift_j * g_j) exactly, with nf the normal form."""
    for p in polys:
        nf, lift = ideal.normal_form(p)
        assert nf == ideal.reduce(p)
        rebuilt = nf
        for q, g in zip(lift, ideal.gens):
            rebuilt = rebuilt + q * g
        assert rebuilt == p


@pytest.mark.parametrize("shape_args", [(4, 2, 3), (4, 2, 1)])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_minimal_generators_match_groebner_loop_on_hunt_candidates(
        shape_args, seed, monkeypatch):
    shape = search.CandidateShape(*shape_args)
    candidate = search.random_candidate(shape, seed)
    kept = _assert_same_kept(_transcripts(candidate))
    assert _degrees(kept) == _degrees(candidate.syzygies)
    _assert_minimal_presentation(candidate)
    # the generators the template drew, before the candidate trimmed them
    with monkeypatch.context() as m:
        m.setattr(search, "minimal_generators", list)
        m.setattr(search, "IdealPresentation", lambda ring, gens: gens)
        drawn = search.random_candidate(shape, seed)
    free = FreeModule(shape.ring, (0,))
    kept = _assert_same_kept([poly_to_vector(g, free) for g in drawn])
    assert len(kept) < len(drawn)
    assert [v.coordinate(0) for v in kept] == candidate.gens


@pytest.mark.parametrize("field", [GF(2), GF(3), F101, QQ])
def test_minimal_generators_match_groebner_loop_on_conftest_ideals(field):
    dropped = 0
    for seed in range(8):
        ideal = random_zero_dim_ideal(rng_for(500 + seed), field=field)
        assert ideal.homogeneous
        transcripts = _transcripts(ideal)
        kept = _assert_same_kept(transcripts)
        assert _degrees(kept) == _degrees(ideal.syzygies)
        _assert_minimal_presentation(ideal)
        dropped += len(transcripts) - len(kept)
        dropped += len(ideal.gens) - len(_assert_same_kept(_generator_vectors(ideal)))
    assert dropped > 0


def _weighted_ideal():
    """The weighted-homogeneous generators of the weighted entry, plus two
    weighted forms of degree 4, in the (3,1,3,1) ring."""
    entry = build_entry("weighted_counterexample").ideal
    ring = entry.ring
    x1, x2, y1, y2 = ring.gens()
    gens = [g for g in entry.gens if g.is_homogeneous()]
    gens += [x1 * y2 + x2**3 * y2, x2 * y1 + x2 * y2**3]
    ideal = IdealPresentation(ring, gens)
    assert ideal.homogeneous and ring.weights == (3, 1, 3, 1)
    return ideal


def test_minimal_generators_match_groebner_loop_on_weighted_entry():
    entry = build_entry("weighted_counterexample").ideal
    # x1*y1 + x2*y2 has weighted degrees 6 and 2: the entry keeps its
    # transcripts, so compare on a weighted-homogeneous ideal of its ring
    assert not entry.homogeneous
    assert entry.syzygies == _transcripts(entry)
    ideal = _weighted_ideal()
    transcripts = _transcripts(ideal)
    kept = _assert_same_kept(transcripts)
    assert _degrees(kept) == _degrees(ideal.syzygies)
    _assert_minimal_presentation(ideal)
    assert len(kept) < len(transcripts)
    _assert_same_kept(_generator_vectors(ideal))


def test_inhomogeneous_presentation_keeps_transcripts():
    ideal = random_zero_dim_ideal(rng_for(7001), homogeneous=False)
    assert not ideal.homogeneous
    assert ideal.syzygies == _transcripts(ideal)
    with pytest.raises(ValueError, match="homogeneous"):
        minimal_generators(_generator_vectors(ideal))


class _KeepWorkingBasis(ModuleGroebner):
    """The engine, keeping its working basis and lead list after the run."""

    def _run(self):
        super()._run()
        self.working = list(zip(self.basis, self.leads))


def _assert_engine_matches_reference(module, vectors, rng):
    engine = _KeepWorkingBasis(module, vectors)
    ref = loop_reference.ReferenceGroebner(module, vectors)
    assert engine.reduced == ref.reduced
    assert engine.reduced_lifts == ref.reduced_lifts
    assert engine.syzygies == ref.syzygies
    fresh = loop_reference.fresh_leading_term
    for b, lead in engine.working:
        assert lead == b.leading_term() == fresh(b)
    for v in engine.reduced + engine.syzygies:
        assert v.leading_term() == fresh(v)
        assert v.leading_coefficient() == v.terms[fresh(v)]
    # normal forms of multiples of the inputs plus a random vector
    ring = module.ring
    probes = [v.term_mul(m, ring.field.one) for v in vectors if v
              for m in rng.sample(ring.monomials_of_degree(1), 2)]
    probes.append(poly_to_vector(random_poly(ring, rng), module)
                  if module.rank == 1 else vectors[0])
    for v in probes:
        remainder, quotients = vector_normal_form(v, engine.reduced)
        assert (remainder, quotients) == loop_reference.normal_form_reference(
            v, engine.reduced)
        rebuilt = remainder
        for q, b in zip(quotients, engine.reduced):
            rebuilt = rebuilt + b.poly_mul(q)
        assert rebuilt == v
    return ref


@pytest.mark.parametrize("field", [GF(2), GF(3), F101, QQ])
@pytest.mark.parametrize("homogeneous", [True, False])
def test_engine_matches_reference_on_conftest_ideals(field, homogeneous):
    for seed in range(4):
        rng = rng_for(900 + seed)
        ideal = random_zero_dim_ideal(rng, field=field, homogeneous=homogeneous)
        ref = _assert_engine_matches_reference(
            ideal.free, _generator_vectors(ideal), rng)
        # the presentation keeps the same reduced basis
        assert ideal.gb == [b.coordinate(0) for b in ref.reduced]
        assert ideal.leading_exponents() == [g.leading_monomial() for g in ideal.gb]
        if ideal.homogeneous:
            # built degree by degree: minimal syzygies, and lifts of its own
            _assert_minimal_presentation(ideal)
            assert _degrees(ideal.syzygies) == _degrees(
                minimal_generators(ref.syzygies))
        else:
            assert ideal._engine.reduced_lifts == ref.reduced_lifts
            assert ideal.syzygies == ref.syzygies
        _assert_lifts(ideal, [random_poly(ideal.ring, rng) for _ in range(3)])
        # and a syzygy module, with its degree shifts
        _assert_engine_matches_reference(
            ideal.syzygy_module, ideal.koszul_vectors(), rng)


@pytest.mark.parametrize("shape_args", [(4, 2, 3), (4, 2, 1)])
@pytest.mark.parametrize("field", [GF(3), F101])
def test_engine_matches_reference_on_hunt_candidates(shape_args, field):
    shape = search.CandidateShape(*shape_args, field=field)
    candidate = search.random_candidate(shape, 12)
    ref = _assert_engine_matches_reference(
        candidate.free, _generator_vectors(candidate), rng_for(12))
    assert candidate.gb == [b.coordinate(0) for b in ref.reduced]
    assert _degrees(candidate.syzygies) == _degrees(minimal_generators(ref.syzygies))
    _assert_minimal_presentation(candidate)
    _assert_lifts(candidate, [g * v for g in candidate.gens
                              for v in shape.ring.gens()[:2]])


# -- the per-degree presentation -------------------------------------------------


@pytest.mark.parametrize("field", [GF(2), GF(3), F101, QQ])
def test_regularity_cap_keeps_minimal_syzygies_on_conftest_ideals(field):
    for seed in range(6):
        ideal = random_zero_dim_ideal(rng_for(1300 + seed), field=field)
        _assert_minimal_presentation(ideal)


def test_regularity_cap_keeps_minimal_syzygies_on_weighted_ideal():
    ideal = _weighted_ideal()
    _assert_minimal_presentation(ideal)
    ref = loop_reference.ReferenceGroebner(ideal.free, _generator_vectors(ideal))
    assert ideal.gb == [b.coordinate(0) for b in ref.reduced]
    x1, x2, y1, y2 = ideal.ring.gens()
    _assert_lifts(ideal, [x1 * x2**2 + y2**5,
                          x1**2 * y1 + x2 * y1 * y2**2 + x2.scale(3)])


@pytest.mark.parametrize("shape_args", [(4, 2, 3), (4, 2, 1), (4, 3, 10),
                                        (3, 3, 4), (4, 2, 5), (3, 2, 2),
                                        (5, 2, 6)])
def test_regularity_cap_keeps_minimal_syzygies_on_hunt_candidates(shape_args):
    shape = search.CandidateShape(*shape_args)
    _assert_minimal_presentation(search.random_candidate(shape, 12))


def test_regularity_cap_keeps_syzygy_of_redundant_generator():
    """x^5 lies in (x, y, z)^3, whose quotient tops out in degree 2, so
    t + w1 + w2 = 4; the syzygy that writes x^5 through x^3 sits in degree 5."""
    ring = GradedRing(["x", "y", "z"], None, F101)
    cubes = [ring.monomial(m) for m in ring.monomials_of_degree(3)]
    ideal = IdealPresentation(ring, cubes + [ring.variable("x") ** 5])
    assert _assert_minimal_presentation(ideal) == (5, Counter({4: 15, 5: 1}))
    _assert_lifts(ideal, [ring.variable("x") ** 5 + ring.variable("y") ** 2])
    # a zero generator, of degree -1, is a summand of F too: its basis
    # vector is a syzygy, and its multiples count in every Syz_d
    ring2 = GradedRing(["x", "y"], None, F101)
    x, y = ring2.gens()
    ideal = IdealPresentation(ring2, [x**2, ring2.zero, x * y, y**3])
    assert _assert_minimal_presentation(ideal) == (4, {-1: 1, 3: 1, 4: 1})
    assert ideal.syzygies[0] == ideal.syzygy_module.basis_vector(1)
    _assert_lifts(ideal, [x**3 + x * y**2 + y**4])
    # a complete intersection whose top degree 6 lies two degrees above its
    # Koszul syzygy: the presentation finds the quotient's top degree first
    x, y, z = ring.gens()
    ideal = IdealPresentation(ring, [x**2, y**2, z**5])
    assert _assert_minimal_presentation(ideal) == (8, {4: 1, 7: 2})


@pytest.mark.parametrize("field", [GF(2), GF(3), F101, QQ])
def test_unit_and_redundant_generators(field):
    """The unit ideal (one is a generator, and x a redundant one) has the
    reduced basis [1] and one syzygy per generator besides the unit; a
    redundant generator's syzygy writes it through the others."""
    ring = GradedRing(["x", "y"], None, field)
    x, y = ring.gens()
    for gens in ([ring.one], [ring.one, x, x * y], [x * y, x, y**2]):
        ideal = IdealPresentation(ring, gens)
        ref = loop_reference.ReferenceGroebner(ideal.free, _generator_vectors(ideal))
        assert ideal._engine is None
        assert ideal.gb == [b.coordinate(0) for b in ref.reduced]
        assert _degrees(ideal.syzygies) == _degrees(minimal_generators(ref.syzygies))
        _assert_lifts(ideal, [x**2 + y, x * y**3])
    assert IdealPresentation(ring, [ring.one, x, x * y]).gb == [ring.one]


def test_non_artinian_ideal_keeps_every_transcript():
    ring = GradedRing(["x", "y"], None, F101)
    x, y = ring.gens()
    gens = (x**2, x * y, x**3 + x**2 * y)
    free = FreeModule(ring, (0,))
    vectors = [poly_to_vector(g, free) for g in gens]
    engine = ModuleGroebner(free, vectors)
    ref = loop_reference.ReferenceGroebner(free, vectors)
    assert engine.max_degree is None
    assert engine.syzygies == ref.syzygies
    assert engine.reduced == ref.reduced
    # a graded ideal that is not Artinian: (S/I)_d is nonzero past
    # n(delta - 1) = 4, so the presentation falls back to the engine, whose
    # transcripts it trims
    ideal = IdealPresentation(ring, gens)
    assert ideal._engine is not None
    assert ideal.gb == [b.coordinate(0) for b in ref.reduced]
    assert ideal.syzygies == minimal_generators(ref.syzygies)
    assert ideal._engine.reduced_lifts == ref.reduced_lifts
    # so does one with a nonzero quotient in every degree of a weighted ring
    wring = GradedRing(["x", "y"], (2, 3), QQ)
    x, y = wring.gens()
    assert IdealPresentation(wring, [x**3, x * y**2])._engine is not None
    assert IdealPresentation(wring, [x**3, y**2])._engine is None
    # the bound is sharp: x^2, y^2, z^2 has S/I nonzero in degree n(2 - 1)
    x, y, z = GradedRing(["x", "y", "z"], None, F101).gens()
    ideal = IdealPresentation(x.ring, [x**2, y**2, z**2])
    assert ideal._engine is None and not ideal.contains(x * y * z)


class _Eliminated:
    """Records, per presentation, the rows each degree's tagged echelon
    eliminates: {degree: rows}.  Each row inserted keeps its own tag, so it
    is one row of the echelon."""

    def __init__(self, monkeypatch):
        self.degrees = []
        tagged = IdealPresentation._tagged_echelon

        def recorded(pres, d, kept=(), vanished=False):
            found = tagged(pres, d, kept, vanished)
            if found is not None:
                self.degrees[-1][d] = len(found[-1].rows)
            return found

        present = IdealPresentation._present_by_degree

        def started(pres):
            self.degrees.append({})
            return present(pres)

        monkeypatch.setattr(IdealPresentation, "_tagged_echelon", recorded)
        monkeypatch.setattr(IdealPresentation, "_present_by_degree", started)


def test_no_pair_processed_above_regularity_cap(monkeypatch):
    """A (4,2,3) candidate's quotient tops out in degree 2, so no degree
    above 2 + 1 + 1 is eliminated (and no S-pair processed), though its
    generators' transcripts reach degrees 5 and 6."""
    eliminated = _Eliminated(monkeypatch)
    candidate = search.random_candidate(search.CandidateShape(4, 2, 3), 12)
    assert max(eliminated.degrees[-1]) == 4
    full = _transcripts(candidate)
    assert max(s.degree() for s in full) > 4
    assert _degrees(minimal_generators(full)) == _degrees(candidate.syzygies)


def test_top_degree_pairs_stop_once_the_kept_syzygies_span_it(monkeypatch):
    """A (4,2,1) candidate's kept degree-3 syzygies already span Syz_4, so
    degree 4 is not eliminated.  A (4,2,3) candidate's 8 degree-3 syzygies
    give 32 independent degree-4 multiples, whose rows the degree-4
    elimination leaves out: 38 of the 70 rows m*g_j remain, and the 3
    kernel vectors they leave are its degree-4 syzygies."""
    eliminated = _Eliminated(monkeypatch)
    for shape_args, rows in (((4, 2, 1), None), ((4, 2, 3), 70 - 32)):
        candidate = search.random_candidate(search.CandidateShape(*shape_args), 12)
        assert eliminated.degrees[-1].get(4) == rows
        assert _degrees(candidate.syzygies)[4] == (3 if rows else 0)
    transcripts = _degrees(_transcripts(candidate))
    assert transcripts[4] == 39


def test_stop_count_one_too_low_loses_a_minimal_syzygy(monkeypatch):
    """The redundant generator x^5 of (x, y, z)^3 + (x^5) gives the one new
    syzygy of degree 5, so a top-degree stop that read the kept multiples'
    span as one larger than it is would drop it."""
    ring = GradedRing(["x", "y", "z"], None, F101)
    gens = [ring.monomial(m) for m in ring.monomials_of_degree(3)]
    gens.append(ring.variable("x") ** 5)
    assert _degrees(IdealPresentation(ring, gens).syzygies)[5] == 1
    multiples = groebner._multiples

    def one_larger(*args):
        span = multiples(*args)
        span.rows[-1] = {-1: 1}  # a pivot at no tag column
        return span

    monkeypatch.setattr(groebner, "_multiples", one_larger)
    assert _degrees(IdealPresentation(ring, gens).syzygies)[5] == 0


def test_hunt_and_graded_gallery_presentations_build_no_engine(monkeypatch):
    """The benchmark's hunt shapes and the gallery's graded entries are
    presented degree by degree: no Buchberger engine is built for them.  The
    weighted entry's ideal, inhomogeneous in its weights, builds one."""
    built = []
    init = ModuleGroebner.__init__

    def counted(engine, *args, **kwargs):
        built.append(engine)
        init(engine, *args, **kwargs)

    monkeypatch.setattr(ModuleGroebner, "__init__", counted)
    for shape_args in ((4, 2, 3), (4, 2, 1)):
        for seed in range(3):
            search.random_candidate(search.CandidateShape(*shape_args), seed)
    for name in ("me", "re", "cevv143", "naive56", "groebnerfan"):
        build_entry(name)
    build_entry("re", e=3)
    assert built == []
    build_entry("weighted_counterexample")
    assert len(built) == 1


# -- the reduced basis ----------------------------------------------------------


def test_reduced_basis_takes_one_normal_form_per_kept_element(monkeypatch):
    """The engine builds its reduced basis in one pass: one
    `vector_normal_form` call per kept element, on a (4,2,3) candidate's
    generators (whose ten kept elements took twenty calls in a
    reduce-until-stable loop), R(3)'s generators over GF(3), an
    inhomogeneous QQ conftest ideal, and the relation engine of R(3)'s
    obstruction check."""
    normal_form = groebner.vector_normal_form
    interreduce = ModuleGroebner._interreduce
    calls = []  # per engine: [normal forms in the pass, kept elements]
    passing = []

    def counted_normal_form(*args, **kwargs):
        if passing:
            calls[-1][0] += 1
        return normal_form(*args, **kwargs)

    def counted_interreduce(self):
        calls.append([0, 0])
        passing.append(self)
        try:
            kept, lifts = interreduce(self)
        finally:
            passing.pop()
        calls[-1][1] = len(kept)
        return kept, lifts

    monkeypatch.setattr(groebner, "vector_normal_form", counted_normal_form)
    monkeypatch.setattr(ModuleGroebner, "_interreduce", counted_interreduce)
    candidate = search.random_candidate(search.CandidateShape(4, 2, 3), 12)
    ModuleGroebner(candidate.free, _generator_vectors(candidate))
    assert calls == [[10, 10]]
    r3, _ = build_R(3, field=GF(3))
    ModuleGroebner(r3.free, _generator_vectors(r3))
    random_zero_dim_ideal(rng_for(7028), field=QQ, homogeneous=False)
    relation_syzygy_engine(Presentation.of_ideal(r3), ArtinianQuotient(r3),
                           floor=0)
    assert len(calls) == 4 and all(kept > 1 for _, kept in calls)
    assert all(n == kept for n, kept in calls), calls
