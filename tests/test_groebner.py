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
from hilbcert.rings import GradedRing, lcm_exps

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
    vector_normal_form(v, ideal._engine.reduced)
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
    # the full engine reaches its regularity cap (S/I tops out in degree 3)
    # and trims there; the one capped at 4 stops first and keeps every
    # transcript up to 4, which trims to the full engine's syzygies there
    ref = loop_reference.ReferenceGroebner(free, vectors)
    assert full.trimmed and full.max_degree == 5 and not capped.trimmed
    assert full.syzygies == minimal_generators(
        [s for s in ref.syzygies if s.degree() <= 5])
    assert capped.syzygies == [s for s in ref.syzygies if s.degree() <= 4]
    assert minimal_generators(capped.syzygies) == [
        s for s in full.syzygies if s.degree() <= 4]


def test_unit_ideal_and_empty():
    ring = GradedRing(["x"], None, QQ)
    with pytest.raises(ValueError):
        IdealPresentation(ring, [])
    one = IdealPresentation(ring, [ring.one])
    assert one.contains(ring.one)


def _generator_vectors(ideal):
    return [poly_to_vector(g, ideal.free) for g in ideal.gens]


def _transcripts(ideal):
    """Every Groebner transcript syzygy of the ideal's generators, with no
    regularity cap and before a graded presentation trims them."""
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


@pytest.mark.parametrize("shape_args", [(4, 2, 3), (4, 2, 1)])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_minimal_generators_match_groebner_loop_on_hunt_candidates(
        shape_args, seed, monkeypatch):
    shape = search.CandidateShape(*shape_args)
    candidate = search.random_candidate(shape, seed)
    kept = _assert_same_kept(_transcripts(candidate))
    assert kept == candidate.syzygies
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
        assert kept == ideal.syzygies
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
    assert kept == ideal.syzygies
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
    # a graded Artinian ideal stops at its regularity cap, and its engine
    # keeps the greedy trim of the transcripts up to there
    cap = engine.max_degree
    assert engine.trimmed == (cap is not None)
    transcripts = [s for s in ref.syzygies if cap is None or s.degree() <= cap]
    assert engine.syzygies == (minimal_generators(transcripts)
                               if engine.trimmed else transcripts)
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
        # the presentation keeps the same results
        assert ideal._engine.reduced_lifts == ref.reduced_lifts
        assert ideal.gb == [b.coordinate(0) for b in ref.reduced]
        assert ideal.leading_exponents() == [g.leading_monomial() for g in ideal.gb]
        trimmed = (minimal_generators(ref.syzygies) if ideal.homogeneous
                   else ref.syzygies)
        assert ideal.syzygies == trimmed
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
    assert candidate.syzygies == minimal_generators(ref.syzygies)
    assert candidate._engine.reduced_lifts == ref.reduced_lifts


# -- the regularity cap -------------------------------------------------------


class _PairDegrees(ModuleGroebner):
    """The engine, recording the degree of every S-pair it processes."""

    def _process_pair(self, i, j, pairs, counter):
        comp, lcm = self.leads[i][0], lcm_exps(self.leads[i][1], self.leads[j][1])
        self.pair_degrees.append(self.module.term_degree(comp, lcm))
        return super()._process_pair(i, j, pairs, counter)

    def _run(self):
        self.pair_degrees = []
        super()._run()


class _StopCounts(ModuleGroebner):
    """The engine, recording dim Syz_d in each degree it trims as it goes."""

    def _syzygy_dim(self, d):
        n = super()._syzygy_dim(d)
        self.stop_counts[d] = n
        return n

    def _run(self):
        self.stop_counts = {}
        super()._run()


def _assert_cap_keeps_minimal_syzygies(ideal):
    """Every minimal syzygy degree the linear-algebra oracle finds lies at or
    below max(t + w1 + w2, largest generator degree), t the quotient's top
    degree, with as many presented syzygies per degree.  The engine capped
    there, unless its S-pairs ran out first.  Where it then trimmed as it
    went, its dim Syz_d is the dimension of the kernel of F_d -> S_d that the
    oracle finds, and it kept the greedy trim of the uncapped reference's
    transcripts.  Returns (cap, oracle degrees)."""
    ring = ideal.ring
    top = oracle.socle_degree(ring, ideal.gens)
    bound = max(top + sum(sorted(ring.weights)[-2:]), max(ideal.gen_degrees))
    cap = ideal._engine.max_degree
    assert cap in (None, bound)
    want = oracle.minimal_syzygy_degrees(ring, ideal.gens, bound + ring.max_weight)
    assert max(want) <= bound
    assert Counter(s.degree() for s in ideal.syzygies) == want
    vectors = _generator_vectors(ideal)
    engine = _StopCounts(ideal.free, vectors)
    assert engine.trimmed == bool(engine.stop_counts) == (cap is not None)
    for d, n in engine.stop_counts.items():
        assert n == len(oracle.syzygy_kernel(ring, ideal.gens, d)[0]), d
    if cap is not None:
        ref = loop_reference.ReferenceGroebner(ideal.free, vectors)
        assert engine.syzygies == ideal.syzygies == minimal_generators(
            [s for s in ref.syzygies if s.degree() <= cap])
    return cap, want


@pytest.mark.parametrize("field", [GF(2), GF(3), F101, QQ])
def test_regularity_cap_keeps_minimal_syzygies_on_conftest_ideals(field):
    capped = 0
    for seed in range(6):
        ideal = random_zero_dim_ideal(rng_for(1300 + seed), field=field)
        capped += _assert_cap_keeps_minimal_syzygies(ideal)[0] is not None
    assert capped


def test_regularity_cap_keeps_minimal_syzygies_on_weighted_ideal():
    assert _assert_cap_keeps_minimal_syzygies(_weighted_ideal())[0] is not None


@pytest.mark.parametrize("shape_args", [(4, 2, 3), (4, 2, 1), (4, 3, 10),
                                        (3, 3, 4), (4, 2, 5), (3, 2, 2),
                                        (5, 2, 6)])
def test_regularity_cap_keeps_minimal_syzygies_on_hunt_candidates(shape_args):
    shape = search.CandidateShape(*shape_args)
    candidate = search.random_candidate(shape, 12)
    assert _assert_cap_keeps_minimal_syzygies(candidate)[0] is not None


def test_regularity_cap_keeps_syzygy_of_redundant_generator():
    """x^5 lies in (x, y, z)^3, whose quotient tops out in degree 2, so
    t + w1 + w2 = 4; the syzygy that writes x^5 through x^3 sits in degree 5."""
    ring = GradedRing(["x", "y", "z"], None, F101)
    cubes = [ring.monomial(m) for m in ring.monomials_of_degree(3)]
    ideal = IdealPresentation(ring, cubes + [ring.variable("x") ** 5])
    assert _assert_cap_keeps_minimal_syzygies(ideal)[1][5] == 1
    assert ideal._engine.max_degree == 5
    # a zero generator, of degree -1, is a summand of F too: dim Syz_4 counts
    # the six degree-5 monomials of its component
    ring2 = GradedRing(["x", "y"], None, F101)
    x, y = ring2.gens()
    ideal = IdealPresentation(ring2, [x**2, ring2.zero, x * y, y**3])
    assert _assert_cap_keeps_minimal_syzygies(ideal) == (4, {-1: 1, 3: 1, 4: 1})
    engine = _StopCounts(ideal.free, _generator_vectors(ideal))
    assert engine.stop_counts == {4: 3 + 6 + 3 + 2 - 5}
    # a complete intersection whose first S-pair, in degree 4, comes long
    # before its top degree 6: its quotient never vanishes below a pair, so
    # the engine keeps the degree-7 pairs and sets no cap
    x, y, z = ring.gens()
    ideal = IdealPresentation(ring, [x**2, y**2, z**5])
    assert _assert_cap_keeps_minimal_syzygies(ideal) == (None, {4: 1, 7: 2})


def test_non_artinian_ideal_keeps_every_transcript():
    ring = GradedRing(["x", "y"], None, F101)
    x, y = ring.gens()
    free = FreeModule(ring, (0,))
    vectors = [poly_to_vector(g, free) for g in (x**2, x * y, x**3 + x**2 * y)]
    engine = ModuleGroebner(free, vectors)
    ref = loop_reference.ReferenceGroebner(free, vectors)
    assert engine.max_degree is None
    assert engine.syzygies == ref.syzygies
    assert engine.reduced == ref.reduced


def test_no_pair_processed_above_regularity_cap():
    """A (4,2,3) candidate's quotient tops out in degree 2, so no S-pair of
    degree above 2 + 1 + 1 is processed, though its generators have pairs in
    degree 5 and 6."""
    shape = search.CandidateShape(4, 2, 3)
    candidate = search.random_candidate(shape, 12)
    engine = _PairDegrees(candidate.free, _generator_vectors(candidate))
    assert engine.max_degree == 4
    assert max(engine.pair_degrees) == 4
    assert engine.reduced == candidate._engine.reduced
    full = _transcripts(candidate)
    assert max(s.degree() for s in full) > 4
    assert minimal_generators(full) == candidate.syzygies


# -- the stop rule in the top degrees ------------------------------------------


def test_top_degree_pairs_stop_once_the_kept_syzygies_span_it():
    """A (4,2,1) candidate's kept degree-3 syzygies already span Syz_4, so
    none of its degree-4 pairs runs; a (4,2,3) candidate runs fewer of them
    than the 39 degree-4 transcripts the uncapped engine records."""
    for shape_args, ran in (((4, 2, 1), 0), ((4, 2, 3), 5)):
        candidate = search.random_candidate(search.CandidateShape(*shape_args), 12)
        engine = _PairDegrees(candidate.free, _generator_vectors(candidate))
        assert engine.max_degree == 4
        assert Counter(engine.pair_degrees)[4] == ran
        assert engine.syzygies == candidate.syzygies
    transcripts = Counter(s.degree() for s in _transcripts(candidate))
    assert transcripts[4] == 39


def test_stop_count_one_too_low_loses_a_minimal_syzygy(monkeypatch):
    candidate = search.random_candidate(search.CandidateShape(4, 2, 3), 12)
    vectors = _generator_vectors(candidate)
    want = minimal_generators(
        [s for s in _transcripts(candidate) if s.degree() <= 4])
    assert ModuleGroebner(candidate.free, vectors).syzygies == want
    dim = ModuleGroebner._syzygy_dim
    monkeypatch.setattr(ModuleGroebner, "_syzygy_dim",
                        lambda self, d: dim(self, d) - 1)
    assert ModuleGroebner(candidate.free, vectors).syzygies != want


# -- the reduced basis ----------------------------------------------------------


def test_reduced_basis_takes_one_normal_form_per_kept_element(monkeypatch):
    """The reduced basis is built in one pass: one `vector_normal_form` call
    per kept element, on a (4,2,3) candidate (whose ten kept elements took
    twenty calls in a reduce-until-stable loop), R(3) over GF(3), a QQ
    conftest ideal, and the relation engine of R(3)'s obstruction check."""
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
    search.random_candidate(search.CandidateShape(4, 2, 3), 12)
    assert calls == [[10, 10]]
    r3, _ = build_R(3, field=GF(3))  # M(3), then R(3)
    random_zero_dim_ideal(rng_for(7028), field=QQ)
    relation_syzygy_engine(Presentation.of_ideal(r3), ArtinianQuotient(r3),
                           floor=0)
    assert len(calls) == 5 and all(kept > 1 for _, kept in calls)
    assert all(n == kept for n, kept in calls), calls
