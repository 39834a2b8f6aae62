import itertools

import pytest

from conftest import random_poly, random_zero_dim_ideal, rng_for
from hilbcert.artinian import ArtinianQuotient, submodule
from hilbcert.fields import GF, QQ
from hilbcert.groebner import IdealPresentation
from hilbcert.homology import (
    Presentation,
    actions,
    evaluate,
    ext1_space,
    hom_nonneg_filtration,
    hom_space,
    image_matrix,
    t2_space,
)
from hilbcert.linalg import rank
from hilbcert.parsing import parse_polynomial
from hilbcert.rings import GradedRing

import loop_reference
import oracle

F101 = GF(101)
FIELDS = [GF(2), GF(3), F101, QQ]


def _ideal(gens_text, names=("x", "y"), field=QQ, weights=None):
    ring = GradedRing(list(names), weights, field)
    return IdealPresentation(
        ring, [parse_polynomial(t, ring) for t in gens_text]
    )


def test_hom_x2_y2_matches_oracle():
    ideal = _ideal(("x^2", "y^2"), field=F101)
    q = ArtinianQuotient(ideal)
    hom = hom_space(Presentation.of_ideal(ideal), q)
    expected = oracle.hom_dims(ideal.ring, ideal.gens, -3, 3)
    expected = {d: v for d, v in expected.items() if v}
    assert hom.dims() == expected


def test_graded_and_ungraded_hom_agree():
    """The per-degree kernels and the single ungraded kernel span the same
    space of generator images."""
    for field, seed in itertools.product(FIELDS, range(5)):
        ideal = random_zero_dim_ideal(rng_for(400 + seed), field=field,
                                      homogeneous=True)
        q = ArtinianQuotient(ideal)
        pres = Presentation.of_ideal(ideal)
        graded = hom_space(pres, q)
        assert graded.graded
        ungraded_pres = Presentation(
            pres.ring, pres.gen_degrees, pres.relations, homogeneous=False
        )
        ungraded = hom_space(ungraded_pres, q)
        assert not ungraded.graded
        assert {h.degree for h in ungraded.elements} <= {None}
        width = pres.rank * q.dim
        a, b = graded.flat_rows(), ungraded.flat_rows()
        assert rank(a + b, width, field) == rank(a, width, field) == \
            rank(b, width, field) == len(a) == len(b)


@pytest.mark.parametrize("field", FIELDS)
def test_batched_evaluate_matches_per_hom_loop(field):
    """`evaluate` applied to a batch of homs gives, column by column, what
    the per-hom loop gives: on the Hom basis, on random images and on an
    empty batch, for the zero vector, syzygies and random vectors."""
    nonzero = 0
    for seed in range(1, 9):
        rng = rng_for(8000 + seed)
        ideal = random_zero_dim_ideal(rng, field=field,
                                      homogeneous=seed % 2 == 0)
        q = ArtinianQuotient(ideal)
        ring = ideal.ring
        r = len(ideal.gens)
        hom = hom_space(Presentation.of_ideal(ideal), q)
        random_images = [[[field.of(rng.randrange(7)) for _ in range(q.dim)]
                          for _ in range(r)] for _ in range(3)]
        batches = [[h.images for h in hom.elements], random_images, []]
        vectors = [[ring.zero] * r]
        vectors += [s.coordinates() for s in ideal.syzygies[:3]]
        vectors += [[ring.zero if rng.random() < 0.3 else random_poly(ring, rng)
                     for _ in range(r)] for _ in range(4)]
        for polys in vectors:
            action = actions(polys, q)
            for batch in batches:
                flat = [[x for v in images for x in v] for images in batch]
                values = evaluate(action, image_matrix(flat), q)
                assert len(values) == q.dim
                assert all(len(row) == len(batch) for row in values)
                for i, images in enumerate(batch):
                    expected = loop_reference.evaluate_polys(polys, images, q)
                    assert [row[i] for row in values] == expected
                    nonzero += any(x != field.zero for x in expected)
    assert nonzero > 0


def test_filtration_equals_graded_on_homogeneous():
    for seed in range(5):
        ideal = random_zero_dim_ideal(rng_for(500 + seed), homogeneous=True)
        q = ArtinianQuotient(ideal)
        hom = hom_space(Presentation.of_ideal(ideal), q)
        dim_filtration, _ = hom_nonneg_filtration(ideal, q, hom)
        assert dim_filtration == hom.dim_nonneg()


def test_cutoff_stability_non_homogeneous():
    """The filtration dimension is independent of the cutoff degree on a
    batch of non-homogeneous inputs."""
    checked = 0
    seed = 0
    while checked < 10:
        seed += 1
        ideal = random_zero_dim_ideal(rng_for(600 + seed), homogeneous=False)
        if ideal.homogeneous:
            continue
        q = ArtinianQuotient(ideal)
        if not q.has_nilpotent_action():
            continue
        hom = hom_space(Presentation.of_ideal(ideal), q)
        start = q.filtration_start()
        d0, _ = hom_nonneg_filtration(ideal, q, hom, start=start)
        d1, _ = hom_nonneg_filtration(ideal, q, hom, start=start + 1)
        d2, _ = hom_nonneg_filtration(ideal, q, hom, start=start + 2)
        assert d0 == d1 == d2
        checked += 1


def test_ext1_complete_intersection():
    # for I = (x^2, y^2): Ext^1(I, S/I) has the Koszul shape, total 4,
    # concentrated in degrees -4..-2
    ideal = _ideal(("x^2", "y^2"), field=F101)
    q = ArtinianQuotient(ideal)
    ext1 = ext1_space(ideal, q)
    assert ext1.dims == {-4: 1, -3: 2, -2: 1}
    assert ext1.dim_nonneg() == 0


def test_t2_vanishes_for_complete_intersection():
    ideal = _ideal(("x^2", "y^3"), field=F101)
    q = ArtinianQuotient(ideal)
    t2 = t2_space(ideal, ext1_space(ideal, q))
    assert t2.dims == {}


def test_t2_within_ext1_degreewise():
    for seed in range(4):
        ideal = random_zero_dim_ideal(rng_for(700 + seed), homogeneous=True)
        ext1 = ext1_space(ideal, ArtinianQuotient(ideal))
        t2 = t2_space(ideal, ext1)
        for d, v in t2.dims.items():
            assert 0 <= v <= ext1.dims.get(d, 0)


def test_t2_requires_homogeneous():
    ideal = _ideal(("x^2 - y", "y^2"))
    ext1 = ext1_space(ideal, ArtinianQuotient(ideal))
    with pytest.raises(ValueError):
        t2_space(ideal, ext1)


def test_t2_against_a_larger_ideal_matches_reference():
    """S/J with I inside J: the classes' values on the trivial syzygies
    still ignore the representative, so one rank per degree gives what the
    image-inclusive reference gives."""
    ring = GradedRing(["x", "y"], None, F101)
    x, y = ring.gens()
    ideal = IdealPresentation(ring, [x**3, x * y, y**3])
    target = ArtinianQuotient(IdealPresentation(ring, [x**2, x * y, y**2]))
    ext1 = ext1_space(ideal, target)
    assert ext1.dims == {-4: 2, -3: 2}
    t2 = t2_space(ideal, ext1)
    assert t2.dims == {-3: 2}
    assert t2.dims == loop_reference.t2_dims(ideal, target, ext1,
                                             ext1.rel_engine)


def test_t2_needs_a_target_the_ideal_kills():
    ring = GradedRing(["x", "y"], None, F101)
    x, y = ring.gens()
    ideal = IdealPresentation(ring, [x**2, y**2])
    # S/J with I outside J
    target = ArtinianQuotient(IdealPresentation(ring, [x**3, x * y, y**3]))
    with pytest.raises(ValueError, match="S/J with the ideal inside J"):
        t2_space(ideal, ext1_space(ideal, target))
    # a module I kills that is no quotient: the maximal ideal of S/I
    q = ArtinianQuotient(ideal)
    closure, _ = submodule(q, [q.poly_vector(x), q.poly_vector(y)])
    assert closure.dim == q.dim - 1
    with pytest.raises(ValueError, match="S/J with the ideal inside J"):
        t2_space(ideal, ext1_space(ideal, closure))


def _weighted_211_ideals():
    """Zero-dimensional ideals in x, y, z of weights (2, 1, 1): pure powers
    plus random weighted forms, over each field."""
    out = []
    for seed in (1, 2, 5, 7, 8, 10):
        field = FIELDS[seed % 4]
        rng = rng_for(7100 + seed)
        ring = GradedRing(["x", "y", "z"], (2, 1, 1), field)
        x, y, z = ring.gens()
        gens = [x**2, y**rng.randint(2, 3), z**rng.randint(2, 3)]
        gens += [random_poly(ring, rng, homogeneous=True)
                 for _ in range(rng.randint(1, 2))]
        out.append(IdealPresentation(ring, gens))
    return out


def test_t2_matches_reference_on_weighted_ideals():
    nonzero = nonneg = 0
    for ideal in _weighted_211_ideals():
        assert ideal.homogeneous
        q = ArtinianQuotient(ideal)
        for floor in (None, 0):
            ext1 = ext1_space(ideal, q, floor)
            t2 = t2_space(ideal, ext1)
            assert t2.dims == loop_reference.t2_dims(ideal, q, ext1,
                                                     ext1.rel_engine)
            nonzero += bool(t2.dims)
            nonneg += floor == 0 and bool(ext1.dims)
    assert nonzero >= 3 and nonneg >= 2


def test_hom_respects_scalar_change_of_generators():
    base = _ideal(("x^2", "x*y", "y^2"), field=F101)
    ring = base.ring
    f = ring.field
    scaled_gens = [g.scale(f.of(k + 2)) for k, g in enumerate(base.gens)]
    scaled = IdealPresentation(ring, scaled_gens)
    q1 = ArtinianQuotient(base)
    q2 = ArtinianQuotient(scaled)
    h1 = hom_space(Presentation.of_ideal(base), q1)
    h2 = hom_space(Presentation.of_ideal(scaled), q2)
    assert h1.dims() == h2.dims()


@pytest.mark.parametrize("field", FIELDS)
def test_ext1_and_t2_match_greedy_rank_loop(field):
    ungraded = partial = 0
    # seed 28 has degrees with 0 < dim T^2_d < dim Ext^1_d over every field
    for seed in [*range(1, 13), 28]:
        ideal = random_zero_dim_ideal(rng_for(7000 + seed), field=field,
                                      homogeneous=seed % 2 == 0)
        q = ArtinianQuotient(ideal)
        ext1 = ext1_space(ideal, q)
        expected = loop_reference.ext1_representatives(ideal, ext1)
        assert [(d, id(h)) for d, h in ext1.representatives] == [
            (d, id(h)) for d, h in expected
        ], str(ideal.gens)
        if not ideal.homogeneous:
            ungraded += 1
            continue
        t2 = t2_space(ideal, ext1)
        assert t2.dims == loop_reference.t2_dims(ideal, q, ext1, ext1.rel_engine)
        partial += any(0 < v < ext1.dims[d] for d, v in t2.dims.items())
    assert ungraded >= 2
    assert partial


def test_ext1_series_needs_grading():
    for seed in (7001, 7003):
        ideal = random_zero_dim_ideal(rng_for(seed), homogeneous=False)
        ext1 = ext1_space(ideal, ArtinianQuotient(ideal))
        assert not ext1.graded and ext1.total_dim() > 0
        with pytest.raises(ValueError, match="ext1 space is not graded"):
            ext1.series()


@pytest.mark.parametrize("field", FIELDS)
def test_filtration_matches_per_element_loop(field):
    for seed in range(2, 7):
        ideal = random_zero_dim_ideal(rng_for(3000 + seed), field=field,
                                      homogeneous=False)
        q = ArtinianQuotient(ideal)
        hom = hom_space(Presentation(ideal.ring, ideal.gen_degrees,
                                     ideal.syzygies, homogeneous=False), q)
        for start in (None, q.filtration_start() + 1):
            assert hom_nonneg_filtration(ideal, q, hom, start=start) == \
                loop_reference.hom_nonneg_filtration(ideal, q, hom, start=start)
