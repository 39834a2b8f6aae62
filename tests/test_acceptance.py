"""Acceptance gate: the ten primary criteria, each with exact expected
values (zero tolerance) and the stated wall-clock budget, and next to
criterion 10 the computed e=4 pair of the paper's family (10b).  Each test
prints one PASS line; any assertion failure marks the criterion failed."""

import time
from collections import Counter

from conftest import random_zero_dim_ideal, rng_for
from hilbcert.artinian import ArtinianQuotient
from hilbcert.certify import (
    dimension_formulas,
    elementary_certificate,
    pair_certificate,
    tnt_check,
)
from hilbcert.fields import GF, QQ
from hilbcert.gallery import (
    build_entry,
    build_M,
    build_R,
    groebner_fan_matrix,
    verify,
)
from hilbcert.groebner import IdealPresentation
from hilbcert.homology import (
    Presentation,
    diagram_maps,
    ext1_space,
    hom_nonneg_filtration,
    hom_space,
    t2_space,
)
from hilbcert.linalg import det
from hilbcert.rings import GradedRing

import oracle


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_01_r2():
    t0 = time.perf_counter()
    ideal, general = build_R(2)
    assert general
    quotient = ArtinianQuotient(ideal)
    assert quotient.hilbert_function() == [1, 4, 3]
    hom = hom_space(Presentation.of_ideal(ideal), quotient)
    assert hom.total_dim() == 25
    assert hom.dim_negative() == 4
    result, _ = tnt_check(ideal)
    assert result == "true"
    cert = pair_certificate(build_M(2), ideal, product_degrees=(3, 3))
    assert cert.dimension == 25 == 2**4 + 2 * 2**3 - 4 * 2 + 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    _report(1, f"R(2): HF 1+4T+3T^2, Hom 25/negative 4, pair dimension 25 "
               f"({elapsed:.2f}s)")


def test_criterion_02_r3():
    t0 = time.perf_counter()
    ideal, general = build_R(3)
    assert general
    quotient = ArtinianQuotient(ideal)
    assert quotient.hilbert_function() == [1, 4, 10, 12, 8]
    hom = hom_space(Presentation.of_ideal(ideal), quotient)
    assert hom.series() == "4T^-1+56+64T"
    assert hom.total_dim() == 124
    cert = pair_certificate(build_M(3), ideal, product_degrees=(6, 6))
    terms = cert.check("relative-dimension").payload
    assert terms["n"] == 4
    assert terms["dim_hom_mm_nonneg"] == 120
    assert terms["dim_ext1_j_nonneg"] == 0
    assert terms["dim_hom_j_nonneg"] == 8
    assert terms["dim_hom_mj_nonneg"] == 8
    assert cert.dimension == 4 + 120 - 0 + 8 - 8 == 124
    assert cert.dimension == 3**4 + 2 * 3**3 - 4 * 3 + 1
    tangent = cert.check("tangent-restriction-surjective").payload
    obstruction = cert.check("obstruction-restriction-surjective").payload
    assert tangent["surjective_all"] is True
    assert obstruction["psi_surjective_all"] is True
    assert obstruction["surjective_nonneg"] is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    _report(2, f"R(3): Hom 4T^-1+56+64T, pair dimension 4+120-0+8-8=124, "
               f"restriction maps surjective ({elapsed:.2f}s)")


def test_criterion_03_me_tangents():
    t0 = time.perf_counter()
    for e in (2, 3):
        ideal = build_M(e)
        quotient = ArtinianQuotient(ideal)
        hom = hom_space(Presentation.of_ideal(ideal), quotient)
        expected = 4 * (e * (e + 1) // 2) ** 2
        assert hom.total_dim() == expected
        assert hom.dims().get(-1, 0) == 2 * e * (e + 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    _report(3, f"M(e) tangents 4*binom(e+1,2)^2 and degree-(-1) piece "
               f"2e(e+1) for e=2,3 ({elapsed:.2f}s)")


def test_criterion_04_degree56_example():
    t0 = time.perf_counter()
    spec = build_entry("naive56")
    ideal = spec.ideal
    quotient = ArtinianQuotient(ideal)
    assert quotient.dim == 56
    hom = hom_space(Presentation.of_ideal(ideal), quotient)
    assert hom.series() == "4T^-1+98+84T+32T^2"
    ext1 = ext1_space(ideal, quotient)
    assert ext1.series() == "60T^-3+204T^-2+60T^-1"
    assert ext1.dim_nonneg() == 0
    cert = elementary_certificate(ideal)
    assert cert.verdict == "smooth-elementary"
    assert cert.dimension == 218
    counts = Counter(s.degree() for s in ideal.syzygies)
    assert counts == oracle.minimal_syzygy_degrees(ideal.ring, ideal.gens, 8) \
        == {6: 16, 7: 4}
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.2f}s exceeds 120s"
    _report(4, f"degree-56 example over GF(2): smooth-elementary of "
               f"dimension 218, syzygies 16 in degree 6 and 4 in degree 7 "
               f"({elapsed:.2f}s)")


def test_criterion_05_groebner_fan_family():
    t0 = time.perf_counter()
    field = GF(3)
    for t in (0, 1, 2):
        assert det(groebner_fan_matrix(t, field), field) == field.of(t)
    r1 = build_entry("groebnerfan", t=1).ideal
    result, _ = tnt_check(r1)
    assert result == "true"
    cert = elementary_certificate(r1)
    assert cert.dimension == 124
    r0 = build_entry("groebnerfan", t=0).ideal
    result0, _ = tnt_check(r0)
    assert result0 == "false"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    _report(5, f"matrix family over GF(3): det=t for t=0,1,2; t=1 gives "
               f"dimension 124, t=0 fails the tangent test ({elapsed:.2f}s)")


def test_criterion_06_weighted_grading_sensitivity():
    t0 = time.perf_counter()
    spec = build_entry("weighted_counterexample")
    result_weighted, _ = tnt_check(spec.ideal)
    assert result_weighted == "false"
    result_standard, _ = tnt_check(spec.companion["standard"])
    assert result_standard == "true"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report(6, f"weights (3,1,3,1) flip the tangent test from true to false "
               f"({elapsed:.2f}s)")


def test_criterion_07_oracle_equivalence():
    corpus = []
    seed = 0
    while len(corpus) < 30:
        seed += 1
        ideal = random_zero_dim_ideal(rng_for(9000 + seed), homogeneous=True)
        quotient = ArtinianQuotient(ideal)
        if quotient.dim <= 12:
            corpus.append((ideal, quotient))
    for ideal, quotient in corpus:
        hom = hom_space(Presentation.of_ideal(ideal), quotient)
        lo = -max(ideal.gen_degrees) - 1
        expected = oracle.hom_dims(
            ideal.ring, ideal.gens, lo, quotient.socle_degree()
        )
        expected = {d: v for d, v in expected.items() if v}
        assert hom.dims() == expected
        assert hom.total_dim() == sum(expected.values())
    _report(7, f"Hom dimensions match the brute-force oracle on "
               f"{len(corpus)} random zero-dimensional ideals over GF(101)")


def test_criterion_08_property_suite():
    # syzygy evaluation and basis idempotence
    for seed in range(5):
        ideal = random_zero_dim_ideal(rng_for(100 + seed),
                                      homogeneous=(seed % 2 == 0))
        for s in ideal.syzygies:
            total = ideal.ring.zero
            for q, g in zip(s.coordinates(), ideal.gens):
                total = total + q * g
            assert total.is_zero()
        again = IdealPresentation(ideal.ring, list(ideal.gb))
        assert sorted(str(g.monic()) for g in again.gb) == sorted(
            str(g.monic()) for g in ideal.gb
        )
    # obstruction subspace sits degreewise inside Ext^1
    for seed in range(3):
        ideal = random_zero_dim_ideal(rng_for(700 + seed), homogeneous=True)
        quotient = ArtinianQuotient(ideal)
        ext1 = ext1_space(ideal, quotient)
        t2 = t2_space(ideal, ext1)
        for d, v in t2.dims.items():
            assert 0 <= v <= ext1.dims.get(d, 0)
    # exact-sequence dimension bookkeeping for the nested pair
    dm = diagram_maps(build_M(2), build_R(2)[0])
    assert dm.exactness_ok
    # cutoff stability on non-homogeneous samples
    checked = 0
    seed = 0
    while checked < 10:
        seed += 1
        ideal = random_zero_dim_ideal(rng_for(600 + seed), homogeneous=False)
        if ideal.homogeneous:
            continue
        quotient = ArtinianQuotient(ideal)
        if not quotient.has_nilpotent_action():
            continue
        hom = hom_space(Presentation.of_ideal(ideal), quotient)
        start = quotient.filtration_start()
        d0, _ = hom_nonneg_filtration(ideal, quotient, hom, start=start)
        d1, _ = hom_nonneg_filtration(ideal, quotient, hom, start=start + 1)
        assert d0 == d1
        checked += 1
    # verdicts are invariant under rescaling and variable permutation
    base = build_R(2)[0]
    f = base.ring.field
    scaled = IdealPresentation(
        base.ring, [g.scale(f.of(k + 2)) for k, g in enumerate(base.gens)]
    )
    perm = [1, 0, 3, 2]
    permuted = IdealPresentation(
        base.ring,
        [
            base.ring.poly(
                {tuple(e[perm[i]] for i in range(4)): c
                 for e, c in g.terms.items()}
            )
            for g in base.gens
        ],
    )
    ref = elementary_certificate(base)
    for variant in (scaled, permuted):
        cert = elementary_certificate(variant)
        assert cert.verdict == ref.verdict
        assert cert.dimension == ref.dimension
    _report(8, "property suite: syzygy evaluation, basis idempotence, "
               "obstruction/Ext containment, pair exactness bookkeeping, "
               "cutoff stability, verdict invariance")


def test_criterion_09_negative_controls():
    ring2 = GradedRing(["x", "y"], None, QQ)
    x, y = ring2.gens()
    for gens in ([x**2, y**2], [x**2, x * y, y**2]):
        result, _ = tnt_check(IdealPresentation(ring2, gens))
        assert result == "false"
    for n in (2, 3):
        names = ["x", "y", "z"][:n]
        ring = GradedRing(names, None, QQ)
        for e in (2, 3):
            gens = [ring.monomial(m) for m in ring.monomials_of_degree(e)]
            result, _ = tnt_check(IdealPresentation(ring, gens))
            assert result == "false"
    _report(9, "smoothable controls (x^2,y^2), (x,y)^2, and fat points "
               "m^e (n=2,3; e=2,3) all fail the tangent test")


def test_criterion_10_dimension_identity():
    for e in range(2, 11):
        binom = e * (e + 1) // 2
        assert 4 * (binom**2 - 1) - (e - 1) * (e + 5) == (
            e**4 + 2 * e**3 - 4 * e + 1
        )
        assert dimension_formulas(e)["dimension"] == (
            e**4 + 2 * e**3 - 4 * e + 1
        )
    _report(10, "dimension identity 4(binom(e+1,2)^2-1)-(e-1)(e+5) = "
                "e^4+2e^3-4e+1 for e=2..10")


def test_family_e4_pair_computed():
    """The paper's family at e=4, computed rather than stated: the gallery
    entry's relative criterion gives the formula's dimension 369 with every
    restriction surjective, and every other record matches.  The budget is
    five times the slowest time measured for it (0.8 s)."""
    t0 = time.perf_counter()
    spec = build_entry("re", e=4)
    assert spec.expected["pair_dimension"] == dimension_formulas(4)["dimension"] == 369
    assert spec.expected["pair_surjectivity"] is True
    results = verify(spec)
    assert results["all_match"], results
    assert results["pair_dimension"]["actual"] == 369
    elapsed = time.perf_counter() - t0
    assert elapsed < 4.0, f"runtime {elapsed:.2f}s exceeds 4s"
    _report("10b", f"re e=4: pair dimension 369 = formula, surjective, all "
                   f"records match ({elapsed:.2f}s)")
