import pytest

from conftest import nonzero_coordinates, random_zero_dim_ideal, rng_for
from hilbcert.artinian import ArtinianQuotient, FiniteModule
from hilbcert.certify import (
    Check,
    TNTData,
    derive_verdict,
    dimension_formulas,
    elementary_certificate,
    fingerprint,
    pair_certificate,
    tnt_check,
)
from hilbcert.fields import GF, QQ
from hilbcert.gallery import build_M, build_R
from hilbcert.groebner import IdealPresentation
from hilbcert.homology import Presentation, hom_space, relation_syzygy_engine
from hilbcert.modules import FreeModule
from hilbcert.parsing import parse_polynomial
from hilbcert.rings import GradedRing

F101 = GF(101)


def _ideal(gens_text, names=("x", "y"), field=QQ, weights=None):
    ring = GradedRing(list(names), weights, field)
    return IdealPresentation(
        ring, [parse_polynomial(t, ring) for t in gens_text]
    )


def _fat_point(n, e, field=QQ):
    names = ["x", "y", "z"][:n]
    ring = GradedRing(names, None, field)
    gens = [ring.monomial(m) for m in ring.monomials_of_degree(e)]
    return IdealPresentation(ring, gens)


# -- negative controls ------------------------------------------------------


def test_x2_y2_not_tnt():
    result, payload = tnt_check(_ideal(("x^2", "y^2")))
    assert result == "false"
    assert payload["dim_hom_negative"] > payload["n_variables"]


def test_maximal_ideal_square_not_tnt():
    result, _ = tnt_check(_ideal(("x^2", "x*y", "y^2")))
    assert result == "false"


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("e", [2, 3])
def test_fat_points_not_tnt(n, e):
    result, _ = tnt_check(_fat_point(n, e))
    assert result == "false"
    cert = elementary_certificate(_fat_point(n, e))
    assert cert.verdict == "not-TNT"
    assert cert.dimension is None


# -- verdict logic ----------------------------------------------------------


def test_verdict_rederivable_from_checks():
    for ideal in (_ideal(("x^2", "y^2")), build_R(2)[0]):
        cert = elementary_certificate(ideal)
        assert cert.rederive_verdict() == cert.verdict


def test_verdict_table():
    tnt_true = Check("trivial-negative-tangents", {"result": "true"}, True)
    tnt_false = Check("trivial-negative-tangents", {"result": "false"}, False)
    tnt_inc = Check(
        "trivial-negative-tangents", {"result": "inconclusive"}, False
    )
    ok = lambda name: Check(name, {}, True)
    bad = lambda name: Check(name, {}, False)
    assert derive_verdict([tnt_false]) == "not-TNT"
    assert derive_verdict([tnt_inc]) == "inconclusive"
    assert derive_verdict([tnt_true]) == "TNT-elementary"
    assert (
        derive_verdict([tnt_true, ok("obstruction-vanishing")])
        == "smooth-elementary"
    )
    assert (
        derive_verdict([tnt_true, bad("obstruction-vanishing")])
        == "TNT-elementary"
    )
    pair = [
        tnt_true,
        ok("base-smoothness-hypothesis"),
        ok("tangent-restriction-surjective"),
        ok("obstruction-restriction-surjective"),
    ]
    assert derive_verdict(pair) == "relative-smooth-elementary"
    assert (
        derive_verdict(pair[:-1] + [bad("obstruction-restriction-surjective")])
        == "inconclusive"
    )
    assert derive_verdict([]) == "inconclusive"


def test_exit_relevant_payloads_are_exact():
    cert = elementary_certificate(build_R(2)[0])
    assert cert.verdict == "smooth-elementary"
    assert cert.dimension == 25
    d = cert.as_dict()
    assert d["check_trivial-negative-tangents_dim_hom"] == 25
    assert isinstance(d["dimension"], int)


# -- invariance of verdicts -------------------------------------------------


def test_verdict_invariant_under_scalar_rescaling():
    for seed in range(3):
        ideal = random_zero_dim_ideal(rng_for(800 + seed), homogeneous=True)
        f = ideal.ring.field
        scaled = IdealPresentation(
            ideal.ring,
            [g.scale(f.of(3 + k)) for k, g in enumerate(ideal.gens)],
        )
        assert (
            elementary_certificate(ideal).verdict
            == elementary_certificate(scaled).verdict
        )


def test_verdict_invariant_under_variable_permutation():
    base = build_R(2)[0]
    ring = base.ring
    perm = [1, 0, 3, 2]  # swap within each plane pair: a symmetry of R(2)
    permuted_ring = GradedRing(list(ring.variables), None, ring.field)
    gens = []
    for g in base.gens:
        terms = {}
        for e, c in g.terms.items():
            pe = tuple(e[perm[i]] for i in range(len(perm)))
            terms[pe] = c
        gens.append(permuted_ring.poly(terms))
    permuted = IdealPresentation(permuted_ring, gens)
    a = elementary_certificate(base)
    b = elementary_certificate(permuted)
    assert a.verdict == b.verdict
    assert a.dimension == b.dimension


# -- pair criteria ----------------------------------------------------------


def test_pair_requires_base_hypothesis():
    m = build_M(2)
    r = build_R(2)[0]
    without = pair_certificate(m, r)
    assert without.verdict == "inconclusive"
    asserted = pair_certificate(m, r, m_smooth_assertion=True)
    assert asserted.verdict == "relative-smooth-elementary"
    assert asserted.dimension == 25
    via_product = pair_certificate(m, r, product_degrees=(3, 3))
    assert via_product.verdict == "relative-smooth-elementary"


def test_pair_product_hypothesis_must_match():
    m = build_M(2)
    r = build_R(2)[0]
    wrong = pair_certificate(m, r, product_degrees=(2, 3))
    assert not wrong.check("base-smoothness-hypothesis").passed
    assert wrong.verdict == "inconclusive"


# -- support and errors -----------------------------------------------------


def test_not_supported_at_origin_rejected():
    with pytest.raises(ValueError):
        tnt_check(_ideal(("x^2 - x", "y")))


def test_fingerprint_stability():
    a = fingerprint(_ideal(("x^2", "y^2")))
    b = fingerprint(_ideal(("x^2", "y^2")))
    c = fingerprint(_ideal(("x^2", "y^3")))
    assert a == b
    assert a["ideal_hash"] != c["ideal_hash"]


def test_dimension_formulas():
    for e in range(2, 11):
        out = dimension_formulas(e)
        assert out["dimension"] == e**4 + 2 * e**3 - 4 * e + 1
    assert dimension_formulas(2)["deg_R"] == 8
    with pytest.raises(ValueError):
        dimension_formulas(1)


# -- work done once ---------------------------------------------------------


def test_translation_check_reads_the_hom_relations():
    """The translations are checked against the relations the Hom was
    computed on: a relation that is not a syzygy of the generators (a
    generator's basis vector) trips the check."""
    ideal, _ = build_R(2, field=GF(3))
    q = ArtinianQuotient(ideal)
    hom = hom_space(Presentation.of_ideal(ideal), q)
    assert TNTData(ideal, hom).result == "true"
    free = FreeModule(ideal.ring, ideal.gen_degrees)
    pres = Presentation(ideal.ring, ideal.gen_degrees,
                        list(ideal.syzygies) + [free.basis_vector(0)])
    with pytest.raises(AssertionError, match="translation map violates"):
        TNTData(ideal, hom_space(pres, q))


@pytest.mark.parametrize("e", [2, 3])
def test_certificate_builds_each_action_once(e, monkeypatch):
    """One action matrix per nonzero coordinate of each relation: the
    syzygies of I (shared by Hom(I, S/I), the translation check and the
    restrictions into Hom(syzygies, S/I)) and the syzygies among them that
    the obstruction check's window keeps."""
    ideal, _ = build_R(e, field=GF(3))
    q = ArtinianQuotient(ideal)
    engine = relation_syzygy_engine(Presentation.of_ideal(ideal), q, floor=0)
    expected = (nonzero_coordinates(ideal.syzygies)
                + nonzero_coordinates(engine.syzygies))
    calls = []
    poly_matrix = FiniteModule.poly_matrix

    def counted(self, p):
        calls.append(p)
        return poly_matrix(self, p)

    monkeypatch.setattr(FiniteModule, "poly_matrix", counted)
    cert = elementary_certificate(ideal)
    assert cert.verdict == "smooth-elementary"
    assert len(calls) == expected
