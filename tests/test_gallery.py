from collections import Counter

import pytest

from hilbcert.artinian import ArtinianQuotient
from hilbcert.fields import GF, QQ
from hilbcert.gallery import (
    build_entry,
    build_M,
    build_R,
    verify,
)
from hilbcert.groebner import IdealPresentation
from hilbcert.parsing import parse_ideal_file

import oracle


def test_build_m_degree():
    assert ArtinianQuotient(build_M(2)).dim == 9
    assert ArtinianQuotient(build_M(3)).dim == 36


def test_build_r_degree_and_generality():
    ideal, general = build_R(2)
    assert general
    assert ArtinianQuotient(ideal).dim == 8
    singular, general2 = build_R(2, c=[[1, 0], [0, 0]])
    assert not general2


def test_me_entry_verifies():
    assert verify(build_entry("me", e=2))["all_match"]


def test_re2_entry_verifies():
    assert verify(build_entry("re", e=2))["all_match"]


def test_cevv143_alias():
    spec = build_entry("cevv143")
    assert spec.expected["degree"] == 8


def test_weighted_counterexample_verifies():
    assert verify(build_entry("weighted_counterexample"))["all_match"]


def test_groebner_fan_t0_verifies():
    res = verify(build_entry("groebnerfan", t=0))
    assert res["all_match"]
    assert res["tnt"]["actual"] == "false"


@pytest.mark.parametrize("name, kwargs, quotients", [
    ("re", {"e": 2}, 3), ("cevv143", {}, 3), ("naive56", {}, 1),
    ("groebnerfan", {"t": 1}, 1),
])
def test_verify_builds_one_quotient_for_its_elementary_records(
        name, kwargs, quotients, monkeypatch):
    """The S/I and Hom(I, S/I) of verify's own records serve its elementary
    certificate too; the `re` entries' pair certificate builds S/I_M and
    S/I_R once more each."""
    built = []
    init = ArtinianQuotient.__init__

    def counted(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(ArtinianQuotient, "__init__", counted)
    assert verify(build_entry(name, **kwargs))["all_match"]
    assert len(built) == quotients


def test_unknown_entry():
    with pytest.raises(KeyError):
        build_entry("nope")


def test_ideal_file_round_trip_preserves_certificate():
    spec = build_entry("re", e=2)
    text = spec.ideal_file().to_text()
    f = parse_ideal_file(text)
    again = IdealPresentation(f.ring, f.generators)
    from hilbcert.certify import elementary_certificate

    a = elementary_certificate(spec.ideal)
    b = elementary_certificate(again)
    assert a.verdict == b.verdict
    assert a.dimension == b.dimension
    assert a.fingerprint["ideal_hash"] == b.fingerprint["ideal_hash"]


def test_minimal_syzygy_degrees_complete_intersection():
    # complete intersection (x^2, y^3): one syzygy, in degree 5
    from hilbcert.parsing import parse_polynomial
    from hilbcert.rings import GradedRing

    ring = GradedRing(["x", "y"], None, QQ)
    ideal = IdealPresentation(
        ring,
        [parse_polynomial("x^2", ring), parse_polynomial("y^3", ring)],
    )
    assert oracle.minimal_syzygy_degrees(ring, ideal.gens, 6) == {5: 1}
    # the presentation's own syzygies are minimal: same degrees as the
    # independent linear-algebra count
    naive = build_entry("naive56").ideal
    for presented, top, want in ((ideal, 6, {5: 1}),
                                 (naive, 8, {6: 16, 7: 4})):
        counts = Counter(s.degree() for s in presented.syzygies)
        assert counts == oracle.minimal_syzygy_degrees(
            presented.ring, presented.gens, top) == want


def test_verify_reports_mismatch():
    spec = build_entry("me", e=2)
    spec.expected["dim_hom"] = 1  # deliberately wrong
    res = verify(spec)
    assert not res["all_match"]
    assert not res["dim_hom"]["match"]
    assert res["dim_hom"]["actual"] == 36
