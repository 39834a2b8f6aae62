"""Ext^1(I, S/I) and its obstruction classes in a window of hom degrees.

`ext1_space(ideal, quotient, floor=f)` computes only the degrees d >= f,
from the first syzygies of degree <= top - f and a relation engine capped
there (top is the quotient's top degree).  The full space is the same code
with the lowest possible floor.  Both are checked against the brute-force
`oracle.ext1_dims`, which uses no Groebner basis, on seeded ideals over
GF(2), GF(3), GF(101) and QQ, including ideals whose Ext^1 in degrees >= 0
is nonzero.
"""

import pytest

from conftest import random_zero_dim_ideal, rng_for
from hilbcert import homology
from hilbcert.artinian import ArtinianQuotient
from hilbcert.certify import elementary_certificate
from hilbcert.fields import GF, QQ
from hilbcert.gallery import bilinear_form, build_M, build_R, groebner_fan_matrix
from hilbcert.groebner import IdealPresentation
from hilbcert.homology import ext1_space, t2_space

import oracle

FIELDS = {"GF2": GF(2), "GF3": GF(3), "GF101": GF(101), "QQ": QQ}


def _nonzero(dims):
    return {d: v for d, v in dims.items() if v}


def _conftest_ideals(field, seed, count):
    return [random_zero_dim_ideal(rng_for(seed + k), field=field)
            for k in range(count)]


def _nonneg_ideals(field):
    """Ideals whose Ext^1 in degrees >= 0 is nonzero: R(3) with a singular
    matrix, M(3), and over GF(3) the not-TNT control (t = 0)."""
    out = [build_R(3, [[1, 1, 1]] * 3, field)[0], build_M(3, field)]
    if field == GF(3):
        m = build_M(3, field)
        s = bilinear_form(m.ring, 3, groebner_fan_matrix(0, field))
        out.append(IdealPresentation(m.ring, list(m.gens) + [s]))
    return out


def _oracle_nonneg(ideal):
    top = ArtinianQuotient(ideal).socle_degree()
    return _nonzero(oracle.ext1_dims(ideal.ring, ideal.gens, 0, top))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_full_ext1_matches_oracle(name):
    """The full window, one degree below the lowest one computed included,
    on conftest ideals and on R(2), M(2) (nonzero in degrees -3..-1)."""
    field = FIELDS[name]
    ideals = _conftest_ideals(field, 1200, 4)
    ideals += [build_R(2, [[1, 2], [3, -1]], field)[0], build_M(2, field)]
    for ideal in ideals:
        q = ArtinianQuotient(ideal)
        ext1 = ext1_space(ideal, q)
        lowest = min(q.degrees) - max(s.degree() for s in ideal.syzygies)
        assert ext1.floor == lowest
        # one degree below the window for the finite fields; over QQ that
        # degree costs the oracle seconds
        below = 1 if field.char else 0
        expected = oracle.ext1_dims(ideal.ring, ideal.gens, lowest - below,
                                    q.socle_degree())
        assert ext1.dims == _nonzero(expected), str(ideal.gens)
        assert ext1.dims


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_nonneg_ext1_matches_oracle(name):
    field = FIELDS[name]
    nonzero = 0
    for ideal in _conftest_ideals(field, 1300, 6) + _nonneg_ideals(field):
        windowed = ext1_space(ideal, ArtinianQuotient(ideal), floor=0)
        assert windowed.floor == 0
        assert windowed.dims == _oracle_nonneg(ideal), str(ideal.gens)
        nonzero += bool(windowed.dims)
    assert nonzero >= 2


@pytest.mark.parametrize("name", ["GF2", "GF3", "GF101"])
def test_windowed_matches_full_with_t2(name):
    """The window equals the degrees >= 0 of the full space, and so do the
    obstruction classes computed from it."""
    field = FIELDS[name]
    for ideal in _nonneg_ideals(field):
        q = ArtinianQuotient(ideal)
        full = ext1_space(ideal, q)
        windowed = ext1_space(ideal, q, floor=0)
        assert windowed.dims == {d: v for d, v in full.dims.items() if d >= 0}
        assert windowed.dims
        t2 = t2_space(ideal, windowed).dims
        assert t2 == {d: v for d, v in t2_space(ideal, full).dims.items()
                      if d >= 0}
        assert t2


def test_lowered_cap_is_caught(monkeypatch):
    """A window that drops the relations of degree top - floor as well (a
    cap one too low) disagrees with the oracle."""
    window = homology.relation_window

    def one_too_low(pres, target, floor=None):
        floor, cap, kept = window(pres, target, floor)
        if cap is None:
            return floor, cap, kept
        return floor, cap - 1, [i for i in kept
                                if pres.relations[i].degree() < cap]

    monkeypatch.setattr(homology, "relation_window", one_too_low)
    wrong = [ideal for ideal in _nonneg_ideals(GF(3))
             if ext1_space(ideal, ArtinianQuotient(ideal), floor=0).dims
             != _oracle_nonneg(ideal)]
    assert len(wrong) == 3


def test_floor_needs_graded_data():
    ideal = random_zero_dim_ideal(rng_for(7001), homogeneous=False)
    assert not ideal.homogeneous
    with pytest.raises(ValueError, match="degree floor needs graded data"):
        ext1_space(ideal, ArtinianQuotient(ideal), floor=0)


@pytest.mark.parametrize("e", [2, 3])
def test_certificate_computes_degrees_from_zero_only(e, monkeypatch):
    """The obstruction check builds its relation engine capped at the
    quotient's top degree and asks for Hom of the relations from degree 0
    up; its payload keys say that the series cover degrees >= 0."""
    ideal, _ = build_R(e, field=GF(3))
    engines, floors = [], []
    engine_class = homology.ModuleGroebner
    hom_space = homology.hom_space

    def engine(module, vectors, max_degree=None):
        engines.append(max_degree)
        return engine_class(module, vectors, max_degree=max_degree)

    def recording_hom_space(pres, target, **kwargs):
        floors.append(kwargs.get("floor"))
        hom = hom_space(pres, target, **kwargs)
        assert all(h.degree >= 0 for h in hom.elements)
        return hom

    monkeypatch.setattr(homology, "ModuleGroebner", engine)
    monkeypatch.setattr(homology, "hom_space", recording_hom_space)
    cert = elementary_certificate(ideal)
    assert cert.verdict == "smooth-elementary"
    top = ArtinianQuotient(ideal).socle_degree()
    assert engines == [top]
    assert floors == [0]
    payload = cert.check("obstruction-vanishing").payload
    assert payload == {"ext1_nonneg_series": "0", "dim_ext1_nonneg": 0}


@pytest.mark.parametrize("e", [2, 3])
def test_default_window_cap_keeps_every_relation(e, monkeypatch):
    """At the default floor the cap is top - floor, which is the target's
    degree spread plus the largest relation degree: every relation is kept,
    and the full `Ext^1` caps its relation engine there."""
    ideal, _ = build_R(e, field=GF(3))
    q = ArtinianQuotient(ideal)
    relations = list(ideal.syzygies)
    largest = max(s.degree() for s in relations)
    floor, cap, kept = homology.relation_window(
        homology.Presentation.of_ideal(ideal), q)
    assert floor == min(q.degrees) - largest
    assert cap == q.socle_degree() - floor
    assert cap == max(q.degrees) - min(q.degrees) + largest
    assert kept == list(range(len(relations)))
    assert any(relations[i].degree() == largest for i in kept)
    engines = []
    engine_class = homology.ModuleGroebner

    def engine(module, vectors, max_degree=None):
        engines.append(max_degree)
        return engine_class(module, vectors, max_degree=max_degree)

    monkeypatch.setattr(homology, "ModuleGroebner", engine)
    ext1_space(ideal, q)
    assert engines == [cap]


def test_ext1_space_computes_hom_from_floor(monkeypatch):
    """`ext1_space` builds Hom(I, target) from the floor up only (`Ext^1`
    reads just its relations' actions) and gives the dimensions and
    representatives of the same floor over the full Hom."""
    floors = []
    hom_space = homology.hom_space

    def record(pres, target, floor=None):
        floors.append(floor)
        return hom_space(pres, target, floor)

    for ideal in _nonneg_ideals(GF(3)):
        q = ArtinianQuotient(ideal)
        full_hom = hom_space(homology.Presentation.of_ideal(ideal), q)
        want = homology.ext1_generic(full_hom, floor=0)
        with monkeypatch.context() as m:
            m.setattr(homology, "hom_space", record)
            got = ext1_space(ideal, q, floor=0)
        assert floors[0] == 0
        floors.clear()
        assert got.dims == want.dims
        assert [(d, h.flatten()) for d, h in got.representatives] == \
            [(d, h.flatten()) for d, h in want.representatives]
        assert got.representatives
