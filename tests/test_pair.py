"""The relative criterion for a nested pair M ⊂ R builds each homology
object once: S/I_R and Hom(I_R, S/I_R) serve both the diagram and the
trivial-negative-tangents check, one relation engine for J = I_R / I_M
serves both targets, and the post-composition with the projection
S/I_M -> S/I_R is one product per generator block."""

import random
import sys

import pytest

from hilbcert import homology
from hilbcert.artinian import ArtinianQuotient, FiniteModule
from hilbcert.certify import pair_certificate, tnt_check
from hilbcert.fields import GF, QQ
from hilbcert.gallery import bilinear_form, build_M, build_R
from hilbcert.groebner import IdealPresentation, ModuleGroebner
from hilbcert.homology import (
    Presentation,
    diagram_maps,
    ext1_generic,
    hom_space,
    post_composition,
    relation_syzygy_engine,
)
from hilbcert.linalg import rank

import loop_reference
from conftest import nonzero_coordinates

FIELDS = {"GF2": GF(2), "GF3": GF(3), "GF101": GF(101), "QQ": QQ}


def _pairs(field, seed):
    """(label, M(2), R): R(2) for a seeded random and a singular matrix,
    R(2) with a redundant cubic generator, and R(2) with a second
    bilinear form."""
    rng = random.Random(seed)
    c = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
    m = build_M(2, field)
    random_r, _ = build_R(2, c, field)
    singular, _ = build_R(2, [[1, 1], [1, 1]], field)
    ring = m.ring
    x1, x2, y1, y2 = ring.gens()
    cubic = IdealPresentation(ring, list(random_r.gens) + [x1 * x2 * y1 + y2**3])
    two_forms = IdealPresentation(
        ring, list(random_r.gens) + [bilinear_form(ring, 2, [[0, 1], [-1, 0]])]
    )
    return [("random", m, random_r), ("singular", m, singular),
            ("extra-cubic", m, cubic), ("two-forms", m, two_forms)]


def _projection(q_m, q_r):
    cols = [q_r.poly_vector(q_r.ring.monomial(e)) for e in q_m.monomials]
    return [list(row) for row in zip(*cols)]


def _rank_by_degree(hom, rows, width):
    out = {}
    for h, row in zip(hom.elements, rows):
        out.setdefault(h.degree, []).append(row)
    return {d: rank(r, width, hom.target.ring.field) for d, r in out.items()}


def _reps(ext1):
    return [(d, h.flatten()) for d, h in ext1.representatives]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_pair_shares_tangents_and_j_engine(name):
    field = FIELDS[name]
    for label, m, r in _pairs(field, 4100 + len(name)):
        where = f"{label} over {name}"
        # the TNT check inside the pair certificate decides on the
        # diagram's Hom(I_R, S/I_R): same payload as deciding on R alone
        for kwargs in ({"product_degrees": (3, 3)}, {}):
            cert = pair_certificate(m, r, **kwargs)
            assert (cert.check("trivial-negative-tangents").payload
                    == tnt_check(r)[1]), where
        dm = diagram_maps(m, r)
        q_m, q_r = ArtinianQuotient(m), ArtinianQuotient(r)
        # Ext^1(J, N) through the engine built against S/I_M equals the one
        # through an engine built against N itself, for both targets
        _, _, j_pres = homology._j_presentation(m, r)
        shared = relation_syzygy_engine(j_pres, q_m)
        for target in (q_r, q_m):
            hom_j = hom_space(j_pres, target)
            own = ext1_generic(hom_j)
            via_shared = ext1_generic(hom_j, rel_engine=shared)
            assert via_shared.dims == own.dims, where
            assert _reps(via_shared) == _reps(own), where
            if target is q_r:
                assert dm.ext_jr.dims == own.dims, where
                assert _reps(dm.ext_jr) == _reps(own), where
        # the batched post-composition has the per-hom loop's rank per degree
        pi = _projection(q_m, q_r)
        batched = _rank_by_degree(dm.hom_mm, post_composition(dm.hom_mm, pi),
                                  len(m.gens) * q_r.dim)
        looped = loop_reference.post_composition_rank(dm.hom_mm, pi)
        assert batched == looped, where
        mr_dims = hom_space(Presentation.of_ideal(m), q_r).dims()
        assert dm.phi_surjective_all == all(
            looped.get(d, 0) == v for d, v in mr_dims.items()), where
        assert dm.phi_surjective_nonneg == all(
            looped.get(d, 0) == v for d, v in mr_dims.items() if d >= 0), where


def test_pair_certificate_builds_each_object_once(monkeypatch):
    field = GF(3)
    m = build_M(2, field)
    r, _ = build_R(2, field=field)
    # one action matrix per nonzero coordinate of each vector, per target:
    # the syzygies of I_R and I_M, the combined ideal's syzygies (J's
    # relations are their coordinates on the extras, so Hom(J, N) and the
    # restriction rows share those), the syzygies among J's relations and
    # the lifts of M's generators, for N = S/I_R and S/I_M; and I_M's
    # syzygies once more for Hom(I_M, J)
    _, combined, j_pres = homology._j_presentation(m, r)
    j_engine = relation_syzygy_engine(j_pres, ArtinianQuotient(m))
    lifts = [r.normal_form(g)[1] for g in m.gens]
    per_target = sum(nonzero_coordinates(vectors) for vectors in (
        r.syzygies, m.syzygies, combined.syzygies, j_engine.syzygies, lifts))
    counts = {"engines": 0, "quotients": 0, "homs": 0, "poly_matrix": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ModuleGroebner, "__init__",
                        counted("engines", ModuleGroebner.__init__))
    monkeypatch.setattr(ArtinianQuotient, "__init__",
                        counted("quotients", ArtinianQuotient.__init__))
    monkeypatch.setattr(FiniteModule, "poly_matrix",
                        counted("poly_matrix", FiniteModule.poly_matrix))
    wrapped = counted("homs", hom_space)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "hilbcert" or mod_name.startswith("hilbcert."):
            for attr, value in list(vars(module).items()):
                if value is hom_space:
                    monkeypatch.setattr(module, attr, wrapped)
    cert = pair_certificate(m, r, product_degrees=(3, 3))
    assert cert.verdict == "relative-smooth-elementary"
    # engines: J's relations only (the combined ideal is graded Artinian,
    # so its presentation is built degree by degree); quotients: S/I_M and S/I_R; Hom: four per row of the long exact
    # sequence (I_R, I_M, J and J's relations) and Hom(I_M, J)
    assert counts == {"engines": 1, "quotients": 2, "homs": 9,
                      "poly_matrix": 2 * per_target
                      + nonzero_coordinates(m.syzygies)}
