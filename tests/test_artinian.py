from fractions import Fraction

import pytest

from conftest import random_poly, random_zero_dim_ideal, rng_for
from hilbcert.artinian import (
    ArtinianQuotient,
    FiniteModule,
    HilbertFunction,
    series_string,
    submodule,
)
from hilbcert.fields import GF, QQ
from hilbcert.gallery import build_R
from hilbcert.groebner import IdealPresentation
from hilbcert.homology import Presentation, hom_space
from hilbcert.parsing import parse_polynomial
from hilbcert.rings import GradedRing

import loop_reference
import oracle


def _ideal(gens_text, names=("x", "y"), field=QQ, weights=None):
    ring = GradedRing(list(names), weights, field)
    return IdealPresentation(
        ring, [parse_polynomial(t, ring) for t in gens_text]
    )


def test_series_string():
    assert series_string({}) == "0"
    assert series_string({0: 1, 1: 4, 2: 3}) == "1+4T+3T^2"
    assert series_string({-1: 4, 0: 98, 1: 84, 2: 32}) == "4T^-1+98+84T+32T^2"
    assert series_string({-3: 60, 1: 1}) == "60T^-3+T"


def test_hilbert_function_eq_list():
    hf = HilbertFunction({0: 1, 1: 2, 2: 1})
    assert hf == [1, 2, 1]
    assert hf.total() == 4
    assert hf.series() == "1+2T+T^2"


def test_quotient_basis_and_matrices():
    q = ArtinianQuotient(_ideal(("x^2", "y^2")))
    assert q.dim == 4
    assert q.hilbert_function() == [1, 2, 1]
    ring = q.ring
    x, y = ring.gens()
    vec = q.poly_vector(x * y + x)
    assert loop_reference.vector_poly(q, vec) == x * y + x
    # multiplication by x kills x*y and x
    out = loop_reference.act(q, x, vec)
    assert loop_reference.vector_poly(q, out).is_zero()


def test_non_zero_dimensional_rejected():
    with pytest.raises(ValueError):
        ArtinianQuotient(_ideal(("x^2",)))


def test_unit_ideal_rejected():
    with pytest.raises(ValueError):
        ArtinianQuotient(_ideal(("x + 1", "y", "x")))


def test_nilpotency_detection():
    origin = ArtinianQuotient(_ideal(("x^2", "y^3")))
    assert origin.has_nilpotent_action()
    shifted = ArtinianQuotient(_ideal(("x^2 - x", "y")))
    assert not shifted.has_nilpotent_action()


def _jordan(field, blocks):
    """Block-diagonal matrix of Jordan blocks, given as (size, eigenvalue)."""
    n = sum(size for size, _ in blocks)
    m = [[field.zero] * n for _ in range(n)]
    at = 0
    for size, value in blocks:
        for i in range(size):
            m[at + i][at + i] = field.of(value)
            if i + 1 < size:
                m[at + i][at + i + 1] = field.one
        at += size
    return m


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(101), QQ])
def test_nilpotency_by_squaring_matches_span_loop(field):
    modules = []
    for seed in range(4):
        for homogeneous in (True, False):
            ideal = random_zero_dim_ideal(rng_for(300 + seed), field=field,
                                          homogeneous=homogeneous)
            modules.append(ArtinianQuotient(ideal))
    modules.append(ArtinianQuotient(_ideal(("x^2 - x", "y"), field=field)))
    ring = GradedRing(["x"], None, field)
    # nilpotent of index 5 (above the largest power of two below the size),
    # 4 and 8, then with one invertible block
    for blocks in ([(5, 0)], [(4, 0), (1, 0)], [(8, 0)], [(3, 0), (1, 1)]):
        n = sum(size for size, _ in blocks)
        modules.append(FiniteModule(ring, [0] * n, [_jordan(field, blocks)]))
    verdicts = [mod.has_nilpotent_action() for mod in modules]
    assert verdicts == [loop_reference.nilpotent_by_spans(mod) for mod in modules]
    assert True in verdicts and False in verdicts


def test_filtration_start_homogeneous():
    q = ArtinianQuotient(_ideal(("x^2", "y^2")))
    assert q.filtration_start() == q.socle_degree() + 1 == 3


def test_filtration_start_non_homogeneous():
    # socle degree of the quotient is 2 but x^3 reduces to x*y != 0,
    # so the ideal only contains everything from degree 4 on
    q = ArtinianQuotient(_ideal(("x^2 - y", "y^2")))
    assert q.socle_degree() == 2
    assert q.filtration_start() == 4


def test_filtration_start_requires_origin_support():
    q = ArtinianQuotient(_ideal(("x^2 - x", "y")))
    with pytest.raises(ValueError):
        q.filtration_start()


def test_hilbert_function_matches_oracle():
    for seed in range(6):
        ideal = random_zero_dim_ideal(rng_for(300 + seed))
        q = ArtinianQuotient(ideal)
        top = q.socle_degree()
        assert q.hilbert_function().as_list() == oracle.quotient_dims(
            ideal.ring, ideal.gens, top
        )


def test_weighted_quotient():
    q = ArtinianQuotient(_ideal(("x - y^3", "y^4"), weights=(3, 1)))
    assert q.dim == 4
    assert q.hilbert_function() == [1, 1, 1, 1]


def test_submodule_closure():
    q = ArtinianQuotient(_ideal(("x^2", "y^2")))
    x, y = q.ring.gens()
    mod, rows = submodule(q, [q.poly_vector(x)])
    # S-span of x inside k[x,y]/(x^2,y^2) is {x, xy}
    assert mod.dim == 2
    assert sorted(mod.degrees) == [1, 2]
    assert mod.has_nilpotent_action()


def test_monomial_matrix_memoization_consistency():
    q = ArtinianQuotient(_ideal(("x^3", "y^2")))
    x, y = q.ring.gens()
    p = x**2 * y
    direct = loop_reference.act(q, p, q.poly_vector(q.ring.one))
    via_matrix = [row.get(q.index[(0, 0)], 0) for row in q.poly_matrix(p)]
    assert direct == via_matrix


def _dense_product(a, b, field):
    return [[_dot(row, [b[k][j] for k in range(len(b))], field)
             for j in range(len(b[0]))] for row in a]


def _dot(u, v, field):
    acc = field.zero
    for x, y in zip(u, v):
        acc = field.add(acc, field.mul(x, y))
    return acc


def _dense_poly_matrix(module, p):
    """p acting on `module`, summed from dense products of the variable
    matrices in field arithmetic."""
    f = module.ring.field
    n = module.dim
    out = [[f.zero] * n for _ in range(n)]
    for exps, c in p.terms.items():
        m = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
        for i, e in enumerate(exps):
            for _ in range(e):
                m = _dense_product(module.matrices[i], m, f)
        out = [[f.add(x, f.mul(c, y)) for x, y in zip(orow, mrow)]
               for orow, mrow in zip(out, m)]
    return out


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(101), QQ])
def test_sparse_poly_matrix_matches_dense_product(field):
    """Each `poly_matrix` row holds exactly the nonzero entries of the dense
    product, with constant terms, repeated monomials (memoized) and
    weighted variables."""
    rng = rng_for(4400 + field.char)
    ideals = [random_zero_dim_ideal(rng, field=field, homogeneous=h)
              for h in (True, True, False)]
    ideals.append(_ideal(("x - y^3", "y^4", "x*z", "z^2"), ("x", "y", "z"),
                         field, (3, 1, 2)))
    checked = 0
    for ideal in ideals:
        q = ArtinianQuotient(ideal)
        ring = ideal.ring
        polys = [ring.one, ring.zero] + list(ideal.gens)
        polys += [random_poly(ring, rng, max_degree=4) + ring.const(rng.randrange(3))
                  for _ in range(4)]
        for p in polys * 2:
            dense = _dense_poly_matrix(q, p)
            sparse = q.poly_matrix(p)
            assert [{j: x for j, x in enumerate(row) if x} for row in dense] == sparse
            assert all(type(x) is not Fraction or x.denominator > 1
                       for row in sparse for x in row.values())
            checked += any(sparse)
    assert checked >= 20


def test_qq_action_matrices_hold_integers():
    """Over QQ an integral value is an int: the action matrices of R(2)
    with a +-1 coefficient matrix, and the multiplication matrices they are
    built from, hold no Fraction object at all."""
    ideal, general = build_R(2, [[1, -1], [1, 1]], QQ)
    assert general
    q = ArtinianQuotient(ideal)
    hom = hom_space(Presentation.of_ideal(ideal), q)
    values = [x for action in hom.actions for _, m in action
              for row in m for x in row.values()]
    cells = [x for m in q.matrices for row in m for x in row]
    assert len(values) >= 100 and all(values) and any(cells)
    assert not any(isinstance(x, Fraction) for x in values + cells)
