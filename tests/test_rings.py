import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbcert.fields import GF, QQ
from hilbcert.rings import GradedRing, div_exps, lcm_exps, mul_exps

F101 = GF(101)


def ring2(field=F101, weights=None):
    return GradedRing(["x", "y"], weights, field)


@st.composite
def polys(draw, ring):
    nterms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nterms):
        e = tuple(draw(st.integers(0, 3)) for _ in range(ring.n))
        c = draw(st.integers(-10, 10))
        if c % 101:
            terms[e] = ring.field.of(c)
    return ring.poly(terms)


R = ring2()


@given(polys(R), polys(R), polys(R))
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + R.zero == a
    assert a * R.one == a
    assert a - a == R.zero
    assert a * R.zero == R.zero


@given(polys(R), polys(R))
@settings(max_examples=60)
def test_degree_of_product(a, b):
    if a.is_zero() or b.is_zero():
        return
    assert (a * b).degree() == a.degree() + b.degree()


def test_order_is_weighted_degrevlex():
    r = ring2()
    # degree dominates
    assert r.order_key((2, 0)) > r.order_key((1, 0))
    # within a degree: degrevlex on x > y
    assert r.order_key((2, 0)) > r.order_key((1, 1)) > r.order_key((0, 2))


def test_order_respects_multiplication():
    r = GradedRing(["x", "y", "z"], None, QQ)
    mons = r.monomials_of_degree(2) + r.monomials_of_degree(3)
    step = (1, 0, 1)
    for a in mons:
        for b in mons:
            if r.order_key(a) < r.order_key(b):
                assert r.order_key(mul_exps(a, step)) < r.order_key(
                    mul_exps(b, step)
                )


def test_weighted_degree():
    r = GradedRing(["x", "y"], (3, 1), QQ)
    assert r.degree((1, 2)) == 5
    p = r.poly({(1, 0): QQ.one, (0, 3): QQ.one})
    assert p.is_homogeneous()
    q = r.poly({(1, 0): QQ.one, (0, 1): QQ.one})
    assert not q.is_homogeneous()


def test_monomials_of_degree():
    r = GradedRing(["x", "y", "z"], None, QQ)
    mons = r.monomials_of_degree(4)
    assert len(mons) == 15
    # built once per ring and degree, and immutable, since callers share it
    assert type(mons) is tuple and r.monomials_of_degree(4) is mons
    rw = GradedRing(["x", "y"], (2, 1), QQ)
    assert set(rw.monomials_of_degree(4)) == {(2, 0), (1, 2), (0, 4)}


@pytest.mark.parametrize("names, weights", [
    (["x"], None), (["x"], (3,)), (["x", "y"], None), (["x", "y", "z"], (2, 1, 3)),
])
def test_monomials_of_negative_degree_are_none(names, weights):
    r = GradedRing(names, weights, QQ)
    assert r.monomials_of_degree(0) == ((0,) * len(names),)
    for d in (-1, -2, -3, -6):
        assert r.monomials_of_degree(d) == ()


def test_exponent_helpers():
    assert mul_exps((1, 2), (3, 0)) == (4, 2)
    assert div_exps((4, 2), (3, 0)) == (1, 2)
    assert div_exps((1, 2), (3, 0)) is None
    assert lcm_exps((1, 2), (3, 0)) == (3, 2)


def test_partial_derivative():
    r = ring2(QQ)
    x, y = r.gens()
    p = x**3 * y + y**2
    assert p.partial(0) == (x**2 * y).scale(QQ.of(3))
    assert p.partial(1) == x**3 + y.scale(QQ.of(2))


def test_partial_in_char_p():
    r = ring2(GF(3))
    x, y = r.gens()
    assert (x**3).partial(0).is_zero()


def test_str_round_trips_through_parser():
    from hilbcert.parsing import parse_polynomial

    r = ring2(QQ)
    x, y = r.gens()
    for p in (x**2 - y, -x + y.scale(QQ.of(5)), r.one, x * y):
        assert parse_polynomial(str(p), r) == p


def test_invalid_weights():
    with pytest.raises(ValueError):
        GradedRing(["x", "y"], (0, 1), QQ)
    with pytest.raises(ValueError):
        GradedRing(["x", "x"], None, QQ)
