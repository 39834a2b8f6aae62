import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbcert import linalg
from hilbcert.fields import GF, QQ, field_from_name, field_name
from hilbcert.linalg import (
    coordinates_in_rows,
    det,
    independent_modulo,
    left_nullspace,
    mat_mul,
    matvec,
    nullspace,
    rank,
    rref,
    solve,
)

import oracle
from loop_reference import (eliminate_fraction, identity, independent_greedy,
                            rref_fraction)

F7 = GF(7)
F2 = GF(2)


def test_prime_field_basics():
    assert F7.add(F7.of(5), F7.of(4)) == 2
    assert F7.mul(F7.of(3), F7.of(5)) == 1
    assert F7.inv(F7.of(3)) == 5
    assert F7.of(-1) == 6
    with pytest.raises(ZeroDivisionError):
        F7.inv(F7.zero)


def test_gf_rejects_composite():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(2**31 + 11)


def test_rational_field():
    assert QQ.of(2) == Fraction(2)
    assert QQ.div(QQ.of(1), QQ.of(3)) == Fraction(1, 3)


def test_field_names_round_trip():
    for f in (QQ, GF(2), GF(101)):
        assert field_from_name(field_name(f)) == f


@given(st.integers(0, 6), st.integers(1, 6))
def test_gf7_inverse_property(a, b):
    x = F7.of(b)
    assert F7.mul(x, F7.inv(x)) == F7.one
    assert F7.add(F7.of(a), F7.neg(F7.of(a))) == F7.zero


def _mats(field, rng_rows):
    return [[field.of(v) for v in row] for row in rng_rows]


@pytest.mark.parametrize("field", [F7, F2, QQ, GF(101)])
def test_rref_rank_nullspace(field):
    rows = _mats(field, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis, pivots = rref(rows, 3, field)
    assert len(basis) == 2 == rank(rows, 3, field)
    ns = nullspace(rows, 3, field)
    assert len(ns) == 1
    for v in ns:
        assert all(x == field.zero for x in matvec(rows, v, field))


@pytest.mark.parametrize("field", [F7, QQ])
def test_solve_and_identity(field):
    rows = _mats(field, [[2, 1], [1, 3]])
    rhs = [field.of(3), field.of(4)]
    x = solve(rows, 2, rhs, field)
    assert matvec(rows, x, field) == rhs
    assert mat_mul(rows, identity(2, field), 2, field) == rows


@pytest.mark.parametrize("field", [F7, F2, QQ])
def test_left_nullspace(field):
    rows = _mats(field, [[1, 0], [2, 0], [3, 0]])
    ln = left_nullspace(rows, 2, field)
    assert len(ln) == 2
    for v in ln:
        combo = [field.zero, field.zero]
        for c, row in zip(v, rows):
            for j in range(2):
                combo[j] = field.add(combo[j], field.mul(c, row[j]))
        assert combo == [field.zero, field.zero]


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_rank_nullity(rows_int):
    for field in (F7, QQ):
        rows = [[field.of(v) for v in row] for row in rows_int]
        r = rank(rows, 3, field)
        assert r + len(nullspace(rows, 3, field)) == 3


def _random_stack(rng, field, nrows, ncols):
    """Rows with zero rows, repeats and combinations of earlier rows mixed
    in, so that stacks are often rank-deficient."""
    def entry():
        if field.char == 0:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return field.of(rng.randrange(field.char))

    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([field.zero] * ncols)
        elif kind < 0.25 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.5 and rows:
            a, b, c = rng.choice(rows), rng.choice(rows), entry()
            rows.append([field.add(x, field.mul(c, y)) for x, y in zip(a, b)])
        else:
            rows.append([entry() for _ in range(ncols)])
    return rows


@pytest.mark.parametrize("field", [F2, GF(3), GF(101), QQ])
def test_independent_modulo_matches_greedy_rank_loop(field):
    rng = random.Random(2024 + field.char)
    for _ in range(150):
        ncols = rng.randint(0, 6)
        stack = _random_stack(rng, field, rng.randint(0, 10), ncols)
        cut = rng.randint(0, len(stack))
        base, cands = stack[:cut], stack[cut:]
        got = independent_modulo(base, cands, ncols, field)
        assert got == independent_greedy(base, cands, ncols, field)
        assert len(got) == rank(stack, ncols, field) - rank(base, ncols, field)
    zero_rows = [[field.zero] * 3] * 2
    one = [field.one, field.zero, field.zero]
    assert independent_modulo([], [], 3, field) == []
    assert independent_modulo([one], [], 3, field) == []
    assert independent_modulo([], [[], []], 0, field) == []
    assert independent_modulo([], zero_rows + [one, one], 3, field) == [2]
    assert independent_modulo([one], [one] + zero_rows, 3, field) == []


def _qq_entry(rng, kind):
    if kind == "huge":
        big = 10**30 + rng.randint(-50, 50)
        return rng.choice([Fraction(rng.choice([-1, 1]) * big),
                           Fraction(rng.randint(-9, 9), big),
                           Fraction(big, rng.randint(1, 9) * 10**29 + 1)])
    if kind == "mixed":
        return Fraction(rng.randint(-7, 7), rng.choice([1, 2, 3, 4, 6, 9, 35]))
    return Fraction(rng.randint(-2, 2))


def _qq_corpus(seed, count):
    """(rows, ncols) over QQ: mixed denominators, huge entries, zero rows
    and columns, repeated and combined rows; tall, wide and square."""
    rng = random.Random(seed)
    yield [], 0
    yield [], 4
    yield [[], []], 0
    yield [[QQ.zero] * 3] * 2, 3
    for _ in range(count):
        nrows, ncols = rng.choice([(rng.randint(1, 9), rng.randint(1, 4)),
                                   (rng.randint(1, 4), rng.randint(1, 9)),
                                   (rng.randint(1, 6),) * 2])
        kind = rng.choice(["small", "mixed", "huge"])
        zero_cols = {j for j in range(ncols) if rng.random() < 0.2}
        rows = []
        for _ in range(nrows):
            roll = rng.random()
            if roll < 0.1:
                rows.append([QQ.zero] * ncols)
            elif roll < 0.35 and rows:
                a, b = rng.choice(rows), rng.choice(rows)
                c = _qq_entry(rng, kind)
                rows.append([x + c * y for x, y in zip(a, b)])
            else:
                rows.append([QQ.zero if j in zero_cols else _qq_entry(rng, kind)
                             for j in range(ncols)])
        yield rows, ncols


def _canonical(value):
    """Every QQ entry is an int, or a Fraction that is not integral."""
    if isinstance(value, list):
        return all(_canonical(v) for v in value)
    return (value is None or type(value) is int
            or (type(value) is Fraction and value.denominator > 1))


def _qq_questions(rows, ncols, rng):
    """Every linalg answer built on `rref`, on one matrix."""
    x = [_qq_entry(rng, "mixed") for _ in range(ncols)]
    consistent = matvec(rows, x, QQ)
    arbitrary = [_qq_entry(rng, "mixed") for _ in rows]
    cut = rng.randint(0, len(rows))
    return {
        "rref": rref(rows, ncols, QQ),
        "rank": rank(rows, ncols, QQ),
        "nullspace": nullspace(rows, ncols, QQ),
        "left_nullspace": left_nullspace(rows, ncols, QQ),
        "solve": [solve(rows, ncols, consistent, QQ),
                  solve(rows, ncols, arbitrary, QQ)],
        "independent_modulo": independent_modulo(rows[:cut], rows[cut:], ncols, QQ),
        "coordinates": [coordinates_in_rows(rows, ncols, row, QQ) for row in rows]
        + [coordinates_in_rows(rows, ncols, [_qq_entry(rng, "small")] * ncols, QQ)],
    }


def test_integer_kernel_matches_fraction_elimination(monkeypatch):
    """The QQ kernel eliminates over the integers; every answer built on it
    must equal the one from Gauss-Jordan in Fraction arithmetic, entry for
    entry, with every entry in canonical form.  The reference replaces both
    the full `rref` and the pivots-only elimination of `rank` and
    `independent_modulo`."""
    for i, (rows, ncols) in enumerate(_qq_corpus(1968, 300)):
        got = _qq_questions(rows, ncols, random.Random(i))
        with monkeypatch.context() as m:
            m.setattr(linalg, "rref", rref_fraction)
            m.setattr(linalg, "_eliminate", eliminate_fraction)
            want = _qq_questions(rows, ncols, random.Random(i))
        assert got == want, (rows, ncols)
        red, pivots = got["rref"]
        for key in ("rref", "nullspace", "left_nullspace", "solve", "coordinates"):
            value = got[key][0] if key == "rref" else got[key]
            assert _canonical(value), (key, rows)
        assert got["rank"] + len(got["nullspace"]) == ncols
        assert all(row[c] == 1 for row, c in zip(red, pivots))


def test_integer_kernel_keeps_huge_entries_exact():
    big = 10**30
    rows = [[Fraction(big + 1), Fraction(1, big), QQ.one],
            [Fraction(2 * big + 2), Fraction(2, big), Fraction(3)],
            [Fraction(1, 3), Fraction(-1, big - 7), QQ.zero]]
    red, pivots = rref(rows, 3, QQ)
    assert (red, pivots) == rref_fraction(rows, 3, QQ)
    assert pivots == [0, 1, 2] and red == identity(3, QQ)
    assert rank(rows[:2], 3, QQ) == 2
    assert _canonical(red)
    red, _ = rref(rows[:2], 3, QQ)
    assert red == rref_fraction(rows[:2], 3, QQ)[0]
    assert _canonical(red) and any(type(x) is Fraction for row in red for x in row)


@pytest.mark.parametrize("field", [GF(3), GF(101), QQ])
def test_det_matches_rank_and_products(field):
    rng = random.Random(56 + field.char)
    for _ in range(40):
        n = rng.randint(0, 5)
        a = _random_stack(rng, field, n, n)
        b = [[field.of(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        assert (det(a, field) == field.zero) == (rank(a, n, field) < n)
        assert det(mat_mul(a, b, n, field), field) == field.mul(det(a, field), det(b, field))
    assert det([], field) == field.one
    assert det([[field.of(2), field.of(1)], [field.of(1), field.of(1)]], field) == field.one


def _rational(rng):
    """An int or a Fraction: small, huge, integral Fractions (not in
    canonical form) and zero of both types."""
    big = 10**30 + rng.randint(-50, 50)
    return rng.choice([
        rng.randint(-9, 9),
        rng.choice([-1, 1]) * big,
        Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
        Fraction(rng.randint(-9, 9) * 6, 3),
        Fraction(rng.randint(-9, 9), big),
        Fraction(big, rng.choice([7, 10**29 + 1])),
        0,
        Fraction(0),
    ])


def test_rational_field_matches_fraction_arithmetic():
    """QQ arithmetic against plain Fraction arithmetic on mixed int and
    Fraction operands: equal values and hashes, and every result in
    canonical form.  `PrimeField.of` reads ints and Fractions alike."""
    rng = random.Random(1212)
    primes = [GF(2), GF(3), GF(101)]
    for _ in range(3000):
        a, b = _rational(rng), _rational(rng)
        fa, fb = Fraction(a), Fraction(b)
        pairs = [(QQ.of(a), fa), (QQ.add(a, b), fa + fb), (QQ.sub(a, b), fa - fb),
                 (QQ.mul(a, b), fa * fb), (QQ.neg(QQ.of(a)), -fa)]
        if fb:
            pairs += [(QQ.div(a, b), fa / fb), (QQ.inv(b), 1 / fb)]
        else:
            with pytest.raises(ZeroDivisionError):
                QQ.div(a, b)
            with pytest.raises(ZeroDivisionError):
                QQ.inv(b)
        for got, want in pairs:
            assert got == want and hash(got) == hash(want), (a, b)
            assert _canonical(got), (a, b, got)
        for field in primes:
            p = field.char
            if fa.denominator % p:
                want = fa.numerator * pow(fa.denominator, -1, p) % p
                assert field.of(a) == field.of(fa) == field.of(QQ.of(a)) == want
            else:
                with pytest.raises(ZeroDivisionError):
                    field.of(a)
    assert (QQ.zero, QQ.one) == (0, 1) and type(QQ.zero) is type(QQ.one) is int
    for field in primes:
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)


@pytest.mark.parametrize("field", [F2, GF(3), GF(101), QQ])
def test_pivots_only_elimination_matches_rref(field):
    """`rank` and `independent_modulo` read the bare elimination, without
    the output rows: its echelon must sit under the pivots of `rref`, each
    row under its lowest column, it must keep the greedy loop's rows, and
    `independent_modulo` must keep them too."""
    rng = random.Random(77 + field.char)
    for _ in range(150):
        ncols = rng.randint(0, 7)
        stack = _random_stack(rng, field, rng.randint(0, 10), ncols)
        _, pivots = rref(stack, ncols, field)
        echelon, kept = linalg._eliminate(stack, ncols, field)
        assert sorted(echelon) == pivots
        for c, row in echelon.items():
            lowest = ((row & -row).bit_length() - 1 if field.char == 2
                      else min(row))
            assert lowest == c
        assert kept == independent_greedy([], stack, ncols, field)
        assert rank(stack, ncols, field) == len(pivots)
        cut = rng.randint(0, len(stack))
        base, cands = stack[:cut], stack[cut:]
        transpose = [[row[j] for row in stack] for j in range(ncols)]
        _, column_pivots = rref(transpose, len(stack), field)
        got = independent_modulo(base, cands, ncols, field)
        assert got == [c - cut for c in column_pivots if c >= cut]
        assert got == independent_greedy(base, cands, ncols, field)


@pytest.mark.parametrize("field", [F2, GF(3), GF(101), QQ])
def test_mat_mul_matches_entrywise_sums(field):
    """One product loop for every field: each entry is the field sum of its
    products in the field's own form, and a product over k = 0 gives rows
    of `ncols` zeros.  Dense and sparse rows on either side, with entries
    as drawn (integral `Fraction`s over QQ) and canonical (QQ rows of ints
    only, which skip the normalising pass)."""
    rng = random.Random(31 + field.char)
    for _ in range(80):
        m, k, n = (rng.randint(0, 4) for _ in range(3))
        a = _random_stack(rng, field, m, k)
        b = _random_stack(rng, field, k, n)
        want = [[field.zero] * n for _ in range(m)]
        for i, j, t in itertools.product(range(m), range(n), range(k)):
            want[i][j] = field.add(want[i][j], field.mul(a[i][t], b[t][j]))
        for left, right in itertools.product(
                *[(x, [[field.of(v) for v in row] for row in x],
                   [{j: v for j, v in enumerate(row) if v} for row in x])
                  for x in (a, b)]):
            got = mat_mul(left, right, n, field)
            assert got == want
            if field.char:
                assert all(0 <= x < field.char for row in got for x in row)
            else:
                assert _canonical(got)
    assert mat_mul([[], []], [], 3, field) == [[field.zero] * 3] * 2
    assert mat_mul([], [[field.one]], 1, field) == []


def _noncanonical(rng, field, x):
    """x in another form of the same field element: over GF(p) an int off
    by a multiple of p, possibly negative; over QQ an integral value as a
    `Fraction`, such as Fraction(3, 1)."""
    if field.char:
        return x + field.char * rng.randint(-2, 2)
    return Fraction(x) if rng.random() < 0.5 else x


def _sparse_corpus(field, seed, count):
    """(rows, canonical dense rows, ncols): dense rows, {column: value}
    rows and mixes of both, with zero rows, repeats and combinations,
    non-canonical values and explicit zeros in the dicts; the empty matrix,
    zero rows and ncols = 0 first."""
    rng = random.Random(seed)
    zero = field.zero
    yield [], [], 0
    yield [], [], 5
    yield [[], {}], [[], []], 0
    yield [[zero] * 4, {}, {2: field.char or 0}], [[zero] * 4] * 3, 4
    for _ in range(count):
        ncols = rng.randint(0, 14)
        canonical = _random_stack(rng, field, rng.randint(0, 12), ncols)
        canonical = [[field.of(x) for x in row] for row in canonical]
        form = rng.choice(["dense", "sparse", "mixed"])
        rows = []
        for row in canonical:
            if form == "dense" or (form == "mixed" and rng.random() < 0.5):
                rows.append([_noncanonical(rng, field, x) for x in row])
                continue
            sparse = {j: _noncanonical(rng, field, x)
                      for j, x in enumerate(row) if x}
            for j in range(ncols):
                if j not in sparse and rng.random() < 0.1:
                    sparse[j] = 0 if rng.random() < 0.5 else Fraction(0)
            rows.append(sparse)
        yield rows, canonical, ncols


@pytest.mark.parametrize("field", [F2, GF(3), GF(101), QQ])
def test_sparse_elimination_matches_dense_reference(field):
    """`rref`, `rank`, `nullspace` and `independent_modulo` on dense, sparse
    and mixed rows with non-canonical values equal, entry for entry and type
    for type, the dense kernels kept in `tests/oracle.py` on the canonical
    dense rows."""
    rng = random.Random(4242 + field.char)
    for rows, canonical, ncols in _sparse_corpus(field, 90 + field.char, 160):
        red, pivots = oracle.rref(canonical, ncols, field)
        assert repr(rref(rows, ncols, field)) == repr((red, pivots)), rows
        assert rank(rows, ncols, field) == len(pivots)
        want = []
        for c in (c for c in range(ncols) if c not in pivots):
            vec = [field.zero] * ncols
            vec[c] = field.one
            for row, p in zip(red, pivots):
                vec[p] = field.neg(row[c])
            want.append(vec)
        assert repr(nullspace(rows, ncols, field)) == repr(want)
        cut = rng.randint(0, len(rows))
        assert (independent_modulo(rows[:cut], rows[cut:], ncols, field)
                == oracle.independent_modulo(canonical[:cut], canonical[cut:],
                                             ncols, field))
