"""Corpus comparison against the brute-force reference implementation.

The reference computes graded Hom dimensions degree by degree with plain
linear algebra on monomial coordinates and shares no code paths with the
library's Groebner/normal-form machinery.
"""

from fractions import Fraction

import pytest

from conftest import random_zero_dim_ideal, rng_for
from hilbcert.artinian import ArtinianQuotient
from hilbcert.fields import GF, QQ
from hilbcert.linalg import rank
from hilbcert.homology import Presentation, hom_space

import oracle

CORPUS_SIZE = 32


def _corpus():
    out = []
    seed = 0
    while len(out) < CORPUS_SIZE:
        seed += 1
        ideal = random_zero_dim_ideal(rng_for(9000 + seed), homogeneous=True)
        q = ArtinianQuotient(ideal)
        if q.dim <= 12:
            out.append((ideal, q))
    return out


def test_hom_dimensions_match_oracle_corpus():
    corpus = _corpus()
    assert len(corpus) >= 30
    for ideal, q in corpus:
        hom = hom_space(Presentation.of_ideal(ideal), q)
        socle = q.socle_degree()
        lo = -max(ideal.gen_degrees) - 1
        hi = socle
        expected = oracle.hom_dims(ideal.ring, ideal.gens, lo, hi)
        expected = {d: v for d, v in expected.items() if v}
        assert hom.dims() == expected, str(ideal.gens)
        assert hom.total_dim() == sum(expected.values())


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(101), QQ])
def test_sparse_rank_matches_linalg_rank(field):
    """The oracle's native-arithmetic `sparse_rank` agrees with
    `linalg.rank` on seeded random sparse matrices, full rank and not."""
    rng = rng_for(5100 + field.char)
    deficient = 0
    for _ in range(40):
        nrows, ncols = rng.randint(0, 12), rng.randint(1, 12)
        density = rng.choice([0.1, 0.3, 0.6])
        values = [field.of(rng.randint(-4, 4)) for _ in range(8)]
        if not field.char:
            values.append(Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
        rows = [[rng.choice(values) if rng.random() < density else field.zero
                 for _ in range(ncols)] for _ in range(nrows)]
        # dependent rows: sums of earlier ones
        for _ in range(rng.randint(0, 3)):
            if rows:
                a, b = rng.choice(rows), rng.choice(rows)
                rows.append([field.add(x, y) for x, y in zip(a, b)])
        sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
        expected = rank(rows, ncols, field)
        assert oracle.sparse_rank(sparse, field) == expected
        deficient += expected < min(len(rows), ncols)
    assert deficient >= 5
