import random

from hilbcert.fields import GF
from hilbcert.groebner import IdealPresentation
from hilbcert.rings import GradedRing

F101 = GF(101)


def random_poly(ring, rng, max_degree=3, max_terms=4, homogeneous=False):
    f = ring.field
    if homogeneous:
        d = rng.randint(1, max_degree)
        mons = ring.monomials_of_degree(d)
        chosen = rng.sample(mons, min(len(mons), rng.randint(1, max_terms)))
        terms = {m: f.of(rng.randrange(1, 101)) for m in chosen}
        return ring.poly(terms)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_degree) for _ in range(ring.n))
        if sum(e) == 0 or sum(e) > max_degree + 1:
            continue
        terms[e] = f.of(rng.randrange(1, 101))
    if not terms:
        v = tuple(1 if i == 0 else 0 for i in range(ring.n))
        terms[v] = f.one
    return ring.poly(terms)


def random_zero_dim_ideal(rng, nvars=None, field=F101, homogeneous=True,
                          max_colength=12):
    """Random zero-dimensional ideal over GF(101) in 2-3 variables with
    colength at most max_colength: pure variable powers plus random extras."""
    n = nvars or rng.choice([2, 3])
    names = ["x", "y", "z"][:n]
    ring = GradedRing(names, None, field)
    powers = []
    budget = max_colength
    for i in range(n):
        e = rng.randint(2, 3 if n == 2 else 2)
        exps = tuple(e if j == i else 0 for j in range(n))
        powers.append(ring.monomial(exps))
    gens = list(powers)
    for _ in range(rng.randint(0, 2)):
        gens.append(random_poly(ring, rng, max_degree=2,
                                homogeneous=homogeneous))
    return IdealPresentation(ring, gens)


def rng_for(seed):
    return random.Random(seed)


def nonzero_coordinates(vectors):
    """Number of nonzero coordinate polynomials over the given vectors (each
    a ModuleVector or a list of polynomials): the `poly_matrix` calls that
    building their action matrices on one target costs."""
    return sum(not p.is_zero()
               for v in vectors
               for p in (v if isinstance(v, list) else v.coordinates()))
