"""Seeded randomized screening for ideals with trivial negative tangents.

Candidates follow a fixed template: a base ideal extended to a larger
polynomial ring, plus a random subspace of forms in one degree, plus the
full power of the maximal ideal one degree up.  Everything is deterministic
from the seed; hits are persisted as ideal files with their certificates.
"""

from __future__ import annotations

import json
import os
import random
from functools import lru_cache

from .certify import elementary_certificate
from .fields import GF, field_name
from .groebner import IdealPresentation, minimal_generators, poly_to_vector
from .modules import FreeModule
from .linalg import rank
from .parsing import IdealFile
from .rings import GradedRing

DEFAULT_FIELD = GF(101)


@lru_cache(maxsize=None)
def _shared_ring(names, field):
    """One ring per (variables, field), shared by every shape: a kept
    outcome then holds no order-key cache of its own."""
    return GradedRing(names, None, field)


class CandidateShape:
    """Template for random candidates.

    base_gens/base_vars: an optional base ideal in its own variables;
    added_vars: how many fresh variables to adjoin; socle: the degree r
    whose forms are constrained; codim: codimension of the random subspace
    inside the degree-r slice; base_regularity: user-supplied bound r0 for
    the base ideal (required when a base ideal is present; the template
    needs r >= r0 + 2).  A candidate whose generators are all homogeneous
    is presented minimally, generators and syzygies alike; an inhomogeneous
    base ideal keeps every generator and every transcript syzygy.
    """

    def __init__(self, added_vars, socle, codim, field=DEFAULT_FIELD,
                 base_vars=(), base_gens=(), base_regularity=None, seed=0):
        if not field.char:
            raise ValueError(f"the hunt needs a prime field GF(p), not {field_name(field)}")
        if added_vars < 0 or (added_vars == 0 and not base_vars):
            raise ValueError("need at least one variable")
        if socle < 1:
            raise ValueError("socle degree must be positive")
        self.added_vars = added_vars
        self.socle = socle
        self.codim = codim
        self.field = field
        self.base_vars = list(base_vars)
        self.base_gens = list(base_gens)
        self.base_regularity = base_regularity
        self.seed = seed
        if self.base_gens:
            if base_regularity is None:
                raise ValueError(
                    "a base ideal needs its regularity bound supplied"
                )
            if socle < base_regularity + 2:
                raise ValueError(
                    "socle degree must be at least the regularity bound + 2"
                )
        names = list(self.base_vars)
        names += [f"z{i+1}" for i in range(added_vars)]
        self.ring = _shared_ring(tuple(names), field)
        slice_dim = len(self.ring.monomials_of_degree(socle))
        if codim < 0 or codim > slice_dim:
            raise ValueError(
                f"codimension {codim} out of range for a slice of "
                f"dimension {slice_dim}"
            )
        self.slice_dim = slice_dim

    def describe(self):
        return {
            "field": field_name(self.field),
            "variables": " ".join(self.ring.variables),
            "socle": self.socle,
            "codim": self.codim,
            "base_generators": "; ".join(str(g) for g in self.base_gens),
            "seed": self.seed,
        }


def random_candidate(shape: CandidateShape, seed) -> IdealPresentation:
    """One deterministic candidate: base ideal extended, a random subspace
    of degree-r forms of the requested codimension, and everything in
    degree r+1."""
    ring = shape.ring
    f = ring.field
    rng = random.Random(seed)
    mons = ring.monomials_of_degree(shape.socle)
    want = shape.slice_dim - shape.codim
    gens = []
    if shape.base_gens:
        from .parsing import parse_polynomial

        for g in shape.base_gens:
            gens.append(parse_polynomial(str(g), ring))
    # random spanning set of the right rank; redraw on rank deficiency
    for _ in range(64):
        rows = [
            [f.of(rng.randrange(f.char)) for _ in mons] for _ in range(want)
        ]
        if rank(rows, len(mons), f) == want:
            break
    else:
        raise RuntimeError("could not draw a full-rank subspace")
    for row in rows:
        p = ring.poly({m: c for m, c in zip(mons, row)})
        if p:
            gens.append(p)
    for m in ring.monomials_of_degree(shape.socle + 1):
        gens.append(ring.monomial(m))
    if all(g.is_homogeneous() for g in gens):
        # drop generators lying in the ideal of the earlier ones: keeps the
        # certificate stages proportional to the essential generator count
        free = FreeModule(ring, (0,))
        kept = minimal_generators(poly_to_vector(g, free) for g in gens)
        gens = [v.coordinate(0) for v in kept]
    return IdealPresentation(ring, gens)


def candidate_fingerprint(cert) -> str:
    """Field, Hilbert function and tangent series, read off the
    certificate's checks (the total tangent dimension when ungraded)."""
    tnt = cert.check("trivial-negative-tangents").payload
    return "|".join(
        [
            cert.fingerprint["field"],
            cert.check("finite-colength").payload["hilbert_function"],
            tnt.get("hom_series", f"total:{tnt['dim_hom']}"),
        ]
    )


class _OutcomeIdeal(IdealFile):
    """An outcome's ideal file, its generators read back from the
    certificate's fingerprint: a kept outcome holds one copy of them."""

    def __init__(self, ring, cert):
        self.ring, self._fingerprint = ring, cert.fingerprint

    generators = property(lambda self: self._fingerprint["generators"].split("; "))


def _screen_one(shape, seed):
    ideal = random_candidate(shape, seed)
    try:
        cert = elementary_certificate(ideal)
    except (ValueError, ArithmeticError) as exc:
        return {"seed": seed, "error": str(exc)}
    return {
        "seed": seed,
        "verdict": cert.verdict,
        "fingerprint": candidate_fingerprint(cert),
        "ideal": _OutcomeIdeal(ideal.ring, cert),
        "certificate": cert,
    }


HIT_VERDICTS = ("TNT-elementary", "smooth-elementary")


def screen(shape: CandidateShape, count: int, out_dir=None):
    """Run the template `count` times; returns a summary and persists
    deduplicated hits when an output directory is given."""
    if count < 0:
        raise ValueError(f"count must be non-negative, not {count}")
    summary = {
        "count": count,
        "errors": 0,
        "verdicts": {},
        "hits": 0,
        "distinct_hit_fingerprints": 0,
    }
    hits_by_fp = {}
    log = []
    for i in range(count):
        o = _screen_one(shape, shape.seed + i)
        if "error" in o:
            summary["errors"] += 1
            log.append(f"seed {o['seed']}: error: {o['error']}")
            continue
        v = o["verdict"]
        summary["verdicts"][v] = summary["verdicts"].get(v, 0) + 1
        log.append(f"seed {o['seed']}: {v}")
        if v in HIT_VERDICTS:
            summary["hits"] += 1
            hits_by_fp.setdefault(o["fingerprint"], o)
    summary["distinct_hit_fingerprints"] = len(hits_by_fp)
    if out_dir is not None and hits_by_fp:
        persist_hits(hits_by_fp, out_dir)
    summary["log"] = log
    return summary


def persist_hits(hits_by_fp, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    index_path = os.path.join(out_dir, "index.json")
    index = {}
    if os.path.exists(index_path):
        with open(index_path) as fh:
            index = json.load(fh)
    for fp, o in sorted(hits_by_fp.items()):
        if fp in index:
            continue
        name = f"hit-{len(index):04d}-seed{o['seed']}.txt"
        path = os.path.join(out_dir, name)
        report = o["certificate"].as_dict()
        with open(path, "w") as fh:
            fh.write(o["ideal"].to_text())
            # commented out, so that a hit file is itself an ideal file
            fh.write("\n# certificate\n")
            for line in json.dumps(report, sort_keys=True, indent=1,
                                   default=str).splitlines():
                fh.write(f"# {line}\n")
        index[fp] = name
    with open(index_path, "w") as fh:
        json.dump(index, fh, sort_keys=True, indent=1)
