"""Built-in example ideals with their expected exact invariants.

Each entry constructs a specific ideal deterministically and carries the
invariants it is known to have (Hilbert function, Hom/Ext series, verdicts,
dimensions).  `verify` recomputes every expected value and reports exact
match or mismatch per item.
"""

from __future__ import annotations

from math import comb

from .artinian import ArtinianQuotient
from .certify import (
    _elementary_certificate,
    dimension_formulas,
    pair_certificate,
    tnt_check,
    tnt_data,
)
from .fields import GF, QQ
from .groebner import IdealPresentation
from .homology import Presentation, ext1_generic, hom_space
from .linalg import det, rank
from .parsing import IdealFile
from .rings import GradedRing


def _square_ring(field, weights=None):
    return GradedRing(["x1", "x2", "y1", "y2"], weights, field)


def build_M(e: int, field=QQ) -> IdealPresentation:
    """Sum of the e-th powers of the two coordinate-plane ideals."""
    if e < 1:
        raise ValueError("power must be at least 1")
    ring = _square_ring(field)
    x1, x2, y1, y2 = ring.gens()
    gens = []
    for a in range(e + 1):
        gens.append(x1 ** (e - a) * x2**a)
    for a in range(e + 1):
        gens.append(y1 ** (e - a) * y2**a)
    return IdealPresentation(ring, gens)


def bilinear_form(ring, e, c):
    """sum of c[a][b] * x1^(e-1-a) x2^a y1^(e-1-b) y2^b."""
    x1, x2, y1, y2 = ring.gens()
    f = ring.field
    s = ring.zero
    for a in range(e):
        for b in range(e):
            coeff = f.of(c[a][b])
            if coeff != f.zero:
                term = x1 ** (e - 1 - a) * x2**a * y1 ** (e - 1 - b) * y2**b
                s = s + term.scale(coeff)
    return s


def build_R(e: int, c=None, field=QQ):
    """The M(e) generators plus one bilinear form of bidegree (e-1, e-1).

    Returns (ideal, general) where `general` records whether the coefficient
    matrix is invertible; a singular matrix is allowed but the expected
    invariants are only guaranteed in the invertible case.
    """
    if e < 1:
        raise ValueError("power must be at least 1")
    if c is None:
        c = [[1 if a == b else 0 for b in range(e)] for a in range(e)]
    m = build_M(e, field)
    ring = m.ring
    s = bilinear_form(ring, e, c)
    rows = [[field.of(v) for v in row] for row in c]
    general = rank(rows, e, field) == e
    ideal = IdealPresentation(ring, list(m.gens) + [s])
    return ideal, general


def groebner_fan_matrix(t, field):
    return [
        [field.of(1), field.of(0), field.of(-1)],
        [field.of(0), field.of(t), field.of(0)],
        [field.of(-1), field.of(0), field.of(-1)],
    ]


class GallerySpec:
    def __init__(self, name, ideal, expected, companion=None):
        self.name = name
        self.ideal = ideal
        self.expected = expected
        self.companion = companion  # auxiliary data per entry

    def ideal_file(self) -> IdealFile:
        return IdealFile(self.ideal.ring, self.ideal.gens)


def build_entry(name: str, e=None, t=None) -> GallerySpec:
    """Construct a named example with its expected invariants attached."""
    if name == "me":
        e = 2 if e is None else e
        ideal = build_M(e)
        deg = comb(e + 1, 2) ** 2
        return GallerySpec(
            f"me-{e}",
            ideal,
            {
                "degree": deg,
                "dim_hom": 4 * deg,
                "dim_hom_degree_minus1": 2 * e * (e + 1),
            },
        )
    if name in ("re", "cevv143"):
        if name == "cevv143":
            e = 2
        e = 2 if e is None else e
        ideal, general = build_R(e)
        assert general
        formulas = dimension_formulas(e) if e >= 2 else None
        expected = {"degree": comb(e + 1, 2) ** 2 - 1, "tnt": "true"}
        if e == 2:
            expected.update(
                {
                    "hilbert_function": "1+4T+3T^2",
                    "dim_hom": 25,
                    "dim_hom_negative": 4,
                    "verdict": "smooth-elementary",
                    "dimension": 25,
                    "pair_dimension": 25,
                }
            )
        if e == 3:
            expected.update(
                {
                    "hilbert_function": "1+4T+10T^2+12T^3+8T^4",
                    "hom_series": "4T^-1+56+64T",
                    "dim_hom": 124,
                    "pair_dimension": 124,
                    "pair_surjectivity": True,
                }
            )
        if e in (4, 5):
            expected.update({"pair_dimension": formulas["dimension"],
                             "pair_surjectivity": True})
        if formulas is not None:
            expected["dimension_formula"] = formulas["dimension"]
        return GallerySpec(f"re-{e}" if name == "re" else "cevv143", ideal,
                           expected, companion={"e": e})
    if name == "naive56":
        ring = GradedRing(["x", "y", "z", "t"], field=GF(2))
        x, y, z, tt = ring.gens()
        q1 = x * y**2 * z + y**2 * z**2 + x**2 * y * tt
        q2 = y * z**2 * tt + x * z * tt**2
        ideal = IdealPresentation(
            ring, [x**3, y**3, z**3, tt**3, q1, q2]
        )
        return GallerySpec(
            "naive56",
            ideal,
            {
                "degree": 56,
                "hilbert_function": "1+4T+10T^2+16T^3+17T^4+8T^5",
                "hom_series": "4T^-1+98+84T+32T^2",
                "dim_hom": 218,
                "dim_hom_negative": 4,
                "ext1_series": "60T^-3+204T^-2+60T^-1",
                "dim_ext1_nonneg": 0,
                "verdict": "smooth-elementary",
                "dimension": 218,
                "first_syzygy_degrees": {6: 16, 7: 4},
            },
        )
    if name == "groebnerfan":
        t = 1 if t is None else t
        field = GF(3)
        matrix = groebner_fan_matrix(t, field)
        ring = _square_ring(field)
        m = build_M(3, field)
        s = bilinear_form(ring, 3, matrix)
        ideal = IdealPresentation(ring, list(m.gens) + [s])
        tval = field.of(t)
        expected = {
            "degree": 35,
            "matrix_det": tval,
            "tnt": "true" if tval != field.zero else "false",
        }
        if tval != field.zero:
            expected["verdict"] = "smooth-elementary"
            expected["dimension"] = 124
        return GallerySpec(f"groebnerfan-t{t}", ideal, expected,
                           companion={"matrix": matrix, "t": tval})
    if name == "weighted_counterexample":
        ring = _square_ring(QQ, weights=(3, 1, 3, 1))
        x1, x2, y1, y2 = ring.gens()
        gens = [
            x1 * x1, x1 * x2, x2 * x2,
            y1 * y1, y1 * y2, y2 * y2,
            x1 * y1 + x2 * y2,
        ]
        ideal = IdealPresentation(ring, gens)
        standard = IdealPresentation(
            _square_ring(QQ),
            [g for g in _reparse(gens, _square_ring(QQ))],
        )
        return GallerySpec(
            "weighted_counterexample",
            ideal,
            {"tnt": "false", "tnt_standard_grading": "true"},
            companion={"standard": standard},
        )
    raise KeyError(
        f"unknown gallery entry {name!r}; available: me, re, cevv143, "
        "naive56, groebnerfan, weighted_counterexample"
    )


def _reparse(gens, ring):
    from .parsing import parse_polynomial

    return [parse_polynomial(str(g), ring) for g in gens]


def verify(spec: GallerySpec) -> dict:
    """Recompute every expected invariant; returns per-item results."""
    ideal = spec.ideal
    results = {}

    def record(key, expected, actual):
        results[key] = {
            "expected": expected,
            "actual": actual,
            "match": expected == actual,
        }

    expected = spec.expected
    needs_cert = {"verdict", "dimension"} & set(expected)
    needs_hom = {
        "dim_hom", "dim_hom_negative", "hom_series", "dim_hom_degree_minus1",
        "ext1_series", "dim_ext1_nonneg",
    } & set(expected)
    if "tnt" in expected or needs_cert:
        # the tangent test's S/I and Hom(I, S/I) serve every record below,
        # the elementary certificate included
        tnt = tnt_data(ideal)
        quotient, hom = tnt.hom.target, tnt.hom
    elif needs_hom or {"degree", "hilbert_function"} & set(expected):
        quotient = ArtinianQuotient(ideal)
        if needs_hom:
            hom = hom_space(Presentation.of_ideal(ideal), quotient)
    if "degree" in expected:
        record("degree", expected["degree"], quotient.dim)
    if "hilbert_function" in expected:
        record("hilbert_function", expected["hilbert_function"],
               quotient.hilbert_function().series())
    if "dim_hom" in expected:
        record("dim_hom", expected["dim_hom"], hom.total_dim())
    if "hom_series" in expected:
        record("hom_series", expected["hom_series"], hom.series())
    if "dim_hom_negative" in expected:
        record("dim_hom_negative", expected["dim_hom_negative"],
               hom.dim_negative())
    if "dim_hom_degree_minus1" in expected:
        record("dim_hom_degree_minus1", expected["dim_hom_degree_minus1"],
               hom.dims().get(-1, 0))
    if {"ext1_series", "dim_ext1_nonneg"} & set(expected):
        ext1 = ext1_generic(hom)
        if "ext1_series" in expected:
            record("ext1_series", expected["ext1_series"], ext1.series())
        if "dim_ext1_nonneg" in expected:
            record("dim_ext1_nonneg", expected["dim_ext1_nonneg"],
                   ext1.dim_nonneg())
    if "tnt" in expected:
        record("tnt", expected["tnt"], tnt.result)
    if "tnt_standard_grading" in expected:
        result, _ = tnt_check(spec.companion["standard"])
        record("tnt_standard_grading", expected["tnt_standard_grading"], result)
    if "matrix_det" in expected:
        record("matrix_det", expected["matrix_det"],
               det(spec.companion["matrix"], ideal.ring.field))
    if needs_cert:
        cert = _elementary_certificate(tnt)
        if "verdict" in expected:
            record("verdict", expected["verdict"], cert.verdict)
        if "dimension" in expected:
            record("dimension", expected["dimension"], cert.dimension)
    if "first_syzygy_degrees" in expected:
        # a graded presentation keeps a minimal set of syzygies
        counts = {}
        for s in ideal.syzygies:
            counts[s.degree()] = counts.get(s.degree(), 0) + 1
        record("first_syzygy_degrees", expected["first_syzygy_degrees"],
               counts)
    if {"pair_dimension", "pair_surjectivity"} & set(expected):
        e = spec.companion["e"]
        m = build_M(e, ideal.ring.field)
        d = comb(e + 1, 2)
        cert = pair_certificate(m, ideal, product_degrees=(d, d))
        if "pair_dimension" in expected:
            record("pair_dimension", expected["pair_dimension"],
                   cert.dimension)
        if "pair_surjectivity" in expected:
            check = cert.check("tangent-restriction-surjective")
            ocheck = cert.check("obstruction-restriction-surjective")
            record(
                "pair_surjectivity",
                expected["pair_surjectivity"],
                bool(
                    check.payload["surjective_all"]
                    and ocheck.payload["surjective_nonneg"]
                    and ocheck.payload["psi_surjective_all"]
                ),
            )
    if "dimension_formula" in expected:
        e = spec.companion["e"]
        record("dimension_formula", expected["dimension_formula"],
               dimension_formulas(e)["dimension"])
    results["all_match"] = all(
        v["match"] for k, v in results.items() if k != "all_match"
    )
    return results
