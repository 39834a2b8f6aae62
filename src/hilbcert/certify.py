"""Decision procedures with auditable certificates.

A certificate records every check that contributed to a verdict, with exact
numeric payloads, so the verdict can be re-derived from the stored checks
alone.  Verdicts:

  smooth-elementary           smooth point on an elementary component
  relative-smooth-elementary  smooth relative to an asserted smooth base
  TNT-elementary              negative tangents trivial; smoothness open
  not-TNT                     has nontrivial negative tangents
  inconclusive                criteria do not decide the input
"""

from __future__ import annotations

import hashlib
import time
from math import comb

from .artinian import ArtinianQuotient
from .fields import field_name
from .groebner import IdealPresentation
from .homology import (
    Presentation,
    diagram_maps,
    evaluate,
    ext1_generic,
    hom_nonneg_filtration,
    hom_space,
    image_matrix,
    t2_space,
)
from .linalg import mat_mul, rank

VERDICTS = (
    "TNT-elementary",
    "smooth-elementary",
    "relative-smooth-elementary",
    "not-TNT",
    "inconclusive",
)


class Check:
    """One named criterion with its exact payload and outcome."""

    __slots__ = ("name", "payload", "passed")

    def __init__(self, name, payload, passed):
        self.name = name
        self.payload = payload
        self.passed = passed

    def as_dict(self):
        out = {"name": self.name, "passed": self.passed}
        out.update({f"payload_{k}": v for k, v in self.payload.items()})
        return out


def derive_verdict(checks) -> str:
    """Recompute the verdict from check names and outcomes alone."""
    by_name = {c.name: c for c in checks}
    tnt = by_name.get("trivial-negative-tangents")
    if tnt is None:
        return "inconclusive"
    result = tnt.payload.get("result")
    if result == "false":
        return "not-TNT"
    if "base-smoothness-hypothesis" in by_name:
        needed = [
            by_name.get("base-smoothness-hypothesis"),
            by_name.get("tangent-restriction-surjective"),
            by_name.get("obstruction-restriction-surjective"),
        ]
        if result == "true" and all(c is not None and c.passed for c in needed):
            return "relative-smooth-elementary"
        return "inconclusive"
    if result == "inconclusive":
        return "inconclusive"
    vanishing = by_name.get("obstruction-vanishing")
    if vanishing is not None and vanishing.passed:
        return "smooth-elementary"
    return "TNT-elementary"


class Certificate:
    __slots__ = ("fingerprint", "checks", "verdict", "dimension", "elapsed")

    def __init__(self, fingerprint, checks, dimension=None, elapsed=None):
        self.fingerprint = fingerprint
        self.checks = list(checks)
        self.verdict = derive_verdict(self.checks)
        self.dimension = dimension
        self.elapsed = elapsed

    def rederive_verdict(self) -> str:
        return derive_verdict(self.checks)

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        return None

    def as_dict(self):
        out = dict(self.fingerprint)
        out["verdict"] = self.verdict
        if self.dimension is not None:
            out["dimension"] = self.dimension
        if self.elapsed is not None:
            out["elapsed_seconds"] = round(self.elapsed, 3)
        for c in self.checks:
            prefix = f"check_{c.name}"
            out[f"{prefix}_passed"] = c.passed
            for k, v in c.payload.items():
                out[f"{prefix}_{k}"] = v
        return out


def fingerprint(ideal: IdealPresentation) -> dict:
    gens = [str(g) for g in ideal.gens]
    digest = hashlib.sha256(
        "|".join(
            [field_name(ideal.ring.field)]
            + list(ideal.ring.variables)
            + [str(w) for w in ideal.ring.weights]
            + gens
        ).encode()
    ).hexdigest()[:16]
    return {
        "field": field_name(ideal.ring.field),
        "variables": " ".join(ideal.ring.variables),
        "weights": " ".join(str(w) for w in ideal.ring.weights),
        "generators": "; ".join(gens),
        "ideal_hash": digest,
    }


class TNTData:
    """Working data behind the trivial-negative-tangents decision, from
    Hom(I, S/I) on the ideal's own generators."""

    def __init__(self, ideal, hom):
        ring = ideal.ring
        f = ring.field
        self.ideal = ideal
        self.hom = hom
        quotient = hom.target
        # the translation along x_i sends each generator to its partial; it
        # must kill every relation the Hom was computed against
        deriv_rows = [
            [x for g in ideal.gens for x in quotient.poly_vector(g.partial(i))]
            for i in range(ring.n)
        ]
        translations = image_matrix(deriv_rows)
        for action in hom.actions:
            values = evaluate(action, translations, quotient)
            if any(x != f.zero for row in values for x in row):
                raise AssertionError("translation map violates a syzygy")
        total = self.hom.total_dim()
        width = len(ideal.gens) * quotient.dim
        self.cutoff_checked = False
        if self.hom.graded:
            nonneg_rows = [h.flatten() for h in self.hom.elements if h.degree >= 0]
            self.dim_nonneg = len(nonneg_rows)
        else:
            dim0, coeffs = hom_nonneg_filtration(ideal, quotient, self.hom)
            start = quotient.filtration_start()
            dim1, _ = hom_nonneg_filtration(ideal, quotient, self.hom,
                                            start=start + 1)
            if dim0 != dim1:
                raise ArithmeticError(
                    "filtration cutoff instability: "
                    f"dimension {dim0} at bound {start} vs {dim1} at {start + 1}"
                )
            self.cutoff_checked = True
            nonneg_rows = mat_mul(coeffs, self.hom.flat_rows(), width, f)
            self.dim_nonneg = len(nonneg_rows)
        self.dim_total = total
        self.dim_negative = total - self.dim_nonneg
        self.spanned = rank(nonneg_rows + deriv_rows, width, f) == total
        self.shortcut_applicable = all(w == 1 for w in ring.weights) and (
            f.char == 0 or ideal.homogeneous
        )
        if self.shortcut_applicable:
            shortcut = self.dim_negative == ring.n
            if shortcut != self.spanned:
                raise AssertionError(
                    "negative-tangent dimension count disagrees with the "
                    "definitional spanning test"
                )
        if self.spanned:
            if ideal.homogeneous or f.char == 0:
                self.result = "true"
            else:
                # non-homogeneous over a finite field: the spanning test
                # passing is necessary but we do not assert the equivalence
                self.result = "inconclusive"
        else:
            self.result = "false"

    def payload(self):
        out = {
            "result": self.result,
            "dim_hom": self.dim_total,
            "dim_hom_nonneg": self.dim_nonneg,
            "dim_hom_negative": self.dim_negative,
            "n_variables": self.ideal.ring.n,
            "shortcut_applicable": self.shortcut_applicable,
        }
        if self.hom.graded:
            out["hom_series"] = self.hom.series()
        if self.cutoff_checked:
            out["cutoff_stable"] = True
        return out


def _origin_checked(quotient: ArtinianQuotient) -> ArtinianQuotient:
    if not quotient.has_nilpotent_action():
        raise ValueError("subscheme is not supported at the origin")
    return quotient


def tnt_data(ideal: IdealPresentation) -> TNTData:
    """The tangent test on S/I, once the quotient is checked to be supported
    at the origin; its `hom` is Hom(I, S/I) and `hom.target` is S/I."""
    quotient = _origin_checked(ArtinianQuotient(ideal))
    return TNTData(ideal, hom_space(Presentation.of_ideal(ideal), quotient))


def tnt_check(ideal: IdealPresentation):
    """Trivial-negative-tangents decision: 'true', 'false', or
    'inconclusive', with the exact dimension payload."""
    data = tnt_data(ideal)
    return data.result, data.payload()


def elementary_certificate(ideal: IdealPresentation) -> Certificate:
    t0 = time.perf_counter()
    cert = _elementary_certificate(tnt_data(ideal))
    cert.elapsed = time.perf_counter() - t0
    return cert


def _elementary_certificate(tnt: TNTData) -> Certificate:
    """The certificate of `tnt.ideal`, untimed, from its tangent data, which
    holds S/I and Hom(I, S/I)."""
    ideal = tnt.ideal
    quotient = tnt.hom.target
    hf = quotient.hilbert_function()
    checks = [
        Check(
            "finite-colength",
            {"degree": quotient.dim, "hilbert_function": hf.series()},
            True,
        ),
        Check("origin-support", {}, True),
    ]
    checks.append(Check("trivial-negative-tangents", tnt.payload(),
                        tnt.result == "true"))
    dimension = None
    if tnt.result == "true" and ideal.homogeneous:
        # the verdict reads degrees >= 0 only, and Ext^1 is computed there
        ext1 = ext1_generic(tnt.hom, floor=0)
        payload = {
            "ext1_nonneg_series": ext1.series(),
            "dim_ext1_nonneg": ext1.dim_nonneg(),
        }
        vanishes = ext1.dim_nonneg() == 0
        if not vanishes:
            t2 = t2_space(ideal, ext1)
            payload["t2_nonneg_series"] = t2.series()
            payload["dim_t2_nonneg"] = t2.dim_nonneg()
            vanishes = t2.dim_nonneg() == 0
        checks.append(Check("obstruction-vanishing", payload, vanishes))
        if vanishes:
            dimension = tnt.dim_total
    return Certificate(fingerprint(ideal), checks, dimension=dimension)


def pair_certificate(M: IdealPresentation, R: IdealPresentation,
                     m_smooth_assertion=False,
                     product_degrees=None) -> Certificate:
    """Certify the small-inside-big pair; the smoothness of the big scheme's
    point must either be asserted by the caller or follow from the declared
    product structure (tangent dimension 4 * d1 * d2)."""
    t0 = time.perf_counter()
    dm = diagram_maps(M, R)
    checks = []
    hyp_payload = {}
    if product_degrees is not None:
        d1, d2 = product_degrees
        expected = 4 * d1 * d2
        actual = dm.hom_mm.total_dim()
        hyp_payload = {
            "provenance": "product-structure",
            "expected_tangent": expected,
            "actual_tangent": actual,
        }
        hyp_ok = actual == expected
    elif m_smooth_assertion:
        hyp_payload = {"provenance": "asserted"}
        hyp_ok = True
    else:
        hyp_payload = {"provenance": "missing",
                       "warning": "smoothness of the base point not asserted"}
        hyp_ok = False
    checks.append(Check("base-smoothness-hypothesis", hyp_payload, hyp_ok))
    checks.append(
        Check(
            "tangent-restriction-surjective",
            {
                "surjective_nonneg": dm.phi_surjective_nonneg,
                "surjective_all": dm.phi_surjective_all,
            },
            dm.phi_surjective_nonneg,
        )
    )
    checks.append(
        Check(
            "obstruction-restriction-surjective",
            {
                "surjective_nonneg": dm.partial_surjective_nonneg,
                "surjective_all": dm.partial_surjective_all,
                "psi_surjective_nonneg": dm.psi_surjective_nonneg,
                "psi_surjective_all": dm.psi_surjective_all,
            },
            dm.partial_surjective_nonneg,
        )
    )
    checks.append(Check("exact-sequence-bookkeeping", {}, dm.exactness_ok))
    # the diagram's Hom(I_R, S/I_R) is on R's own generators
    _origin_checked(dm.hom_big.target)
    tnt = TNTData(R, dm.hom_big)
    checks.append(Check("trivial-negative-tangents", tnt.payload(),
                        tnt.result == "true"))
    n = M.ring.n
    terms = {
        "n": n,
        "dim_hom_mm_nonneg": dm.hom_mm.dim_nonneg(),
        "dim_ext1_j_nonneg": dm.ext_jr.dim_nonneg(),
        "dim_hom_j_nonneg": dm.hom_jr.dim_nonneg(),
        "dim_hom_mj_nonneg": dm.hom_mj.dim_nonneg(),
    }
    dimension = (
        n
        + terms["dim_hom_mm_nonneg"]
        - terms["dim_ext1_j_nonneg"]
        + terms["dim_hom_j_nonneg"]
        - terms["dim_hom_mj_nonneg"]
    )
    checks.append(Check("relative-dimension", terms, True))
    cert = Certificate(fingerprint(R), checks, dimension=dimension,
                       elapsed=time.perf_counter() - t0)
    if cert.verdict != "relative-smooth-elementary":
        cert.dimension = None if cert.verdict == "not-TNT" else cert.dimension
    return cert


def dimension_formulas(e: int) -> dict:
    """Degree and dimension bookkeeping for the one-parameter family of
    examples indexed by e >= 2, with the two dimension expressions checked
    against each other."""
    if e < 2:
        raise ValueError("parameter must be at least 2")
    deg_r = comb(e + 1, 2) ** 2 - 1
    deg_m = comb(e + 1, 2) ** 2
    dim_a = 4 * deg_r - (e - 1) * (e + 5)
    dim_b = e**4 + 2 * e**3 - 4 * e + 1
    if dim_a != dim_b:
        raise AssertionError("dimension formulas disagree")
    return {"deg_R": deg_r, "deg_M": deg_m, "dimension": dim_a,
            "dimension_alt": dim_b}
