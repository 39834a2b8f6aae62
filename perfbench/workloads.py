"""Seeded inputs, timed operations and known answers for the three workloads.

Every input is generated here as ideal-file text (or, for the hunt, the
screening parameters of one `hilbcert hunt --count 1` call), so the library
receives exactly what a user would hand it.  Known answers come from closed
formulas and from the brute-force oracle in `tests/oracle.py`, which uses no
Groebner bases; none of them is taken from hilbcert's own formulas.

A round is a fixed mix of input kinds.  A run repeats rounds,
each with fresh inputs drawn from (workload, seed, round, slot), so the
same seed always yields the same inputs.
"""

from __future__ import annotations

import importlib.util
import random
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Sizes: "full" is what the benchmark times, "smoke" the tiny variant its own
# tests use.  This shared machine's speed swings by up to 2x within seconds,
# so each metric must rest on several samples of one input class:
# - ext1-gfp: three odd-prime R(3) inputs around one GF(2) input, plus the
#   control, so the median input is an odd-prime one and a round fits in
#   30 s;
# - pair-qq: e=2 pairs only; one e=3 pair costs about 22 reference seconds
#   (34 s of wall time when the machine runs slow), too long for a run;
# - hunt-gf101: one round of six smooth-elementary and two not-TNT
#   candidates, so the median input is a smooth one and every run does the
#   same number of candidates.
SIZES = {
    "full": {"ext1_e": 3, "ext1_fields": (3, 101, 2, 3),
             "pair_es": (2,),
             "hunt_shapes": ((4, 2, 3), (4, 2, 1), (4, 2, 3), (4, 2, 3),
                             (4, 2, 3), (4, 2, 1), (4, 2, 3), (4, 2, 3))},
    "smoke": {"ext1_e": 2, "ext1_fields": (2, 3, 101),
              "pair_es": (2,),
              "hunt_shapes": ((3, 2, 2), (3, 2, 1))},
}
HUNT_FIELD = 101
VARS = ("x1", "x2", "y1", "y2")


def load_oracle():
    """The brute-force reference from the repository's test suite."""
    path = ROOT / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("hilbcert_bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- input text --------------------------------------------------------------


def _monomial(exps):
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(VARS, exps) if e]
    return "*".join(parts) or "1"


def _polynomial(terms):
    """Text of sum(c * monomial) for (c, exps) pairs with integer c."""
    out = ""
    for c, exps in terms:
        if c == 0:
            continue
        body = _monomial(exps) if abs(c) == 1 else f"{abs(c)}*{_monomial(exps)}"
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def _m_generators(e):
    """M(e): the e-th powers of (x1, x2) and of (y1, y2)."""
    gens = [_monomial((e - a, a, 0, 0)) for a in range(e + 1)]
    gens += [_monomial((0, 0, e - a, a)) for a in range(e + 1)]
    return gens


def _bilinear_form(e, c):
    """sum c[a][b] x1^(e-1-a) x2^a y1^(e-1-b) y2^b."""
    return _polynomial(
        (c[a][b], (e - 1 - a, a, e - 1 - b, b)) for a in range(e) for b in range(e)
    )


def ideal_text(field, gens, comment):
    lines = [f"# {comment}", f"field: {field}", "vars: " + " ".join(VARS), "gens:"]
    return "\n".join(lines + list(gens)) + "\n"


def r_text(e, c, field):
    return ideal_text(field, _m_generators(e) + [_bilinear_form(e, c)],
                      f"R({e}) with bilinear matrix {c}")


def m_text(e, field="QQ"):
    return ideal_text(field, _m_generators(e), f"M({e})")


def determinant(c):
    """Exact integer determinant by cofactor expansion (matrices are tiny)."""
    if len(c) == 1:
        return c[0][0]
    return sum(
        (-1) ** j * c[0][j] * determinant([row[:j] + row[j + 1:] for row in c[1:]])
        for j in range(len(c))
    )


def densest_invertible_gf2(rng, e):
    """Seeded e x e 0/1 matrix, invertible over GF(2), with the most non-zero
    entries such a matrix can have (7 for e=3): every invertible matrix over
    GF(2) has zeros, and their number changes the input's cost."""
    found = []
    for bits in range(1 << (e * e)):
        c = [[(bits >> (e * a + b)) & 1 for b in range(e)] for a in range(e)]
        if determinant(c) % 2:
            found.append((sum(map(sum, c)), c))
    most = max(n for n, _ in found)
    return rng.choice([c for n, c in found if n == most])


def random_invertible(rng, e, entries, modulus=None):
    """Seeded e x e integer matrix with entries drawn from `entries`, redrawn
    until it is invertible (over GF(modulus) when one is given)."""
    while True:
        c = [[rng.choice(entries) for _ in range(e)] for _ in range(e)]
        d = determinant(c)
        if (d % modulus if modulus else d) != 0:
            return c


# groebnerfan --t 0: singular matrix over GF(3), so the tangent test fails
CONTROL_MATRIX = [[1, 0, -1], [0, 0, 0], [-1, 0, -1]]


# -- known answers -----------------------------------------------------------


def r_degree(e):
    return comb(e + 1, 2) ** 2 - 1


def r_dimension(e):
    return e**4 + 2 * e**3 - 4 * e + 1


class Input:
    """One unit of work: what the program receives plus what it must answer.

    kind: "elementary", "pair" or "hunt"; payload: the text(s) or screening
    parameters; expected: known answers fixed before the timed operation.
    """

    def __init__(self, ident, label, kind, payload, expected):
        self.ident = ident
        self.label = label
        self.kind = kind
        self.payload = payload
        self.expected = expected


def make_round(workload, seed, rnd, size="full"):
    """The inputs of one round; deterministic in (workload, seed, round)."""
    sz = SIZES[size]

    def rng(slot):
        return random.Random(f"{workload}/{seed}/{rnd}/{slot}")

    out = []
    if workload == "ext1-gfp":
        e = sz["ext1_e"]
        for k, p in enumerate(sz["ext1_fields"]):
            # non-zero entries keep one monomial support, and so one cost,
            # per class; every invertible matrix over GF(2) has zeros
            c = (random_invertible(rng(k), e, range(1, p), modulus=p) if p > 2
                 else densest_invertible_gf2(rng(k), e))
            out.append(Input(
                f"r{rnd}-{k}-gf{p}", f"R({e}) over GF({p})", "elementary",
                r_text(e, c, f"GF({p})"),
                {"verdict": "smooth-elementary", "degree": r_degree(e),
                 "dimension": r_dimension(e)},
            ))
        out.append(Input(
            f"r{rnd}-control", "groebnerfan t=0 over GF(3)", "elementary",
            r_text(3, CONTROL_MATRIX, "GF(3)"),
            {"verdict": "not-TNT", "degree": r_degree(3), "dimension": None},
        ))
    elif workload == "pair-qq":
        for k, e in enumerate(sz["pair_es"]):
            c = random_invertible(rng(k), e, (-1, 1))
            d = comb(e + 1, 2)
            out.append(Input(
                f"r{rnd}-{k}-e{e}", f"pair M({e}) < R({e}) over QQ", "pair",
                {"small": m_text(e), "big": r_text(e, c, "QQ"), "d": d},
                {"verdict": "relative-smooth-elementary", "degree": r_degree(e),
                 "dimension": r_dimension(e)},
            ))
    elif workload == "hunt-gf101":
        for k, (nvars, socle, codim) in enumerate(sz["hunt_shapes"]):
            cand_seed = rng(k).randrange(1 << 30)
            out.append(Input(
                f"r{rnd}-{k}-hunt",
                f"hunt vars {nvars} socle {socle} codim {codim} over GF({HUNT_FIELD})",
                "hunt",
                {"vars": nvars, "socle": socle, "codim": codim, "seed": cand_seed},
                # the quotient's Hilbert function is forced by the template
                {"hilbert_function": {0: 1, 1: nvars, socle: codim}},
            ))
    else:
        raise KeyError(f"unknown workload {workload!r}")
    return out


WORKLOADS = ("ext1-gfp", "pair-qq", "hunt-gf101")


# -- the timed operations ----------------------------------------------------


class Program:
    """The library entry points one input goes through, bound once after
    import; `run` is the timed operation from input to verdict."""

    def __init__(self):
        import hilbcert
        from hilbcert import search

        self.hilbcert = hilbcert
        self.search = search

    def run(self, inp):
        h = self.hilbcert
        if inp.kind == "elementary":
            f = h.parse_ideal_file(inp.payload)
            return h.elementary_certificate(h.IdealPresentation(f.ring, f.generators))
        if inp.kind == "pair":
            fm = h.parse_ideal_file(inp.payload["small"])
            fr = h.parse_ideal_file(inp.payload["big"])
            d = inp.payload["d"]
            return h.pair_certificate(
                h.IdealPresentation(fm.ring, fm.generators),
                h.IdealPresentation(fr.ring, fr.generators),
                product_degrees=(d, d),
            )
        return self._hunt_one(inp.payload)

    def _hunt_one(self, params):
        """One `screen(shape, 1)` call; the per-candidate outcome (ideal and
        certificate) is captured from the screening step so that it can be
        checked against the oracle afterwards."""
        h = self.hilbcert
        shape = h.CandidateShape(
            added_vars=params["vars"], socle=params["socle"],
            codim=params["codim"], field=h.GF(HUNT_FIELD), seed=params["seed"],
        )
        captured = []
        screen_one = self.search._screen_one

        def capture(shape, seed):
            outcome = screen_one(shape, seed)
            captured.append(outcome)
            return outcome

        self.search._screen_one = capture
        try:
            summary = h.screen(shape, 1)
        finally:
            self.search._screen_one = screen_one
        if summary["errors"]:
            # screen() records a candidate's error instead of raising it
            raise RuntimeError(summary["log"][0])
        return {"summary": summary, "outcome": captured[0]}


# -- checking ----------------------------------------------------------------


def parse_series(text):
    """'4T^-1+56+64T' -> {-1: 4, 0: 56, 1: 64}."""
    out = {}
    if text == "0":
        return out
    for part in text.split("+"):
        coeff, t, power = part.partition("T")
        degree = 0 if not t else (int(power[1:]) if power else 1)
        out[degree] = int(coeff) if coeff else 1
    return out


def summarize(inp, result):
    """Flat description of an outcome: verdict, dimension and the series and
    fingerprint used for checking and for the determinism comparison."""
    if inp.kind == "hunt":
        o = result["outcome"]
        cert = o["certificate"]
        tnt = cert.check("trivial-negative-tangents").payload
        hf = cert.check("finite-colength").payload
        return {
            "verdict": cert.verdict,
            "rederived": cert.rederive_verdict(),
            "summary_verdicts": result["summary"]["verdicts"],
            "dimension": cert.dimension,
            "hilbert_function": hf["hilbert_function"],
            "hom_series": tnt["hom_series"],
            "dim_hom_negative": tnt["dim_hom_negative"],
            "n_variables": tnt["n_variables"],
            "fingerprint": o["fingerprint"],
            "gens": [str(g) for g in o["ideal"].gens],
        }
    out = {
        "verdict": result.verdict,
        "rederived": result.rederive_verdict(),
        "dimension": result.dimension,
        "dim_hom": result.check("trivial-negative-tangents").payload["dim_hom"],
        "fingerprint": result.fingerprint["ideal_hash"],
    }
    colength = result.check("finite-colength")
    if colength is not None:
        out["degree"] = colength.payload["degree"]
        out["hilbert_function"] = colength.payload["hilbert_function"]
    return out


class Checker:
    """Compares outcomes with known answers; run outside the timed region."""

    def __init__(self, oracle, hilbcert):
        self.oracle = oracle
        self.hilbcert = hilbcert

    def mismatches(self, inp, summary):
        exp = inp.expected
        bad = []

        def differ(key, want, got):
            if want != got:
                bad.append(f"{key}: expected {want!r}, got {got!r}")

        differ("rederived verdict", summary["verdict"], summary["rederived"])
        if inp.kind == "hunt":
            self._check_hunt(inp, summary, differ)
            return bad
        differ("verdict", exp["verdict"], summary["verdict"])
        differ("dimension", exp["dimension"], summary["dimension"])
        if exp["dimension"] is not None:
            # a smooth point: the tangent space has the component's dimension
            differ("tangent dimension", exp["dimension"], summary["dim_hom"])
        text = inp.payload if inp.kind == "elementary" else inp.payload["big"]
        parsed = self.hilbcert.parse_ideal_file(text)
        socle = self.oracle.socle_degree(parsed.ring, parsed.generators)
        hf = self.oracle.quotient_dims(parsed.ring, parsed.generators, socle)
        differ("degree (closed formula vs oracle)", exp["degree"], sum(hf))
        if "hilbert_function" in summary:
            differ("degree", exp["degree"], summary["degree"])
            differ("Hilbert function series",
                   {d: v for d, v in enumerate(hf) if v},
                   parse_series(summary["hilbert_function"]))
        return bad

    def _check_hunt(self, inp, s, differ):
        h = self.hilbcert
        differ("screen summary", {s["verdict"]: 1}, s["summary_verdicts"])
        ring = h.GradedRing(
            [f"z{i + 1}" for i in range(inp.payload["vars"])], None, h.GF(HUNT_FIELD)
        )
        gens = [h.parse_polynomial(g, ring) for g in s["gens"]]
        socle = inp.payload["socle"]
        hf = self.oracle.quotient_dims(ring, gens, socle + 1)
        differ("Hilbert function (oracle vs template)",
               inp.expected["hilbert_function"],
               {d: v for d, v in enumerate(hf) if v})
        differ("Hilbert function series", inp.expected["hilbert_function"],
               parse_series(s["hilbert_function"]))
        degrees = [g.degree() for g in gens]
        hom = self.oracle.hom_dims(ring, gens, -max(degrees), socle - min(degrees))
        differ("Hom series (oracle)", {d: v for d, v in hom.items() if v},
               parse_series(s["hom_series"]))
        negative = sum(v for d, v in hom.items() if d < 0)
        differ("negative Hom dimension (oracle)", negative, s["dim_hom_negative"])
        differ("TNT exactly when the negative Hom dimension is n",
               negative == s["n_variables"], s["verdict"] != "not-TNT")
