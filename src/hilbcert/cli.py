"""Command-line interface.

Subcommands:
  hf       Hilbert function and degree of a zero-dimensional quotient
  certify  full certificate for one ideal, or for a pair with --pair
  gallery  emit a built-in example (or re-verify its invariants)
  hunt     seeded randomized screening for trivial-negative-tangent ideals

Reports are flat key-value JSON documents with exact integers only.
Exit codes: 0 smooth-elementary / relative-smooth-elementary, 1
TNT-elementary, 2 not-TNT, 3 inconclusive, 4 error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .artinian import ArtinianQuotient
from .certify import elementary_certificate, fingerprint, pair_certificate
from .fields import field_from_name
from .gallery import build_entry, verify
from .groebner import IdealPresentation
from .parsing import ParseError, parse_ideal_file
from .search import CandidateShape, screen

EXIT_BY_VERDICT = {
    "smooth-elementary": 0,
    "relative-smooth-elementary": 0,
    "TNT-elementary": 1,
    "not-TNT": 2,
    "inconclusive": 3,
}
EXIT_ERROR = 4


def _emit(report: dict):
    print(json.dumps(report, sort_keys=True, indent=1, default=str))


def _load_ideal(path: str) -> IdealPresentation:
    with open(path) as fh:
        text = fh.read()
    f = parse_ideal_file(text)
    return IdealPresentation(f.ring, f.generators)


def cmd_hf(args) -> int:
    ideal = _load_ideal(args.file)
    t0 = time.perf_counter()
    quotient = ArtinianQuotient(ideal)
    series = quotient.hilbert_function().series()
    report = dict(fingerprint(ideal))
    report.update(
        {
            "hilbert_function": series,
            "degree": quotient.dim,
            "summary": f"{series}; deg {quotient.dim}",
            "elapsed_seconds": round(time.perf_counter() - t0, 3),
        }
    )
    _emit(report)
    return 0


def cmd_certify(args) -> int:
    ideal = _load_ideal(args.file)
    if args.graded_only and not ideal.homogeneous:
        raise ValueError(
            "--graded-only: input is not homogeneous in the declared grading"
        )
    if args.pair:
        small = _load_ideal(args.pair)
        cert = pair_certificate(
            small, ideal, m_smooth_assertion=args.assert_m_smooth
        )
    else:
        cert = elementary_certificate(ideal)
    _emit(cert.as_dict())
    return EXIT_BY_VERDICT[cert.verdict]


def cmd_gallery(args) -> int:
    try:
        spec = build_entry(args.name, e=args.e, t=args.t)
    except KeyError as exc:
        print(str(exc.args[0]), file=sys.stderr)
        return EXIT_ERROR
    if not args.verify:
        sys.stdout.write(spec.ideal_file().to_text())
        return 0
    results = verify(spec)
    report = {"entry": spec.name, "all_match": results["all_match"]}
    for key, item in results.items():
        if key == "all_match":
            continue
        report[f"{key}_expected"] = item["expected"]
        report[f"{key}_actual"] = item["actual"]
        report[f"{key}_match"] = item["match"]
    _emit(report)
    return 0 if results["all_match"] else EXIT_ERROR


def cmd_hunt(args) -> int:
    field = field_from_name(args.field)
    base_vars = ()
    base_gens = ()
    if args.base:
        with open(args.base) as fh:
            base = parse_ideal_file(fh.read())
        if base.ring.field is not field and base.ring.field != field:
            raise ValueError("base ideal field does not match --field")
        base_vars = base.ring.variables
        base_gens = base.generators
    shape = CandidateShape(
        added_vars=args.vars,
        socle=args.socle,
        codim=args.codim,
        field=field,
        base_vars=base_vars,
        base_gens=base_gens,
        base_regularity=args.base_regularity,
        seed=args.seed,
    )
    summary = screen(shape, args.count, out_dir=args.out)
    for line in summary.pop("log"):
        print(line)
    report = dict(shape.describe())
    report.update(summary)
    _emit(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbcert",
        description=(
            "Exact certificates for ideals defining points of Hilbert "
            "schemes: trivial negative tangents, tangent/obstruction "
            "dimensions, smoothness of elementary components."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hf", help="Hilbert function and degree")
    p.add_argument("file", help="ideal file")
    p.set_defaults(func=cmd_hf)

    p = sub.add_parser("certify", help="full certificate with exit code")
    p.add_argument("file", help="ideal file")
    p.add_argument("--pair", metavar="M_FILE",
                   help="certify relative to this base ideal")
    p.add_argument("--assert-M-smooth", dest="assert_m_smooth",
                   action="store_true",
                   help="assert the base point is smooth (pair mode)")
    p.add_argument("--graded-only", action="store_true",
                   help="reject non-homogeneous input")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("gallery", help="built-in examples")
    p.add_argument("name", help="entry name")
    p.add_argument("--e", type=int, default=None, help="family parameter")
    p.add_argument("--t", type=int, default=None, help="matrix parameter")
    p.add_argument("--verify", action="store_true",
                   help="recompute and diff all expected invariants")
    p.set_defaults(func=cmd_gallery)

    p = sub.add_parser("hunt", help="seeded randomized screening")
    p.add_argument("--vars", type=int, required=True,
                   help="number of added variables")
    p.add_argument("--socle", type=int, required=True,
                   help="degree of the constrained slice")
    p.add_argument("--codim", type=int, required=True,
                   help="codimension of the random subspace in that slice")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="hit store directory")
    p.add_argument("--field", default="GF(101)")
    p.add_argument("--base", default=None, help="base ideal file")
    p.add_argument("--base-regularity", type=int, default=None,
                   help="regularity bound of the base ideal (user input)")
    p.set_defaults(func=cmd_hunt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except AssertionError as exc:
        # a failed self-check says nothing about the input's verdict
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
