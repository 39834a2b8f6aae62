"""Time-to-verdict benchmark for hilbcert.

Usage (from the repository root):

    python3 perfbench/run.py --workload ext1-gfp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --determinism --workload hunt-gf101 --seed 1 --seconds 0

A run times the library path from ideal-file text to a verdict, the one
`hilbcert certify FILE` takes (and one `screen(shape, 1)` call per hunt
candidate), in this process with one thread.  It repeats rounds of seeded
inputs (a fixed mix of input kinds): always one round, then more while the
last round's duration still fits in --seconds.  Every verdict is checked
against known answers after the timed region.

The shared host's speed drifts, so a speed probe (calibrate.py) times a
tiny fixed job fifty times a second while the inputs run.  Each input's
wall-clock time, less the probe's own time, is divided by its speed factor:
the mean probe time during it over calibrate.NOMINAL_SECONDS.  The report
lines also give the raw wall-clock values.

--trace 0 prints the end-to-end metrics; --trace 1 runs each input once
untraced and at once traced with the span tracer, writes the spans to
perfbench/_out/, and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 11
SETUP_PROBES = 40

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Checker, Program, load_oracle, make_round, summarize  # noqa: E402

# import time of hilbcert in a fresh interpreter, with the speed factor of
# probe jobs timed just after it (calibrate is imported only then, so that
# the modules it needs are not preloaded for hilbcert)
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "t = time.perf_counter(); import hilbcert; t = time.perf_counter() - t; "
    "import calibrate; print(t, calibrate.factor_of(calibrate.job_seconds(int(sys.argv[3]))))"
)


def import_library():
    """Import hilbcert from this checkout's src/ (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    import hilbcert

    if Path(hilbcert.__file__).resolve().parent != SRC / "hilbcert":
        raise ImportError(f"hilbcert imported from {hilbcert.__file__}, not {SRC}")


def fresh_import_seconds():
    """(wall-clock seconds, speed factor) of importing hilbcert in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE), str(SETUP_PROBES)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return tuple(map(float, proc.stdout.split()))


def measure_setup(workload, seed, size):
    """setup_s: import time plus input generation, each the median of
    several repetitions (imports in fresh interpreters), as (reference
    seconds, wall-clock seconds).  Each repetition is divided by the speed
    factor of probe jobs timed just after it."""
    imports = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
    gens = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        make_round(workload, seed, 0, size)
        t = perf_counter() - t0
        gens.append((t, calibrate.factor_of(calibrate.job_seconds(SETUP_PROBES))))
    reference = (statistics.median(t / f for t, f in imports)
                 + statistics.median(t / f for t, f in gens))
    wall = statistics.median(t for t, _ in imports) + statistics.median(t for t, _ in gens)
    return reference, wall


def tail(times):
    """Highest percentile with at least ten samples beyond it (nearest rank:
    the 11th largest sample); the maximum when there are ten or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} samples"
    return ordered[-1], f"max of {n} samples (fewer than 11, no percentile has ten beyond it)"


@dataclass
class Record:
    """One timed input: `seconds` is wall-clock time less the probe's own
    time; `probes` the slice of the speed probe's samples taken during it."""

    rnd: int
    traced: bool
    inp: object
    seconds: float
    result: object
    error: object
    probes: tuple
    factor: float = 1.0

    @property
    def reference_seconds(self):
        return self.seconds / self.factor


class Runner:
    """Runs rounds of one workload and keeps every outcome for checking."""

    def __init__(self, workload, seed, size, program):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.program = program
        self.records = []
        self.probe = calibrate.SpeedProbe()

    def _time_one(self, rnd, inp, tracer):
        error = None
        result = None
        spent = self.probe.spent
        first = len(self.probe.samples)
        t0 = perf_counter()
        try:
            if tracer is None:
                result = self.program.run(inp)
            else:
                with tracer.root(inp.ident):
                    result = self.program.run(inp)
        except Exception:  # one failing input must not end the run
            error = traceback.format_exc(limit=3)
        elapsed = perf_counter() - t0 - (self.probe.spent - spent)
        self.records.append(Record(rnd, tracer is not None, inp, elapsed, result,
                                   error, (first, len(self.probe.samples))))

    def run(self, seconds, tracer=None):
        """Whole rounds until the next one would probably overrun --seconds.
        With a tracer, each input runs untraced and then at once traced, so
        that both timings see the same machine load."""
        with self.probe:
            return self._rounds(seconds, tracer)

    def _rounds(self, seconds, tracer):
        start = perf_counter()
        rnd = 0
        while True:
            t0 = perf_counter()
            for inp in make_round(self.workload, self.seed, rnd, self.size):
                self._time_one(rnd, inp, None)
                if tracer is not None:
                    tracer.install()
                    try:
                        self._time_one(rnd, inp, tracer)
                    finally:
                        tracer.uninstall()
            rnd += 1
            now = perf_counter()
            if now - start + (now - t0) > seconds:
                return rnd


def check_records(records, checker):
    """Known-answer check of every outcome; returns (wrong, failed, findings)."""
    wrong = failed = 0
    findings = []
    for r in records:
        tag = (f"round {r.rnd} {'traced' if r.traced else 'untraced'} "
               f"{r.inp.ident} ({r.inp.label})")
        if r.error is not None:
            failed += 1
            findings.append(f"error: {tag}: {r.error.strip().splitlines()[-1]}")
            continue
        bad = checker.mismatches(r.inp, summarize(r.inp, r.result))
        if bad:
            wrong += 1
            findings.extend(f"wrong: {tag}: {b}" for b in bad)
    return wrong, failed, findings


def end_to_end_metrics(times, setup_s, peak_rss_mb):
    """The rate counts verdicts per minute of verdict time."""
    tail_value, tail_label = tail(times)
    metrics = {
        "verdicts_per_min": (60.0 * len(times) / sum(times), "1/min"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdict_tail_s": (tail_value, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, tail_label


def describe_inputs(records):
    """Input labels with their count per round, in first-seen order."""
    first_round = [r.inp.label for r in records if r.rnd == 0 and not r.traced]
    labels = dict.fromkeys(first_round)
    return "; ".join(f"{first_round.count(label)} x {label}" for label in labels)


def benchmark(workload, seed, seconds, trace, size="full"):
    """One benchmark run; returns (result dict, printable report lines)."""
    import_library()
    oracle = load_oracle()
    setup_s, setup_wall_s = measure_setup(workload, seed, size)
    program = Program()
    runner = Runner(workload, seed, size, program)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    rounds = runner.run(seconds, tracer)
    factor = runner.probe.factor()
    for r in runner.records:
        r.factor = runner.probe.factor(*r.probes) or factor
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checker = Checker(oracle, program.hilbcert)
    wrong, failed, findings = check_records(runner.records, checker)
    attempted = len(runner.records)
    lines = [
        f"workload {workload}, seed {seed}, size {size}: {rounds} round(s), "
        f"{attempted} inputs attempted, threads=1",
        f"inputs per round: {describe_inputs(runner.records)}",
        f"wrong_verdicts {wrong} count",
        f"failed_frac {failed / attempted:.4f} ratio ({failed} errors / {attempted} attempted)",
    ]
    lines.extend(f"FINDING {f}" for f in findings)
    lines.extend(
        f"time {r.inp.ident} {'traced' if r.traced else 'untraced'} "
        f"{r.reference_seconds:.4f} s (wall clock {r.seconds:.4f} s, speed factor "
        f"{r.factor:.4f})  {r.inp.label}"
        for r in runner.records
    )

    untraced = [r for r in runner.records if not r.traced]
    raw, _ = end_to_end_metrics([r.seconds for r in untraced], setup_wall_s, peak_rss_mb)
    e2e, tail_label = end_to_end_metrics([r.reference_seconds for r in untraced],
                                         setup_s, peak_rss_mb)
    lines.append(
        f"speed factor of the run {factor:.4f}: mean probe job "
        f"{statistics.fmean(runner.probe.samples) * 1e6:.1f} us over "
        f"{len(runner.probe.samples)} probes, nominal "
        f"{calibrate.NOMINAL_SECONDS * 1e6:g} us; each input's time below is its "
        f"wall-clock time (less probe time) over the speed factor of the probes "
        f"taken during it; setup_s is normalised the same way by probe jobs "
        f"timed just after each of its repetitions")
    for name, (value, unit) in e2e.items():
        note = f"  ({tail_label})" if name == "verdict_tail_s" else ""
        lines.append(f"{name} {value:.6g} {unit}{note}  [wall clock {raw[name][0]:.6g}]")
    metrics = e2e
    if trace:
        metrics, trace_lines = traced_metrics(runner, tracer, workload, seed, factor)
        lines.extend(trace_lines)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def traced_metrics(runner, tracer, workload, seed, factor):
    """Per-layer metrics; their times are divided by the run's speed factor."""
    from tracer import layer_metrics, per_input_counts

    traced = [r for r in runner.records if r.traced]
    untraced = [r for r in runner.records if not r.traced]
    traced_ids = [r.inp.ident for r in traced]
    first_round = [r.inp.ident for r in traced if r.rnd == 0]
    counts = {i: per_input_counts(tracer.spans, i) for i in traced_ids}
    metrics = layer_metrics(tracer.spans, traced_ids, first_round, counts)
    metrics = {k: (v / factor if u in ("s", "s/verdict") else v, u)
               for k, (v, u) in metrics.items()}
    p50_traced = statistics.median(r.reference_seconds for r in traced)
    p50_untraced = statistics.median(r.reference_seconds for r in untraced)
    metrics["trace.overhead_s"] = (p50_traced - p50_untraced, "s")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}"
    tracer.write(f"{stem}-spans.jsonl")
    record = []
    for r in traced:
        if r.rnd == 0:
            s = summarize(r.inp, r.result) if r.error is None else {}
            record.append({"input": r.inp.ident, "verdict": s.get("verdict"),
                           "fingerprint": s.get("fingerprint"),
                           "counts": counts[r.inp.ident]})
    with open(f"{stem}-record.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    lines = [
        f"traced: {len(traced)} inputs, {len(tracer.spans)} spans written to "
        f"{stem.relative_to(ROOT)}-spans.jsonl",
        f"tracing overhead: traced p50 {p50_traced:.6g} s - untraced p50 "
        f"{p50_untraced:.6g} s = {p50_traced - p50_untraced:.6g} s",
    ]
    lines.extend(f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items())
    return metrics, lines


# -- the benchmark's own checks ---------------------------------------------


def smoke():
    """Tiny-size pass over every workload in both modes: each metric named
    in BENCHMARK.json is printed with its unit, and the known-answer checker
    flags a deliberately wrong expected value."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = benchmark(workload, 0, 0, trace, size="smoke")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: not correct at smoke size")
            for m in spec[section]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{workload} trace {trace}: metric {m['name']} "
                                    f"missing or not in {m['unit']}: {got}")
    problems.extend(checker_flags_wrong_answers())
    return problems


def checker_flags_wrong_answers():
    """Tamper with one expected value per input kind; the checker must flag it."""
    from copy import deepcopy

    import_library()
    program = Program()
    checker = Checker(load_oracle(), program.hilbcert)
    problems = []
    for workload, key in (("ext1-gfp", "dimension"), ("pair-qq", "verdict"),
                          ("hunt-gf101", "hilbert_function")):
        inp = make_round(workload, 0, 0, "smoke")[0]
        summary = summarize(inp, program.run(inp))
        if checker.mismatches(inp, summary):
            problems.append(f"{workload}: true answer flagged as wrong")
        wrong = deepcopy(inp)
        value = wrong.expected[key]
        wrong.expected[key] = ({0: 1} if isinstance(value, dict)
                               else "not-TNT" if isinstance(value, str) else value + 1)
        if not checker.mismatches(wrong, summary):
            problems.append(f"{workload}: wrong expected {key} not flagged")
    return problems


def determinism(workload, seed, seconds, size):
    """Two traced runs in fresh processes: identical verdicts, fingerprints
    and work counts for the first round."""
    records = []
    for _ in range(2):
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
             "--size", size],
            check=True, cwd=ROOT, timeout=900,
        )
        records.append((OUT / f"{workload}-seed{seed}-record.json").read_text())
    return records[0] == records[1], records[0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="'all' runs the three workloads one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input size; 'smoke' is for the benchmark's own tests")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-size self-check of metrics and the checker")
    parser.add_argument("--determinism", action="store_true",
                        help="compare two traced runs of --workload/--seed")
    args = parser.parse_args(argv)
    if args.smoke:
        problems = smoke()
        for p in problems:
            print(f"SMOKE FAIL {p}")
        print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.determinism:
        differ = 0
        for name in names:
            same, record = determinism(name, args.seed, args.seconds, args.size)
            print(record)
            print(f"determinism {name}: " + ("identical" if same else "DIFFERENT"))
            differ += not same
        return 1 if differ else 0
    for name in names:
        result, lines = benchmark(name, args.seed, args.seconds, args.trace, args.size)
        for line in lines:
            print(line)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
