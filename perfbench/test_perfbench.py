"""The benchmark's own tests, at the tiny "smoke" input size.

Run with:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def _run(*args, cwd=None):
    return subprocess.run([sys.executable, str(RUN), *args], capture_output=True,
                          text=True, timeout=600, cwd=cwd)


def test_smoke_prints_every_metric_and_checker_flags_wrong_answers():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke: ok")


def test_result_line_contract():
    proc = _run("--workload", "hunt-gf101", "--seed", "3", "--seconds", "1",
                "--trace", "0", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2


def test_determinism_of_verdicts_fingerprints_and_counts():
    proc = _run("--determinism", "--workload", "ext1-gfp", "--seed", "5",
                "--seconds", "0", "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "determinism ext1-gfp: identical" in proc.stdout


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ext1-gfp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_speed_probe_samples_during_timed_work():
    import signal
    from time import perf_counter

    sys.path.insert(0, str(HERE))
    import calibrate

    before = signal.getsignal(signal.SIGALRM)
    with calibrate.SpeedProbe() as probe:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            sum(i * i for i in range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= calibrate.MIN_PROBES
    assert probe.factor(0, len(probe.samples)) > 0
    assert probe.factor(0, 0) is None
