import gc
import json
import os
import tracemalloc

import pytest

from hilbcert.certify import elementary_certificate
from hilbcert.cli import _load_ideal
from hilbcert.fields import GF
from hilbcert.parsing import IdealFile
from hilbcert import search
from hilbcert.search import CandidateShape, random_candidate, screen


def test_candidate_is_deterministic():
    shape = CandidateShape(added_vars=4, socle=2, codim=3, seed=1)
    a = random_candidate(shape, 5)
    b = random_candidate(shape, 5)
    assert [str(g) for g in a.gens] == [str(g) for g in b.gens]
    c = random_candidate(shape, 6)
    assert [str(g) for g in a.gens] != [str(g) for g in c.gens]


def test_candidate_hilbert_function_forced():
    from hilbcert.artinian import ArtinianQuotient

    shape = CandidateShape(added_vars=4, socle=2, codim=3, seed=1)
    q = ArtinianQuotient(random_candidate(shape, 11))
    assert q.hilbert_function() == [1, 4, 3]


def test_codim_zero_gives_truncation():
    from hilbcert.artinian import ArtinianQuotient

    shape = CandidateShape(added_vars=3, socle=1, codim=0, seed=0)
    q = ArtinianQuotient(random_candidate(shape, 0))
    # ideal is the full degree-1 slice plus everything above: the point
    assert q.dim == 1


def test_fat_point_shape_never_tnt():
    # codim = full slice keeps nothing in the constrained degree: the
    # candidate is the square of the maximal ideal
    shape = CandidateShape(added_vars=2, socle=1, codim=2, seed=3)
    from hilbcert.certify import tnt_check

    result, _ = tnt_check(random_candidate(shape, 3))
    assert result == "false"


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        CandidateShape(added_vars=4, socle=2, codim=999)
    with pytest.raises(ValueError):
        CandidateShape(added_vars=0, socle=2, codim=0)
    with pytest.raises(ValueError):
        CandidateShape(added_vars=2, socle=0, codim=0)
    with pytest.raises(ValueError):
        CandidateShape(
            added_vars=2, socle=2, codim=0,
            base_vars=("a",), base_gens=("a^2",),
        )


def test_screen_empty():
    shape = CandidateShape(added_vars=2, socle=2, codim=1, seed=0)
    summary = screen(shape, 0)
    assert summary["count"] == 0
    assert summary["hits"] == 0
    assert summary["verdicts"] == {}


def test_screen_known_shape_hits_and_persists(tmp_path):
    shape = CandidateShape(added_vars=4, socle=2, codim=3, seed=12)
    out = tmp_path / "hits"
    summary = screen(shape, 3, out_dir=str(out))
    assert summary["hits"] >= 1
    assert summary["distinct_hit_fingerprints"] >= 1
    index = json.loads((out / "index.json").read_text())
    assert len(index) == summary["distinct_hit_fingerprints"]
    # every persisted hit re-verifies from the stored ideal alone, loaded as
    # `hilbcert certify` loads a file, with as many syzygies as the
    # candidate it was screened as.  The outcome keeps the generators as
    # text, and the file holds what the candidate's polynomials print as
    for name in index.values():
        ideal = _load_ideal(str(out / name))
        seed = int(name.rsplit("seed", 1)[1].split(".")[0])
        candidate = random_candidate(shape, seed)
        assert len(ideal.syzygies) == len(candidate.syzygies)
        assert ideal.gens == candidate.gens
        text = (out / name).read_text()
        assert text.startswith(
            IdealFile(candidate.ring, candidate.gens).to_text() + "\n# certificate\n")
        cert = elementary_certificate(ideal)
        assert cert.verdict in ("TNT-elementary", "smooth-elementary")


def test_screen_deterministic():
    shape = CandidateShape(added_vars=4, socle=2, codim=3, seed=40)
    a = screen(shape, 3)
    b = screen(shape, 3)
    assert a["log"] == b["log"]
    assert a["verdicts"] == b["verdicts"]


def test_hunt_outcome_stays_lean(monkeypatch):
    """Memory one captured screening outcome (ring, generators and
    certificate, not the presentation) keeps alive.  A benchmark that holds
    every outcome of a run until after the timed region pays this once per
    candidate."""
    captured = []
    screen_one = search._screen_one

    def capture(shape, seed):
        outcome = screen_one(shape, seed)
        captured.append(outcome)
        return outcome

    monkeypatch.setattr(search, "_screen_one", capture)
    tracemalloc.start()
    try:
        for k, shape_args in enumerate([(4, 2, 3), (4, 2, 1)] * 2):
            screen(CandidateShape(*shape_args, seed=20 + k), 1)
        assert all("certificate" in o for o in captured)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        count = len(captured)
        captured.clear()
        gc.collect()
        retained = (held - tracemalloc.get_traced_memory()[0]) / count
    finally:
        tracemalloc.stop()
    assert retained < 3 * 1024
