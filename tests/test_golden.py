"""Replay the golden-output corpus (tests/golden_cli.json, written by
tests/golden.py) through ``qaeopt.cli.main``: the same calls on the same
state files must print the same outputs."""

import json
import math

import pytest

import golden
from golden import CORPUS, differences, run_call

corpus = json.loads(CORPUS.read_text())


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    for name, text in corpus["files"].items():
        (directory / f"{name}.json").write_text(text)
    return str(directory)


def assert_same(got, want, where=""):
    """Equal JSON values, floats bit for bit, with LINALG_FIELDS within
    LINALG_TOL (``golden.differences``)."""
    moved = list(differences(got, want, where))
    assert not moved, moved[:10]


@pytest.mark.parametrize("call", corpus["calls"], ids=[call["id"] for call in corpus["calls"]])
def test_cli_output_matches_corpus(call, state_dir):
    code, lines = run_call(call["argv"], state_dir)
    assert code == call["exit"]
    assert_same(lines, call["lines"], call["id"])


def test_corpus_covers_every_command_and_a_rejection():
    commands = {call["argv"][0] for call in corpus["calls"]}
    assert commands == {"count", "optimize", "verify", "experiment"}
    assert {call["exit"] for call in corpus["calls"]} == {0, 2}
    # A multi-piece exhaustive traversal, checked end to end.
    [s37] = [call for call in corpus["calls"] if call["id"] == "opt-s37"]
    assert s37["lines"][0]["result"]["method"] == "exhaustive"


def _without_jobs(argv):
    """argv without its ``--jobs k`` pair, and k (1 if absent)."""
    if "--jobs" not in argv:
        return argv, 1
    i = argv.index("--jobs")
    return argv[:i] + argv[i + 2 :], int(argv[i + 1])


def _without_parallelism(lines):
    lines = json.loads(json.dumps(lines))
    for line in lines:
        line.get("config", {}).pop("parallelism", None)
    return lines


def test_parallel_calls_print_their_one_job_outputs():
    """Every corpus call with ``--jobs k``, k > 1, prints what the same argv
    prints with no ``--jobs`` or ``--jobs 1``, apart from ``config.parallelism``."""
    serial = {}
    for call in corpus["calls"]:
        argv, jobs = _without_jobs(call["argv"])
        if jobs == 1:
            serial[tuple(argv)] = call
    parallel = [call for call in corpus["calls"] if _without_jobs(call["argv"])[1] > 1]
    assert {"paper-fig2a88-jobs2", "heur-fig2a1616-jobs2", "heur-s55-jobs3"} <= {c["id"] for c in parallel}
    for call in parallel:
        twin = serial[tuple(_without_jobs(call["argv"])[0])]
        assert call["exit"] == twin["exit"] == 0
        assert_same(_without_parallelism(call["lines"]), _without_parallelism(twin["lines"]), call["id"])


def test_floats_compare_bit_for_bit():
    assert list(differences(-0.0, 0.0)) and list(differences([0.0], [-0.0]))
    assert list(differences({"best_mi": 5e-324}, {"best_mi": 0.0}))
    assert not list(differences({"best_mi": 0.25, "n": 1}, {"best_mi": 0.25, "n": 1}))
    assert list(differences(1, 1.0))  # an int is not a float
    # LAPACK/BLAS figures keep their tolerance, and only those.
    assert not list(differences({"residual": 1e-13}, {"residual": -0.0}))
    assert list(differences({"residual": 1e-11}, {"residual": 0.0}))


def test_check_lists_moved_calls_and_writes_only_when_asked(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(golden, "CALLS", {"count-22": ["count", "2", "2"], "opt-s22": ["optimize", golden._f("s22")]})
    monkeypatch.setattr(golden, "CORPUS", tmp_path / "corpus.json")
    assert golden.main(["--write"]) == 0
    assert golden.main([]) == 0 and capsys.readouterr().out == ""
    stored = json.loads(golden.CORPUS.read_text())
    result = stored["calls"][1]["lines"][0]["result"]
    result["best_mi"] = math.nextafter(result["best_mi"], 1.0)  # one ulp
    text = json.dumps(stored)
    golden.CORPUS.write_text(text)
    assert golden.main([]) == 1 and capsys.readouterr().out == "opt-s22\n"
    assert golden.CORPUS.read_text() == text  # the check writes nothing
