"""Replay the golden-output corpus (tests/golden_cli.json and
tests/golden_results.json, written by tests/golden.py) through
``qaeopt.cli.main`` and ``qaeopt.optimize``: the same calls on the same
state files must print the same outputs, and the same library calls on the
same stored inputs must return the same results."""

import json
import math

import pytest

import golden
import qaeopt.search
import qaeopt.tableau
from golden import CORPUS, RESULTS, differences, run_call, run_library
from qaeopt import BipartiteDims
from qaeopt.tableau import regular_grid_walk

corpus = json.loads(CORPUS.read_text())
results = json.loads(RESULTS.read_text())


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
    library = {
        "lib-2x2": golden.library_call(2, 2, [0.4, 0.3, 0.2, 0.1]),
        "lib-3x3-b3c4": golden.library_call(3, 3, golden.spectra(3, 3)["a1"], None, (3, 4)),
    }
    monkeypatch.setattr(golden, "library_calls", lambda: library)
    monkeypatch.setattr(golden, "CORPUS", tmp_path / "corpus.json")
    monkeypatch.setattr(golden, "RESULTS", tmp_path / "results.json")
    assert golden.main(["--write"]) == 0
    assert golden.main([]) == 0 and capsys.readouterr().out == ""
    written = golden.RESULTS.read_text()

    def moved(path, edit):
        stored = json.loads(path.read_text())
        edit(stored["calls"])
        text = json.dumps(stored)
        path.write_text(text)
        code = golden.main([])
        assert path.read_text() == text  # the check writes nothing
        return code, capsys.readouterr().out

    def cli_best_mi(calls):
        result = calls[1]["lines"][0]["result"]
        result["best_mi"] = math.nextafter(result["best_mi"], 1.0)  # one ulp

    def library_best_mi(calls):
        calls[1]["result"]["best_mi"] = math.nextafter(calls[1]["result"]["best_mi"], 1.0)

    def library_input(calls):
        calls[0]["probs"][3] = math.nextafter(calls[0]["probs"][3], 1.0)

    assert moved(golden.CORPUS, cli_best_mi) == (1, "opt-s22\n")
    golden.main(["--write"])
    assert golden.RESULTS.read_text() == written
    assert moved(golden.RESULTS, library_best_mi) == (1, "lib-3x3-b3c4\n")
    golden.RESULTS.write_text(written)
    assert moved(golden.RESULTS, library_input) == (1, "lib-2x2\n")


@pytest.mark.parametrize("call", results["calls"], ids=[call["id"] for call in results["calls"]])
def test_library_result_matches_corpus(call):
    assert_same(run_library(call), call["result"], call["id"])


def test_library_corpus_covers_both_routes_and_small_blocks():
    calls = results["calls"]
    assert len(calls) >= 130
    assert {call["result"]["method"] for call in calls} == {"exhaustive", "heuristic"}
    blocks = {(call["leaf_block"], call["suffix_cap"]) for call in calls}
    assert blocks == {(qaeopt.search.LEAF_BLOCK, qaeopt.tableau.SUFFIX_CAP), (7, 64), (3, 4)}
    # A uniform spectrum traversed in many walk pieces at small blocks.
    [call] = [call for call in calls if call["id"] == "lib-4x4-uniform-b7c64"]
    assert len(set(call["probs"])) == 1 and call["result"]["method"] == "exhaustive"
    with golden.constants(7, 64):
        _store, pieces = regular_grid_walk(BipartiteDims(4, 4), 7)
        assert sum(1 for _ in pieces) > 1


def test_constants_are_restored_when_the_call_raises():
    defaults = qaeopt.search.LEAF_BLOCK, qaeopt.tableau.SUFFIX_CAP
    with pytest.raises(ValueError), golden.constants(3, 4):
        assert (qaeopt.search.LEAF_BLOCK, qaeopt.tableau.SUFFIX_CAP) == (3, 4)
        raise ValueError
    assert (qaeopt.search.LEAF_BLOCK, qaeopt.tableau.SUFFIX_CAP) == defaults


def _one_job_key(call):
    inputs = {k: v for k, v in call.items() if k not in ("id", "result")}
    inputs["config"] = {**inputs["config"], "parallelism": 1}
    return json.dumps(inputs, sort_keys=True)


def test_parallel_library_calls_return_their_one_job_results():
    """Every library call with parallelism > 1 runs at the default blocks
    (forked workers do not see ``golden.constants``) and returns what the
    same inputs return with parallelism 1."""
    serial = {_one_job_key(call): call for call in results["calls"] if call["config"]["parallelism"] == 1}
    parallel = [call for call in results["calls"] if call["config"]["parallelism"] > 1]
    assert {"lib-heur-8x8-a1-n20000-jobs2", "lib-heur-5x5-a0.02-n20000-jobs2"} <= {c["id"] for c in parallel}
    for call in parallel:
        assert (call["leaf_block"], call["suffix_cap"]) == (qaeopt.search.LEAF_BLOCK, qaeopt.tableau.SUFFIX_CAP)
        twin = serial[_one_job_key(call)]
        assert twin["result"]["method"] == "heuristic"
        assert_same(call["result"], twin["result"], call["id"])

