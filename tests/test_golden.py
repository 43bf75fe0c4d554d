"""Replay the golden-output corpus (tests/golden_cli.json, written by
tests/golden.py) through ``qaeopt.cli.main``: the same calls on the same
state files must print the same outputs."""

import json
import math

import pytest

from golden import CORPUS, LINALG_FIELDS, LINALG_TOL, run_call

corpus = json.loads(CORPUS.read_text())


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    for name, text in corpus["files"].items():
        (directory / f"{name}.json").write_text(text)
    return str(directory)


def assert_same(got, want, where="", key=None):
    """Equal JSON values, with LINALG_FIELDS within LINALG_TOL."""
    if key in LINALG_FIELDS and isinstance(want, float):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=0, abs_tol=LINALG_TOL), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for k in want:
            assert_same(got[k], want[k], f"{where}.{k}", k)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


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
