"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from qaeopt import BipartiteDims, generate_instance, save_statefile  # noqa: E402
from qaeopt.cli import main as cli_main  # noqa: E402
from workloads import Op  # noqa: E402


def checked_run(path, argv, method):
    op = Op(tuple(argv), str(path), True, method)
    result = run.run_op(cli_main, op, 0)
    result.problems += oracle.report_problems(method, result.report, oracle.file_probs(path))
    return op, result


def recheck(op, report, reference=None):
    """Problems the benchmark records for one run of ``op`` returning ``report``."""
    bad = run.OpRun(0, 0.0, report)
    references = [] if reference is None else [run.OpRun(0, 0.0, reference)]
    run.check_runs(oracle, [op], {op.path: oracle.file_probs(op.path)}, [bad], references, {})
    return bad.problems


@pytest.fixture
def spectrum_file(tmp_path):
    path = tmp_path / "spectrum.json"
    rho = generate_instance("diagonal-mixed", BipartiteDims(3, 3), 5)
    save_statefile(path, BipartiteDims(3, 3), spectrum=np.real(np.diag(rho.matrix)))
    return path


@pytest.fixture
def dense_file(tmp_path):
    path = tmp_path / "dense.json"
    rho = generate_instance("random-dense", BipartiteDims(3, 4), 6)
    save_statefile(path, BipartiteDims(3, 4), matrix=rho.matrix)
    return path


def test_swapped_tableau_values_fail_the_optimize_checks(spectrum_file):
    op, result = checked_run(spectrum_file, ["optimize", str(spectrum_file)], "exhaustive")
    assert result.problems == []
    bad = copy.deepcopy(result.report)
    cells = bad["result"]["best_tableau"]
    cells[0][0], cells[0][1] = cells[0][1], cells[0][0]
    assert recheck(op, bad) == ["tableau is not regular"]


def test_swap_that_keeps_the_tableau_regular_fails_on_the_recomputed_mi(spectrum_file):
    op, result = checked_run(spectrum_file, ["optimize", str(spectrum_file)], "exhaustive")
    bad = copy.deepcopy(result.report)
    cells = bad["result"]["best_tableau"]
    where = {v: (i, j) for i, row in enumerate(cells) for j, v in enumerate(row)}
    # Values v and v+1 in different rows and columns can trade places and
    # leave the filling regular; only the mutual information changes.
    v = next(v for v in range(1, 9) if all(a != b for a, b in zip(where[v], where[v + 1])))
    (r1, c1), (r2, c2) = where[v], where[v + 1]
    cells[r1][c1], cells[r2][c2] = v + 1, v
    assert oracle.tableau_problem(cells, 3, 3) is None
    problems = recheck(op, bad)
    assert problems and "the tableau gives" in problems[0]


def test_residual_above_the_limit_and_swapped_plan_fail_the_verify_checks(dense_file):
    op, result = checked_run(dense_file, ["verify", str(dense_file), "--seed", "3"], "verify")
    assert result.problems == []
    bad = copy.deepcopy(result.report)
    bad["residual"] = 2 * oracle.RESIDUAL_LIMIT
    assert recheck(op, bad)
    bad = copy.deepcopy(result.report)
    bad["tableau"][0][1], bad["tableau"][1][0] = bad["tableau"][1][0], bad["tableau"][0][1]
    assert recheck(op, bad)


def test_result_that_differs_from_the_jobs1_reference_fails(spectrum_file):
    op, result = checked_run(spectrum_file, ["optimize", str(spectrum_file)], "exhaustive")
    assert recheck(op, result.report, reference=result.report) == []
    other = copy.deepcopy(result.report)
    other["result"]["evaluations"] += 1
    assert recheck(op, result.report, reference=other) == ["result differs from the --jobs 1 result"]


def test_nonzero_exit_is_a_failed_op(tmp_path):
    missing = tmp_path / "missing.json"
    result = run.run_op(cli_main, Op(("optimize", str(missing)), str(missing), True, "heuristic"), 0)
    assert result.problems and result.problems[0].startswith("exit code 2")


def test_exhaustive_reference_matches_brute_force_over_all_arrangements():
    probs = np.sort(np.random.default_rng(1).dirichlet(np.ones(6)))[::-1]
    cells = oracle.regular_cells(2, 3)
    assert len(cells) == oracle.hook_count(2, 3) == 5
    from itertools import permutations

    brute = min(oracle.grid_mi(probs, np.array(p).reshape(2, 3) + 1) for p in permutations(range(6)))
    assert abs(oracle.exact_min_mi(probs, cells, 2, 3) - brute) < 1e-12


def test_self_time_subtracts_direct_children_only():
    tree = [
        spans.Span("root", 0, None, 0.0, busy=10.0),
        spans.Span("child", 0, 0, 1.0, busy=4.0),
        spans.Span("grandchild", 0, 1, 2.0, busy=3.0),
        spans.Span("child", 0, 0, 6.0, busy=2.0),
    ]
    assert spans.self_times(tree) == [4.0, 1.0, 3.0, 2.0]


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "exhaustive-small",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in spec[key]]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in spec[key])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "heuristic-8x8",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0 and out.stdout == ""


def test_call_sites_are_restored_and_missing_ones_reported(monkeypatch):
    import qaeopt.cli
    import qaeopt.search

    monkeypatch.delattr(qaeopt.cli, "random_regular")
    originals = (qaeopt.cli.optimize, qaeopt.search.enumerate_regular)
    missing = set()
    with spans.installed(spans.Tracer(), missing):
        assert qaeopt.cli.optimize is not originals[0]
    assert (qaeopt.cli.optimize, qaeopt.search.enumerate_regular) == originals
    assert missing == {"qaeopt.cli.random_regular"}
