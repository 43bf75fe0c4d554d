"""Golden-output corpus: a fixed list of CLI calls and what they print, and
of library ``optimize`` calls and what they return.

``python tests/golden.py`` (with ``src`` on ``PYTHONPATH``) runs every call in
CALLS through ``qaeopt.cli.main`` on freshly written state files (from
``state_files`` through ``save_statefile``, and TEXT_FILES as given) and compares
what it prints with tests/golden_cli.json. It also runs every call in
``library_calls`` through ``qaeopt.optimize``, with ``search.LEAF_BLOCK`` and
``tableau.SUFFIX_CAP`` set as the call says (``constants``), and compares
each call's inputs and ``OptimizationResult.to_dict()`` with
tests/golden_results.json. It prints the id of every call whose output or
inputs moved (or that is new, or gone) and exits 1 if there is any, 0 if
none. ``python tests/golden.py --write`` writes both files instead: the state
files the CLI calls read, as their exact text, and per call its argv, exit
code and output lines without ``timings``; per library call its dims, its
probability vector itself, its ``SearchConfig`` fields, its two constants
and its result. ``tests/test_golden.py`` writes the same state files again
and replays the stored calls against the stored outputs, the library calls
from their stored inputs, so a numpy that draws other spectra moves no
replay; this check lists every library call whose drawn input moved.

Comparison policy, fixed before the first run: every field must match
exactly, floats bit for bit (by ``float.hex``, so -0.0 is not 0.0), except
the figures that come from LAPACK or BLAS (the ``compression`` block of
``optimize`` on a dense file and the figures of ``verify``, named in
LINALG_FIELDS), which must agree within LINALG_TOL absolute, because their
last bits can move with the BLAS thread count. The search fields depend only
on the C library's ``log``; on a dense file the search also reads the
``eigh`` eigenvalues of a 4x4 or 6x6 matrix, which the file header's
platform record helps explain if they ever move.

A change that moves an answer on purpose runs the check first, to list the
calls whose output moved, then writes the file with ``--write``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import platform
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).with_name("golden_cli.json")
RESULTS = Path(__file__).with_name("golden_results.json")
LINALG_FIELDS = frozenset({"mi_middle", "rel_entropy_out", "residual", "reconstruction_frobenius"})
LINALG_TOL = 1e-12
DIR = "{dir}"  # stands for the directory holding the state files in an argv


def _dirichlet(seed: int, n: int) -> np.ndarray:
    return np.sort(np.random.default_rng(seed).dirichlet(np.ones(n)))[::-1]


def _product(seed: int, d_a: int, d_b: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.sort(np.outer(rng.dirichlet(np.ones(d_a)), rng.dirichlet(np.ones(d_b))).ravel())[::-1]


# A hand-laid-out 2x2 dense file, written as this text, not by save_statefile:
# the whole document on one line, ``matrix`` before ``d_a``/``d_b``, integer
# 0 entries and a duplicate ``label``, whose last value counts.
TEXT_FILES = {
    "hand22": '{"label": "first", "matrix": [[[0.4, 0], [0, 0], [0, 0], [0.1, 0.05]], '
    '[[0, 0], [0.3, 0], [0.05, 0], [0, 0]], [[0, 0], [0.05, 0], [0.2, 0], [0, 0]], '
    '[[0.1, -0.05], [0, 0], [0, 0], [0.1, 0]]], "d_a": 2, "d_b": 2, '
    '"label": "hand-laid", "format_version": 1}\n',
}


def state_files() -> dict[str, dict]:
    """name -> save_statefile keyword arguments."""
    from qaeopt import BipartiteDims, generate_instance

    def spectrum(d_a, d_b, p, label=None):
        return {"dims": BipartiteDims(d_a, d_b), "spectrum": p, "label": label}

    def dense(d_a, d_b, matrix):
        return {"dims": BipartiteDims(d_a, d_b), "matrix": matrix}

    tied = [0.2, 0.2, 0.15, 0.15, 0.1, 0.1, 0.05, 0.05]
    # 124 round-off negatives of -0.9 * ENTRY_TOL: the vector sums to 1, but
    # with the negatives read as 0 it sums to 1 + 1.1e-10, past SUM_TOL.
    roundoff = [0.4, 0.3, 0.2, 0.1 + 124 * 0.9e-12] + [-0.9e-12] * 124
    return {
        "s22": spectrum(2, 2, [0.4, 0.3, 0.2, 0.1], "two by two"),
        "s33": spectrum(3, 3, _dirichlet(1, 9)),
        "s44": spectrum(4, 4, _dirichlet(2, 16)),
        "s35": spectrum(3, 5, _dirichlet(3, 15)),
        "s53": spectrum(5, 3, _dirichlet(3, 15)),
        "s36": spectrum(3, 6, _dirichlet(4, 18)),
        "s37": spectrum(3, 7, _dirichlet(5, 21)),
        "s16": spectrum(1, 6, _dirichlet(6, 6)),
        "s61": spectrum(6, 1, _dirichlet(6, 6)),
        "tied24": spectrum(2, 4, tied),
        "tied44": spectrum(4, 4, np.repeat(_dirichlet(7, 4), 4) / 4),
        "zeros34": spectrum(3, 4, np.concatenate((_dirichlet(8, 7), np.zeros(5)))),
        "s34": spectrum(3, 4, _dirichlet(9, 12)),
        "s45": spectrum(4, 5, _dirichlet(10, 20)),
        "s55": spectrum(5, 5, _dirichlet(11, 25)),
        "s210": spectrum(2, 10, _dirichlet(12, 20)),
        "s212": spectrum(2, 12, _dirichlet(13, 24)),
        "zeros35": spectrum(3, 5, np.concatenate((_dirichlet(14, 9), np.zeros(6)))),
        "fig2a88": spectrum(8, 8, _dirichlet(1000, 64)),
        "fig2b88": spectrum(8, 8, _product(1001, 8, 8)),
        "fig2a1616": spectrum(16, 16, _dirichlet(1016, 256)),
        "pure22": spectrum(2, 2, [1.0, 0.0, 0.0, 0.0]),
        "pure14": spectrum(1, 4, [1.0, 0.0, 0.0, 0.0]),
        "pure33": spectrum(3, 3, [1.0] + [0.0] * 8),
        "nan22": spectrum(2, 2, [0.5, float("nan"), 0.3, 0.2]),
        "roundoff128": spectrum(1, 128, roundoff),
        "dprod22": dense(2, 2, np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]))),
        "dense22": dense(2, 2, generate_instance("random-dense", BipartiteDims(2, 2), 4).matrix),
        "dense23": dense(2, 3, generate_instance("random-dense", BipartiteDims(2, 3), 21).matrix),
        "bell22": dense(2, 2, np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0),
        # Trace and eigenvalues within tolerance, but the eigenvalues clipped
        # at 0 sum to 1 + 1.4e-10, past SUM_TOL.
        "dsum22": dense(2, 2, np.diag([0.5, 0.3, 0.2 + 1.4e-10, -0.5e-10])),
    }


def _f(name: str) -> str:
    return f"{DIR}/{name}.json"


SMALL = ("--n1", "300", "--n2", "4", "--nd", "20")
CALLS: dict[str, list[str]] = {
    # Exhaustive shapes: squares, 1 x n, n x 1, ties, trailing zeros, --bits.
    "opt-s22": ["optimize", _f("s22")],
    "opt-s33": ["optimize", _f("s33")],
    "opt-s44": ["optimize", _f("s44")],
    "opt-s44-bits": ["optimize", _f("s44"), "--bits"],
    "opt-s35": ["optimize", _f("s35")],
    "opt-s53": ["optimize", _f("s53")],
    "opt-s36": ["optimize", _f("s36")],
    # Exhaustive in several walk pieces at the default threshold.
    "opt-s37": ["optimize", _f("s37")],
    # Two-row grids whose prefix walk and suffix store are both large.
    "opt-s210": ["optimize", _f("s210")],
    "opt-s212": ["optimize", _f("s212")],
    "opt-zeros35": ["optimize", _f("zeros35")],
    "opt-s16": ["optimize", _f("s16")],
    "opt-s61": ["optimize", _f("s61")],
    "opt-tied24": ["optimize", _f("tied24")],
    "opt-tied44": ["optimize", _f("tied44")],
    "opt-zeros34": ["optimize", _f("zeros34")],
    "opt-zeros34-bits": ["optimize", _f("zeros34"), "--bits"],
    # Forced heuristic with small budgets, and --jobs 1, 2 and 3.
    "heur-s34": ["optimize", _f("s34"), "--threshold", "1", *SMALL, "--seed", "1"],
    "heur-s44": ["optimize", _f("s44"), "--threshold", "1", *SMALL, "--seed", "2"],
    "heur-s45": ["optimize", _f("s45"), "--threshold", "1", *SMALL, "--seed", "3"],
    "heur-s55-jobs1": ["optimize", _f("s55"), "--threshold", "1", "--n1", "20000", "--n2", "6", "--nd", "30", "--jobs", "1"],
    "heur-s55-jobs2": ["optimize", _f("s55"), "--threshold", "1", "--n1", "20000", "--n2", "6", "--nd", "30", "--jobs", "2"],
    "heur-s55-jobs3": ["optimize", _f("s55"), "--threshold", "1", "--n1", "20000", "--n2", "6", "--nd", "30", "--jobs", "3"],
    # The paper protocol at 8 x 8.
    "paper-fig2a88": ["optimize", _f("fig2a88")],
    "paper-fig2b88": ["optimize", _f("fig2b88"), "--bits"],
    # Twelve breadth seeds handed to depth at 16 x 16, with short budgets;
    # the second seed wins, and beats the start.
    "heur-fig2a1616": ["optimize", _f("fig2a1616"), "--n1", "1000", "--n2", "12", "--nd", "40", "--seed", "1"],
    # The two above with --jobs 2, at the sizes the benchmark runs.
    "paper-fig2a88-jobs2": ["optimize", _f("fig2a88"), "--jobs", "2"],
    "heur-fig2a1616-jobs2": ["optimize", _f("fig2a1616"), "--n1", "1000", "--n2", "12", "--nd", "40", "--seed", "1", "--jobs", "2"],
    # A pure spectrum [1, 0, ...]: every arrangement has MI 0.
    "opt-pure22": ["optimize", _f("pure22")],
    "opt-pure14": ["optimize", _f("pure14")],
    # Round-off negatives are read as 0 and the vector rescaled: one leaf.
    "opt-roundoff128": ["optimize", _f("roundoff128")],
    "heur-pure33": ["optimize", _f("pure33"), "--threshold", "1", *SMALL],
    # Dense files: optimize, and verify with random and identity plans.
    "opt-dprod22": ["optimize", _f("dprod22")],
    "opt-dense22": ["optimize", _f("dense22")],
    "opt-dense23": ["optimize", _f("dense23"), "--bits"],
    "heur-dense23": ["optimize", _f("dense23"), "--threshold", "1", *SMALL],
    "verify-dense23": ["verify", _f("dense23")],
    "verify-dense23-seed3": ["verify", _f("dense23"), "--seed", "3", "--bits"],
    "verify-dense22-identity": ["verify", _f("dense22"), "--plan", "identity"],
    "verify-bell22-identity": ["verify", _f("bell22"), "--plan", "identity", "--bits"],
    "opt-hand22": ["optimize", _f("hand22")],
    "verify-hand22": ["verify", _f("hand22"), "--bits"],
    # Experiments, exhaustive and heuristic, with --jobs 1 and 2.
    "exp-fig2a-33-jobs1": ["experiment", "fig2a", "--states", "4", "--da", "3", "--db", "3", "--jobs", "1"],
    "exp-fig2a-33-jobs2": ["experiment", "fig2a", "--states", "4", "--da", "3", "--db", "3", "--jobs", "2"],
    "exp-fig2b-44-jobs1": ["experiment", "fig2b", "--states", "3", "--da", "4", "--db", "4", "--threshold", "1", *SMALL, "--seed", "5"],
    "exp-fig2b-44-jobs2": ["experiment", "fig2b", "--states", "3", "--da", "4", "--db", "4", "--threshold", "1", *SMALL, "--seed", "5", "--jobs", "2"],
    "exp-fig2a-25-bits": ["experiment", "fig2a", "--states", "2", "--da", "2", "--db", "5", "--bits", "--seed", "7"],
    # count.
    "count-22": ["count", "2", "2"],
    "count-44": ["count", "4", "4"],
    "count-88": ["count", "8", "8"],
    "count-2x18-threshold": ["count", "2", "18", "--threshold", "10"],
    # Boundary rejections.
    "reject-count-zero": ["count", "0", "2"],
    "reject-nan-spectrum": ["optimize", _f("nan22")],
    "reject-dense-clipped-sum": ["optimize", _f("dsum22")],
    "reject-missing-file": ["optimize", f"{DIR}/missing.json"],
    "reject-verify-spectrum": ["verify", _f("s22")],
    "reject-states-zero": ["experiment", "fig2a", "--states", "0"],
    "reject-n2-above-n1": ["optimize", _f("s22"), "--n1", "2", "--n2", "3"],
    "reject-jobs-zero": ["optimize", _f("s22"), "--jobs", "0"],
}


@contextlib.contextmanager
def constants(leaf_block: int, suffix_cap: int) -> Iterator[None]:
    """Run with ``search.LEAF_BLOCK`` and ``tableau.SUFFIX_CAP`` set, and put
    back the values found, however the block is left. Pool workers forked
    before the call do not see them."""
    import qaeopt.search
    import qaeopt.tableau

    saved = qaeopt.search.LEAF_BLOCK, qaeopt.tableau.SUFFIX_CAP
    qaeopt.search.LEAF_BLOCK, qaeopt.tableau.SUFFIX_CAP = leaf_block, suffix_cap
    try:
        yield
    finally:
        qaeopt.search.LEAF_BLOCK, qaeopt.tableau.SUFFIX_CAP = saved


def spectra(d_a: int, d_b: int) -> dict[str, np.ndarray]:
    """Up to six descending spectra of d_a * d_b entries, none the same bytes
    as one before it: Dirichlet with concentration 0.02 (a few large
    entries), 1 (the flat simplex) and 1e6 (near-uniform, no ties); uniform;
    pairs of ties with trailing zeros; and a tail of entries 1e-30."""
    n = d_a * d_b
    rng = np.random.default_rng([d_a, d_b])
    alphas = {"a0.02": 0.02, "a1": 1.0, "a1e6": 1e6}
    out = {name: np.sort(rng.dirichlet(np.full(n, alpha)))[::-1] for name, alpha in alphas.items()}
    out["uniform"] = np.full(n, 1.0 / n)
    if n >= 3:
        pairs = np.repeat(np.sort(rng.dirichlet(np.ones(n // 3)))[::-1] / 2, 2)
        out["ties"] = np.concatenate((pairs, np.zeros(n - len(pairs))))
    if n >= 2:
        out["tail"] = np.concatenate((np.sort(rng.dirichlet(np.ones(n - n // 2)))[::-1], np.full(n // 2, 1e-30)))
    distinct: dict[str, np.ndarray] = {}
    for name, p in out.items():
        if all(p.tobytes() != q.tobytes() for q in distinct.values()):
            distinct[name] = p
    return distinct


def library_call(d_a: int, d_b: int, probs, config=None, blocks: tuple[int, int] | None = None) -> dict:
    """The stored inputs of one ``optimize`` call; ``blocks`` is
    (LEAF_BLOCK, SUFFIX_CAP), by default the package's."""
    import qaeopt.search
    import qaeopt.tableau
    from qaeopt import SearchConfig

    leaf_block, suffix_cap = blocks or (qaeopt.search.LEAF_BLOCK, qaeopt.tableau.SUFFIX_CAP)
    return {
        "dims": [d_a, d_b],
        "probs": [float(x) for x in probs],
        "config": dataclasses.asdict(config or SearchConfig()),
        "leaf_block": leaf_block,
        "suffix_cap": suffix_cap,
    }


# Exhaustive shapes at the default blocks: a single cell, row and column,
# squares, two- and three-row grids up to several walk pieces.
SHAPES = [(1, 1), (1, 6), (6, 1), (2, 2), (2, 3), (3, 3), (2, 8), (3, 4), (4, 3), (4, 4), (3, 5), (2, 10), (3, 7), (4, 5)]
# A uniform spectrum exact-scores every leaf: only up to this many tableaux.
UNIFORM_MAX = 2 * 10**5
# Small LEAF_BLOCK / SUFFIX_CAP pairs: blocks cut mid-prefix, many walk
# pieces, and short suffixes.
SMALL_BLOCKS = [(7, 64), (3, 4)]
SMALL_BLOCK_SHAPES = [(3, 3), (3, 4), (2, 8)]
# Larger shapes with small blocks, one spectrum each: uniform (4,4) at 7/64
# is a walk of 1340 pieces whose every leaf is exact-scored.
SMALL_BLOCK_EXTRA = [((4, 4), "uniform", (7, 64)), ((3, 5), "a1e6", (3, 4)), ((2, 10), "tail", (7, 64))]
# Forced heuristic (threshold 1): shape, spectrum, search seed.
HEURISTIC = [
    ((2, 3), "a1", 0), ((3, 3), "ties", 1), ((3, 4), "a0.02", 2), ((4, 3), "a1e6", 3),
    ((4, 4), "uniform", 4), ((3, 5), "tail", 5), ((2, 8), "a1", 6), ((4, 5), "a1", 7),
    ((5, 5), "a0.02", 8), ((5, 6), "tail", 9), ((6, 6), "a1", 10), ((6, 7), "ties", 11),
    ((7, 7), "a1e6", 12), ((8, 3), "a1", 13), ((7, 8), "a1", 14), ((8, 8), "a1", 15),
]
HEURISTIC_CONFIG = {"n1": 2000, "n2": 6, "n_d": 40, "exhaustive_threshold": 1}
# Run again with parallelism 2, at the default blocks; breadth_tasks cuts
# 20000 draws into three tasks on one job and four on two.
PARALLEL = [((8, 8), "a1", 15), ((5, 5), "a0.02", 8)]


def library_calls() -> dict[str, dict]:
    """id -> the inputs of one library ``optimize`` call (``library_call``)."""
    from qaeopt import BipartiteDims, SearchConfig, count_regular

    calls = {}
    for d_a, d_b in SHAPES:
        tableaux = count_regular(BipartiteDims(d_a, d_b))
        for name, p in spectra(d_a, d_b).items():
            if name != "uniform" or tableaux <= UNIFORM_MAX:
                calls[f"lib-{d_a}x{d_b}-{name}"] = library_call(d_a, d_b, p)
    small = [(shape, name, blocks) for blocks in SMALL_BLOCKS for shape in SMALL_BLOCK_SHAPES for name in spectra(*shape)]
    for (d_a, d_b), name, blocks in small + SMALL_BLOCK_EXTRA:
        p = spectra(d_a, d_b)[name]
        calls[f"lib-{d_a}x{d_b}-{name}-b{blocks[0]}c{blocks[1]}"] = library_call(d_a, d_b, p, None, blocks)
    for (d_a, d_b), name, seed in HEURISTIC:
        config = SearchConfig(seed=seed, **HEURISTIC_CONFIG)
        calls[f"lib-heur-{d_a}x{d_b}-{name}"] = library_call(d_a, d_b, spectra(d_a, d_b)[name], config)
    for (d_a, d_b), name, seed in PARALLEL:
        for jobs in (1, 2):
            config = SearchConfig(**{**HEURISTIC_CONFIG, "n1": 20000}, seed=seed, parallelism=jobs)
            calls[f"lib-heur-{d_a}x{d_b}-{name}-n20000-jobs{jobs}"] = library_call(d_a, d_b, spectra(d_a, d_b)[name], config)
    return calls


def run_library(call: dict) -> dict:
    """``optimize(...).to_dict()`` of one library call's stored inputs, as
    JSON reads it back."""
    from qaeopt import BipartiteDims, SearchConfig, optimize

    with constants(call["leaf_block"], call["suffix_cap"]):
        result = optimize(np.array(call["probs"]), BipartiteDims(*call["dims"]), SearchConfig(**call["config"]))
    return json.loads(json.dumps(result.to_dict()))


def run_call(argv: list[str], directory: str) -> tuple[int, list[dict]]:
    """Exit code and output lines, without ``timings``, of one CLI call whose
    argv names its state files under ``directory``."""
    from qaeopt.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([arg.replace(DIR, directory) for arg in argv])
        except SystemExit as exc:  # argparse rejects usage errors this way
            code = exc.code
    lines = [json.loads(line) for line in out.getvalue().splitlines() if line]
    return code, [{k: v for k, v in line.items() if k != "timings"} for line in lines]


def differences(got, want, where: str = "", key: str | None = None) -> Iterator[str]:
    """The paths at which JSON values differ: floats bit for bit, except
    LINALG_FIELDS, which may differ by LINALG_TOL."""
    if key in LINALG_FIELDS and isinstance(want, float):
        if not (isinstance(got, float) and math.isclose(got, want, rel_tol=0, abs_tol=LINALG_TOL)):
            yield f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        if not (isinstance(got, dict) and got.keys() == want.keys()):
            yield f"{where}: keys differ"
            return
        for k in want:
            yield from differences(got[k], want[k], f"{where}.{k}", k)
    elif isinstance(want, list):
        if not (isinstance(got, list) and len(got) == len(want)):
            yield f"{where}: lengths differ"
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from differences(g, w, f"{where}[{i}]")
    elif type(got) is not type(want) or (got.hex() != want.hex() if isinstance(want, float) else got != want):
        yield f"{where}: {got!r} != {want!r}"


def build() -> dict:
    """The corpus as the current code prints it."""
    from qaeopt import save_statefile

    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, kwargs in state_files().items():
            path = Path(tmp) / f"{name}.json"
            save_statefile(path, **kwargs)
            files[name] = path.read_text()
        for name, text in TEXT_FILES.items():
            (Path(tmp) / f"{name}.json").write_text(text)
            files[name] = text
        calls = []
        for name, argv in CALLS.items():
            code, lines = run_call(argv, tmp)
            calls.append({"id": name, "argv": argv, "exit": code, "lines": lines})
    return {**_platform(), "files": files, "calls": calls}


def build_results() -> dict:
    """The library corpus as the current code returns it."""
    calls = [{"id": name, **call, "result": run_library(call)} for name, call in library_calls().items()]
    return {**_platform(), "calls": calls}


def _platform() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _moved(new: list[dict], old: list[dict]) -> list[str]:
    """The ids of the calls that differ, are new or are gone."""
    old_by_id = {call["id"]: call for call in old}
    new_by_id = {call["id"]: call for call in new}
    moved = [i for i in new_by_id if i not in old_by_id or next(differences(new_by_id[i], old_by_id[i]), None)]
    return moved + [i for i in old_by_id if i not in new_by_id]


def _write(path: Path, corpus: dict) -> None:
    path.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Check the golden-output corpus, or write it with --write.")
    parser.add_argument(
        "--write", action="store_true", help=f"overwrite {CORPUS.name} and {RESULTS.name} with the current outputs"
    )
    write = parser.parse_args(argv).write
    corpus, results = build(), build_results()
    if write:
        _write(CORPUS, corpus)
        _write(RESULTS, results)
        print(f"wrote {len(corpus['calls'])} calls and {len(corpus['files'])} state files to {CORPUS}", file=sys.stderr)
        print(f"wrote {len(results['calls'])} library calls to {RESULTS}", file=sys.stderr)
        return 0
    stored = json.loads(CORPUS.read_text())
    moved = _moved(corpus["calls"], stored["calls"])
    moved += _moved(results["calls"], json.loads(RESULTS.read_text())["calls"])
    files = sorted(corpus["files"].keys() | stored["files"].keys())
    moved += [f"file:{n}" for n in files if corpus["files"].get(n) != stored["files"].get(n)]
    for name in moved:
        print(name)
    print(f"{len(moved)} calls or state files moved", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
