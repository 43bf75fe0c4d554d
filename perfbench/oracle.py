"""Independent references and per-op output checks.

Nothing here calls into qaeopt. The mutual information, the regularity test
and the exhaustive minimum are recomputed with plain numpy from the numbers
in the state file, so a change to the library cannot also change the check.
"""

from __future__ import annotations

import json
import math

import numpy as np

CLI_CLAMP = 1e-9  # the CLI reports values in (-1e-9, 0) as 0
MI_TOL = 1e-12  # reported vs recomputed classical mutual information, nats
RESIDUAL_LIMIT = 1e-6  # Theorem-1 residual the CLI itself accepts, nats
# The quantum mi_middle of a dense state goes through eigh, two partial traces
# and three eigvalsh calls on a 256-dimensional matrix; its round-off sits
# well above MI_TOL but far below any value a wrong plan would produce.
DENSE_MI_TOL = 1e-10


def clamp(x: float) -> float:
    return 0.0 if -CLI_CLAMP < x < 0.0 else x


def entropy(p, axis=-1) -> np.ndarray:
    """Shannon entropy in nats along ``axis`` with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    safe = np.where(p > 0.0, p, 1.0)
    return -(p * np.log(safe)).sum(axis=axis)


def grid_mi(probs: np.ndarray, cells) -> float:
    """H(row sums) + H(column sums) - H(probs) for probs laid out by a tableau."""
    grid = probs[np.asarray(cells) - 1]
    return float(entropy(grid.sum(axis=1)) + entropy(grid.sum(axis=0)) - entropy(probs))


def file_probs(path) -> tuple[int, int, np.ndarray]:
    """(d_a, d_b, descending probabilities) read straight from a state file."""
    with open(path) as fh:
        doc = json.load(fh)
    if "spectrum" in doc:
        p = np.clip(np.asarray(doc["spectrum"], dtype=float), 0.0, None)
        p = p / p.sum()
    else:
        raw = np.asarray(doc["matrix"], dtype=float)
        p = np.clip(np.linalg.eigvalsh(raw[..., 0] + 1j * raw[..., 1]), 0.0, None)
    return int(doc["d_a"]), int(doc["d_b"]), np.sort(p)[::-1]


def tableau_problem(cells, d_a: int, d_b: int) -> str | None:
    """Why ``cells`` is not a regular d_a x d_b filling of 1..d_a*d_b, or None."""
    c = np.asarray(cells)
    if c.shape != (d_a, d_b):
        return f"tableau has shape {c.shape}, expected {(d_a, d_b)}"
    if not np.array_equal(np.sort(c, axis=None), np.arange(1, d_a * d_b + 1)):
        return "tableau is not a filling of 1..n"
    if np.any(np.diff(c, axis=1) <= 0) or np.any(np.diff(c, axis=0) <= 0):
        return "tableau is not regular"
    return None


def optimize_problems(out: dict, probs: np.ndarray, d_a: int, d_b: int, method: str) -> list[str]:
    """Checks on one ``qaeopt optimize`` report for a spectrum file."""
    res = out["result"]
    problems = []
    if out["dims"] != {"d_a": d_a, "d_b": d_b}:
        problems.append(f"dims {out['dims']} do not match the file")
    if res["method"] != method:
        problems.append(f"method {res['method']!r}, expected {method!r}")
    bad = tableau_problem(res["best_tableau"], d_a, d_b)
    if bad:
        return problems + [bad]
    mi = clamp(grid_mi(probs, res["best_tableau"]))
    if not abs(res["best_mi"] - mi) <= MI_TOL:
        problems.append(f"best_mi {res['best_mi']!r} but the tableau gives {mi!r}")
    if not res["best_mi"] <= res["trajectory"][0]:
        problems.append("best_mi is above trajectory[0]")
    return problems


def verify_problems(out: dict, probs: np.ndarray, d_a: int, d_b: int) -> list[str]:
    """Checks on one ``qaeopt verify`` report for a dense file and a random plan."""
    problems = []
    if out["dims"] != {"d_a": d_a, "d_b": d_b}:
        problems.append(f"dims {out['dims']} do not match the file")
    if out["support_violation"]:
        problems.append("support_violation")
    if not out["residual"] < RESIDUAL_LIMIT:
        problems.append(f"residual {out['residual']!r} is not below {RESIDUAL_LIMIT}")
    bad = tableau_problem(out["tableau"], d_a, d_b)
    if bad:
        return problems + [bad]
    # The encoded state is diagonal in the product basis, so its mutual
    # information is the classical one of the arranged eigenvalues.
    mi = clamp(grid_mi(probs, out["tableau"]))
    if not abs(out["mi_middle"] - mi) <= DENSE_MI_TOL:
        problems.append(f"mi_middle {out['mi_middle']!r} but the tableau gives {mi!r}")
    return problems


def report_problems(method: str, report: dict, probs) -> list[str]:
    """Everything wrong with one CLI report; ``probs`` is from file_probs."""
    d_a, d_b, p = probs
    try:
        if method == "verify":
            return verify_problems(report, p, d_a, d_b)
        return optimize_problems(report, p, d_a, d_b, method)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]


def hook_count(d_a: int, d_b: int) -> int:
    hooks = math.prod((d_a - i) + (d_b - j) - 1 for i in range(d_a) for j in range(d_b))
    return math.factorial(d_a * d_b) // hooks


def regular_cells(d_a: int, d_b: int) -> np.ndarray:
    """Every regular filling, one row each: row[v-1] is the flat cell holding v.

    Built breadth-first over row lengths: value v may go to row i when row i
    is not full and is shorter than row i-1.
    """
    lengths = np.zeros((1, d_a), dtype=np.int8)
    cells = np.zeros((1, 0), dtype=np.int8)
    for _ in range(d_a * d_b):
        grown_lengths, grown_cells = [], []
        for i in range(d_a):
            ok = lengths[:, i] < d_b
            if i > 0:
                ok &= lengths[:, i - 1] > lengths[:, i]
            idx = np.flatnonzero(ok)
            grown = lengths[idx]
            col = grown[:, i].copy()
            grown[:, i] += 1
            grown_lengths.append(grown)
            grown_cells.append(np.hstack([cells[idx], (i * d_b + col)[:, None]]))
        lengths = np.concatenate(grown_lengths)
        cells = np.concatenate(grown_cells)
    if len(cells) != hook_count(d_a, d_b):
        raise RuntimeError(f"enumerated {len(cells)} fillings of {d_a}x{d_b}")
    return cells


def exact_min_mi(probs: np.ndarray, cells: np.ndarray, d_a: int, d_b: int, chunk: int = 4096) -> float:
    """Minimum mutual information over all regular fillings, vectorized."""
    h_flat = float(entropy(probs))
    best = math.inf
    for lo in range(0, len(cells), chunk):
        flat = cells[lo:lo + chunk].astype(np.intp)
        rows = (probs[:, None] * (flat[:, :, None] // d_b == np.arange(d_a))).sum(axis=1)
        cols = (probs[:, None] * (flat[:, :, None] % d_b == np.arange(d_b))).sum(axis=1)
        mi = entropy(rows) + entropy(cols) - h_flat
        best = min(best, float(mi.min()))
    return best
