"""The workloads: which CLI commands one pass runs, and the inputs they read.

Each pass holds "fixed" ops, whose state files and CLI seeds are the same in
every run, and "seeded" ops, built from the workload seed. The final mutual
information of a heuristic search moves by 13-19% with the search seed alone
and by 35-57% between random states, so ``mean_final_mi_nats`` is taken over
the fixed ops: it is then the same number in every run, and a search that
gets faster by getting worse shows as a regression on it. Timing covers
every op of the pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from qaeopt.pipeline import generate_instance
from qaeopt.qstate import BipartiteDims
from qaeopt.statefile import save_statefile

FIXED_SEED = 240408429
# Keeps the input streams of different workloads apart; the two 8x8
# workloads share one so that they run the same instances and seeds.
TAG_8X8, TAG_EXHAUSTIVE, TAG_DENSE = 1, 2, 3


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    path: str  # the state file the op reads
    fixed: bool  # same inputs in every run
    method: str  # "heuristic", "exhaustive" or "verify"


def cli_seed(*key: int) -> str:
    return str(int(np.random.SeedSequence(key).generate_state(1)[0]) & 0x7FFFFFFF)


def _groups(seed: int):
    return (("fixed", True, FIXED_SEED), ("seeded", False, seed))


def _spectrum_file(work: Path, name: str, kind: str, dims: BipartiteDims, key) -> str:
    rho = generate_instance(kind, dims, np.random.SeedSequence(key))
    path = str(work / f"{name}.json")
    save_statefile(path, dims, spectrum=np.real(np.diag(rho.matrix)), label=kind)
    return path


def heuristic_ops(work: Path, seed: int, jobs: int, per_group: int) -> list[Op]:
    """8x8 spectra alternating between product-spectrum (fig2b) and
    diagonal-mixed (fig2a), with the default full protocol."""
    ops = []
    for group, fixed, base in _groups(seed):
        for index in range(per_group):
            kind = ("product-spectrum", "diagonal-mixed")[index % 2]
            key = (base, TAG_8X8, index)
            path = _spectrum_file(work, f"8x8-{group}-{index}", kind, BipartiteDims(8, 8), key)
            argv = ("optimize", path, "--seed", cli_seed(*key), "--jobs", str(jobs))
            ops.append(Op(argv, path, fixed, "heuristic"))
    return ops


EXHAUSTIVE_GRIDS = ((4, 4), (3, 5), (3, 6))


def exhaustive_ops(work: Path, seed: int, jobs: int) -> list[Op]:
    """diagonal-mixed spectra on grids the default threshold sends to
    exhaustive traversal, two states per grid in each group."""
    ops = []
    for group, fixed, base in _groups(seed):
        for copy in range(2):
            for d_a, d_b in EXHAUSTIVE_GRIDS:
                key = (base, TAG_EXHAUSTIVE, d_a, d_b, copy)
                name = f"grid{d_a}x{d_b}-{group}-{copy}"
                path = _spectrum_file(work, name, "diagonal-mixed", BipartiteDims(d_a, d_b), key)
                ops.append(Op(("optimize", path, "--seed", cli_seed(*key)), path, fixed, "exhaustive"))
    return ops


PLANS_PER_DENSE_FILE = 4


def dense_ops(work: Path, seed: int, jobs: int) -> list[Op]:
    """16x16 random-dense matrix files, each verified under several random
    regular plans."""
    ops = []
    dims = BipartiteDims(16, 16)
    for group, fixed, base in _groups(seed):
        key = (base, TAG_DENSE)
        rho = generate_instance("random-dense", dims, np.random.SeedSequence(key))
        path = str(work / f"dense16x16-{group}.json")
        save_statefile(path, dims, matrix=rho.matrix)
        for plan in range(PLANS_PER_DENSE_FILE):
            ops.append(Op(("verify", path, "--seed", cli_seed(*key, plan)), path, fixed, "verify"))
    return ops


@dataclass(frozen=True)
class Workload:
    build: Callable[[Path, int, int], list[Op]]  # (work dir, seed, jobs); writes the files
    jobs: int
    # Seconds one pass of qaeopt 0.1.0 took (shared 2-core x86-64 VM,
    # Python 3.11, numpy 2.4, one BLAS thread). A run makes
    # max(1, round(seconds / nominal_pass_s)) whole passes, so every run of
    # a workload has the same op mix and sample count.
    nominal_pass_s: float
    # Flags added to the first op to make the warm-up op.
    warmup_flags: tuple[str, ...] = ()

    def warmup(self, ops: list[Op]) -> Op:
        return replace(ops[0], argv=ops[0].argv + self.warmup_flags)


# A full-protocol 8x8 op takes about 4 s. Its warm-up cuts the search budget
# a hundredfold: it still runs every code path of the op (load, breadth with
# the pool when --jobs > 1, depth, report) in well under a second, so set-up
# can be repeated three times without eating the timed run.
REDUCED_SEARCH = ("--n1", "200", "--n2", "2", "--nd", "5")

WORKLOADS = {
    # Six ops a pass: three fixed states and three from the seed.
    "heuristic-8x8": Workload(partial(heuristic_ops, per_group=3), 1, 27.0, REDUCED_SEARCH),
    # The first two states of each half of heuristic-8x8, same seeds; the
    # --jobs 1 rerun that every op is checked against doubles its cost.
    "heuristic-8x8-jobs2": Workload(partial(heuristic_ops, per_group=2), 2, 11.0, REDUCED_SEARCH),
    "exhaustive-small": Workload(exhaustive_ops, 1, 19.0),
    "dense-verify-16x16": Workload(dense_ops, 1, 3.0),
}
