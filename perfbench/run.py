"""Benchmark of the qaeopt CLI, driven in-process through ``qaeopt.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory. Set-up builds the workload's state files from the seed and runs
one warm-up op, three times over. The timed part then runs whole passes over
the workload's ops. After it, every op's output is checked against the
references in ``oracle.py``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
times scaled to a reference host speed (see ``hostspeed.py``). With
``--trace 1`` each op runs once untraced and once with spans around the calls
into the library, and the last line carries the per-layer metrics. A context
line before it records the raw wall times, result digests and the machine.
State files go to ``.bench_work/`` and are removed at exit; the run record
goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
# The keys of workloads.WORKLOADS, which cannot be imported before the BLAS
# thread count is pinned.
WORKLOAD_NAMES = ("heuristic-8x8", "heuristic-8x8-jobs2", "exhaustive-small", "dense-verify-16x16")


@dataclass
class OpRun:
    index: int  # position of the op in the pass
    elapsed: float
    report: dict | None
    problems: list[str] = field(default_factory=list)
    mark: int = 0  # host-speed sample taken right after the op


def run_op(cli_main, op, index: int, tracer=None, argv=None) -> OpRun:
    out, err = io.StringIO(), io.StringIO()
    argv = list(argv or op.argv)
    problems = []
    code = None
    started = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                code = cli_main(argv)
            else:
                with tracer.span("cli.main"):
                    code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an op that raises is counted as failed, not fatal
        problems.append("raised: " + traceback.format_exc(limit=-3))
    elapsed = perf_counter() - started
    report = None
    if not problems:
        if code != 0:
            problems.append(f"exit code {code}: {err.getvalue().strip()[-300:]}")
        lines = out.getvalue().strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            problems.append("no JSON report on stdout")
    return OpRun(index, elapsed, report, problems)


def answer(op, report: dict) -> tuple[float, list]:
    """(reported mutual information, tableau) of one op."""
    if op.method == "verify":
        return report["mi_middle"], report["tableau"]
    return report["result"]["best_mi"], report["result"]["best_tableau"]


def without_timings(report: dict | None) -> dict | None:
    return None if report is None else {k: v for k, v in report.items() if k != "timings"}


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples above it. Below 20 samples no percentile over the
    median qualifies, and the maximum is reported as the 100th."""
    n = len(times)
    ordered = sorted(times)
    if n < 20:
        return ordered[-1], 100.0, n
    k = n - 10
    return ordered[k - 1], 100.0 * k / n, n


def src_line_counts() -> dict[str, int]:
    return {
        p.stem: sum(1 for _ in p.open())
        for p in sorted((ROOT / "src" / "qaeopt").glob("*.py"))
    }


def blas_version(np) -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return None


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus, when a pool is used, the largest
    worker's peak times the worker count (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (jobs * child if jobs > 1 else 0)) / 1024.0


def check_runs(oracle, ops, probs, runs, references, exact) -> dict[int, OpRun]:
    """Record every problem found in ``runs`` and ``references``; return the
    first run of each op."""
    for run in runs + references:
        if run.report is not None:
            op = ops[run.index]
            run.problems += oracle.report_problems(op.method, run.report, probs[op.path])
    jobs1 = {ref.index: ref.report for ref in references}
    first: dict[int, OpRun] = {}
    for run in runs:
        first.setdefault(run.index, run)
        if without_timings(run.report) != without_timings(first[run.index].report):
            run.problems.append("result differs from an earlier run of the same op")
        if run.report is None or run.problems:
            continue
        if run.index in exact:
            got = answer(ops[run.index], run.report)[0]
            if not abs(got - exact[run.index]) <= oracle.MI_TOL:
                run.problems.append(f"best_mi {got!r} but the exact minimum is {exact[run.index]!r}")
        if run.index in jobs1 and run.report["result"] != (jobs1[run.index] or {}).get("result"):
            run.problems.append("result differs from the --jobs 1 result")
    return first


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qaeopt" / "__init__.py").is_file():
        print(f"error: no qaeopt package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # One client process: BLAS gets one thread, so the client plus at most
    # nproc pool workers never ask for more threads than there are cores.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    nproc = len(os.sched_getaffinity(0))
    sys.path.insert(0, str(ROOT / "src"))

    started = perf_counter()
    cli = importlib.import_module("qaeopt.cli")
    import_s = perf_counter() - started
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: qaeopt was imported from {cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import numpy as np

    import hostspeed
    import oracle
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    jobs = min(workload.jobs, nproc)
    passes = max(1, round(args.seconds / workload.nominal_pass_s))
    if args.trace:
        passes = max(1, passes // 2)  # each op then runs twice per pass
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runs: list[OpRun] = []
    tracer = spans.Tracer()
    missing: set[str] = set()
    timed, traced, references = [], [], []
    speed = hostspeed.HostSpeed()
    try:
        work.mkdir(parents=True)
        # Set-up: state files plus the warm-up op, repeated; the median counts.
        rep_s, rep_marks = [], []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            ops = workload.build(work, args.seed, jobs)
            warmup = workload.warmup(ops)
            runs.append(run_op(cli.main, warmup, len(ops)))
            rep_s.append(perf_counter() - t0)
            rep_marks.append(speed.mark())

        for _ in range(passes):
            for index, op in enumerate(ops):
                runs.append(run_op(cli.main, op, index))
                runs[-1].mark = speed.mark()
                timed.append(runs[-1])
                if args.trace:
                    tracer.op = len(traced)
                    with spans.installed(tracer, missing):
                        runs.append(run_op(cli.main, op, index, tracer))
                    speed.mark()  # the next untraced op's "before" sample
                    traced.append(runs[-1])
        # Taken before the references below, whose memory is the benchmark's own.
        rss_mb = peak_rss_mb(jobs)

        if jobs > 1:
            # --jobs must not change any result: rerun each op with --jobs 1.
            for index, op in enumerate(ops):
                argv = [*op.argv[:-1], "1"]  # heuristic argv ends with "--jobs", N
                references.append(run_op(cli.main, op, index, argv=argv))
        probs = {path: oracle.file_probs(path) for path in {op.path for op in ops}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops_and_warmup = [*ops, warmup]  # run.index points into this list
    exact, cells = {}, {}
    for index, op in enumerate(ops_and_warmup):
        if op.method == "exhaustive":
            d_a, d_b, p = probs[op.path]
            if (d_a, d_b) not in cells:
                cells[d_a, d_b] = oracle.regular_cells(d_a, d_b)
            exact[index] = oracle.clamp(oracle.exact_min_mi(p, cells[d_a, d_b], d_a, d_b))
    first = check_runs(oracle, ops_and_warmup, probs, runs, references, exact)
    runs += references

    failed = [r for r in runs if r.problems]
    for r in failed[:5]:
        print(f"op {r.index} ({' '.join(ops_and_warmup[r.index].argv)}): {'; '.join(r.problems)}", file=sys.stderr)
    answers = [answer(ops[i], first[i].report) if first[i].report else None for i in range(len(ops))]
    fixed_mi = [a[0] for a, op in zip(answers, ops) if op.fixed and a is not None]
    wall = [r.elapsed for r in timed]
    times = [speed.scaled(r.elapsed, r.mark) for r in timed]
    tail_s, tail_pct, n = tail(times)

    if args.trace:
        untraced_s, traced_s = sum(wall), sum(r.elapsed for r in traced)
        metrics = spans.layer_metrics(tracer.spans, len(traced))
        metrics["trace.solves_per_s"] = (len(traced) / traced_s, "1/s")
        metrics["trace.untraced_solves_per_s"] = (len(timed) / untraced_s, "1/s")
        metrics["trace.overhead_fraction"] = (traced_s / untraced_s - 1.0, "fraction")
    else:
        metrics = {
            "setup_s": (
                speed.scaled(import_s, 0)
                + statistics.median(speed.scaled(t, m) for t, m in zip(rep_s, rep_marks)),
                "s",
            ),
            "solves_per_s": (len(times) / sum(times), "1/s"),
            "solve_s_p50": (statistics.median(times), "s"),
            "solve_s_tail": (tail_s, "s"),
            "mean_final_mi_nats": (statistics.fmean(fixed_mi) if fixed_mi else 0.0, "nats"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    correct = not failed and len(fixed_mi) == sum(op.fixed for op in ops)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "ops_per_pass": len(ops),
        "jobs": jobs,
        "solve_s_tail_percentile": tail_pct,
        "solve_s_samples": n,
        "failed_fraction": len(failed) / len(runs),
        "wall_setup_s": import_s + statistics.median(rep_s),
        "wall_solves_per_s": len(wall) / sum(wall),
        "wall_solve_s_p50": statistics.median(wall),
        "wall_solve_s_tail": tail(wall)[0],
        "wall_op_s": wall,
        "host_slowdown": speed.seen,
        "digest": digest(answers),
        "digest_fixed_ops": digest([a for a, op in zip(answers, ops) if op.fixed]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(np),
        "nproc": nproc,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "src_lines": src_line_counts(),
        "missing_call_sites": sorted(missing),
    }
    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"context": context, "result": result}
    if args.trace:
        record["spans"] = tracer.to_json()
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
