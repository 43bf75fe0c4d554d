"""Command-line surface: count, optimize, verify, experiment.

Every command prints line-delimited JSON on stdout (one object per line) and
diagnostics on stderr. Exit codes: 0 success, 1 numerical or verification
failure, 2 usage or file-format error. All randomness is seeded, so reruns
with the same flags are byte-identical apart from the "timings" field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields, replace
from functools import cache, partial

import numpy as np

from . import __version__
from .exceptions import StateFileError, ValidationError
from .pipeline import _diagonal_spectrum, build_encoder, verify_theorem1
from .qstate import MI_ROUNDOFF_TOL, BipartiteDims, nats_to_bits
from . import search
from .search import SearchConfig, run_tasks, worker_count
from .search import _optimize as optimize  # load_statefile checked probs; perfbench/spans.py wraps this name
from .statefile import load_statefile
from .tableau import count_regular, random_regular

VERIFY_RESIDUAL_LIMIT = 1e-6  # nats
EXPERIMENT_FLOOR = 1e-15  # nats, applied to reported per-instance values only


def _emit(command: str, body: dict, started: float | None = None) -> None:
    """Print one report line: ``command`` and ``body``, plus ``timings``
    (seconds since ``started``) for a timed report."""
    report = {"command": command, **body}
    if started is not None:
        report["timings"] = {"total_s": time.perf_counter() - started}
    print(json.dumps(report, sort_keys=True))


def _report_value(x: float, bits: bool) -> float:
    """Clamp round-off negatives to zero and convert the unit for display."""
    if -MI_ROUNDOFF_TOL < x < 0.0:
        x = 0.0
    return nats_to_bits(x) if bits else x


def _file_fields(sf, bits: bool) -> dict:
    """The fields every report on a state file carries."""
    return {
        "version": __version__,
        "input_digest": sf.digest,
        "dims": {"d_a": sf.dims.d_a, "d_b": sf.dims.d_b},
        "unit": "bits" if bits else "nats",
    }


def _compression_dict(report, bits: bool) -> dict:
    d = report.to_dict()
    for key in ("mi_middle", "rel_entropy_out", "residual"):
        d[key] = _report_value(d[key], bits)
    return d


def cmd_count(args) -> int:
    count = count_regular(args.dims)
    threshold = args.config.exhaustive_threshold
    _emit(
        "count",
        {
            "d_a": args.dims.d_a,
            "d_b": args.dims.d_b,
            "count": count,
            "exhaustive_threshold": threshold,
            "within_threshold": count <= threshold,
        },
    )
    return 0


def cmd_optimize(args) -> int:
    started = time.perf_counter()
    sf = load_statefile(args.statefile)
    result = optimize(sf.probs, sf.dims, args.config)
    compression = None
    if sf.density is not None:
        report = verify_theorem1(sf.density, build_encoder(sf.density, result.best_tableau), sf.dims)
        compression = _compression_dict(report, args.bits)
    found = result.to_dict()
    found["best_mi"] = _report_value(found["best_mi"], args.bits)
    found["trajectory"] = [_report_value(x, args.bits) for x in found["trajectory"]]
    _emit(
        "optimize",
        {
            **_file_fields(sf, args.bits),
            "label": sf.label,
            "config": asdict(args.config),
            "result": found,
            "compression": compression,
        },
        started,
    )
    return 0


def cmd_verify(args) -> int:
    started = time.perf_counter()
    sf = load_statefile(args.statefile)
    rho = sf.density
    if rho is None:
        raise StateFileError("verify requires a dense-matrix state file (eigenvectors needed)")
    if args.plan == "identity":
        tableau_cells, report = None, verify_theorem1(rho, np.eye(sf.dims.total), sf.dims)
    else:
        tableau = random_regular(sf.dims, args.config.seed)
        tableau_cells = [list(row) for row in tableau.cells]
        report = verify_theorem1(rho, build_encoder(rho, tableau), sf.dims)
    _emit(
        "verify",
        {
            **_file_fields(sf, args.bits),
            "plan": args.plan,
            "seed": args.config.seed,
            "tableau": tableau_cells,
            **_compression_dict(report, args.bits),
        },
        started,
    )
    return 0 if report.residual < VERIFY_RESIDUAL_LIMIT else 1


def _experiment_state(kind: str, dims: BipartiteDims, config: SearchConfig, index: int) -> dict:
    """Draw the spectrum (no matrix) of state ``index`` of a batch and search
    it. ``config.seed`` is the batch's master seed; the instance and the
    search each derive their own seed from it and the index, and the search
    runs in this process."""
    master_seed = config.seed
    probs = _diagonal_spectrum(kind, dims, np.random.SeedSequence((master_seed, index, 0)))
    search_seed = int(np.random.SeedSequence((master_seed, index, 1)).generate_state(1)[0])
    result = search.optimize(probs, dims, replace(config, seed=search_seed, parallelism=1))
    return {
        "state": index,
        "mi_initial": result.initial_mi,
        "mi_final_raw": result.best_mi,
        "method": result.method,
        "evaluations": result.evaluations,
    }


_EXPERIMENT_KINDS = {"fig2a": "diagonal-mixed", "fig2b": "product-spectrum"}


def cmd_experiment(args) -> int:
    started = time.perf_counter()
    dims, config = args.dims, args.config
    state = partial(_experiment_state, _EXPERIMENT_KINDS[args.kind], dims, config)
    jobs = worker_count(config.parallelism, args.states)
    rows = list(run_tasks(state, jobs, range(args.states)))

    bits = args.bits
    finals = []
    initials = []
    for row in rows:
        # Both kept in nats as reported, so each mean is that of the lines.
        finals.append(max(row["mi_final_raw"], EXPERIMENT_FLOOR))
        initials.append(_report_value(row["mi_initial"], False))
        _emit(
            "experiment",
            {
                "kind": args.kind,
                "state": row["state"],
                "mi_initial": _report_value(initials[-1], bits),
                "mi_final": _report_value(finals[-1], bits),
                "method": row["method"],
                "evaluations": row["evaluations"],
            },
        )
    _emit(
        "experiment",
        {
            "aggregate": True,
            "kind": args.kind,
            "version": __version__,
            "states": args.states,
            "dims": {"d_a": dims.d_a, "d_b": dims.d_b},
            # Every search knob but parallelism, which does not change results.
            "config": {k: v for k, v in asdict(config).items() if k != "parallelism"},
            "unit": "bits" if bits else "nats",
            "floor": _report_value(EXPERIMENT_FLOOR, bits),
            "mean_final_mi": _report_value(sum(finals) / len(finals), bits),
            "mean_initial_mi": _report_value(sum(initials) / len(initials), bits),
            "max_final_mi": _report_value(max(finals), bits),
            "final_mi_values": [_report_value(x, bits) for x in sorted(finals)],
        },
        started,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    bits_flag = argparse.ArgumentParser(add_help=False)
    bits_flag.add_argument("--bits", action="store_true", help="report entropies in bits instead of nats")

    # A search flag sets its attribute only when given; see main.
    threshold_flag = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    threshold_flag.add_argument(
        "--threshold", type=int, dest="exhaustive_threshold", metavar="THRESHOLD",
        help="largest tableau count for which exhaustive traversal is used",
    )

    search_flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    search_flags.add_argument("--jobs", type=int, dest="parallelism", metavar="JOBS",
                              help="worker processes (results do not depend on this)")
    search_flags.add_argument("--n1", type=int, help="breadth-phase samples")
    search_flags.add_argument("--n2", type=int, help="seeds kept for the depth phase")
    search_flags.add_argument("--nd", type=int, dest="n_d", metavar="ND", help="descent iterations per seed")
    search_flags.add_argument("--seed", type=int, help="master RNG seed")

    parser = argparse.ArgumentParser(
        prog="qaeopt",
        description="Compress bipartite quantum states by minimizing retained/discarded mutual information",
    )
    parser.add_argument("--version", action="version", version=f"qaeopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", parents=[threshold_flag], help="count regular Young tableaux of a grid")
    p_count.add_argument("d_a", type=int)
    p_count.add_argument("d_b", type=int)
    p_count.set_defaults(func=cmd_count)

    p_opt = sub.add_parser(
        "optimize", parents=[bits_flag, threshold_flag, search_flags],
        help="minimize mutual information for a state file",
    )
    p_opt.add_argument("statefile")
    p_opt.set_defaults(func=cmd_optimize)

    p_ver = sub.add_parser(
        "verify", parents=[bits_flag], help="check the compression identity on a dense state"
    )
    p_ver.add_argument("statefile")
    p_ver.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="seed for the random tableau plan")
    p_ver.add_argument(
        "--plan", choices=("random", "identity"), default="random",
        help="encode with a random regular tableau or skip encoding (U = identity)",
    )
    p_ver.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser(
        "experiment", parents=[bits_flag, threshold_flag, search_flags],
        help="batch optimization over random states",
    )
    p_exp.add_argument("kind", choices=sorted(_EXPERIMENT_KINDS))
    p_exp.add_argument("--states", type=int, default=100)
    p_exp.add_argument("--da", type=int, default=8, dest="d_a", metavar="DA",
                       help="dimension of the discarded subsystem")
    p_exp.add_argument("--db", type=int, default=8, dest="d_b", metavar="DB",
                       help="dimension of the retained subsystem")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


# argparse parsers are not changed by parsing, so one serves every call.
_parser = cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # The search flags given (count takes only --threshold, verify only
    # --seed) go into SearchConfig, whose own defaults fill the rest; they are
    # checked before any work starts, and a value that SearchConfig rejects
    # is a usage error (exit 2).
    try:
        args.config = SearchConfig(**{f.name: getattr(args, f.name) for f in fields(SearchConfig)
                                      if hasattr(args, f.name)})
    except ValidationError as exc:
        parser.error(str(exc))
    # Any other bad input is one error line and exit 2: --states and the dims
    # here, before any work starts, and a state file where a command reads it.
    status = 2
    try:
        if getattr(args, "states", 1) < 1:
            raise ValidationError("--states must be at least 1")
        if hasattr(args, "d_a"):
            args.dims = BipartiteDims(args.d_a, args.d_b)
        status = 1  # a ValidationError from a command is a numerical failure
        return args.func(args)
    except (StateFileError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, StateFileError) else status


if __name__ == "__main__":
    sys.exit(main())
