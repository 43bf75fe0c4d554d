import builtins
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qaeopt.cli
import qaeopt.qstate
import qaeopt.search
import qaeopt.statefile
from qaeopt import BipartiteDims, DensityMatrix, generate_instance, nats_to_bits, save_statefile
from qaeopt.cli import main
from qaeopt.tableau import _random_regular_grid

DIMS22 = BipartiteDims(2, 2)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    lines = [json.loads(line) for line in out.out.strip().splitlines() if line]
    return code, lines, out.err


def strip_timings(obj):
    return {k: v for k, v in obj.items() if k != "timings"}


@pytest.fixture
def product_state_file(tmp_path):
    path = tmp_path / "product22.json"
    save_statefile(path, DIMS22, matrix=np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])))
    return str(path)


@pytest.fixture
def dense_state_file(tmp_path):
    path = tmp_path / "dense23.json"
    rho = generate_instance("random-dense", BipartiteDims(2, 3), 21)
    save_statefile(path, BipartiteDims(2, 3), matrix=rho.matrix)
    return str(path)


@pytest.fixture
def bell_state_file(tmp_path):
    path = tmp_path / "bell.json"
    save_statefile(path, DIMS22, matrix=np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0)
    return str(path)


def count_full_size_calls(monkeypatch, full):
    """Count DensityMatrix constructions, np.linalg eigh/eigvalsh calls and
    orthonormality checks (``qaeopt.qstate.is_unitary``) on ``full``-shaped
    arrays."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            counts[name] += np.shape(a) == full
            return fn(a, *args, **kwargs)

        return wrapper

    init = DensityMatrix.__init__

    def counted_init(self, entries):
        init(self, entries)
        counts["DensityMatrix"] += self.matrix.shape == full

    monkeypatch.setattr(DensityMatrix, "__init__", counted_init)
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(qaeopt.qstate, "is_unitary", counted("is_unitary", qaeopt.qstate.is_unitary))
    return counts


PEAK_RSS_OF_MAIN = """
import resource, sys
from qaeopt.cli import main
assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def count_opens(monkeypatch, path) -> list:
    """Record each open of ``path`` through open() or io.open, which
    pathlib's readers call."""
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == os.fspath(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    return opened


class TestCount:
    @pytest.mark.parametrize("d_a,d_b,expected", [(2, 2, 2), (1, 5, 1), (2, 18, 477638700)])
    def test_counts(self, capsys, d_a, d_b, expected):
        code, lines, _ = run_cli(capsys, "count", str(d_a), str(d_b))
        assert code == 0
        assert lines[0]["count"] == expected

    def test_threshold_flag(self, capsys):
        code, lines, _ = run_cli(capsys, "count", "2", "18", "--threshold", "10")
        assert code == 0
        assert lines[0]["within_threshold"] is False

    def test_non_numeric_args_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["count", "two", "2"])
        assert err.value.code == 2

    def test_jobs_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["count", "2", "2", "--jobs", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize("d_a,d_b", [(600, 600), (1, 2**14 + 1), (0, 3)])
    def test_dims_beyond_cap_or_nonpositive_exit_2(self, capsys, d_a, d_b):
        code, lines, err = run_cli(capsys, "count", str(d_a), str(d_b))
        assert code == 2 and lines == []
        assert err.startswith("error:")

    @pytest.mark.parametrize("threshold", ["0", "-3"])
    def test_threshold_below_one_exit_2(self, capsys, threshold):
        # The same check and exit code as optimize and experiment.
        with pytest.raises(SystemExit) as err:
            main(["count", "2", "2", "--threshold", threshold])
        assert err.value.code == 2
        assert "exhaustive_threshold must be >= 1" in capsys.readouterr().err


class TestOptimize:
    def test_product_state(self, capsys, product_state_file):
        code, lines, _ = run_cli(capsys, "optimize", product_state_file)
        assert code == 0
        report = lines[0]
        assert report["result"]["method"] == "exhaustive"
        assert report["result"]["best_mi"] < 1e-12
        assert report["compression"]["residual"] < 1e-7
        assert report["unit"] == "nats"

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("optimize", ("--n1", str(2**32 + 1))),
            ("optimize", ("--n1", "5", "--n2", "6")),
            ("optimize", ("--jobs", "0")),
            ("experiment", ("--n1", str(2**32 + 1))),
        ],
    )
    def test_search_flags_rejected_as_usage_errors(self, capsys, product_state_file, command, flags):
        # Values SearchConfig rejects (n1 above 2**32 among them) exit 2
        # before any state is loaded or searched.
        target = product_state_file if command == "optimize" else "fig2a"
        with pytest.raises(SystemExit) as err:
            main([command, target, *flags])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_spectrum_only_has_no_compression(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        save_statefile(path, DIMS22, spectrum=[0.4, 0.3, 0.2, 0.1])
        code, lines, _ = run_cli(capsys, "optimize", str(path), "--n1", "10", "--n2", "2")
        assert code == 0
        assert lines[0]["compression"] is None

    @pytest.mark.parametrize("kind", ["spectrum", "dense"])
    def test_file_probabilities_checked_once(self, capsys, tmp_path, monkeypatch, kind):
        # load_statefile checks the file's probabilities; the search takes
        # them as they are, so the check runs once per optimize, whichever
        # module it is looked up in.
        if kind == "spectrum":
            dims = BipartiteDims(3, 5)
            spectrum = np.diag(generate_instance("diagonal-mixed", dims, 4).matrix).real
            save_statefile(tmp_path / "state.json", dims, spectrum=spectrum)
        else:
            dims = BipartiteDims(2, 3)
            save_statefile(tmp_path / "state.json", dims, matrix=generate_instance("random-dense", dims, 4).matrix)
        calls = []
        check = qaeopt.qstate._probability_vector

        def counted(*args, **kwargs):
            calls.append(args[1])
            return check(*args, **kwargs)

        for module in (qaeopt.qstate, qaeopt.statefile, qaeopt.search):
            monkeypatch.setattr(module, "_probability_vector", counted)
        code, lines, _ = run_cli(capsys, "optimize", str(tmp_path / "state.json"))
        assert code == 0 and lines[0]["result"]["method"] == "exhaustive"
        assert calls == [dims.total]

    def test_8x8_product_spectrum_routes_to_heuristic(self, capsys, tmp_path):
        dims = BipartiteDims(8, 8)
        rho = generate_instance("product-spectrum", dims, 33)
        path = tmp_path / "prod88.json"
        save_statefile(path, dims, spectrum=np.diag(rho.matrix).real)
        code, lines, _ = run_cli(
            capsys, "optimize", str(path), "--n1", "2000", "--n2", "6", "--nd", "50", "--seed", "1"
        )
        assert code == 0
        result = lines[0]["result"]
        assert result["method"] == "heuristic"
        assert result["best_mi"] < 0.05
        assert result["best_mi"] <= result["trajectory"][0]

    def test_deterministic_modulo_timings(self, capsys, dense_state_file):
        args = ("optimize", dense_state_file, "--n1", "20", "--n2", "3", "--nd", "5", "--seed", "4")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert json.dumps(strip_timings(first[0]), sort_keys=True) == json.dumps(
            strip_timings(second[0]), sort_keys=True
        )

    def test_report_round_trips(self, capsys, dense_state_file):
        _, lines, _ = run_cli(capsys, "optimize", dense_state_file)
        blob = json.dumps(lines[0], sort_keys=True)
        assert json.loads(blob) == lines[0]

    def test_bits_flag(self, capsys, bell_state_file):
        code, lines, _ = run_cli(capsys, "verify", bell_state_file, "--plan", "identity", "--bits")
        assert code == 0
        assert lines[0]["unit"] == "bits"
        assert abs(lines[0]["mi_middle"] - 2.0) < 1e-9

    def test_oversize_spectrum_file_exit_2(self, capsys, tmp_path):
        # The dims are checked when the file is loaded, before any search.
        path = tmp_path / "wide.json"
        n = 2**14 + 1
        path.write_text(json.dumps({"d_a": 1, "d_b": n, "spectrum": [1.0 / n] * n}))
        code, lines, err = run_cli(capsys, "optimize", str(path))
        assert code == 2 and lines == []
        assert "supported maximum" in err

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, lines, err = run_cli(capsys, "optimize", str(path))
        assert code == 2
        assert not lines
        assert "error" in err

    @pytest.mark.parametrize(
        "payload",
        [
            '"spectrum": [[0.5], [0.2, 0.3]]',
            '"matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]',
            '"spectrum": [0.4, "half", 0.1, 0.1]',
            '"spectrum": [1' + "0" * 400 + ', 0, 0, 0]',
        ],
        ids=["ragged-spectrum", "ragged-matrix", "string-entry", "integer-beyond-float"],
    )
    def test_malformed_array_exit_2(self, capsys, tmp_path, payload):
        path = tmp_path / "malformed.json"
        dims = '"d_a": 1, "d_b": 2' if "matrix" in payload else '"d_a": 2, "d_b": 2'
        path.write_text(f"{{{dims}, {payload}}}")
        code, lines, err = run_cli(capsys, "optimize", str(path))
        assert code == 2 and not lines
        assert "not a numeric array" in err

    @pytest.mark.parametrize(
        "payload",
        [
            '"spectrum": ["0.5", 0.5]',
            '"spectrum": [true, false]',
            '"spectrum": [null, 1.0]',
            '"matrix": [[[0.5, 0.0], [0.0, "0"]], [[0.0, 0.0], [0.5, 0.0]]]',
            '"matrix": [[[0.5, 0.0], [0.0, false]], [[0.0, 0.0], [0.5, 0.0]]]',
            '"matrix": [[[0.5, 0.0], [0.0, null]], [[0.0, 0.0], [0.5, 0.0]]]',
        ],
        ids=["spectrum-string", "spectrum-bool", "spectrum-null", "matrix-string", "matrix-bool", "matrix-null"],
    )
    def test_entries_not_json_numbers_exit_2(self, capsys, tmp_path, payload):
        # numpy would read "0.5" and true as numbers and null as NaN.
        path = tmp_path / "typed.json"
        path.write_text(f'{{"d_a": 1, "d_b": 2, {payload}}}')
        code, lines, err = run_cli(capsys, "optimize", str(path))
        assert code == 2 and not lines
        field = "matrix" if "matrix" in payload else "spectrum"
        assert f"{field} is not a numeric array: it must hold JSON numbers only" in err

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2], ids=["true", "1.0", "string-1", "2"])
    def test_format_version_not_integer_one_exit_2(self, capsys, tmp_path, version):
        path = tmp_path / "version.json"
        doc = {"format_version": version, "d_a": 2, "d_b": 2, "spectrum": [0.4, 0.3, 0.2, 0.1]}
        path.write_text(json.dumps(doc))
        code, lines, err = run_cli(capsys, "optimize", str(path))
        assert code == 2 and not lines
        assert "unsupported format_version" in err

    @pytest.mark.parametrize("command", ["optimize", "verify"])
    @pytest.mark.parametrize(
        "content",
        [
            b'{"d_a":2,"d_b":2,"spectrum":[0.4,0.3,0.2,0.1],"label":"\xff"}',
            b'{"d_a":1,"d_b":1,"spectrum":' + b"[" * 100_000 + b"1.0" + b"]" * 100_000 + b"}",
        ],
        ids=["not-utf8", "nested-100000-deep"],
    )
    def test_unparseable_bytes_exit_2(self, capsys, tmp_path, command, content):
        # Both used to escape load_statefile as UnicodeDecodeError and
        # RecursionError, with a traceback and exit 1.
        path = tmp_path / "state.json"
        path.write_bytes(content)
        code, lines, err = run_cli(capsys, command, str(path))
        assert code == 2 and not lines
        assert err.startswith("error: state file") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,dense",
        [(["optimize"], False), (["optimize"], True), (["verify"], True)],
        ids=["optimize-spectrum", "optimize-dense", "verify"],
    )
    def test_file_read_once_for_data_and_digest(self, capsys, tmp_path, monkeypatch, argv, dense):
        path = tmp_path / "state.json"
        if dense:
            save_statefile(path, DIMS22, matrix=generate_instance("random-dense", DIMS22, 4).matrix)
        else:
            save_statefile(path, DIMS22, spectrum=[0.4, 0.3, 0.2, 0.1])
        want = hashlib.sha256(path.read_bytes()).hexdigest()
        opened = count_opens(monkeypatch, path)
        code, lines, _ = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 0
        assert len(opened) == 1
        assert lines[0]["input_digest"] == want

    @pytest.mark.parametrize("d_a,d_b", [(2.7, 2), (2.0, 2), (True, 4), (1, "4")])
    def test_dims_not_json_integers_exit_2(self, capsys, tmp_path, d_a, d_b):
        path = tmp_path / "dims.json"
        path.write_text(json.dumps({"d_a": d_a, "d_b": d_b, "spectrum": [0.4, 0.3, 0.2, 0.1]}))
        code, lines, err = run_cli(capsys, "optimize", str(path))
        assert code == 2 and not lines
        assert "bad or missing d_a/d_b" in err


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
class TestNonFiniteInput:
    def test_spectrum_file_exit_2(self, capsys, tmp_path, bad):
        path = tmp_path / "spec.json"
        path.write_text(f'{{"d_a": 2, "d_b": 2, "spectrum": [{bad}, 0.5, 0.3, 0.2]}}')
        code, lines, err = run_cli(capsys, "optimize", str(path))
        assert code == 2
        assert not lines
        assert "non-finite" in err

    @pytest.mark.parametrize("command", ["optimize", "verify"])
    def test_matrix_file_exit_2(self, capsys, tmp_path, bad, command):
        path = tmp_path / "dense.json"
        path.write_text(
            f'{{"d_a": 1, "d_b": 2, "matrix": [[[{bad}, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}}'
        )
        code, lines, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert not lines
        assert "non-finite" in err


@pytest.mark.parametrize("command", ["optimize", "verify"])
def test_matrix_whose_clipped_probabilities_miss_the_sum_exit_2(capsys, tmp_path, command):
    # The trace (1 + 9e-11) and the eigenvalue -9e-11 each pass their own
    # tolerance, but the clipped probabilities sum to 1 + 1.8e-10, more than
    # SUM_TOL away from 1: the file is rejected at load, before any search.
    path = tmp_path / "edge.json"
    save_statefile(path, DIMS22, matrix=np.diag([0.5 + 0.9e-10, 0.3, 0.2 + 0.9e-10, -0.9e-10]))
    code, lines, err = run_cli(capsys, command, str(path))
    assert code == 2 and not lines
    assert err.count("\n") == 1
    assert "matrix is not a valid density matrix: probabilities must sum to 1" in err


class TestVerify:
    def test_dense_state_passes(self, capsys, dense_state_file):
        code, lines, _ = run_cli(capsys, "verify", dense_state_file, "--seed", "3")
        assert code == 0
        assert lines[0]["residual"] < 1e-6
        assert lines[0]["plan"] == "random"

    def test_bell_identity_plan_reports_two_log_two(self, capsys, bell_state_file):
        code, lines, _ = run_cli(capsys, "verify", bell_state_file, "--plan", "identity")
        assert code == 0
        assert abs(lines[0]["mi_middle"] - 2 * math.log(2)) < 1e-9

    def test_spectrum_only_exit_2(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        save_statefile(path, DIMS22, spectrum=[0.4, 0.3, 0.2, 0.1])
        code, lines, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "dense" in err

    def test_corrupted_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text('{"d_a": 2}')
        code, _, _ = run_cli(capsys, "verify", str(path))
        assert code == 2

    def test_threshold_flag_rejected(self, capsys, dense_state_file):
        with pytest.raises(SystemExit) as err:
            main(["verify", dense_state_file, "--threshold", "5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("d_a,d_b", [(2, 3), (16, 16)])
    def test_random_plan_is_the_scalar_draw_of_its_seed(self, capsys, tmp_path, d_a, d_b):
        # --seed s encodes with the tableau numpy's default_rng(s) draws in
        # the scalar sampler, so a seed always picks the same plan.
        dims = BipartiteDims(d_a, d_b)
        path = tmp_path / "dense.json"
        save_statefile(path, dims, matrix=generate_instance("diagonal-mixed", dims, 3).matrix)
        for seed in (0, 7, 2**40 + 3):
            code, lines, _ = run_cli(capsys, "verify", str(path), "--seed", str(seed))
            assert code == 0
            assert lines[0]["tableau"] == _random_regular_grid(d_a, d_b, np.random.default_rng(seed))

    @pytest.mark.parametrize("plan", ["random", "identity"])
    def test_negative_seed_exit_2_before_reading(self, capsys, plan):
        # Rejected as a usage error before the (missing) file is read.
        with pytest.raises(SystemExit) as err:
            main(["verify", "/nonexistent/state.json", "--plan", plan, "--seed", "-1"])
        assert err.value.code == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--seed", "2"], ["verify", "--plan", "identity"], ["optimize"]],
        ids=["verify-random", "verify-identity", "optimize"],
    )
    def test_full_state_validated_and_decomposed_once(self, capsys, tmp_path, monkeypatch, argv):
        # A (4, 4) file: 16 x 16 full-size arrays, 4 x 4 marginals.
        dims = BipartiteDims(4, 4)
        path = tmp_path / "dense44.json"
        save_statefile(path, dims, matrix=generate_instance("random-dense", dims, 5).matrix)
        counts = count_full_size_calls(monkeypatch, (dims.total, dims.total))
        code, lines, _ = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 0
        report = lines[0] if argv[0] == "verify" else lines[0]["compression"]
        assert report["residual"] < 1e-6
        # One eigh validates sigma at load and gives the encoder its
        # eigenvectors and S(sigma); the other is sigma_out's spectrum in the
        # relative entropy. U is checked for unitarity once, by verify_theorem1.
        assert counts["DensityMatrix"] == 1
        assert counts["eigh"] == 2
        assert counts["eigvalsh"] == 0
        assert counts["is_unitary"] == 1


class TestExperiment:
    @pytest.mark.parametrize("d_a,d_b", [(0, 3), (1, 2**14 + 1)])
    def test_dims_beyond_cap_or_nonpositive_exit_2(self, capsys, d_a, d_b):
        # Rejected before any state is generated: a 1 x 16385 split would
        # otherwise build a 16385 x 16385 complex matrix first.
        code, lines, err = run_cli(
            capsys, "experiment", "fig2a", "--states", "1", "--da", str(d_a), "--db", str(d_b)
        )
        assert code == 2 and lines == []
        assert err.startswith("error:")

    def test_fig2b_small(self, capsys):
        code, lines, _ = run_cli(
            capsys, "experiment", "fig2b", "--states", "3", "--da", "2", "--db", "3",
            "--n1", "40", "--n2", "4", "--nd", "10",
        )
        assert code == 0
        per_state = [l for l in lines if "state" in l]
        aggregate = [l for l in lines if l.get("aggregate")][0]
        assert len(per_state) == 3
        # Product spectra reach zero exactly, so the floor shows up.
        assert all(l["mi_final"] >= 1e-15 for l in per_state)
        assert aggregate["mean_final_mi"] <= aggregate["mean_initial_mi"]

    def test_bits_aggregate_reports_the_floor_in_bits(self, capsys):
        base = (
            "experiment", "fig2b", "--states", "2", "--da", "2", "--db", "2",
            "--n1", "25", "--n2", "2", "--nd", "4",
        )
        _, nats, _ = run_cli(capsys, *base)
        _, bits, _ = run_cli(capsys, *base, "--bits")
        assert nats[-1]["unit"] == "nats" and nats[-1]["floor"] == 1e-15
        assert bits[-1]["unit"] == "bits" and bits[-1]["floor"] == nats_to_bits(1e-15)
        # Product spectra reach zero, so the values sit on the floor in both units.
        assert [l["mi_final"] for l in nats[:-1]] == [1e-15, 1e-15]
        assert [l["mi_final"] for l in bits[:-1]] == [bits[-1]["floor"]] * 2
        assert bits[-1]["final_mi_values"] == [bits[-1]["floor"]] * 2

    def test_aggregate_means_are_the_means_of_the_printed_values(self, capsys):
        # Some of these initial MIs are round-off negatives, printed as 0.0;
        # the aggregate averages the values the state lines print.
        code, lines, _ = run_cli(
            capsys, "experiment", "fig2a", "--states", "7", "--da", "1", "--db", "7", "--seed", "1"
        )
        assert code == 0
        per_state, aggregate = lines[:-1], lines[-1]
        assert min(l["mi_initial"] for l in per_state) == 0.0
        for key, mean_key in (("mi_initial", "mean_initial_mi"), ("mi_final", "mean_final_mi")):
            printed = [l[key] for l in per_state]
            assert aggregate[mean_key] == sum(printed) / len(printed)

    def test_fig2a_final_never_exceeds_initial(self, capsys):
        code, lines, _ = run_cli(
            capsys, "experiment", "fig2a", "--states", "5", "--da", "3", "--db", "3",
            "--n1", "30", "--n2", "3", "--nd", "5",
        )
        assert code == 0
        for line in (l for l in lines if "state" in l):
            assert line["mi_final"] <= line["mi_initial"] + 1e-12

    def test_single_state_deterministic(self, capsys):
        args = (
            "experiment", "fig2b", "--states", "1", "--da", "2", "--db", "2",
            "--n1", "25", "--n2", "2", "--nd", "4", "--seed", "9",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert [strip_timings(l) for l in first] == [strip_timings(l) for l in second]

    def test_parallel_jobs_match_sequential(self, capsys):
        base = (
            "experiment", "fig2a", "--states", "4", "--da", "2", "--db", "3",
            "--n1", "30", "--n2", "3", "--nd", "5", "--seed", "2",
        )
        _, seq, _ = run_cli(capsys, *base, "--jobs", "1")
        _, par, _ = run_cli(capsys, *base, "--jobs", "3")
        assert [strip_timings(l) for l in seq] == [strip_timings(l) for l in par]

    def test_aggregate_config_names_the_threshold(self, capsys):
        # A batch forced onto the heuristic must be told apart from the
        # exhaustive one, and rerun, from its own aggregate line.
        base = (
            "experiment", "fig2a", "--states", "3", "--da", "3", "--db", "4",
            "--n1", "30", "--n2", "3", "--nd", "5", "--seed", "1",
        )
        outputs = [run_cli(capsys, *base), run_cli(capsys, *base, "--threshold", "1")]
        configs = []
        for (code, lines, _), method in zip(outputs, ("exhaustive", "heuristic")):
            assert code == 0
            assert {l["method"] for l in lines if "state" in l} == {method}
            configs.append(lines[-1]["config"])
        exhaustive, heuristic = configs
        assert exhaustive == {"n1": 30, "n2": 3, "n_d": 5, "seed": 1, "exhaustive_threshold": 10**7}
        assert heuristic == {**exhaustive, "exhaustive_threshold": 1}

    def test_no_state_is_built_or_decomposed(self, capsys, monkeypatch):
        # Each state's spectrum is drawn as it is; no matrix is built.
        states = 3
        counts = count_full_size_calls(monkeypatch, (6, 6))
        code, lines, _ = run_cli(
            capsys, "experiment", "fig2b", "--states", str(states), "--da", "2", "--db", "3",
            "--jobs", "1", "--n1", "20", "--n2", "2", "--nd", "5",
        )
        assert code == 0 and len(lines) == states + 1
        assert counts["DensityMatrix"] == counts["eigh"] == counts["eigvalsh"] == 0

    def test_64x64_batch_stays_small_in_a_fresh_process(self):
        # A 64x64 state as a dense complex matrix alone is 256 MiB, and its
        # eigh needs several times that; the drawn spectrum is 32 KiB.
        src = str(Path(qaeopt.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = ["experiment", "fig2a", "--states", "1", "--da", "64", "--db", "64", "--n1", "64", "--n2", "2", "--nd", "2"]
        out = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_OF_MAIN, *argv], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        *lines, peak_mb = out.stdout.splitlines()
        assert [json.loads(line)["command"] for line in lines] == ["experiment", "experiment"]
        assert float(peak_mb) < 200.0


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "0", "2"],
        ["count", "1", "16385"],
        ["experiment", "fig2a", "--da", "0"],
        ["experiment", "fig2a", "--states", "0"],
        ["verify", "{dir}/spectrum.json"],
        ["optimize", "{dir}/broken.json"],
        ["optimize", "{dir}/missing.json"],
    ],
    ids=["count-zero-dim", "count-oversize", "experiment-zero-dim", "experiment-no-states",
         "verify-spectrum-file", "optimize-malformed-file", "optimize-missing-file"],
)
def test_every_input_error_is_one_error_line_and_exit_2(capsys, tmp_path, argv):
    save_statefile(tmp_path / "spectrum.json", DIMS22, spectrum=[0.4, 0.3, 0.2, 0.1])
    (tmp_path / "broken.json").write_text("{]")
    code = main([arg.format(dir=tmp_path) for arg in argv])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1 and out.err.endswith("\n")


def test_wrapped_names_are_looked_up_at_call_time(capsys, monkeypatch, tmp_path):
    # The benchmark times these layers by patching the module globals of
    # qaeopt.cli, so every command must call them through those names.
    path = tmp_path / "dense22.json"
    save_statefile(path, DIMS22, matrix=generate_instance("random-dense", DIMS22, 4).matrix)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("load_statefile", "optimize", "random_regular", "build_encoder", "verify_theorem1"):
        monkeypatch.setattr(qaeopt.cli, name, counted(name, getattr(qaeopt.cli, name)))
    assert main(["optimize", str(path)]) == 0
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert calls == {
        "load_statefile": 2,
        "optimize": 1,
        "random_regular": 1,
        "build_encoder": 2,
        "verify_theorem1": 2,
    }
