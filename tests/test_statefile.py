import hashlib
import json
import random
import re
import sys
import tracemalloc
import warnings
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import json_load_statefile, json_statefile_text
from qaeopt import (
    BipartiteDims,
    StateFileError,
    generate_instance,
    load_statefile,
    save_statefile,
)
from qaeopt.cli import main

DIMS22 = BipartiteDims(2, 2)
DIMS1616 = BipartiteDims(16, 16)


def test_dense_round_trip(tmp_path):
    rho = generate_instance("random-dense", DIMS22, 5)
    path = tmp_path / "state.json"
    save_statefile(path, DIMS22, matrix=rho.matrix, label="fixture")
    sf = load_statefile(path)
    assert sf.density is not None and sf.probs is sf.density.probs
    assert sf.label == "fixture"
    assert np.allclose(sf.density.matrix, rho.matrix)


def _dense_matrix(d_a, d_b):
    return generate_instance("random-dense", BipartiteDims(d_a, d_b), d_a * 10 + d_b).matrix


def test_dense_round_trip_16x16_is_bit_exact(tmp_path):
    matrix = _dense_matrix(16, 16)
    path = tmp_path / "dense.json"
    save_statefile(path, DIMS1616, matrix=matrix)
    assert load_statefile(path).density.matrix.tobytes() == matrix.tobytes()


# Every value float.__repr__ and json spell in an unusual way: non-finite,
# signed zero, the smallest subnormal and a large exponent.
ODD_VALUES = np.array(
    [[complex(np.nan, np.inf), complex(-np.inf, -0.0)], [complex(5e-324, 1e300), complex(-0.0, -5e-324)]]
)


@pytest.mark.parametrize(
    "dims,payload",
    [
        ((1, 1), {"matrix": _dense_matrix(1, 1)}),
        ((2, 3), {"matrix": _dense_matrix(2, 3)}),
        ((4, 4), {"matrix": _dense_matrix(4, 4)}),
        ((16, 16), {"matrix": _dense_matrix(16, 16)}),
        ((1, 2), {"matrix": ODD_VALUES}),
        ((1, 2), {"matrix": ODD_VALUES.real}),
        ((1, 2), {"matrix": np.zeros((2, 0))}),
        ((1, 2), {"matrix": np.zeros((0, 0))}),
        ((2, 2), {"matrix": np.asfortranarray(_dense_matrix(2, 2))}),
        ((2, 2), {"spectrum": [0.4, np.nan, -0.0, 5e-324]}),
        ((1, 1), {"spectrum": []}),
    ],
    ids=["1x1", "2x3", "4x4", "16x16", "odd", "odd-real", "2x0", "0x0", "fortran", "nan-spectrum", "empty-spectrum"],
)
@pytest.mark.parametrize("label", [None, 'say "h\u00e9llo" \u2713', 5])
def test_save_matches_json_dumps_byte_for_byte(tmp_path, dims, payload, label):
    dims = BipartiteDims(*dims)
    path = tmp_path / "state.json"
    save_statefile(path, dims, label=label, **payload)
    assert path.read_bytes() == json_statefile_text(dims, label=label, **payload).encode()


@pytest.mark.parametrize("matrix", [np.ones(4), np.complex128(1), np.ones((2, 2, 1)), np.ones((2, 2, 0))])
def test_save_rejects_a_matrix_that_is_not_2d_before_opening_the_file(tmp_path, matrix):
    path = tmp_path / "state.json"
    with pytest.raises(StateFileError, match="2-D"):
        save_statefile(path, DIMS22, matrix=matrix)
    assert not path.exists()


def test_dense_save_memory(tmp_path):
    # Built as one list per entry and one json.dumps, this save peaked at
    # about 28 MB; streamed by rows it holds one row's text at a time.
    matrix = _dense_matrix(16, 16)
    tracemalloc.start()
    try:
        save_statefile(tmp_path / "dense.json", DIMS1616, matrix=matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _traced_load_peak(path) -> int:
    tracemalloc.start()
    try:
        try:
            load_statefile(path)
        except StateFileError:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_load_memory(tmp_path):
    # Parsed as one json.loads of the whole document, this load peaked at
    # 3.2 times the file: the bytes, the text and a list tree of 65,536
    # [re, im] pairs. Read row by row, its peak is the bytes and the text
    # during the UTF-8 decode, 2.0 times the file.
    path = tmp_path / "dense.json"
    save_statefile(path, DIMS1616, matrix=_dense_matrix(16, 16))
    peak = _traced_load_peak(path)
    assert peak < 2.5 * path.stat().st_size
    # A file is parsed once to be rejected too. Parsed again to word the
    # error, these peaked at 2.34, 2.12, 3.46 and 3.46 times the valid file.
    text = path.read_text()
    head, last, tail = re.match(r"(.*\n    )(\S+)(\n.*)", text, re.DOTALL).groups()
    faulty = {
        # The last entry as a string of its length: "0" for 0.0.
        "string": (head + '"' + "0" * (len(last) - 2) + '"' + tail, "it must hold JSON numbers only"),
        "cut": (text[: int(0.61 * len(text))], "is not valid JSON"),
        # Faults in the punctuation around the rows, which json words.
        "brace": (text[: text.rindex("}")] + "\n", "is not valid JSON"),
        "comma": (text[: text.rindex("\n ]")] + "," + text[text.rindex("\n ]") :], "is not valid JSON"),
    }
    for kind, (faulty_text, words) in faulty.items():
        bad = tmp_path / f"{kind}.json"
        bad.write_text(faulty_text)
        with pytest.raises(StateFileError, match=words) as caught:
            load_statefile(bad)
        assert _outcome(json_load_statefile, bad) == (StateFileError, str(caught.value))
        # Within 64 KiB of the valid load: the path and the error are small.
        assert _traced_load_peak(bad) < peak + 2**16, kind


def test_spectrum_round_trip_sorts_descending(tmp_path):
    path = tmp_path / "spec.json"
    save_statefile(path, DIMS22, spectrum=[0.1, 0.5, 0.3, 0.1])
    sf = load_statefile(path)
    assert sf.density is None
    assert np.allclose(sf.probs, [0.5, 0.3, 0.1, 0.1], atol=1e-12)
    assert np.all(np.diff(sf.probs) <= 0)


@pytest.mark.parametrize("kind", ["matrix", "spectrum"])
def test_probs_refuse_writes(tmp_path, kind):
    path = tmp_path / "state.json"
    payload = {"matrix": _dense_matrix(2, 2)} if kind == "matrix" else {"spectrum": [0.1, 0.5, 0.3, 0.1]}
    save_statefile(path, DIMS22, **payload)
    probs = load_statefile(path).probs
    assert not probs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        probs[0] = 0.0


def test_spectrum_renormalized_within_tolerance(tmp_path):
    path = tmp_path / "spec.json"
    save_statefile(path, DIMS22, spectrum=[0.4, 0.3, 0.2, 0.1 + 5e-9])
    probs = load_statefile(path).probs
    assert abs(probs.sum() - 1.0) < 1e-15


def test_spectrum_entry_order_changes_nothing(tmp_path, capsys):
    # Tied entries that sum to 1 only up to round-off. Summed in file order,
    # some of these orders renormalized to different last bits, and through
    # the ties the forced-heuristic search returned a different tableau.
    entries = [w / 29 for w in (4, 4, 4, 3, 3, 3, 2, 2, 1, 1, 1, 1)]
    orders = [entries, entries[::-1]]
    orders += [np.random.default_rng(seed).permutation(entries).tolist() for seed in range(6)]
    spectra, reports = [], []
    for i, order in enumerate(orders):
        path = tmp_path / f"order{i}.json"
        path.write_text(json.dumps({"format_version": 1, "d_a": 3, "d_b": 4, "spectrum": order}))
        spectra.append(load_statefile(path).probs.tobytes())
        assert main(["optimize", str(path), "--threshold", "1", "--n1", "300", "--n2", "3", "--nd", "20"]) == 0
        report = json.loads(capsys.readouterr().out)
        reports.append({k: v for k, v in report.items() if k not in ("input_digest", "timings")})
    assert spectra == spectra[:1] * len(orders)
    assert reports == reports[:1] * len(orders)


def test_spectrum_rejected_beyond_tolerance(tmp_path):
    path = tmp_path / "spec.json"
    save_statefile(path, DIMS22, spectrum=[0.4, 0.3, 0.2, 0.2])
    with pytest.raises(StateFileError):
        load_statefile(path)


def test_negative_probability_rejected(tmp_path):
    path = tmp_path / "spec.json"
    save_statefile(path, DIMS22, spectrum=[0.6, 0.5, -0.1, 0.0])
    with pytest.raises(StateFileError):
        load_statefile(path)


def test_matrix_and_spectrum_both_present(tmp_path):
    path = tmp_path / "both.json"
    doc = {
        "format_version": 1,
        "d_a": 1,
        "d_b": 2,
        "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        "spectrum": [0.5, 0.5],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError):
        load_statefile(path)


def test_invalid_density_matrix_rejected(tmp_path):
    path = tmp_path / "bad.json"
    doc = {
        "format_version": 1,
        "d_a": 1,
        "d_b": 2,
        "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError):
        load_statefile(path)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_spectrum_rejected(tmp_path, bad):
    path = tmp_path / "spec.json"
    path.write_text(f'{{"d_a": 2, "d_b": 2, "spectrum": [{bad}, 0.5, 0.3, 0.2]}}')
    with pytest.raises(StateFileError, match="non-finite"):
        load_statefile(path)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_matrix_rejected(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(
        f'{{"d_a": 1, "d_b": 2, "matrix": [[[0.5, 0.0], [0.0, {bad}]], [[0.0, 0.0], [0.5, 0.0]]]}}'
    )
    # Rejected before any arithmetic on the bad value, so numpy warns of nothing.
    with warnings.catch_warnings(), pytest.raises(StateFileError, match="non-finite"):
        warnings.simplefilter("error")
        load_statefile(path)


@pytest.mark.parametrize("command", ["optimize", "verify"])
def test_bad_label_rejected_before_the_matrix_is_decomposed(tmp_path, monkeypatch, capsys, command):
    # A dense file's label is checked with its header, so a bad one exits 2
    # without the full eigh of a 16 x 16 matrix.
    dims = BipartiteDims(4, 4)
    path = tmp_path / "dense44.json"
    save_statefile(path, dims, matrix=generate_instance("random-dense", dims, 2).matrix, label=5)

    def decomposed(*args, **kwargs):
        raise AssertionError("the matrix was decomposed")

    monkeypatch.setattr(np.linalg, "eigh", decomposed)
    assert main([command, str(path)]) == 2
    assert "label must be a string" in capsys.readouterr().err


def test_not_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json {")
    with pytest.raises(StateFileError):
        load_statefile(path)


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        " {\n} ",
        '{"d_a": 1, "d_b": 1, "spectrum": [1.0],}',
        '{"d_a": 1 "d_b": 1, "spectrum": [1.0]}',
        '{"d_a": 1, "d_b": 1, "matrix": [[[1, 0]],\n]}',
        '{"d_a": 1, "d_b": 1, "matrix": [[[1, 0]]]',
        '[{"d_a": 1, "d_b": 1, "spectrum": [1.0]}]',
    ],
)
def test_json_words_faults_outside_every_value(tmp_path, text):
    # An empty object, the object's own punctuation and a document that is no
    # object are read again by json.loads, as the oracle reads every file.
    path = tmp_path / "state.json"
    path.write_text(text)
    outcome = _outcome(load_statefile, path)
    assert outcome[0] is StateFileError
    assert outcome == _outcome(json_load_statefile, path)


def test_missing_file():
    with pytest.raises(StateFileError):
        load_statefile("/nonexistent/state.json")


def test_unsupported_version(tmp_path):
    path = tmp_path / "v2.json"
    path.write_text(json.dumps({"format_version": 2, "d_a": 1, "d_b": 1, "spectrum": [1.0]}))
    with pytest.raises(StateFileError):
        load_statefile(path)


def test_digest_depends_on_content(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_statefile(a, DIMS22, spectrum=[0.4, 0.3, 0.2, 0.1])
    save_statefile(b, DIMS22, spectrum=[0.4, 0.3, 0.2, 0.1])
    assert load_statefile(a).digest == load_statefile(b).digest
    assert load_statefile(a).digest == hashlib.sha256(a.read_bytes()).hexdigest()
    save_statefile(b, DIMS22, spectrum=[0.7, 0.1, 0.1, 0.1])
    assert load_statefile(a).digest != load_statefile(b).digest


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"d_a":2,"d_b":2,"spectrum":[0.4,0.3,0.2,0.1],"label":"\xff"}')
    with pytest.raises(StateFileError, match="not UTF-8"):
        load_statefile(path)


def test_deeply_nested_json_rejected(tmp_path):
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text('{"d_a":1,"d_b":1,"spectrum":' + "[" * depth + "1.0" + "]" * depth + "}")
    with pytest.raises(StateFileError, match="too deeply"):
        load_statefile(path)


LONG = "1" * 5000
_PAIRS = "[[" + LONG + ", 0], [0, 0]], [[0, 0], [0.5, 0]]"


@pytest.mark.parametrize(
    "text",
    [
        '{"d_a": 1, "d_b": 1, "spectrum": [' + LONG + "]}",
        '{"d_a": 1' + "0" * 4399 + ', "d_b": 1, "spectrum": [1.0]}',
        '{"d_a": 1, "d_b": 2, "matrix": [' + _PAIRS + "]}",
        "[" + LONG + "]",
    ],
    ids=["spectrum-5000-digits", "d_a-4400-digits", "matrix-5000-digits", "not-an-object"],
)
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit before 3.10.7")
def test_integer_over_the_digit_limit_exits_2(tmp_path, capsys, text):
    # json's scanner raises a plain ValueError for an integer literal beyond
    # Python's int-string limit; it is a file-format error like any other.
    path = tmp_path / "long.json"
    path.write_text(text)
    with pytest.raises(StateFileError, match="integer too long to read") as caught:
        load_statefile(path)
    assert f"({sys.get_int_max_str_digits()} digits)" in str(caught.value)
    assert _outcome(json_load_statefile, path) == (StateFileError, str(caught.value))
    assert main(["optimize", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {caught.value}\n"


class _Obj(list):
    """A JSON object as its (key, value) members in order, duplicates kept."""


def _dump(value, gap, depth=0) -> str:
    """JSON text of ``value`` with ``gap(kind, depth)`` where json's indented
    layout breaks a line ("\\n") and around each colon (":" before, ": " after)."""
    if not isinstance(value, list):
        return json.dumps(value)
    if not value:
        return "{}" if isinstance(value, _Obj) else "[]"
    if isinstance(value, _Obj):
        ends = "{}"
        parts = [json.dumps(k) + gap(":", depth) + ":" + gap(": ", depth) + _dump(v, gap, depth + 1) for k, v in value]
    else:
        ends = "[]"
        parts = [_dump(v, gap, depth + 1) for v in value]
    inner = ",".join(gap("\n", depth + 1) + part for part in parts)
    return ends[0] + inner + gap("\n", depth) + ends[1]


_GAPS = ["", " ", "\t", "\n", "\r", "\r\n", " \t\n  "]
_LAYOUTS = {
    "compact": lambda rng: lambda kind, depth: "",
    "indent1": lambda rng: lambda kind, depth: "\n" + " " * depth if kind == "\n" else " " * (kind == ": "),
    "whitespace": lambda rng: lambda kind, depth: rng.choice(_GAPS),
}


def _pairs(matrix, rng) -> list:
    """The [re, im] lists of a matrix, with zero off-diagonal pairs sometimes
    as 5e-324 (a Hermitian change far below every tolerance), zeros sometimes
    as -0.0 and integral entries sometimes as JSON integers."""
    rows = [[[float(v.real), float(v.imag)] for v in row] for row in matrix]
    for i, j in combinations(range(len(rows)), 2):
        if rows[i][j] == [0.0, 0.0] and rng.random() < 0.5:
            rows[i][j][0] = rows[j][i][0] = 5e-324
    for pair in chain.from_iterable(rows):
        for k, x in enumerate(pair):
            if x == 0.0 and rng.random() < 0.3:
                pair[k] = -0.0
            elif x == int(x) and rng.random() < 0.5:
                pair[k] = int(x)
    return rows


# One fault each in a matrix's rows, pairs or entries.
_ENTRY_FAULTS = ["0.5", True, None, 10**400, float("nan"), float("inf"), float("-inf")]


def _corrupt(rows, fault: str, rng) -> None:
    if not rows:
        return
    i = rng.randrange(len(rows))
    if fault == "row-number":
        rows[i] = 0.5
    elif fault == "missing-row":
        del rows[i]
    elif isinstance(rows[i], list) and rows[i]:
        pair = rows[i][rng.randrange(len(rows[i]))]
        if fault == "ragged":
            rows[i] = rows[i][:-1]
        elif fault == "pair3":
            pair.append(0.0)
        else:
            pair[rng.randrange(2)] = _ENTRY_FAULTS[int(fault)]


_STATES = [
    ((1, 1), np.array([[1]])),
    ((1, 2), np.diag([1, 0])),
    ((1, 2), generate_instance("random-dense", BipartiteDims(1, 2), 1).matrix),
    ((2, 2), generate_instance("random-dense", BipartiteDims(2, 2), 2).matrix),
    ((2, 2), generate_instance("diagonal-mixed", BipartiteDims(2, 2), 3).matrix),
    ((1, 3), generate_instance("pure", BipartiteDims(1, 3), 4).matrix),
]
_FAULTS = ["ragged", "row-number", "missing-row", "pair3", *map(str, range(len(_ENTRY_FAULTS)))]


@st.composite
def state_file_texts(draw) -> str:
    """State-file texts, valid and not: members in any order and layout,
    duplicate keys, faults in the header, the matrix and the text itself.
    The rarer faults are drawn from a seeded ``random.Random``, so that about
    one text in six loads."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    (d_a, d_b), matrix = draw(st.sampled_from(_STATES))
    members = _Obj([("format_version", 1), ("d_a", d_a), ("d_b", d_b)])
    members.append(("label", rng.choice(["a", "h\u00e9llo \u2713", None] * 3 + [5])))
    payload = rng.choice(["matrix"] * 5 + ["spectrum", "both", "neither"])
    if payload in ("spectrum", "both"):
        members.append(("spectrum", [float(p) for p in np.linalg.eigvalsh(matrix)]))
    if payload in ("matrix", "both"):
        rows = _pairs(matrix, rng)
        for fault in rng.choices(_FAULTS, k=rng.choice([0, 0, 0, 1, 1, 2])):
            _corrupt(rows, fault, rng)
        members.append(("matrix", rows))
    # Earlier duplicates of a key, whose values the later one replaces.
    for key in rng.choices(["matrix", "label", "d_a"], k=rng.choice([0, 0, 0, 1, 2])):
        members.insert(0, (key, rng.choice([[[[1, 0]]], "x", 7, [[0.5, "x"]], [0.5]])))
    if rng.random() < 0.1:
        members.append(("format_version", rng.choice([2, 1.0, True])))
    if rng.random() < 0.1:
        members.pop(rng.randrange(len(members)))
    rng.shuffle(members)
    text = _dump(members, _LAYOUTS[draw(st.sampled_from(sorted(_LAYOUTS)))](rng)) + "\n"
    fault = rng.choice(["none"] * 10 + ["cut", "cut", "garbage", "bom", "array", "deep", "comma"])
    if fault == "cut":
        text = text[: rng.randrange(len(text))]
    elif fault == "comma":
        # A trailing comma, which json words differently from Python 3.13 on.
        k = rng.choice([k for k, c in enumerate(text) if c in "]}"])
        text = text[:k] + "," + text[k:]
    elif fault == "garbage":
        text += rng.choice(["x", "{}", ",", "]", "\u00e9"])
    elif fault == "bom":
        text = "\ufeff" + text
    elif fault == "array":
        text = "[" + text + "]"
    elif fault == "deep":
        deep = "[" * 100_000 + "1" + "]" * 100_000
        key = rng.choice(["matrix", "label", "spectrum"])
        text = text.replace(f'"{key}"', f'"{key}": {deep}, "{key}"', 1)
    return text


def _outcome(load, path):
    """What a reader makes of a file: the exception's type and message, or
    the loaded state with its arrays as bytes."""
    try:
        sf = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    matrix = None if sf.density is None else sf.density.matrix.tobytes()
    return matrix, sf.probs.tobytes(), sf.digest, sf.label, sf.dims


@settings(max_examples=300, deadline=None)
@given(text=state_file_texts())
def test_reader_matches_the_whole_document_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("oracle") / "state.json"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(load_statefile, path) == _outcome(json_load_statefile, path)


def test_oracle_layouts_match_json_dumps():
    doc = {"format_version": 1, "d_a": 1, "d_b": 2, "matrix": [[[0.5, -0.0], [1, 5e-324]], []]}
    assert _dump(_Obj(doc.items()), _LAYOUTS["indent1"](None)) == json.dumps(doc, indent=1)
    assert _dump(_Obj(doc.items()), _LAYOUTS["compact"](None)) == json.dumps(doc, separators=(",", ":"))
