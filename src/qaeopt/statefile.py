"""Self-describing JSON state files.

A file carries the split dimensions plus exactly one of:

* ``"matrix"``: a dense complex density matrix as nested lists with each
  complex entry encoded as a two-element ``[re, im]`` array, or
* ``"spectrum"``: a list of probabilities (eigenvalues of a diagonal state).

Spectra are renormalized when their sum is within 1e-8 of one and rejected
otherwise; matrices must satisfy the density-matrix invariants as given.

``save_statefile`` writes version 1 exactly as ``json.dumps(doc, indent=1)``
would, keys in the order ``format_version``, ``d_a``, ``d_b``, ``label``,
payload, floats as ``repr`` gives them and non-finite ones as ``NaN`` or
``Infinity``, which the loader rejects. After one rank check, one loop
streams a matrix row by row and a spectrum as one row, in flat memory.

``load_statefile`` reads a matrix row by row as well: json's scanner parses
one row's ``[re, im]`` lists at a time, and each row is checked and becomes
a float array at once. While the bytes are decoded, a load holds the bytes
and the text; after that, the text, the float matrix and one row of lists.
A version-1 dense file so needs about twice its size to load, and no more
to be rejected: the text is parsed once, valid or not, and a matrix with
several faults names a wrong number of rows first, else its first faulty
row's fault. The object and the matrix's outer array go through json's
own pure-Python parsers, with json's C scanner for each value and each row,
so every fault is worded, placed and read as ``json.loads`` does.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .exceptions import StateFileError, ValidationError
from .qstate import SPECTRUM_SUM_TOL, BipartiteDims, DensityMatrix, _numbers, _probability_vector

FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class StateFile:
    dims: BipartiteDims
    # The descending probabilities of either file kind. A dense file also
    # keeps its validated density matrix, and these are its ``probs``.
    probs: np.ndarray
    density: DensityMatrix | None
    label: str | None
    digest: str  # SHA-256 of the file's bytes, as read for loading


def _float_array(raw, name: str, shape: tuple[int, ...], outer: tuple[int, ...] = ()) -> np.ndarray:
    """``raw`` as a float array of ``shape``, from nested JSON lists of that
    shape whose entries are all JSON numbers; a fault of nesting names the
    shape ``outer + shape``. ``np.asarray`` would also read the strings
    "0.5", booleans and null, and is slower on nested lists."""
    level = [raw]
    for size in shape:
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            raise StateFileError(f"{name} is not a numeric array of shape {outer + shape}")
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= {int, float}:
        raise StateFileError(
            f"{name} is not a numeric array: it must hold JSON numbers only, "
            "not strings, booleans or null"
        )
    try:
        return np.array(level, dtype=float).reshape(shape)
    except OverflowError as exc:  # an integer beyond the float range
        raise StateFileError(f"{name} is not a numeric array: {exc}") from exc


# json's C scanner for one value, and its pure-Python object and array
# parsers, which take a value scanner as a hook and word every fault as
# json.loads does, at its place in the whole text.
_scan = json.JSONDecoder().scan_once
_WS = json.decoder.WHITESPACE.match


def _value(text: str, i: int) -> tuple:
    """The value at ``text[i]`` and the index after it, as json scans it,
    but for an array of arrays, which comes back as ``(i, rows)``: the list
    of its rows, each a float ``(k, 2)`` array as soon as it is scanned, up
    to the first that is not a list of ``[number, number]`` pairs. That one
    stays as scanned, and the rows after it are only counted, as None."""
    if not (text.startswith("[", i) and text.startswith("[", _WS(text, i + 1).end())):
        return _scan(text, i)
    faulty = False

    def row(s: str, j: int) -> tuple:
        nonlocal faulty
        raw, j = _scan(s, j)
        if faulty:
            return None, j
        if type(raw) is list:
            try:
                return _float_array(raw, "matrix", (len(raw), 2)), j
            except StateFileError:
                pass
        faulty = True
        return raw, j

    rows, end = json.decoder.JSONArray((text, i + 1), row)
    return (i, rows), end


def _members(text: str):
    """``json.loads(text)``, but with a ``matrix`` that is an array of
    arrays read by ``_value``, a row at a time. Any other member read that
    way is scanned again whole."""
    i = _WS(text, 0).end()
    if not text.startswith("{", i):
        return json.loads(text)
    data, i = json.decoder.JSONObject((text, i + 1), True, _value, None, None, {})
    i = _WS(text, i).end()
    if i != len(text):
        raise json.JSONDecodeError("Extra data", text, i)
    for key, value in data.items():
        if type(value) is tuple:  # no JSON value scans as one
            data[key] = value[1] if key == "matrix" else _scan(text, value[0])[0]
    return data


def _complex_matrix(rows, n: int) -> np.ndarray:
    """The ``n x n`` complex matrix of the rows ``_value`` read. A
    wrong number of rows is the fault, else the first row that is not n
    ``[number, number]`` pairs."""
    if type(rows) is not list or len(rows) != n:
        raise StateFileError(f"matrix is not a numeric array of shape {(n, n, 2)}")
    for r in rows:
        if type(r) is not np.ndarray or r.shape != (n, 2):
            # Raises: a float array of another length is no list either.
            _float_array(r, "matrix", (n, 2), (n,))
    # A view of the [re, im] pairs does no arithmetic, so NaN or infinity
    # reaches DensityMatrix's finiteness check without a numpy warning.
    return np.stack(rows).view(complex)[..., 0]


def _spectrum(raw, n: int) -> np.ndarray:
    """A file's spectrum, descending, renormalized, through ``_probability_vector``."""
    # Sorted before the sum: a float sum depends on its order, and the same
    # entries in another file order must load with the same bits.
    p = np.sort(_float_array(raw, "spectrum", (n,)))[::-1]
    total = p.sum()
    # A sum that is not finite comes from an entry that is not, which the
    # probability check names.
    if math.isfinite(total):
        if abs(total - 1.0) > SPECTRUM_SUM_TOL:
            raise StateFileError(
                f"spectrum sums to {total}, more than {SPECTRUM_SUM_TOL} away from 1"
            )
        p = p / total
    try:
        return _probability_vector(p, n)
    except ValidationError as exc:
        raise StateFileError(f"bad spectrum: {exc}") from exc


def load_statefile(path) -> StateFile:
    """Read, parse and validate a state file. Its bytes are read once and
    parsed once: the JSON and the digest both come from them. Either kind's
    ``probs`` come from ``_probability_vector``, so ``optimize`` takes them
    with their bytes unchanged."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StateFileError(f"state file {path} is not UTF-8 text: {exc}") from exc
    # A dense file is megabytes: hold its bytes no longer than needed.
    del raw
    try:
        data = _members(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"state file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise StateFileError(f"state file {path} nests its JSON too deeply") from exc
    except ValueError as exc:
        # json's scanner reads an integer literal with int(), which refuses
        # more than sys.get_int_max_str_digits() digits and names the limit.
        raise StateFileError(f"state file {path} holds an integer too long to read: {exc}") from exc
    del text
    if type(data) is not dict:
        raise StateFileError("state file must be a JSON object")

    version = data.get("format_version", FORMAT_VERSION)
    # The JSON integer 1 only: true and 1.0 compare equal to it.
    if type(version) is not int or version != FORMAT_VERSION:
        raise StateFileError(f"unsupported format_version {version!r}")
    try:
        # BipartiteDims takes integers only, so 2.7, 2.0, true, "4" and a
        # missing value all fail here.
        dims = BipartiteDims(data.get("d_a"), data.get("d_b"))
    except ValidationError as exc:
        raise StateFileError(f"bad or missing d_a/d_b: {exc}") from exc
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise StateFileError("label must be a string")

    if ("matrix" in data) == ("spectrum" in data):
        raise StateFileError("state file must carry exactly one of 'matrix' or 'spectrum'")

    density = None
    if "matrix" in data:
        # The row arrays are as large as the matrix: free them before the eigh.
        mat = _complex_matrix(data.pop("matrix"), dims.total)
        try:
            density = DensityMatrix(mat)
        except ValidationError as exc:
            raise StateFileError(f"matrix is not a valid density matrix: {exc}") from exc
        probs = density.probs
    else:
        probs = _spectrum(data["spectrum"], dims.total)
    return StateFile(dims=dims, probs=probs, density=density, label=label, digest=digest)


# json.dumps(..., indent=1) layout of one matrix row at depth 2 of the
# document, each entry an [re, im] pair at depth 3; the tokens are filled in.
_PAIR = "   [\n    %s,\n    %s\n   ]"


def save_statefile(path, dims: BipartiteDims, matrix=None, spectrum=None, label=None) -> None:
    """Write a version-1 state file holding exactly one of a dense ``matrix``
    (any 2-D array, complex or real) or a ``spectrum`` (a 1-D array).

    The bytes are ``json.dumps(doc, indent=1) + "\n"`` of the document with
    keys ``format_version``, ``d_a``, ``d_b``, ``label`` (left out when None)
    and the payload, floats written by ``float.__repr__`` and non-finite
    values as ``NaN``/``Infinity``/``-Infinity``, which ``load_statefile``
    rejects. Nothing is checked against ``dims``, so invalid files can be
    written on purpose. One loop writes a matrix a row at a time and a
    spectrum as one row, so memory stays flat as a matrix grows. Entries that
    are not numbers (``qstate._numbers``), a spectrum that is not 1-D and a
    matrix that is not 2-D are rejected before the file is opened.
    """
    if (matrix is None) == (spectrum is None):
        raise StateFileError("provide exactly one of matrix or spectrum")
    kind, dtype, ndim = ("spectrum", float, 1) if matrix is None else ("matrix", complex, 2)
    try:
        # Not copied when already numeric: a large matrix is not held twice.
        payload = _numbers(spectrum if matrix is None else matrix, dtype, f"{kind} entries", copy=False)
    except ValidationError as exc:
        raise StateFileError(str(exc)) from exc
    if payload.ndim != ndim:
        raise StateFileError(f"{kind} must be {ndim}-D, not of shape {payload.shape}")
    doc: dict = {"format_version": FORMAT_VERSION, "d_a": dims.d_a, "d_b": dims.d_b}
    if label is not None:
        doc["label"] = label
    if matrix is None:
        rows = [payload] if payload.size else []
        row = ",\n".join(["  %s"] * payload.size)
    else:
        # Row i of ``rows`` is row i of the matrix as re, im, re, im, ...
        rows = np.ascontiguousarray(payload).view(float)
        row = "  [\n" + ",\n".join([_PAIR] * payload.shape[1]) + "\n  ]" if payload.shape[1] else "  []"
    # The header ends in "\n}"; the payload goes in as the last key.
    head = json.dumps(doc, indent=1)[:-2] + f',\n "{kind}": ['
    with Path(path).open("w") as f:
        f.write(head)
        sep = "\n"
        for entries in rows:
            tokens = map(float.__repr__, entries.tolist())
            if not np.isfinite(entries).all():  # json spells NaN and the infinities
                tokens = json.dumps(entries.tolist())[1:-1].split(", ")
            f.write(sep + row % tuple(tokens))
            sep = ",\n"
        f.write("\n ]\n}\n" if len(rows) else "]\n}\n")
