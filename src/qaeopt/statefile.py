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
``Infinity``, which the loader rejects. It streams a matrix row by row, so
its memory does not grow with the matrix.
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
from .qstate import SPECTRUM_SUM_TOL, BipartiteDims, DensityMatrix, _probability_vector

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


def _float_array(raw, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """``raw`` as a float array of ``shape``, from nested JSON lists of that
    shape whose entries are all JSON numbers.

    ``np.asarray(raw, dtype=float)`` would also read the strings "0.5",
    booleans and null (as NaN), so nesting and entry types are checked here,
    one level at a time. Converting the flat list once is also faster than
    numpy's conversion of the nested lists.
    """
    level = [raw]
    for size in shape:
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            raise StateFileError(f"{name} is not a numeric array of shape {shape}")
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


def _complex_matrix(raw, n: int) -> np.ndarray:
    # A view of the [re, im] pairs does no arithmetic, so NaN or infinity
    # reaches DensityMatrix's finiteness check without a numpy warning.
    return _float_array(raw, "matrix", (n, n, 2)).view(complex)[..., 0]


def _spectrum(raw, n: int) -> np.ndarray:
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
        p = _probability_vector(p, n)
    except ValidationError as exc:
        raise StateFileError(f"bad spectrum: {exc}") from exc
    return np.clip(p, 0.0, None)


def load_statefile(path) -> StateFile:
    """Read, parse and validate a state file. Its bytes are read once: the
    JSON and the digest both come from them."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StateFileError(f"state file {path} is not UTF-8 text: {exc}") from exc
    # A dense file is megabytes: hold neither its bytes nor its text longer
    # than needed, next to the parsed lists.
    del raw
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"state file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise StateFileError(f"state file {path} nests its JSON too deeply") from exc
    del text
    if not isinstance(data, dict):
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

    has_matrix = "matrix" in data
    has_spectrum = "spectrum" in data
    if has_matrix == has_spectrum:
        raise StateFileError("state file must carry exactly one of 'matrix' or 'spectrum'")

    density = None
    if has_matrix:
        # The parsed lists are megabytes too: free them before the eigh.
        mat = _complex_matrix(data.pop("matrix"), dims.total)
        del data
        try:
            density = DensityMatrix(mat)
            # Its clipped eigenvalues pass the check every probability vector passes.
            _probability_vector(density.probs, dims.total)
        except ValidationError as exc:
            raise StateFileError(f"matrix is not a valid density matrix: {exc}") from exc
        probs = density.probs
    else:
        probs = _spectrum(data["spectrum"], dims.total)
    return StateFile(dims=dims, probs=probs, density=density, label=label, digest=digest)


# json.dumps(..., indent=1) layout of one matrix row at depth 2 of the
# document, each entry an [re, im] pair at depth 3; the tokens are filled in.
_PAIR = "   [\n    %s,\n    %s\n   ]"
# json's spelling of the float reprs "nan", "inf" and "-inf".
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def save_statefile(path, dims: BipartiteDims, matrix=None, spectrum=None, label=None) -> None:
    """Write a version-1 state file holding exactly one of a dense ``matrix``
    (any 2-D array, complex or real) or a ``spectrum`` (a 1-D array).

    The bytes are ``json.dumps(doc, indent=1) + "\n"`` of the document with
    keys ``format_version``, ``d_a``, ``d_b``, ``label`` (left out when None)
    and the payload, floats written by ``float.__repr__`` and non-finite
    values as ``NaN``/``Infinity``/``-Infinity``, which ``load_statefile``
    rejects. Nothing is checked against ``dims``, so invalid files can be
    written on purpose. A matrix is written one row at a time, so memory
    stays flat as it grows. Bad arguments are rejected before the file is
    opened.
    """
    if (matrix is None) == (spectrum is None):
        raise StateFileError("provide exactly one of matrix or spectrum")
    doc: dict = {"format_version": FORMAT_VERSION, "d_a": dims.d_a, "d_b": dims.d_b}
    if label is not None:
        doc["label"] = label
    if spectrum is not None:
        doc["spectrum"] = [float(x) for x in np.asarray(spectrum, dtype=float)]
        Path(path).write_text(json.dumps(doc, indent=1) + "\n")
        return
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise StateFileError(f"matrix must be 2-D, not of shape {m.shape}")
    # Row i of ``values`` is row i of the matrix as re, im, re, im, ...
    values = np.ascontiguousarray(m).view(float)
    row = "  [\n" + ",\n".join([_PAIR] * m.shape[1]) + "\n  ]" if m.shape[1] else "  []"
    # The header ends in "\n}"; the matrix goes in as the last key.
    head = json.dumps(doc, indent=1)[:-2] + ',\n "matrix": ['
    with Path(path).open("w") as f:
        f.write(head)
        sep = "\n"
        for entries in values:
            tokens = list(map(float.__repr__, entries.tolist()))
            if not np.isfinite(entries).all():
                tokens = [_NON_FINITE.get(t, t) for t in tokens]
            f.write(sep + row % tuple(tokens))
            sep = ",\n"
        f.write("\n ]\n}\n" if len(values) else "]\n}\n")
