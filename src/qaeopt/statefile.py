"""Self-describing JSON state files.

A file carries the split dimensions plus exactly one of:

* ``"matrix"``: a dense complex density matrix as nested lists with each
  complex entry encoded as a two-element ``[re, im]`` array, or
* ``"spectrum"``: a list of probabilities (eigenvalues of a diagonal state).

Spectra are renormalized when their sum is within 1e-8 of one and rejected
otherwise; matrices must satisfy the density-matrix invariants as given.
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


def save_statefile(path, dims: BipartiteDims, matrix=None, spectrum=None, label=None) -> None:
    if (matrix is None) == (spectrum is None):
        raise StateFileError("provide exactly one of matrix or spectrum")
    doc: dict = {"format_version": FORMAT_VERSION, "d_a": dims.d_a, "d_b": dims.d_b}
    if label is not None:
        doc["label"] = label
    if matrix is not None:
        m = np.asarray(matrix, dtype=complex)
        doc["matrix"] = [
            [[float(v.real), float(v.imag)] for v in row] for row in m
        ]
    else:
        doc["spectrum"] = [float(x) for x in np.asarray(spectrum, dtype=float)]
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")
