"""Instance generation and JSON file I/O.

The on-disk format is a single JSON object, written on one line::

    {"n": 3, "entries": [[{"re": 1.0, "im": 0.0}, ...], ...],
     "metadata": {"label": "gaussian-gram", "seed": 7}}

``entries`` is row-major with one ``{re, im}`` object per entry.
Serialization uses exact float repr, so parse(serialize(M)) reproduces
M bit for bit.  Files carry no indentation because ``json.dumps`` uses
its C encoder only when ``indent`` is None; with an indent it falls back
to the pure-Python encoder, which takes over twice as long at n = 320.
Parsing checks and converts all n^2 entries in bulk and walks the cells
one by one only to name the first defect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import BadRankError, ParseError, SchemaError
from .gram import HermitianPSD, validate_hermitian_psd
from .montecarlo import philox_generator, sample_standard_complex_gaussian

__all__ = [
    "ENSEMBLES",
    "InstanceFile",
    "gen_instance",
    "random_unitary",
    "parse_instance",
    "write_instance",
    "instance_from_dict",
    "instance_to_dict",
    "instance_to_json",
]

ENSEMBLES = ("gaussian-gram", "identity", "all-ones", "diagonal")


def gen_instance(
    n: int,
    d: int,
    seed: int = 0,
    ensemble: str = "gaussian-gram",
) -> HermitianPSD:
    """Generate a validated instance from a named ensemble.

    gaussian-gram
        ``A = G G^dagger`` with i.i.d. standard complex Gaussian ``G``
        of shape ``(n, d)``, normalized so the largest diagonal entry
        is 1.  Rank ``d`` (verified against the eigenvalue count).
    identity
        ``I_n``; requires ``d == n``.
    all-ones
        The all-ones matrix; requires ``d == 1``.
    diagonal
        Random positive diagonal, normalized so the largest entry is 1;
        requires ``d == n``.
    """
    if n < 1:
        raise BadRankError(f"n must be >= 1, got {n}")
    if not 1 <= d <= n:
        raise BadRankError(f"rank d must satisfy 1 <= d <= n, got d={d}, n={n}")
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}; choose from {ENSEMBLES}")

    if ensemble == "gaussian-gram":
        G = sample_standard_complex_gaussian(philox_generator(seed), d, size=n)
        A = G @ G.conj().T
        A = A / np.max(np.real(np.diag(A)))
    elif ensemble == "identity":
        if d != n:
            raise BadRankError(f"identity ensemble has rank n={n}, got d={d}")
        A = np.eye(n, dtype=complex)
    elif ensemble == "all-ones":
        if d != 1:
            raise BadRankError(f"all-ones ensemble has rank 1, got d={d}")
        A = np.ones((n, n), dtype=complex)
    else:  # diagonal
        if d != n:
            raise BadRankError(f"diagonal ensemble has rank n={n}, got d={d}")
        vals = philox_generator(seed).uniform(0.1, 1.0, size=n)
        A = np.diag(vals / vals.max()).astype(complex)

    psd = validate_hermitian_psd(A)
    if psd.rank != d:
        raise BadRankError(
            f"generated instance has numerical rank {psd.rank}, expected {d}"
        )
    return psd


def random_unitary(d: int, seed: int = 0) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Gaussian matrix.

    Columns are phase-fixed by the R diagonal, so the result is exactly
    unitary (up to roundoff) and deterministic per seed.
    """
    Z = sample_standard_complex_gaussian(philox_generator(seed), d, size=d)
    Q, R = np.linalg.qr(Z)
    diag = np.diag(R)
    phases = diag / np.abs(diag)
    return Q * phases


@dataclass(frozen=True)
class InstanceFile:
    """Matrix plus free-form metadata, as stored on disk."""

    matrix: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _require(cond: bool, fieldname: str, message: str) -> None:
    if not cond:
        raise SchemaError(fieldname, message)


def _check_number(value, fieldname: str) -> None:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        fieldname,
        f"expected a number, got {type(value).__name__}",
    )
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    _require(math.isfinite(x), fieldname, "must be finite")


def _entries_matrix(entries: list, n: int) -> np.ndarray | None:
    """The n x n matrix of `entries`, or None if any row, cell or value is bad.

    Accepts exactly what `_raise_first_defect` accepts, checking types
    once per distinct type instead of once per cell.
    """
    if not all(isinstance(row, list) and len(row) == n for row in entries):
        return None
    cells = list(chain.from_iterable(entries))
    if not all(issubclass(t, dict) for t in set(map(type, cells))):
        return None
    try:
        re = [cell["re"] for cell in cells]
        im = [cell["im"] for cell in cells]
    except KeyError:
        return None
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool)
               for t in set(map(type, re)) | set(map(type, im))):
        return None
    try:
        parts = np.array([re, im], dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(parts).all():
        return None
    M = np.empty((n, n), dtype=complex)
    M.real, M.imag = parts.reshape(2, n, n)
    return M


def _raise_first_defect(entries: list, n: int) -> None:
    """Raise `SchemaError` naming the first bad row, cell or value, row-major."""
    for i, row in enumerate(entries):
        _require(isinstance(row, list) and len(row) == n,
                 f"entries[{i}]", f"must be a list of {n} entries")
        for j, cell in enumerate(row):
            where = f"entries[{i}][{j}]"
            _require(isinstance(cell, dict), where, "must be an object")
            _require("re" in cell and "im" in cell, where, "needs 're' and 'im'")
            _check_number(cell["re"], where + ".re")
            _check_number(cell["im"], where + ".im")


def instance_from_dict(obj) -> InstanceFile:
    """Build an `InstanceFile` from a parsed JSON object, checking schema."""
    _require(isinstance(obj, dict), "$", "top level must be an object")
    _require("n" in obj, "n", "missing required field")
    n = obj["n"]
    _require(
        isinstance(n, int) and not isinstance(n, bool) and n >= 1,
        "n",
        "must be an integer >= 1",
    )
    _require("entries" in obj, "entries", "missing required field")
    entries = obj["entries"]
    _require(isinstance(entries, list) and len(entries) == n,
             "entries", f"must be a list of {n} rows")

    M = _entries_matrix(entries, n)
    if M is None:
        _raise_first_defect(entries, n)

    metadata = obj.get("metadata", {})
    _require(isinstance(metadata, dict), "metadata", "must be an object")
    M.setflags(write=False)
    return InstanceFile(matrix=M, metadata=dict(metadata))


def instance_to_dict(instance: InstanceFile) -> dict:
    M = np.asarray(instance.matrix, dtype=complex)
    entries = [
        [{"re": re, "im": im} for re, im in zip(re_row, im_row)]
        for re_row, im_row in zip(M.real.tolist(), M.imag.tolist())
    ]
    out = {"n": M.shape[0], "entries": entries}
    if instance.metadata:
        out["metadata"] = instance.metadata
    return out


def instance_to_json(instance: InstanceFile) -> str:
    """The text of an instance file: one line of JSON and a newline."""
    return json.dumps(instance_to_dict(instance)) + "\n"


def parse_instance(path) -> InstanceFile:
    """Read and schema-check an instance file.

    Raises `ParseError` for text that is not UTF-8 or not JSON (with the
    byte offset where known) and `SchemaError` (naming the offending
    field) for structural problems.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 at byte {exc.start}: {exc.reason}",
                         offset=exc.start) from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode("utf-8"))  # exc.pos counts characters
        raise ParseError(f"invalid JSON at byte {offset}: {exc.msg}", offset=offset) from None
    except ValueError as exc:  # an integer literal past the int-string digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None
    return instance_from_dict(obj)


def write_instance(instance: InstanceFile, path) -> None:
    """Serialize an instance to disk; round-trips bit for bit."""
    Path(path).write_text(instance_to_json(instance), encoding="utf-8")
