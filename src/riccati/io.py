"""Problem-file serialization.

JSON on disk.  Format 2, the only one written, stores each matrix as
{"shape": [rows, cols], "data": base64 of its little-endian complex128
entries in C order} and carries a top-level "format": 2.  A file without
"format" is format 1, where each matrix is a nested list of [re, im] pairs;
those files still load to the same arrays.  Shifts are [re, im] pairs in
both formats, and only a lyapunov file may carry them.
`load_problem` checks a file's kind, shifts and matrix shapes, and
`to_problem`, the one builder of a problem object, its matrix names; a
`ProblemFile` checks nothing, so reading a file loads no solver module.
"""

import base64
import importlib
import json
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ParseError

# each kind names the solver module that defines its problem class
KINDS = ("stein", "lyapunov", "dare", "care", "nme")

__all__ = ["ProblemFile", "load_problem", "save_problem", "to_problem", "problem_class"]


def problem_class(kind: str):
    """The solver-facing problem class of `kind` (SteinProblem from `stein`,
    ...), its module imported on first use, so a command loads no other kind's."""
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    return getattr(importlib.import_module(f"{__package__}.{kind}"), f"{kind.capitalize()}Problem")


@dataclass
class ProblemFile:
    """On-disk problem description: kind, size, named matrices, shifts."""

    kind: str
    n: int
    matrices: dict
    shifts: list | None = None
    metadata: dict = field(default_factory=dict)


_LE_COMPLEX = np.dtype("<c16")


def _is_int(v) -> bool:
    # bool is an int subclass, and int() would truncate 2.5 or parse "2"
    return isinstance(v, int) and not isinstance(v, bool)


def _encode_matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=_LE_COMPLEX)
    return {"shape": list(m.shape), "data": base64.b64encode(m.tobytes()).decode("ascii")}


def _decode_matrix_v1(name: str, data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ValueError
    except (ValueError, TypeError):
        raise ParseError(f"matrix {name!r} is not a nested array of [re, im] pairs") from None
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _decode_matrix_v2(name: str, entry) -> np.ndarray:
    if not isinstance(entry, dict):
        raise ParseError(f"matrix {name!r} must be an object with fields 'shape' and 'data'")
    shape = entry.get("shape")
    if not (isinstance(shape, list) and len(shape) == 2 and all(_is_int(d) and d >= 0 for d in shape)):
        raise ParseError(f"matrix {name!r}: field 'shape' must be [rows, cols], got {shape!r}")
    try:
        raw = base64.b64decode(entry.get("data"), validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise ParseError(f"matrix {name!r}: field 'data' is not valid base64") from None
    rows, cols = shape
    if len(raw) != 16 * rows * cols:
        raise ParseError(
            f"matrix {name!r}: field 'data' holds {len(raw)} bytes, expected 16*{rows}*{cols}"
        )
    # astype copies, so the array owns writable memory in native byte order
    return np.frombuffer(raw, dtype=_LE_COMPLEX).reshape(rows, cols).astype(np.complex128)


# the matrix decoder of each file format; a file without "format" is format 1
_DECODERS = {1: _decode_matrix_v1, 2: _decode_matrix_v2}


def save_problem(path, problem: ProblemFile):
    doc = {
        "format": 2,
        "kind": problem.kind,
        "n": problem.n,
        "matrices": {name: _encode_matrix(m) for name, m in problem.matrices.items()},
    }
    if problem.shifts is not None:
        doc["shifts"] = [[float(complex(s).real), float(complex(s).imag)] for s in problem.shifts]
    if problem.metadata:
        doc["metadata"] = problem.metadata
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_problem(path) -> ProblemFile:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("kind", "n", "matrices"):
        if key not in doc:
            raise ParseError(f"{path}: missing field {key!r}")
    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise ParseError(f"{path}: field 'n' must be a positive integer, got {n!r}")
    fmt = doc.get("format", 1)
    if not _is_int(fmt) or fmt not in _DECODERS:
        raise ParseError(f"{path}: field 'format' must be 1 or 2, got {fmt!r}")
    if not isinstance(doc["matrices"], dict):
        raise ParseError(f"{path}: field 'matrices' must be an object of named matrices")
    decode = _DECODERS[fmt]
    matrices = {name: decode(name, data) for name, data in doc["matrices"].items()}
    shifts = None
    if "shifts" in doc:
        try:
            shifts = [complex(re, im) for re, im in doc["shifts"]]
        except (TypeError, ValueError):
            raise ParseError(f"{path}: field 'shifts' must be a list of [re, im] pairs") from None
    kind = doc["kind"]
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    if shifts is not None and kind != "lyapunov":
        raise ParseError(f"kind={kind} has field 'shifts', which only kind=lyapunov reads")
    for name, m in matrices.items():
        if name != "C" and m.shape != (n, n):
            raise ParseError(f"matrix {name!r} has shape {m.shape}, expected ({n}, {n})")
        if name == "C" and m.shape[1] != n:
            raise ParseError(f"matrix 'C' must have {n} columns")
    return ProblemFile(kind=kind, n=n, matrices=matrices, shifts=shifts, metadata=doc.get("metadata", {}))


def to_problem(pf: ProblemFile):
    """The solver-facing problem object of `pf`, the one place a problem
    class is built: every matrix its kind requires must be present, and
    every matrix present must be one the kind reads."""
    cls = problem_class(pf.kind)
    for f in fields(cls):
        if f.default is MISSING and f.name not in pf.matrices:
            raise ParseError(f"kind={pf.kind} requires matrix {f.name!r}")
    unread = sorted(pf.matrices.keys() - {f.name for f in fields(cls)})
    if unread:
        raise ParseError(f"kind={pf.kind} has matrix {unread[0]!r}, which it does not read")
    return cls(**pf.matrices)
