"""Problem-file serialization.

JSON on disk, with every matrix entry written as an explicit [re, im] pair so
complex data round-trips without ambiguity.
"""

import json
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .care import CareProblem
from .dare import DareProblem
from .errors import ParseError
from .lyapunov import LyapunovProblem
from .nme import NmeProblem
from .stein import SteinProblem

# the solver-facing problem class of each kind; a file of that kind must hold
# the matrices its fields without a default name (C is optional for lyapunov)
PROBLEMS = {
    "stein": SteinProblem,
    "lyapunov": LyapunovProblem,
    "dare": DareProblem,
    "care": CareProblem,
    "nme": NmeProblem,
}
KINDS = tuple(PROBLEMS)

__all__ = ["ProblemFile", "load_problem", "save_problem", "to_problem"]


@dataclass
class ProblemFile:
    """On-disk problem description: kind, size, named matrices, shifts."""

    kind: str
    n: int
    matrices: dict
    shifts: list | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParseError(f"unknown kind {self.kind!r}")
        for f in fields(PROBLEMS[self.kind]):
            if f.default is MISSING and f.name not in self.matrices:
                raise ParseError(f"kind={self.kind} requires matrix {f.name!r}")
        for name, m in self.matrices.items():
            m = np.asarray(m, dtype=np.complex128)
            if m.ndim != 2:
                raise ParseError(f"matrix {name!r} is not two-dimensional")
            if name != "C" and m.shape != (self.n, self.n):
                raise ParseError(f"matrix {name!r} has shape {m.shape}, expected ({self.n}, {self.n})")
            if name == "C" and m.shape[1] != self.n:
                raise ParseError(f"matrix 'C' must have {self.n} columns")
            self.matrices[name] = m


def _encode_matrix(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=np.complex128)]


def _decode_matrix(name: str, data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ValueError
    except (ValueError, TypeError):
        raise ParseError(f"matrix {name!r} is not a nested array of [re, im] pairs") from None
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def save_problem(path, problem: ProblemFile):
    doc = {
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
    # bool is an int subclass, and int() would truncate 2.5 or parse "2"
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"{path}: field 'n' must be a positive integer, got {n!r}")
    if not isinstance(doc["matrices"], dict):
        raise ParseError(f"{path}: field 'matrices' must be an object of named matrices")
    matrices = {
        name: _decode_matrix(name, data) for name, data in doc["matrices"].items()
    }
    shifts = None
    if "shifts" in doc:
        try:
            shifts = [complex(re, im) for re, im in doc["shifts"]]
        except (TypeError, ValueError):
            raise ParseError(f"{path}: field 'shifts' must be a list of [re, im] pairs") from None
    return ProblemFile(
        kind=doc["kind"],
        n=n,
        matrices=matrices,
        shifts=shifts,
        metadata=doc.get("metadata", {}),
    )


def to_problem(pf: ProblemFile):
    """Instantiate the validated solver-facing problem object from the
    matrices its fields name."""
    if pf.kind not in PROBLEMS:
        raise ParseError(f"unknown kind {pf.kind!r}")
    cls = PROBLEMS[pf.kind]
    return cls(**{f.name: pf.matrices[f.name] for f in fields(cls) if f.name in pf.matrices})
