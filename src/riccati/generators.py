"""Reproducible random problem generation.

All randomness flows through numpy's Generator seeded with PCG64, so a
(seed, spec) pair identifies an instance exactly and regeneration is
byte-identical.  Instances are built to satisfy the solvability hypotheses of
the corresponding solvers (stable/Hurwitz coefficient, full-rank factors).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .io import KINDS, ProblemFile
from .linalg import _frobenius, spectral_radius_estimate

__all__ = ["GeneratorSpec", "gen_problem"]


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one random instance.

    `radius` targets the spectral radius (stein), `interval` the spectrum of
    -A (lyapunov), `rank` the rows of the factor C where one is drawn (stein,
    lyapunov, critical dare, non-critical nme), and `critical` asks for an
    instance whose closed-loop spectrum touches the stability boundary
    (stein, dare, nme).
    """

    kind: str
    n: int
    seed: int
    radius: float = 0.9
    interval: tuple = (0.5, 2.0)
    rank: int | None = None
    critical: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}")
        if self.n < 1:
            raise InvalidSpec("n must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise InvalidSpec("seed must be an unsigned 64-bit integer")
        if not (0.0 < self.radius <= 1.5):
            raise InvalidSpec("radius must lie in (0, 1.5]")
        a, b = self.interval
        if not (0.0 < a <= b):
            raise InvalidSpec("interval must satisfy 0 < a <= b")
        if self.rank is not None and not (1 <= self.rank <= self.n):
            raise InvalidSpec("rank must satisfy 1 <= rank <= n")
        if self.critical and self.kind not in ("dare", "nme", "stein"):
            raise InvalidSpec(f"critical flag is not supported for kind {self.kind!r}")
        drawn = self.kind in ("stein", "lyapunov") or (self.kind, self.critical) in (("dare", True), ("nme", False))
        if self.rank is not None and not drawn:
            raise InvalidSpec(f"rank is not supported for kind {self.kind!r} with critical={self.critical}")

    @property
    def p(self) -> int:
        return self.n if self.rank is None else self.rank


def _rand_matrix(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_rand_matrix(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _stein(rng, spec: GeneratorSpec) -> dict:
    a = _stable_a(rng, spec.n, 1.0 if spec.critical else spec.radius)
    c = _rand_matrix(rng, spec.p, spec.n)
    return {"A": a, "Q": c.conj().T @ c}


def _lyapunov(rng, spec: GeneratorSpec) -> dict:
    lo, hi = spec.interval
    u = _random_unitary(rng, spec.n)
    d = rng.uniform(lo, hi, size=spec.n)
    d[0], d[-1] = lo, hi  # pin the endpoints so the interval is tight
    a = -(u * d) @ u.conj().T
    c = _rand_matrix(rng, spec.p, spec.n)
    return {"A": a, "Q": c.conj().T @ c, "C": c}


def _stable_a(rng, n: int, radius: float) -> np.ndarray:
    a = _rand_matrix(rng, n, n)
    return a * (radius / spectral_radius_estimate(a, 40))


def _dare(rng, spec: GeneratorSpec) -> dict:
    n = spec.n
    if spec.critical:
        # eigenvalue 1 left unobserved by C: the stabilizing solution
        # annihilates that direction and the closed loop keeps the unit
        # eigenvalue, so doubling runs at its linear rate
        a = np.zeros((n, n), dtype=np.complex128)
        a[0, 0] = 1.0
        if n > 1:
            a[1:, 1:] = _stable_a(rng, n - 1, 0.5)
        c = _rand_matrix(rng, spec.p, n)
        c[:, 0] = 0.0
        b = np.eye(n) if n == 1 else _rand_matrix(rng, n, n)
        return {"A": a, "G": b @ b.conj().T, "Q": c.conj().T @ c}
    a = _stable_a(rng, n, min(spec.radius, 0.95))
    b = _rand_matrix(rng, n, n)
    c = _rand_matrix(rng, n, n)
    return {"A": a, "G": b @ b.conj().T, "Q": c.conj().T @ c}


def _care(rng, spec: GeneratorSpec) -> dict:
    n = spec.n
    r = _rand_matrix(rng, n, n)
    # shifting by the norm forces every eigenvalue into the left half-plane
    a = r - (_frobenius(r) + 0.5) * np.eye(n)
    b = _rand_matrix(rng, n, n)
    c = _rand_matrix(rng, n, n)
    return {"A": a, "G": b @ b.conj().T, "Q": c.conj().T @ c}


def _nme(rng, spec: GeneratorSpec) -> dict:
    n = spec.n
    if spec.critical:
        # scalar-block double-root construction: a = 1, q = 2a
        return {"A": np.eye(n, dtype=np.complex128), "Q": 2.0 * np.eye(n, dtype=np.complex128)}
    a = _rand_matrix(rng, n, n)
    c = _rand_matrix(rng, spec.p, n)
    q = c.conj().T @ c + (2 * _frobenius(a) + 1.0) * np.eye(n)
    return {"A": a, "Q": q}


_BUILDERS = {
    "stein": _stein,
    "lyapunov": _lyapunov,
    "dare": _dare,
    "care": _care,
    "nme": _nme,
}


def gen_problem(spec: GeneratorSpec) -> ProblemFile:
    """Deterministic instance for the given spec (PCG64 stream per seed)."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    matrices = _BUILDERS[spec.kind](rng, spec)
    metadata = {
        "seed": spec.seed,
        "generator": f"{spec.kind}-pcg64",
        "radius": spec.radius,
        "interval": list(spec.interval),
        "rank": spec.p,
        "critical": spec.critical,
    }
    return ProblemFile(kind=spec.kind, n=spec.n, matrices=matrices, metadata=metadata)
