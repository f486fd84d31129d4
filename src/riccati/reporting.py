"""Solve options and convergence reports shared by all iterations."""

import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SolveOptions", "SolveReport", "DEFAULT_BASIC_MAX_ITER", "DEFAULT_DOUBLING_MAX_ITER"]

DEFAULT_BASIC_MAX_ITER = 10_000
DEFAULT_DOUBLING_MAX_ITER = 60
NORM_OVERFLOW = 1e150


@dataclass(frozen=True)
class SolveOptions:
    """Stopping controls.

    `max_iter=None` picks the method default: 10^4 for one-step fixed-point
    iterations, 60 for doubling iterations.
    """

    tol: float = 1e-12
    max_iter: int | None = None
    stagnation_tol: float = 1e-15

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.stagnation_tol <= 0:
            raise ValueError("stagnation_tol must be positive")

    def resolve_max_iter(self, default: int) -> int:
        return default if self.max_iter is None else self.max_iter


@dataclass
class SolveReport:
    """Outcome of one solver run.

    `residual_history` holds the relative residual of every recorded iterate
    (including the initial one where the solver records it, so its length is
    iterations or iterations + 1).  `rate_estimate` is the geometric mean of
    successive iterate-update-norm ratios over the last five recorded steps;
    update norms rather than residuals make the estimate meaningful also in
    critical cases where the residual shrinks quadratically in the error.
    """

    X: np.ndarray
    converged: bool
    iterations: int
    residual_history: list[float] = field(default_factory=list)
    rate_estimate: float = 0.0
    closed_loop_radius: float | None = None
    elapsed_ns: list[int] = field(default_factory=list)


def rate_from_updates(update_norms) -> float:
    """Geometric mean of successive ratios over the last 5 recorded steps."""
    tail = [u for u in update_norms if u > 0.0][-6:]
    if len(tail) < 2:
        return 0.0
    ratios = [b / a for a, b in zip(tail, tail[1:])]
    return float(np.exp(np.mean(np.log(ratios))))


def _ratio(raw: float, scale: float) -> float:
    return 0.0 if raw == 0.0 else raw / scale


def relative_residual(x, x_next, scale: float) -> float:
    """||F(X) - X|| / scale for a fixed-point map F with x_next = F(X)."""
    return _ratio(float(np.linalg.norm(x_next - x)), scale)


def fixed_point_solve(x0, step, opts: SolveOptions, first_iteration: int = 0) -> SolveReport:
    """Iterate X_{k+1} = F(X_k) from X_0 = x0, where step(X) returns
    (F(X), scale(X)).

    The residual of X_k is ||F(X_k) - X_k|| / scale(X_k), so each F(X_k) is
    computed once: it gives the residual of X_k, the update norm and the next
    iterate.  A k-iteration run therefore evaluates F k + 1 times.  Stops on
    relative residual <= opts.tol, on residual stagnation, on a non-finite
    residual or an iterate-norm overflow, or at max_iter (reported with
    converged=False).  `first_iteration` is the index of x0 in the reported
    iteration count.
    """
    max_iter = opts.resolve_max_iter(DEFAULT_BASIC_MAX_ITER)
    t0 = time.perf_counter_ns()
    x = x0
    x_next, scale = step(x)
    update = float(np.linalg.norm(x_next - x))
    history = [_ratio(update, scale)]
    times = [time.perf_counter_ns() - t0]
    updates: list[float] = []
    converged = history[-1] <= opts.tol
    iterations = first_iteration
    while not converged and iterations < max_iter:
        updates.append(update)
        x = x_next
        iterations += 1
        x_next, scale = step(x)
        update = float(np.linalg.norm(x_next - x))
        res = _ratio(update, scale)
        history.append(res)
        times.append(time.perf_counter_ns() - t0)
        if not np.isfinite(res) or np.linalg.norm(x) > NORM_OVERFLOW:
            break
        if res <= opts.tol:
            converged = True
            break
        if abs(history[-2] - history[-1]) <= opts.stagnation_tol:
            break
    return SolveReport(
        X=x,
        converged=converged,
        iterations=iterations,
        residual_history=history,
        rate_estimate=rate_from_updates(updates),
        elapsed_ns=times,
    )
