"""Solve options and convergence reports shared by all iterations."""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import _frobenius

__all__ = ["SolveOptions", "SolveReport", "DEFAULT_BASIC_MAX_ITER", "DEFAULT_DOUBLING_MAX_ITER"]

DEFAULT_BASIC_MAX_ITER = 10_000
DEFAULT_DOUBLING_MAX_ITER = 60
NORM_OVERFLOW = 1e150
# an iteration with no structural stop ends when successive residuals differ
# by at most this
STAGNATION_TOL = 1e-15


@dataclass(frozen=True)
class SolveOptions:
    """Stopping controls.

    `max_iter=None` picks the method default: 10^4 for one-step fixed-point
    iterations, 60 for doubling iterations, 100 for Newton-Kleinman and the
    sign iteration.
    """

    tol: float = 1e-12
    max_iter: int | None = None

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def resolve_max_iter(self, default: int) -> int:
        return default if self.max_iter is None else self.max_iter


@dataclass
class SolveReport:
    """Outcome of one solver run.

    `residual_history` holds the relative residual of every recorded iterate
    (including the initial one where the solver records it, so its length is
    iterations or iterations + 1).  The sign iteration records relative step
    norms ||H_{k+1} - H_k|| / ||H_k|| there instead, and squared Smith on a
    Cayley-reduced Lyapunov problem records the reduced Stein residual, not
    the Lyapunov one.  `rate_estimate` is the geometric mean of
    successive iterate-update-norm ratios over the last five recorded steps
    (absolute update norms ||X_{k+1} - X_k||, for sign too);
    update norms rather than residuals make the estimate meaningful also in
    critical cases where the residual shrinks quadratically in the error.
    """

    X: np.ndarray
    converged: bool
    iterations: int
    residual_history: list[float] = field(default_factory=list)
    rate_estimate: float = 0.0
    elapsed_ns: list[int] = field(default_factory=list)


def rate_from_updates(update_norms) -> float:
    """Geometric mean of successive ratios over the last 5 recorded steps."""
    tail = [u for u in update_norms if u > 0.0][-6:]
    if len(tail) < 2:
        return 0.0
    ratios = [b / a for a, b in zip(tail, tail[1:])]
    return float(np.exp(np.mean(np.log(ratios))))


def relative(raw: float, scale: float) -> float:
    """raw / scale, and 0 when raw is 0 whatever the scale."""
    return 0.0 if raw == 0.0 else raw / scale


def map_residual(x, nx: float, mapped) -> float:
    """||F(X) - X|| / scale(nx) from mapped = (F(X), scale), the value of a
    fixed-point map at X, and nx = ||X||_F."""
    x_next, scale = mapped
    return relative(_frobenius(x_next - x), scale(nx))


def iterate(
    state,
    step,
    residual,
    opts: SolveOptions,
    default_max_iter: int,
    *,
    solution=lambda state: state,
    stop=None,
    first_iteration: int = 0,
):
    """Run state_{k+1}, update_k = step(state_k); return (SolveReport, last state).

    `solution(state)` is the iterate X the state stands for.  It is normed
    once per recorded iterate, the start included, and this loop hands
    ||X||_F to `residual(state, ||X||)`, whose value is recorded, to the
    overflow guard and to `stop(state, update, ||X||)`.  Stops when the
    residual is <= opts.tol (converged), is non-finite or ||X|| > 1e150, at
    max_iter, and on `stop` if given (a doubling iteration's structural
    stop), else on residual stagnation (successive residuals within
    STAGNATION_TOL).  A start that meets tol is returned without a step;
    `first_iteration` is its count.  Nothing here scans an iterate's
    entries: a non-finite iterate shows as a non-finite residual or norm.
    """
    max_iter = opts.resolve_max_iter(default_max_iter)
    t0 = time.perf_counter_ns()
    history = [residual(state, _frobenius(solution(state)))]
    times = [time.perf_counter_ns() - t0]
    updates: list[float] = []
    converged = history[0] <= opts.tol
    iterations = first_iteration
    # an overflowing step or norm ends the run through the guards below, so
    # numpy's overflow warning would only repeat that to the caller
    with np.errstate(over="ignore"):
        while not converged and iterations < max_iter:
            state, update = step(state)
            updates.append(update)
            iterations += 1
            nx = _frobenius(solution(state))
            res = residual(state, nx)
            history.append(res)
            times.append(time.perf_counter_ns() - t0)
            if not math.isfinite(res) or nx > NORM_OVERFLOW:
                break
            if res <= opts.tol:
                converged = True
                break
            if stop is None:
                if abs(history[-2] - res) <= STAGNATION_TOL:
                    break
            elif stop(state, update, nx):
                break
    report = SolveReport(
        X=solution(state),
        converged=converged,
        iterations=iterations,
        residual_history=history,
        rate_estimate=rate_from_updates(updates),
        elapsed_ns=times,
    )
    return report, state


def iterate_map(x0, fmap, opts: SolveOptions, first_iteration: int = 0):
    """`iterate` X_{k+1} = F(X_k) from X_0 = x0, where fmap(X) returns
    (F(X), scale) and scale(||X||_F) is the residual scale of X; return
    (SolveReport, F(X_last)), with report.X = X_last.

    The state carries F(X_k) ahead of the step: it is the next iterate, and
    ||F(X_k) - X_k|| is both the update norm and, over the scale read at
    `iterate`'s ||X_k||, the residual of X_k (`map_residual`'s ratio).  So F
    is evaluated once per iterate, and a k-step run evaluates it k + 1 times.
    """

    def ahead(x):
        x_next, scale = fmap(x)
        return x, x_next, _frobenius(x_next - x), scale

    report, state = iterate(
        ahead(x0),
        lambda s: (ahead(s[1]), s[2]),
        lambda s, nx: relative(s[2], s[3](nx)),
        opts,
        DEFAULT_BASIC_MAX_ITER,
        solution=lambda s: s[0],
        first_iteration=first_iteration,
    )
    return report, state[1]


def iterate_doubling(state, step, residual, opts: SolveOptions):
    """`iterate` a doubling state with fields Ak and Qk, where step(state) is
    the next state and Q_k is the iterate it stands for: the one loop of
    squared Smith, SDA and cyclic reduction.

    The update is ||Q_{k+1} - Q_k|| and the residual is
    residual(Q_k, ||Q_k||), with `iterate`'s norm of Q_k; a start that
    meets tol takes no step.  The structural stop is ||A_k||^2 or the
    update below 1e-4 tol max(||Q_k||, 1): well below tol, so that the
    residual confirmation wins the race against the A_k criterion in
    critical (rate-1/2) cases.
    """

    def advance(s):
        nxt = step(s)
        return nxt, _frobenius(nxt.Qk - s.Qk)

    def stop(s, update, nq):
        floor = 1e-4 * opts.tol * max(nq, 1.0)
        return _frobenius(s.Ak) ** 2 <= floor or update <= floor

    return iterate(
        state,
        advance,
        lambda s, nq: residual(s.Qk, nq),
        opts,
        DEFAULT_DOUBLING_MAX_ITER,
        solution=lambda s: s.Qk,
        stop=stop,
    )
