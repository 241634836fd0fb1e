"""Concave variational upper bound on the permanent of a PSD matrix.

Given a Gram factor ``A = V V^dagger``, an ``(n, d)`` array with rows
``v_i`` checked by `gram.unit_rows`, the objective

    phi(X) = sum_i log(v_i^dagger X v_i) + log det X - tr X + d

is concave over the Hermitian positive definite cone, and its maximum
``Phi(A)`` certifies the two-sided bound

    exp(Phi(A) - gamma * n)  <=  per(A)  <=  exp(Phi(A)),

where ``gamma`` is the Euler-Mascheroni constant.  The maximizer obeys
``tr X* = n + d``, which is monitored as a convergence diagnostic.

Two Newton systems compute ``Phi(A)``; the shape alone picks one.

* Primal: Newton on ``-phi`` over Hermitian ``X``.  The Newton system
  ``H[D] = G``, with ``H[D] = sum_i v_i v_i^dagger (v_i^dagger D v_i)/q_i^2
  + X^{-1} D X^{-1}``, is solved by conjugate gradients on Hermitian
  ``d x d`` matrices, preconditioned by ``R -> X R X``, with an
  inexact-Newton forcing term (Dembo, Eisenstat and Steihaug 1982).  A
  CG step costs ``O(n d^2 + d^3)``, and a Newton step takes at most
  ``n + 1`` of them; no ``d^2 x d^2`` matrix is formed.
* Dual: the identity ``log q = min_{t>0} (t q - log t - 1)`` applied to
  each row turns the maximization into the convex program

      Phi(A) = min_{t > 0, M(t) < I}  -log det(I - M(t)) - sum_i log t_i - n

  over ``t`` in ``R^n``, with ``M(t) = sum_i t_i v_i v_i^dagger``.  With
  ``S = I - M(t)`` its gradient is ``v_i^dagger S^{-1} v_i - 1/t_i`` and
  its Hessian ``|conj(V) S^{-1} V^T|^2 + diag(1/t^2)`` (entrywise
  modulus), so one iteration costs ``O(n d^2 + n^2 d + n^3)``.  The
  primal point of ``t`` is ``X = S^{-1}``.

`solve` uses the dual when ``n < d^2`` and the primal otherwise: the
dual was measured faster on wide shapes, and no crossover measurement
moves the rule yet.  Both run through one damped Newton driver, which
asks each problem for three things: ``evaluate``, the whole point (the
minimized function and its gradient, the primal point ``X``, ``phi`` and
its gradient norm), or None outside the domain, which Cholesky checks
decide (``X`` positive definite in the primal; ``t > 0`` and ``S``
positive definite in the dual); ``direction``, the Newton step; and
``dual_value``, the upper endpoint.  One function computes ``q``,
``X^{-1}``, the gradient and ``phi`` at a primal point, once per point.
A step is accepted by the Armijo rule with a slack of
``16 eps max(1, |f|)``, the floating point resolution of the objective,
so that Newton steps near the optimum whose predicted gain is below
roundoff are still taken.  On either path convergence is judged by the
primal gradient norm at the primal point, against `GRAD_TOL`.  The reported upper endpoint
is the dual value at ``t`` (``t_i = 1/q_i(X)`` on the primal path),
which bounds ``Phi(A)`` from above at any iterate, and the lower one is
``phi(X) - gamma * n``, so the bracket holds even after an early stop.
Both problems see the unit rows ``v_i / |v_i|``, which leave ``X*``
alone and move ``phi`` by ``-sum_i log |v_i|^2``, added back after; so
no ``q_i`` leaves the float range, whatever the diagonal of ``A``.

All linear algebra here is numpy's.  scipy ships its own OpenBLAS with
its own thread pool, and alternating small calls between the two pools
made some of them wait 15-50 ms for a worker thread on a 2-core machine.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, ZeroRowError
from .gram import _symmetrize, gram_factor, hermitian_part, unit_rows, validate_hermitian_psd

__all__ = [
    "GAMMA",
    "GRAD_TOL",
    "PDPoint",
    "SolverOptions",
    "BoundResult",
    "objective",
    "gradient",
    "solve",
    "bound_permanent",
]

#: Euler-Mascheroni constant; the per-row price of the lower bound.
GAMMA = float(np.euler_gamma)

_EPS = float(np.finfo(float).eps)

#: The solver converges when the primal gradient norm reaches `GRAD_TOL`.
GRAD_TOL = 1e-9

#: Armijo sufficient-decrease constant of the line search.
ARMIJO_C = 1e-4
#: Step shrink factor per backtrack, and the backtracks tried per iteration.
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 60
#: The driver stops as ``stalled`` when the minimized function has
#: improved by less than `STALL_TOL` over the last `STALL_WINDOW` iterations.
STALL_WINDOW = 5
STALL_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class PDPoint:
    """Hermitian positive definite matrix.

    Only its ``d^2`` real parameters are stored: the real parts of the
    lower triangle, diagonal included, then the imaginary parts below
    the diagonal.  That keeps a `BoundResult`, which carries one, at
    half the size of a complex matrix.  `matrix` is rebuilt bit for bit
    on each access.
    """

    packed: np.ndarray

    @classmethod
    def from_matrix(cls, X) -> "PDPoint":
        """Validate and wrap a matrix, raising if it is not Hermitian PD."""
        Xh = hermitian_part(X)
        try:
            np.linalg.cholesky(Xh)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(str(exc)) from None
        return cls._of_hermitian(Xh)

    @classmethod
    def _of_hermitian(cls, X: np.ndarray) -> "PDPoint":
        """Wrap an exactly Hermitian positive definite matrix, unchecked."""
        lower = np.tril_indices(X.shape[0])
        strict = np.tril_indices(X.shape[0], -1)
        packed = np.concatenate([X.real[lower], X.imag[strict]])
        packed.setflags(write=False)
        return cls(packed=packed)

    @property
    def d(self) -> int:
        return math.isqrt(self.packed.size)

    @property
    def matrix(self) -> np.ndarray:
        d = self.d
        lower = np.tril_indices(d)
        strict = np.tril_indices(d, -1)
        X = np.zeros((d, d), dtype=complex)
        X.real[lower] = self.packed[: lower[0].size]
        X.imag[strict] = self.packed[lower[0].size :]
        X[strict[1], strict[0]] = X[strict].conj()
        return X


@dataclass(frozen=True)
class SolverOptions:
    """Stopping rule of the damped Newton maximizer.

    It stops when the primal gradient norm reaches `GRAD_TOL` or after
    `max_iters` iterations, an integer (not a bool) of at least 1.
    """

    max_iters: int = 500

    def __post_init__(self) -> None:
        m = self.max_iters
        if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
            raise ValueError(f"max_iters must be an integer of at least 1, got {m!r}")


@dataclass(frozen=True, slots=True)
class BoundResult:
    """Outcome of the bound computation.

    ``log_lower = phi - gamma * n`` and ``log_upper``, the dual value at
    the ``t`` paired with `x_star`, bracket ``log per(A)`` at any
    iterate, converged or not: ``phi <= Phi(A) <= log_upper`` up to
    roundoff.
    ``log_upper`` is ``+inf`` when that ``t`` is not dual feasible, is
    raised to ``phi`` when roundoff puts it below, and
    ``duality_gap = log_upper - phi >= 0``.  `status` is one of
    ``converged``, ``max_iters``, ``stalled``, ``no_progress``, or
    ``zero_diagonal``: the factor has a zero row, the permanent is
    exactly zero and ``phi = log_lower = log_upper = -inf``.
    """

    phi: float
    x_star: PDPoint | None
    iterations: int
    grad_norm: float
    trace_residual: float
    log_lower: float
    log_upper: float
    duality_gap: float
    converged: bool
    status: str
    n: int
    d: int


def _quadratic_forms(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """q_i = v_i^dagger X v_i (real for Hermitian X)."""
    return np.real(np.einsum("ij,ij->i", V.conj(), V @ X.T))


def _at_point(V, point) -> tuple:
    """``(G, phi)`` at a `PDPoint` or a raw Hermitian PD matrix, from the unit rows."""
    if not isinstance(point, PDPoint):
        point = PDPoint.from_matrix(point)
    U, shift = unit_rows(V)
    if U is None:
        raise ZeroRowError(
            "Gram factor has a zero row, so phi is -inf everywhere; "
            "the permanent is exactly zero (see solve)"
        )
    X = point.matrix
    _, _, G, phi = _evaluate(U, X, np.linalg.cholesky(X))
    return G, phi + shift


def objective(V, point) -> float:
    """Evaluate ``phi`` of the ``(n, d)`` Gram factor `V` at a positive definite point.

    `point` may be a `PDPoint` or a raw Hermitian PD matrix.  It is
    evaluated on the unit rows of `gram.unit_rows`, with their shift.
    """
    return _at_point(V, point)[1]


def gradient(V, point) -> np.ndarray:
    """Euclidean gradient ``sum_i v_i v_i^dagger / q_i + X^{-1} - I``.

    Returned exactly Hermitian (symmetrized).  At the maximizer this is
    zero, which forces ``tr X* = n + d``.
    """
    return _at_point(V, point)[0]


def _log_det_chol(chol: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def _evaluate(V: np.ndarray, X: np.ndarray, chol: np.ndarray) -> tuple:
    """``(q, X^{-1}, G, phi)`` at ``X`` from its lower Cholesky factor.

    ``q_i = v_i^dagger X v_i`` and ``G`` is the Hermitian gradient of
    ``phi``.  A ``q_i`` that underflows to a nonpositive value makes
    ``phi = -inf`` and ``G`` NaN, with no division by it.
    """
    d = X.shape[0]
    q = _quadratic_forms(V, X)
    Xinv = _inverse_from_chol(chol)
    if not np.min(q) > 0.0:
        return q, Xinv, np.full_like(Xinv, np.nan), float("-inf")
    G = _symmetrize((V.T * (1.0 / q)) @ V.conj() + Xinv - np.eye(d))
    phi = float(np.sum(np.log(q)) + _log_det_chol(chol) - np.real(np.trace(X)) + d)
    return q, Xinv, G, phi


def _inverse_from_chol(chol) -> np.ndarray:
    """``(L L^dagger)^{-1} = L^{-dagger} L^{-1}`` from its lower Cholesky factor."""
    Linv = np.linalg.inv(chol)
    return _symmetrize(Linv.conj().T @ Linv)


def _try_chol(X: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        return None


def _dual_slack(V: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``S(t) = I - sum_i t_i v_i v_i^dagger``, exactly Hermitian."""
    return _symmetrize(np.eye(V.shape[1]) - (V.T * t) @ V.conj())


def _dual_objective(t: np.ndarray, chol: np.ndarray) -> float:
    """``-log det S(t) - sum log t - n`` from the Cholesky factor of ``S(t)``."""
    return -_log_det_chol(chol) - float(np.sum(np.log(t))) - t.shape[0]


def _dual_start(V: np.ndarray, X0: np.ndarray) -> np.ndarray:
    """``t_i = 1/q_i(X0)``, pulled inside the dual domain when ``M(t)`` is not below ``I``."""
    t = 1.0 / _quadratic_forms(V, X0)
    lam = float(np.linalg.eigvalsh((V.T * t) @ V.conj())[-1])
    return t / (2.0 * lam) if lam >= 1.0 else t


@dataclass(frozen=True)
class _Iterate:
    """One evaluated point of the Newton driver, seen by both problems.

    `z` lives in the oracle's coordinates, and `f` and `grad` are the
    value and gradient there of the function the oracle minimizes.  `x`,
    `phi` and `grad_norm` describe the primal point ``X`` of `z`: the
    primal objective there and the Frobenius norm of `gradient` there.
    `aux` is what the oracle's `direction` reuses.
    """

    z: np.ndarray
    f: float
    grad: np.ndarray
    x: np.ndarray
    phi: float
    grad_norm: float
    aux: object


class _PrimalOracle:
    """``-phi`` over Hermitian ``X``, with Newton directions by preconditioned CG."""

    def __init__(self, V: np.ndarray):
        self.V = V

    def evaluate(self, X: np.ndarray) -> _Iterate | None:
        chol = _try_chol(X)
        if chol is None:
            return None
        q, Xinv, G, phi = _evaluate(self.V, X, chol)
        return _Iterate(z=X, f=-phi, grad=-G, x=X, phi=phi,
                        grad_norm=float(np.linalg.norm(G)), aux=(q, Xinv))

    def apply_hessian(self, it: _Iterate, D: np.ndarray) -> np.ndarray:
        """``-Hess phi [D] = sum_i v_i v_i^dagger (v_i^dagger D v_i)/q_i^2 + X^{-1} D X^{-1}``."""
        V = self.V
        q, Xinv = it.aux
        return _symmetrize((V.T * (_quadratic_forms(V, D) / q**2)) @ V.conj() + Xinv @ D @ Xinv)

    def direction(self, it: _Iterate) -> np.ndarray:
        """Solve ``H[D] = G`` by CG over Hermitian ``D``, preconditioned by ``R -> X R X``.

        Preconditioned, `apply_hessian` is the identity plus ``n`` unit
        rank-ones, so exact arithmetic ends within ``n + 1`` steps.  CG
        starts from ``D = 0`` and stops once the residual is at most
        ``min(0.5, |G|) |G|``, an inexact-Newton forcing term that keeps
        the outer convergence quadratic.  Each step costs
        ``O(n d^2 + d^3)``.
        """
        X = it.x
        R = -it.grad
        tol = min(0.5, it.grad_norm) * it.grad_norm
        D = np.zeros_like(R)
        P = Z = _symmetrize(X @ R @ X)
        rz = np.vdot(R, Z).real
        for _ in range(self.V.shape[0] + 1):
            HP = self.apply_hessian(it, P)
            alpha = rz / np.vdot(P, HP).real
            D = D + alpha * P
            R = R - alpha * HP
            if np.linalg.norm(R) <= tol:
                break
            Z = _symmetrize(X @ R @ X)
            rz, rz_old = np.vdot(R, Z).real, rz
            P = Z + (rz / rz_old) * P
        return D

    def dual_value(self, it: _Iterate) -> float:
        t = 1.0 / it.aux[0]
        chol = _try_chol(_dual_slack(self.V, t))
        return float("inf") if chol is None else _dual_objective(t, chol)


class _DualOracle:
    """``-log det S(t) - sum log t - n`` over ``t`` in ``R^n``."""

    def __init__(self, V: np.ndarray):
        self.V = V

    def evaluate(self, t: np.ndarray) -> _Iterate | None:
        if not np.all(t > 0.0):
            return None
        V = self.V
        chol = _try_chol(_dual_slack(V, t))
        if chol is None:
            return None
        X = _inverse_from_chol(chol)  # the primal point S^{-1}
        x_chol = _try_chol(X)  # fails only where S is singular to working precision
        if x_chol is None:
            return None
        q, _, G, phi = _evaluate(V, X, x_chol)  # q_i = v_i^H S^{-1} v_i
        return _Iterate(z=t, f=_dual_objective(t, chol), grad=q - 1.0 / t, x=X, phi=phi,
                        grad_norm=float(np.linalg.norm(G)), aux=V.conj() @ (X @ V.T))

    def direction(self, it: _Iterate) -> np.ndarray:
        # Hessian |K|^2 entrywise, K_ij = v_i^H S^{-1} v_j, plus the -sum log t term
        return np.linalg.solve(np.abs(it.aux) ** 2 + np.diag(1.0 / it.z**2), -it.grad)

    def dual_value(self, it: _Iterate) -> float:
        return it.f


def _newton(oracle, z: np.ndarray, opts: SolverOptions) -> tuple:
    """Damped Newton minimization of the oracle's convex function from feasible `z`.

    The oracle supplies ``evaluate(z)``, the `_Iterate` at `z` or None
    outside the domain, ``direction(it)``, the Newton step (a dense
    solve in the dual, preconditioned CG in the primal), and
    ``dual_value(it)``.  Gradients and steps may be vectors or Hermitian
    matrices; their inner product is ``Re vdot``.

    Returns ``(best, iterations, status)``: `best` is the iterate with
    the largest primal objective, replaced by any later one that has
    converged.
    """
    it = best = oracle.evaluate(z)
    values = [it.f]
    iterations = 0
    status = "max_iters"

    while it.grad_norm > GRAD_TOL and iterations < opts.max_iters:
        # Newton direction; fall back to steepest descent if the Hessian
        # is singular or the direction does not descend.
        g = it.grad
        try:
            delta = oracle.direction(it)
        except np.linalg.LinAlgError:
            delta = None
        if delta is None or not np.all(np.isfinite(delta)) or np.vdot(g, delta).real >= 0.0:
            delta = -g
        slope = float(np.vdot(g, delta).real)
        # Armijo, with the objective's rounding resolution as slack so that
        # steps whose predicted gain is below roundoff are still taken.
        slack = 16.0 * _EPS * max(1.0, abs(it.f))

        step = 1.0
        accepted = None
        for _ in range(MAX_BACKTRACKS):
            trial = oracle.evaluate(it.z + step * delta)
            if trial is not None and trial.f <= it.f + ARMIJO_C * step * slope + slack:
                accepted = trial
                break
            step *= BACKTRACK_FACTOR
        iterations += 1

        if accepted is None:
            status = "no_progress"
            break
        it = accepted
        if it.phi >= best.phi or it.grad_norm <= GRAD_TOL:
            best = it
        values.append(it.f)

        if (
            len(values) > STALL_WINDOW
            and values[-1 - STALL_WINDOW] - values[-1] < STALL_TOL
            and it.grad_norm > GRAD_TOL
        ):
            status = "stalled"
            break

    if best.grad_norm <= GRAD_TOL:
        status = "converged"
    return best, iterations, status


def solve(V, options: SolverOptions | None = None) -> BoundResult:
    """Maximize the concave objective of the ``(n, d)`` Gram factor `V`.

    Runs Newton on the dual when ``n < d^2`` and on the primal otherwise
    (see the module docstring), starting from ``X0 = ((n + d)/d) I``,
    which already has the optimal trace, on the unit rows of
    `gram.unit_rows`, which also checks `V`; their shift is added to
    ``phi`` and both endpoints.  Returns a `BoundResult` with the
    certified interval endpoints in log domain.  On non-convergence the
    best iterate found is still returned, with ``converged=False`` and a
    diagnostic `status`; its endpoints are still bounds, and `log_upper`
    is ``+inf`` when the iterate gives no feasible dual point.

    A zero row ``v_i`` zeroes row ``i`` of ``A``, so ``per(A) = 0``:
    then no optimization runs, and the result has status
    ``zero_diagonal``, ``phi = log_lower = log_upper = -inf`` and
    ``duality_gap = 0``.
    """
    opts = options if options is not None else SolverOptions()
    U, shift = unit_rows(V)
    n, d = np.shape(V)
    if U is None:
        return BoundResult(phi=-math.inf, x_star=None, iterations=0, grad_norm=0.0,
                           trace_residual=0.0, log_lower=-math.inf, log_upper=-math.inf,
                           duality_gap=0.0, converged=True, status="zero_diagonal", n=n, d=d)

    X0 = ((n + d) / d) * np.eye(d, dtype=complex)
    if n < d * d:
        oracle, z0 = _DualOracle(U), _dual_start(U, X0)
    else:
        oracle, z0 = _PrimalOracle(U), X0
    best, iterations, status = _newton(oracle, z0, opts)

    X, phi = best.x, shift + best.phi
    # at convergence the dual value can land a few ulps under phi
    log_upper = shift + max(oracle.dual_value(best), best.phi)
    return BoundResult(
        phi=phi,
        x_star=PDPoint._of_hermitian(X),
        iterations=iterations,
        grad_norm=best.grad_norm,
        trace_residual=abs(float(np.real(np.trace(X))) - (n + d)),
        log_lower=phi - GAMMA * n,
        log_upper=log_upper,
        duality_gap=log_upper - phi,
        converged=(status == "converged"),
        status=status,
        n=n,
        d=d,
    )


def bound_permanent(matrix, options: SolverOptions | None = None) -> BoundResult:
    """Validate, factor, and bound in one call.

    A zero diagonal entry gives a zero Gram row, and `solve` returns the
    ``zero_diagonal`` result for it.
    """
    return solve(gram_factor(validate_hermitian_psd(matrix)), options)
