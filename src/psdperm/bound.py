"""Concave variational upper bound on the permanent of a PSD matrix.

Given a Gram factor ``A = V V^dagger`` with rows ``v_i`` (``n`` rows,
rank ``d``), the objective

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
moves the rule yet.  Both run through one damped Newton driver:
Cholesky checks keep the iterates feasible (``X`` positive definite in
the primal; ``t > 0`` and ``S`` positive definite in the dual), and a
step is accepted by the Armijo rule with a slack of
``16 eps max(1, |f|)``, the floating point resolution of the objective,
so that Newton steps near the optimum whose predicted gain is below
roundoff are still taken.  On either path convergence is judged by the
primal gradient norm at the primal point.  The reported upper endpoint
is the dual value at ``t`` (``t_i = 1/q_i(X)`` on the primal path),
which bounds ``Phi(A)`` from above at any iterate, and the lower one is
``phi(X) - gamma * n``, so the bracket holds even after an early stop.

All linear algebra here is numpy's.  scipy ships its own OpenBLAS with
its own thread pool, and alternating small calls between the two pools
made some of them wait 15-50 ms for a worker thread on a 2-core machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, ZeroRowError
from .gram import GramFactor, gram_factor, hermitian_part, validate_hermitian_psd

__all__ = [
    "GAMMA",
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

    It stops when the primal gradient norm reaches `grad_tol` or after
    `max_iters` iterations.
    """

    grad_tol: float = 1e-9
    max_iters: int = 500

    def __post_init__(self) -> None:
        if not 0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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
    gamma: float
    converged: bool
    status: str
    objective_history: np.ndarray
    n: int
    d: int


def _hermitian(M: np.ndarray) -> np.ndarray:
    """``(M + M^dagger)/2``: rounding-level asymmetry removed, exactly Hermitian."""
    return (M + M.conj().T) / 2.0


def _quadratic_forms(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """q_i = v_i^dagger X v_i (real for Hermitian X)."""
    return np.real(np.einsum("ij,ij->i", V.conj(), V @ X.T))


def _check_rows(factor: GramFactor) -> None:
    if factor.has_zero_row:
        raise ZeroRowError(
            "Gram factor has a zero row, so phi is -inf everywhere; "
            "the permanent is exactly zero (see solve)"
        )


def objective(factor: GramFactor, point) -> float:
    """Evaluate ``phi`` at a positive definite point.

    `point` may be a `PDPoint` or a raw Hermitian PD matrix.  Returns
    ``-inf`` if any quadratic form ``v_i^dagger X v_i`` underflows to a
    nonpositive value, which keeps infeasible line-search trials
    comparable without raising.
    """
    if not isinstance(point, PDPoint):
        point = PDPoint.from_matrix(point)
    _check_rows(factor)
    X = point.matrix
    return _objective_from_parts(_quadratic_forms(factor.matrix, X), X, np.linalg.cholesky(X))


def gradient(factor: GramFactor, point) -> np.ndarray:
    """Euclidean gradient ``sum_i v_i v_i^dagger / q_i + X^{-1} - I``.

    Returned exactly Hermitian (symmetrized).  At the maximizer this is
    zero, which forces ``tr X* = n + d``.
    """
    if not isinstance(point, PDPoint):
        point = PDPoint.from_matrix(point)
    _check_rows(factor)
    X = point.matrix
    return _gradient_parts(factor.matrix, X, np.linalg.cholesky(X))[2]


def _log_det_chol(chol: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def _objective_from_parts(q, X, chol) -> float:
    if np.min(q) <= 0.0:
        return float("-inf")
    return float(np.sum(np.log(q)) + _log_det_chol(chol) - np.real(np.trace(X)) + X.shape[0])


def _gradient_parts(V, X, chol) -> tuple:
    """``q``, ``X^{-1}`` and the Hermitian gradient of ``phi`` at ``X``."""
    q = _quadratic_forms(V, X)
    Xinv = _inverse_from_chol(chol)
    G = (V.T * (1.0 / q)) @ V.conj() + Xinv - np.eye(X.shape[0])
    return q, Xinv, _hermitian(G)


def _inverse_from_chol(chol) -> np.ndarray:
    """``(L L^dagger)^{-1} = L^{-dagger} L^{-1}`` from its lower Cholesky factor."""
    Linv = np.linalg.inv(chol)
    return _hermitian(Linv.conj().T @ Linv)


def _try_chol(X: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        return None


def _dual_slack(V: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``S(t) = I - sum_i t_i v_i v_i^dagger``, exactly Hermitian."""
    return _hermitian(np.eye(V.shape[1]) - (V.T * t) @ V.conj())


def _dual_objective(t: np.ndarray, chol: np.ndarray) -> float:
    """``-log det S(t) - sum log t - n`` from the Cholesky factor of ``S(t)``."""
    return -_log_det_chol(chol) - float(np.sum(np.log(t))) - t.shape[0]


@dataclass(frozen=True)
class _Iterate:
    """One accepted point of the Newton driver, seen by both problems.

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

    def start(self, X0: np.ndarray) -> np.ndarray:
        return X0

    def pd_matrix(self, X):
        return X

    def value(self, X, _, chol) -> float:
        return -_objective_from_parts(_quadratic_forms(self.V, X), X, chol)

    def iterate(self, X, _, chol, f) -> _Iterate:
        q, Xinv, G = _gradient_parts(self.V, X, chol)
        return _Iterate(z=X, f=f, grad=-G, x=X, phi=-f,
                        grad_norm=float(np.linalg.norm(G)), aux=(q, Xinv))

    def apply_hessian(self, it: _Iterate, D: np.ndarray) -> np.ndarray:
        """``-Hess phi [D] = sum_i v_i v_i^dagger (v_i^dagger D v_i)/q_i^2 + X^{-1} D X^{-1}``."""
        V = self.V
        q, Xinv = it.aux
        return _hermitian((V.T * (_quadratic_forms(V, D) / q**2)) @ V.conj() + Xinv @ D @ Xinv)

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
        P = Z = _hermitian(X @ R @ X)
        rz = np.vdot(R, Z).real
        for _ in range(self.V.shape[0] + 1):
            HP = self.apply_hessian(it, P)
            alpha = rz / np.vdot(P, HP).real
            D = D + alpha * P
            R = R - alpha * HP
            if np.linalg.norm(R) <= tol:
                break
            Z = _hermitian(X @ R @ X)
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

    def start(self, X0: np.ndarray) -> np.ndarray:
        # t_i = 1/q_i(X0), pulled inside the domain when M(t) is not below I
        V = self.V
        t = 1.0 / _quadratic_forms(V, X0)
        lam = float(np.linalg.eigvalsh((V.T * t) @ V.conj())[-1])
        return t / (2.0 * lam) if lam >= 1.0 else t

    def pd_matrix(self, t):
        return _dual_slack(self.V, t) if np.all(t > 0.0) else None

    def value(self, t, S, chol) -> float:
        return _dual_objective(t, chol)

    def iterate(self, t, S, chol, f) -> _Iterate:
        V = self.V
        X = _inverse_from_chol(chol)  # the primal point S^{-1}
        x_chol = np.linalg.cholesky(X)
        q, _, G = _gradient_parts(V, X, x_chol)  # q_i = v_i^H S^{-1} v_i
        return _Iterate(z=t, f=f, grad=q - 1.0 / t, x=X,
                        phi=_objective_from_parts(q, X, x_chol),
                        grad_norm=float(np.linalg.norm(G)), aux=V.conj() @ (X @ V.T))

    def direction(self, it: _Iterate) -> np.ndarray:
        # Hessian |K|^2 entrywise, K_ij = v_i^H S^{-1} v_j, plus the -sum log t term
        return np.linalg.solve(np.abs(it.aux) ** 2 + np.diag(1.0 / it.z**2), -it.grad)

    def dual_value(self, it: _Iterate) -> float:
        return it.f


def _newton(oracle, z: np.ndarray, opts: SolverOptions) -> tuple:
    """Damped Newton minimization of the oracle's convex function from feasible `z`.

    The oracle supplies ``pd_matrix(z)``, the Hermitian matrix whose
    positive definiteness makes `z` feasible (None when `z` is outside
    the domain for another reason), ``value(z, M, chol)`` given that
    matrix and its Cholesky factor, ``iterate(z, M, chol, f)``, which
    builds an `_Iterate`, ``direction(it)``, the Newton step (a dense
    solve in the dual, preconditioned CG in the primal), and
    ``dual_value(it)``.  Gradients and steps may be vectors or Hermitian
    matrices; their inner product is ``Re vdot``.

    Returns ``(best, iterations, status, history)``: `best` is the
    iterate with the largest primal objective, replaced by any later one
    that has converged, and `history` the running best primal objective
    after each iteration.
    """
    M = oracle.pd_matrix(z)
    chol = _try_chol(M)
    it = best = oracle.iterate(z, M, chol, oracle.value(z, M, chol))
    history = [best.phi]
    values = [it.f]
    iterations = 0
    status = "max_iters"

    while it.grad_norm > opts.grad_tol and iterations < opts.max_iters:
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
            zt = it.z + step * delta
            Mt = oracle.pd_matrix(zt)
            cholt = None if Mt is None else _try_chol(Mt)
            if cholt is not None:
                ft = oracle.value(zt, Mt, cholt)
                if ft <= it.f + ARMIJO_C * step * slope + slack:
                    accepted = oracle.iterate(zt, Mt, cholt, ft)
                    break
            step *= BACKTRACK_FACTOR
        iterations += 1

        if accepted is None:
            status = "no_progress"
            break
        it = accepted
        if it.phi >= best.phi or it.grad_norm <= opts.grad_tol:
            best = it
        history.append(best.phi)
        values.append(it.f)

        if (
            len(values) > STALL_WINDOW
            and values[-1 - STALL_WINDOW] - values[-1] < STALL_TOL
            and it.grad_norm > opts.grad_tol
        ):
            status = "stalled"
            break

    if best.grad_norm <= opts.grad_tol:
        status = "converged"
    return best, iterations, status, history


def solve(factor: GramFactor, options: SolverOptions | None = None) -> BoundResult:
    """Maximize the concave objective over the positive definite cone.

    Runs Newton on the dual when ``n < d^2`` and on the primal otherwise
    (see the module docstring), starting from ``X0 = ((n + d)/d) I``,
    which already has the optimal trace.  Returns a `BoundResult` with the
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
    V = factor.matrix
    n, d = V.shape
    if factor.has_zero_row:
        return BoundResult(phi=-math.inf, x_star=None, iterations=0, grad_norm=0.0,
                           trace_residual=0.0, log_lower=-math.inf, log_upper=-math.inf,
                           duality_gap=0.0, gamma=GAMMA, converged=True, status="zero_diagonal",
                           objective_history=np.asarray([]), n=n, d=d)

    X0 = ((n + d) / d) * np.eye(d, dtype=complex)
    oracle = _DualOracle(V) if n < d * d else _PrimalOracle(V)
    best, iterations, status, history = _newton(oracle, oracle.start(X0), opts)

    X, phi = best.x, best.phi
    # at convergence the dual value can land a few ulps under phi
    log_upper = max(oracle.dual_value(best), phi)
    return BoundResult(
        phi=phi,
        x_star=PDPoint._of_hermitian(X),
        iterations=iterations,
        grad_norm=best.grad_norm,
        trace_residual=abs(float(np.real(np.trace(X))) - (n + d)),
        log_lower=phi - GAMMA * n,
        log_upper=log_upper,
        duality_gap=log_upper - phi,
        gamma=GAMMA,
        converged=(status == "converged"),
        status=status,
        objective_history=np.asarray(history),
        n=n,
        d=d,
    )


def bound_permanent(matrix, options: SolverOptions | None = None) -> BoundResult:
    """Validate, factor, and bound in one call.

    A zero diagonal entry gives a zero Gram row, and `solve` returns the
    ``zero_diagonal`` result for it.
    """
    return solve(gram_factor(validate_hermitian_psd(matrix)), options)
