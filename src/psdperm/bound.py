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

* Primal: Newton on ``-phi`` over the ``d^2`` real coordinates of ``X``
  (an orthonormal basis: diagonal entries, then sqrt(2) * real and
  imaginary parts of the upper triangle).  The Hessian is ``d^2 x d^2``:
  one iteration costs ``O(n d^4)`` to assemble it and ``O(d^6)`` to
  factor it.
* Dual: the identity ``log q = min_{t>0} (t q - log t - 1)`` applied to
  each row turns the maximization into the convex program

      Phi(A) = min_{t > 0, M(t) < I}  -log det(I - M(t)) - sum_i log t_i - n

  over ``t`` in ``R^n``, with ``M(t) = sum_i t_i v_i v_i^dagger``.  With
  ``S = I - M(t)`` its gradient is ``v_i^dagger S^{-1} v_i - 1/t_i`` and
  its Hessian ``|conj(V) S^{-1} V^T|^2 + diag(1/t^2)`` (entrywise
  modulus), so one iteration costs ``O(n d^2 + n^2 d + n^3)``.  The
  primal point of ``t`` is ``X = S^{-1}``.

`solve` uses the dual when ``n < d^2``, the size of the two Newton
systems, and the primal otherwise.  Both run through one damped Newton
driver: Cholesky checks keep the iterates feasible (``X`` positive
definite in the primal; ``t > 0`` and ``S`` positive definite in the
dual), and a step is accepted by the Armijo rule with a slack of
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
from .gram import GramFactor, HermitianPSD, gram_factor, hermitian_part, validate_hermitian_psd

__all__ = [
    "GAMMA",
    "PDPoint",
    "SolverOptions",
    "BoundResult",
    "objective",
    "gradient",
    "solve",
    "zero_diagonal_result",
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
    the diagonal.  That keeps a `BoundResult`, which carries one, at a
    quarter of the size of a complex matrix and its Cholesky factor.
    `matrix` and `chol` are rebuilt bit for bit on each access.
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

    @property
    def chol(self) -> np.ndarray:
        """Lower triangular ``L`` with ``matrix = L L^dagger``."""
        return np.linalg.cholesky(self.matrix)

    @property
    def log_det(self) -> float:
        return _log_det_chol(self.chol)


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
    ``zero_diagonal`` (the `zero_diagonal_result` sentinel: the
    permanent is exactly zero and ``phi = -inf``).
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


def _quadratic_forms(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """q_i = v_i^dagger X v_i (real for Hermitian X)."""
    return np.real(np.einsum("ij,ij->i", V.conj(), V @ X.T))


def _check_rows(factor: GramFactor) -> None:
    if np.any(factor.row_norms_sq <= 0.0):
        raise ZeroRowError(
            "Gram factor has a zero row; the permanent is exactly zero "
            "and must be short-circuited by the caller"
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
    return q, Xinv, (G + G.conj().T) / 2.0


def _inverse_from_chol(chol) -> np.ndarray:
    """``(L L^dagger)^{-1} = L^{-dagger} L^{-1}`` from its lower Cholesky factor."""
    Linv = np.linalg.inv(chol)
    X = Linv.conj().T @ Linv
    return (X + X.conj().T) / 2.0


def _herm_to_real_batch(Hs: np.ndarray) -> np.ndarray:
    """Real coordinates of each Hermitian matrix in a stack of shape (m, d, d)."""
    d = Hs.shape[1]
    idx = np.arange(d)
    iu, ju = np.triu_indices(d, k=1)
    return np.concatenate(
        [
            np.real(Hs[:, idx, idx]),
            np.sqrt(2.0) * np.real(Hs[:, iu, ju]),
            np.sqrt(2.0) * np.imag(Hs[:, iu, ju]),
        ],
        axis=1,
    )


def _real_to_herm(h: np.ndarray, d: int) -> np.ndarray:
    """Inverse of `_herm_to_real_batch` for one matrix."""
    iu, ju = np.triu_indices(d, k=1)
    H = np.zeros((d, d), dtype=complex)
    H[np.arange(d), np.arange(d)] = h[:d]
    m = d * (d - 1) // 2
    off = (h[d : d + m] + 1j * h[d + m :]) / np.sqrt(2.0)
    H[iu, ju] = off
    H[ju, iu] = off.conj()
    return H


def _negative_hessian(V: np.ndarray, q: np.ndarray, Xinv: np.ndarray) -> np.ndarray:
    """Matrix of ``-Hess phi`` in the orthonormal real basis.

    The log-term block is ``sum_i p_i p_i^T / q_i^2`` with
    ``p_i = coords(v_i v_i^dagger)``; the log-det block maps the basis
    element ``E`` to ``X^{-1} E X^{-1}``, assembled column by column
    from outer products of the columns of ``X^{-1}``.  Both blocks are
    symmetric PSD, and the sum is positive definite on the feasible set.
    """
    d = Xinv.shape[0]
    iu, ju = np.triu_indices(d, k=1)

    P = _herm_to_real_batch(np.einsum("ia,ib->iab", V, V.conj()))
    Pw = P / q[:, None]
    A = Pw.T @ Pw

    S = Xinv  # columns s_k
    diag_block = np.einsum("ik,jk->kij", S, S.conj())
    SI = S[:, iu]
    SJ = S[:, ju]
    cross = np.einsum("ip,jp->pij", SI, SJ.conj())
    cross_t = np.einsum("ip,jp->pij", SJ, SI.conj())
    re_block = (cross + cross_t) / np.sqrt(2.0)
    im_block = 1j * (cross - cross_t) / np.sqrt(2.0)
    K = _herm_to_real_batch(np.concatenate([diag_block, re_block, im_block])).T
    return A + K


def _try_chol(X: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        return None


def _dual_slack(V: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``S(t) = I - sum_i t_i v_i v_i^dagger``, exactly Hermitian."""
    S = np.eye(V.shape[1]) - (V.T * t) @ V.conj()
    return (S + S.conj().T) / 2.0


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
    `aux` is what the oracle's Hessian reuses.
    """

    z: np.ndarray
    f: float
    grad: np.ndarray
    x: np.ndarray
    phi: float
    grad_norm: float
    aux: object


class _PrimalOracle:
    """``-phi`` over the ``d^2`` real coordinates of ``X``."""

    def __init__(self, V: np.ndarray):
        self.V = V
        self.d = V.shape[1]

    def start(self, X0: np.ndarray) -> np.ndarray:
        return _herm_to_real_batch(X0[None])[0]

    def pd_matrix(self, z):
        return _real_to_herm(z, self.d)

    def value(self, z, X, chol) -> float:
        return -_objective_from_parts(_quadratic_forms(self.V, X), X, chol)

    def iterate(self, z, X, chol, f) -> _Iterate:
        q, Xinv, G = _gradient_parts(self.V, X, chol)
        return _Iterate(z=z, f=f, grad=-_herm_to_real_batch(G[None])[0], x=X,
                        phi=-f, grad_norm=float(np.linalg.norm(G)), aux=(q, Xinv))

    def hessian(self, it: _Iterate) -> np.ndarray:
        return _negative_hessian(self.V, *it.aux)

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

    def hessian(self, it: _Iterate) -> np.ndarray:
        # |K|^2 entrywise, K_ij = v_i^H S^{-1} v_j, plus the -sum log t term
        return np.abs(it.aux) ** 2 + np.diag(1.0 / it.z**2)

    def dual_value(self, it: _Iterate) -> float:
        return it.f


def _newton(oracle, z: np.ndarray, opts: SolverOptions) -> tuple:
    """Damped Newton minimization of the oracle's convex function from feasible `z`.

    The oracle supplies ``pd_matrix(z)``, the Hermitian matrix whose
    positive definiteness makes `z` feasible (None when `z` is outside
    the domain for another reason), ``value(z, M, chol)`` given that
    matrix and its Cholesky factor, ``iterate(z, M, chol, f)``, which
    builds an `_Iterate`, ``hessian(it)`` and ``dual_value(it)``.

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
            delta = -np.linalg.solve(oracle.hessian(it), g)
        except np.linalg.LinAlgError:
            delta = None
        if delta is None or not np.all(np.isfinite(delta)) or float(g @ delta) >= 0.0:
            delta = -g
        slope = float(g @ delta)
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

    Raises
    ------
    ZeroRowError
        If the factor has a zero row (the permanent is exactly zero;
        callers should use `bound_permanent`, which short-circuits).
    """
    opts = options if options is not None else SolverOptions()
    _check_rows(factor)
    V = factor.matrix
    n, d = V.shape

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


def zero_diagonal_result(psd: HermitianPSD) -> BoundResult:
    """The sentinel result for a matrix with a zero diagonal entry.

    Such an entry forces ``per(A) = 0``, so the bracket collapses to
    ``phi = log_lower = log_upper = -inf`` with ``duality_gap = 0``,
    status ``zero_diagonal`` and no optimization run.
    """
    neg_inf = float("-inf")
    return BoundResult(
        phi=neg_inf,
        x_star=None,
        iterations=0,
        grad_norm=0.0,
        trace_residual=0.0,
        log_lower=neg_inf,
        log_upper=neg_inf,
        duality_gap=0.0,
        gamma=GAMMA,
        converged=True,
        status="zero_diagonal",
        objective_history=np.asarray([]),
        n=psd.n,
        d=psd.rank,
    )


def bound_permanent(matrix, options: SolverOptions | None = None) -> BoundResult:
    """Validate, factor, and bound in one call.

    A zero diagonal entry forces ``per(A) = 0``; in that case the
    `zero_diagonal_result` sentinel is returned and no optimization runs.
    """
    psd = validate_hermitian_psd(matrix)
    if psd.zero_diagonal_indices:
        return zero_diagonal_result(psd)
    factor = gram_factor(psd)
    return solve(factor, options)
