"""Dense linear-algebra and statistics primitives used by the whole package.

Everything here is pure and operates on float64 numpy arrays: the
Cholesky-based weighted least-squares and ridge solvers, Pearson
correlation with population (1/n) moments, the test of constant columns and
quantiles. Z-scoring is ``data.NormStats``, which uses the same population
variance.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystemError

# A normal matrix is declared singular when a Cholesky pivot falls below
# this fraction of the largest initial diagonal entry.
SINGULARITY_RTOL = 1e-12


def _as_matrix(X, name: str = "X") -> np.ndarray:
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite values")
    return A


def _as_vector(x, name: str = "x") -> np.ndarray:
    v = np.asarray(x, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite values")
    return v


def _solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive-definite A through its Cholesky
    factor L (A = L L'). A 0 x 0 system has the empty solution.

    Raises
    ------
    SingularSystemError
        If A is not positive definite, or a pivot ``L[k, k]**2`` falls to
        ``SINGULARITY_RTOL`` times the largest diagonal entry of A or below
        (the message names the first such column k).
    """
    if A.shape[0] == 0:
        return np.zeros(0)
    scale = float(np.max(np.abs(np.diag(A)), initial=0.0))
    if scale <= 0.0:
        raise SingularSystemError("singular system: zero normal matrix")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"singular system: {exc}") from exc
    pivots = np.diag(L) ** 2 / scale
    low = np.flatnonzero(pivots <= SINGULARITY_RTOL)
    if low.size:
        k = low[0]
        raise SingularSystemError(f"singular system: relative pivot {pivots[k]:.3e} at column {k}")
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def _normal_equations(X, y, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X'WX, X'Wy, w) for finite X (n, p), y (n,) and nonnegative weights
    w (n,), checked, with w as a float vector."""
    X = _as_matrix(X)
    y = _as_vector(y, "y")
    w = _as_vector(w, "w")
    if y.shape[0] != X.shape[0] or w.shape[0] != X.shape[0]:
        raise ValueError("X, y, w must agree on the number of rows")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    Xw = X * w[:, None]
    return Xw.T @ X, Xw.T @ y, w


def weighted_least_squares(X, y, w) -> np.ndarray:
    """Solve min_beta sum_i w_i (y_i - X_i . beta)^2.

    Parameters
    ----------
    X : (n, p) design matrix, n >= p.
    y : (n,) responses.
    w : (n,) nonnegative observation weights; at least p strictly positive.

    Returns
    -------
    (p,) coefficient vector.

    Raises
    ------
    SingularSystemError
        If the weighted normal matrix X'WX is singular (callers may retry
        with :func:`ridge_regression`).
    """
    A, b, w = _normal_equations(X, y, w)
    n, p = w.shape[0], A.shape[0]
    if n < p:
        raise ValueError(f"underdetermined system: n={n} < p={p}")
    if int(np.count_nonzero(w > 0)) < p:
        raise ValueError(f"need at least p={p} strictly positive weights")
    return _solve_spd(A, b)


def ridge_regression(X, y, w, lam: float) -> np.ndarray:
    """Weighted least squares with an L2 penalty lam * ||beta||^2.

    ``lam = 0`` reduces to :func:`weighted_least_squares` whenever that
    system is nonsingular.
    """
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0:
        raise ValueError("lambda must be a finite nonnegative real")
    if lam == 0.0:
        return weighted_least_squares(X, y, w)
    A, b, _ = _normal_equations(X, y, w)
    A += lam * np.eye(A.shape[0])
    return _solve_spd(A, b)


def constant_columns(a) -> np.ndarray:
    """True for each column of ``a`` whose values are all equal; a 1-D array
    is one column, giving a 0-d result.

    This is the one test of constancy in the package: a computed standard
    deviation is no test, as it is rarely exactly 0 for equal values
    (fourteen values of 7.3 give about 8.9e-16).
    """
    a = np.asarray(a, dtype=np.float64)
    return (a == a[:1]).all(axis=0)


def pearson(x, y) -> float:
    """Pearson product-moment correlation in [-1, 1] (population moments).

    Defined as 0.0 when either argument is constant (see
    :func:`constant_columns`), so that full correlation matrices stay
    renderable.
    """
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValueError("x and y must have equal length")
    if n < 2:
        raise ValueError("need at least 2 observations")
    if constant_columns(x) or constant_columns(y):
        return 0.0
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float(dx @ dx) / n
    vy = float(dy @ dy) / n
    if vx <= 0.0 or vy <= 0.0:  # a spread so small that its square underflows
        return 0.0
    r = (float(dx @ dy) / n) / np.sqrt(vx * vy)
    return float(np.clip(r, -1.0, 1.0))


def quantiles(x, cuts) -> np.ndarray:
    """Linear-interpolation quantiles at the given probabilities.

    ``cuts`` must be strictly increasing probabilities in (0, 1). The
    output is forced monotone non-decreasing.
    """
    v = _as_vector(x, "x")
    if v.size == 0:
        raise ValueError("x must be nonempty")
    p = _as_vector(cuts, "cuts")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    if np.any(np.diff(p) <= 0):
        raise ValueError("probabilities must be strictly increasing")
    q = np.quantile(v, p, method="linear")
    return np.maximum.accumulate(q)
