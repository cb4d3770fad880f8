"""Dense complex linear-algebra kernels shared by every other module.

All routines work on complex double-precision arrays, validate finiteness at
the call boundary, and symmetrize Hermitian inputs before factorizing (the
Monte-Carlo accumulation order upstream breaks exact symmetry at the last ulp).
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

__all__ = [
    "NumericalError",
    "herm",
    "check_finite",
    "check_hermitian",
    "logdet_psd",
    "singular_values",
    "power_constrained_solve",
    "pairwise_mean",
]

HERMITIAN_RTOL = 1e-10


class NumericalError(RuntimeError):
    """Explicit failure signal for numerical contract violations.

    Raised for non-positive-definite factorizations, singular systems,
    bracket failures in the mu searches, and non-finite intermediates.
    """


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian symmetrization (A + A^H) / 2."""
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def check_finite(a: np.ndarray, name: str = "array") -> None:
    """Raise NumericalError if any entry is NaN or Inf."""
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"{name} contains non-finite entries")


def check_hermitian(a: np.ndarray, name: str = "matrix", rtol: float = HERMITIAN_RTOL) -> None:
    """Raise ValueError if A deviates from A^H by more than rtol (relative)."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = np.linalg.norm(a)
    dev = np.linalg.norm(a - a.conj().T)
    if dev > rtol * max(scale, 1e-300):
        raise ValueError(f"{name} is not Hermitian: ||A - A^H|| = {dev:.3e}, ||A|| = {scale:.3e}")


def logdet_psd(a: np.ndarray) -> float:
    """log det(A) for a Hermitian positive-definite matrix, in nats.

    Computed from the Cholesky factor so the determinant is never formed
    explicitly. The input is symmetrized before factorization.

    Raises
    ------
    ValueError
        If A is not Hermitian within the relative tolerance 1e-10.
    NumericalError
        If A is not positive definite.
    """
    a = np.asarray(a, dtype=complex)
    check_finite(a, "logdet_psd input")
    check_hermitian(a, "logdet_psd input")
    try:
        chol = np.linalg.cholesky(herm(a))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"logdet_psd: matrix is not positive definite ({exc})") from exc
    return float(2.0 * np.sum(np.log(np.real(np.diagonal(chol)))))


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of A, sorted descending; length min(rows, cols)."""
    a = np.asarray(a, dtype=complex)
    check_finite(a, "singular_values input")
    return np.linalg.svd(a, compute_uv=False)


def power_constrained_solve(
    a: np.ndarray,
    b: np.ndarray,
    budget: float,
    tol_rel: float = 1e-8,
    max_doublings: int = 200,
) -> tuple[np.ndarray, float]:
    """Smallest mu >= 0 with ||(A + mu I)^-1 B||_F^2 <= budget.

    Returns (X, mu) with X = (A + mu I)^-1 B. This is the shared mu search
    behind the per-user precoder power constraint and the per-tile beam norm
    constraint: p(mu) = ||X(mu)||_F^2 is strictly decreasing in mu, so the
    boundary multiplier is the unique root of p(mu) = budget.

    The solve runs in the eigenbasis of the symmetrized A, which makes p(mu)
    a closed-form rational function; the root is bracketed by doubling from
    mu = 1 and polished with Brent's method to a power residual far below
    tol_rel * budget.

    Raises
    ------
    NumericalError
        If the bracket does not close within max_doublings doublings.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    check_finite(a, "power_constrained_solve A")
    check_finite(b, "power_constrained_solve B")
    check_hermitian(a, "power_constrained_solve A")
    if budget <= 0:
        raise ValueError(f"power budget must be positive, got {budget}")

    vector_rhs = b.ndim == 1
    b2 = b.reshape(b.shape[0], -1)
    if np.linalg.norm(b2) == 0.0:
        x = np.zeros_like(b2)
        return (x[:, 0] if vector_rhs else x), 0.0

    eigvals, eigvecs = np.linalg.eigh(herm(a))
    # PSD contract allows eigenvalues down to about -1e-9 * scale from rounding.
    eigvals = np.maximum(eigvals, 0.0)
    bt = eigvecs.conj().T @ b2
    row_power = np.sum(np.abs(bt) ** 2, axis=1)

    def power(mu: float) -> float:
        denom = eigvals + mu
        with np.errstate(divide="ignore"):
            terms = np.where(
                denom > 0.0,
                row_power / np.where(denom > 0.0, denom, 1.0) ** 2,
                np.where(row_power > 0.0, np.inf, 0.0),
            )
        return float(np.sum(terms))

    def solution(mu: float) -> np.ndarray:
        x = eigvecs @ (bt / (eigvals + mu)[:, None])
        return x[:, 0] if vector_rhs else x

    if power(0.0) <= budget:
        return solution(0.0), 0.0

    hi = 1.0
    doublings = 0
    while power(hi) > budget:
        hi *= 2.0
        doublings += 1
        if doublings > max_doublings:
            raise NumericalError(
                f"power_constrained_solve: no feasible mu within {max_doublings} doublings"
            )
    mu = float(scipy.optimize.brentq(lambda m: power(m) - budget, 0.0, hi, xtol=1e-300, rtol=1e-15))
    if abs(power(mu) - budget) > tol_rel * budget:
        raise NumericalError(
            f"power_constrained_solve: residual {abs(power(mu) - budget):.3e} exceeds "
            f"{tol_rel:g} * budget"
        )
    return solution(mu), mu


def pairwise_mean(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Mean along an axis by recursive halving.

    Equal halves combine as (left + right) / 2, so the mean over 2n items is
    bit-identical to the average of the two half means and the reduction is
    order-independent by construction. Unequal splits combine with exact
    sample-count weights.
    """
    x = np.asarray(x)
    x = np.moveaxis(x, axis, 0)

    def reduce(block: np.ndarray) -> np.ndarray:
        n = block.shape[0]
        if n == 1:
            return block[0]
        h = n // 2
        left = reduce(block[:h])
        right = reduce(block[h:])
        if 2 * h == n:
            return 0.5 * (left + right)
        return (left * h + right * (n - h)) / n

    return reduce(x)
