"""Dense complex linear-algebra kernels shared by every other module.

All routines work on complex double-precision arrays, validate finiteness at
the call boundary, and symmetrize Hermitian inputs before factorizing (the
Monte-Carlo accumulation order upstream breaks exact symmetry at the last ulp).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NumericalError",
    "herm",
    "check_finite",
    "check_hermitian",
    "logdet_hpd",
    "power_constrained_solve",
]

HERMITIAN_RTOL = 1e-10
POWER_RTOL = 1e-8


class NumericalError(RuntimeError):
    """Explicit failure signal for numerical contract violations.

    Raised for non-positive-definite factorizations, singular systems,
    mu searches that miss their power budget, and non-finite intermediates.
    """


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian symmetrization (A + A^H) / 2."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def check_finite(a: np.ndarray, name: str = "array") -> None:
    """Raise NumericalError if any entry is NaN or Inf."""
    if not np.isfinite(a).all():
        raise NumericalError(f"{name} contains non-finite entries")


def check_hermitian(a: np.ndarray, name: str = "matrix", rtol: float = HERMITIAN_RTOL) -> None:
    """Raise ValueError if A, or any matrix of a stack (..., n, n), deviates
    from its conjugate transpose by more than rtol (relative). An exactly
    Hermitian input, as every `herm` output is, returns before the norms."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    a_h = a.conj().swapaxes(-1, -2)
    if (a == a_h).all():
        return
    scale = np.maximum(np.linalg.norm(a, axis=(-2, -1)), 1e-300)
    dev = np.linalg.norm(a - a_h, axis=(-2, -1))
    if (dev > rtol * scale).any():
        i = np.argmax(dev / scale)
        raise ValueError(
            f"{name} is not Hermitian: ||A - A^H|| = {dev.flat[i]:.3e}, ||A|| = {scale.flat[i]:.3e}"
        )


def logdet_hpd(mats: np.ndarray) -> np.ndarray:
    """log det of a Hermitian positive-definite matrix, or of each matrix of
    a stack (..., n, n), in nats, from the Cholesky factor of the symmetrized
    input. Raises NumericalError if a matrix is not positive definite."""
    try:
        chol = np.linalg.cholesky(herm(mats))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"batched log det: matrix not positive definite ({exc})") from exc
    return 2.0 * np.log(chol.diagonal(axis1=-2, axis2=-1).real).sum(axis=-1)


def power_constrained_solve(
    a: np.ndarray, b: np.ndarray, budget, mu0=None, *, gram_cols: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest mu >= 0 with ||(A + mu I)^-1 B||_F^2 <= budget, on stacks.

    A is a Hermitian PSD stack (..., n, n); B is (..., n, c), c columns of
    right-hand sides (a vector b is passed as b[..., None]). The leading axes
    of A, B and budget broadcast, so one eigendecomposition of A can serve
    several right-hand sides. Returns X = (A + mu I)^-1 B (..., n, c) and mu,
    shaped like the broadcast leading axes. This is the shared mu search
    behind the per-user precoder power constraint and the tile beam norm.

    In the eigenbasis A = U diag(lam) U^H the power is the rational function
    p(mu) = sum_k r_k / (lam_k + mu)^2, with r_k the row powers of U^H B;
    rows with r_k = 0 contribute nothing, also on the null space of a
    singular A. mu = 0 when p(0) <= budget P. Otherwise the root of
    p(mu) = P lies in max_k (sqrt(r_k / P) - lam_k)_+ <= mu <= ||B||_F / sqrt(P),
    and Newton steps on the concave, increasing 1/sqrt(p(mu)) - 1/sqrt(P)
    (More & Sorensen, "Computing a Trust Region Step", 1983) rise from the
    lower end to the root without passing it. An entry stops at its first
    step that does not move it up, so no entry depends on the others.

    gram_cols=m declares A = F F^H the Gram of a factor F (..., n, m) and
    bounds the power of F^H X instead of X. It serves callers that solve an
    m-dimensional problem in the row space of F: by the push-through
    identity (F^H F + mu I)^-1 F^H B = F^H (F F^H + mu I)^-1 B, the m x m
    problem with matrix F^H F and right-hand sides F^H B is this n x n one,
    and F^H X is its solution (the caller forms F^H X). Since
    ||F^H U e_k||^2 = lam_k, its power is p(mu) with each row power
    weighted by its eigenvalue, r_k = lam_k |(U^H B)_k|^2: the same
    rational function, so bracket, Newton rise and residual check are
    unchanged. F^H removes two null spaces exactly, and B's parts on them
    are dropped, because a rounded null eigenvalue of 1e-16 lam_max would
    otherwise read as a power |(U^H B)_k|^2 / lam_k at mu = 0: the zero
    rows of F (zero diagonal entries of A, as for a user whose channel is
    zero), and with n > m the n - m smallest eigenvalues, which are null
    by shape and set to 0. A rank deficiency that neither shows is left to
    rounding, as the m x m search left the rounded null space of F^H F:
    its eigenvalues read as weak directions.

    mu0 (optional, broadcasting to the leading axes) warm-starts the search
    from previous multipliers, for callers whose root moves little between
    calls. Each boundary entry starts from mu0 clipped into the bracket. A
    start above the root (p < P there) takes one Newton step on the same
    concave function, floored at the bracket's lower end: concavity puts
    the tangent above the function, so that step lands at or below the
    root. The monotone rise then runs unchanged, so the result is again
    the smallest mu meeting the budget. mu0 = 0 starts where no mu0 does,
    bit for bit; interior entries return 0 whatever their mu0.

    p is evaluated once per Newton point. p(0) and p at the warm start come
    from one evaluation on the two stacked multiplier arrays, and the budget
    residual is read from the last pass of the rise, which moves no entry
    and so has evaluated p at the returned mu. A search costs one
    evaluation plus one per pass. No evaluation masks: a zero-power row is
    read at eigenvalue 1, where its term and slope are exactly +0 for mu >= 0.

    Raises
    ------
    ValueError
        If mu0 is negative, NaN or infinite, or does not broadcast to the
        leading axes.
    NumericalError
        If a boundary power misses the budget by more than 1e-8 * budget.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    check_finite(a, "power_constrained_solve A")
    check_finite(b, "power_constrained_solve B")
    check_hermitian(a, "power_constrained_solve A")
    budget = np.asarray(budget, dtype=float)
    if (budget <= 0).any():
        raise ValueError(f"power budget must be positive, got {budget}")

    a = herm(a)
    eigvals, eigvecs = np.linalg.eigh(a)
    # PSD contract allows eigenvalues down to about -1e-9 * scale from rounding.
    eigvals = np.maximum(eigvals, 0.0)
    if gram_cols is not None:
        b = np.where(a.diagonal(axis1=-2, axis2=-1)[..., None] != 0.0, b, 0.0)
    bt = eigvecs.conj().swapaxes(-1, -2) @ b
    row_power = (np.abs(bt) ** 2).sum(axis=-1)
    if gram_cols is not None:
        n_null = a.shape[-1] - gram_cols
        if n_null > 0:  # eigh sorts ascending: the null space comes first
            eigvals[..., :n_null] = 0.0
            bt[..., :n_null, :] = 0.0
        row_power = eigvals * row_power
    eig_safe = np.where(row_power > 0.0, eigvals, 1.0)  # zero-power rows read 1

    def power(mu):
        # p(mu) and -p'(mu) / 2
        denom = eig_safe + mu[..., None]
        terms = row_power / denom**2
        return np.add.reduce(terms, axis=-1), np.add.reduce(terms / denom, axis=-1)

    def newton(mu):
        # p(mu) and the Newton iterate from mu on 1/sqrt(p) - 1/sqrt(P)
        p, slope = power(mu)
        return p, mu + p * (np.sqrt(p / budget) - 1.0) / slope

    # x/0 and 0/0 arise only where p(0) = inf or B = 0, in steps the search discards.
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = (np.sqrt(row_power / budget[..., None]) - eigvals).max(axis=-1)
        hi = np.sqrt(row_power.sum(axis=-1) / budget)
        floor = np.maximum(lo, 0.0)
        if mu0 is None:
            p0 = power(np.zeros(()))[0]
            mu = floor
        else:
            mu0 = np.asarray(mu0, dtype=float)
            if mu0.shape != floor.shape:
                try:
                    mu0 = np.broadcast_to(mu0, floor.shape)
                except ValueError as exc:
                    raise ValueError(
                        f"mu0 shape {mu0.shape} does not broadcast to {floor.shape}"
                    ) from exc
            if not (np.isfinite(mu0) & (mu0 >= 0.0)).all():
                raise ValueError("mu0 must be finite and non-negative")
            mu = np.minimum(np.maximum(mu0, floor), hi)
            (p0, p), (_, step) = newton(np.array([np.zeros_like(mu), mu]))
            mu = np.where(p < budget, np.maximum(step, floor), mu)
        moving = p0 > budget
        mu = np.where(moving, mu, 0.0)
        boundary = moving.copy()
        p = budget  # the residual stays 0 when no entry is on the boundary
        while moving.any():
            p, step = newton(mu)
            step = np.minimum(step, hi)
            moving &= step > mu
            mu = np.where(moving, step, mu)
        # The last pass moved no entry, so p is the power at the returned mu.
        residual = np.where(boundary, np.abs(p - budget), 0.0)
    if (residual > POWER_RTOL * budget).any():
        raise NumericalError(
            f"power_constrained_solve: residual {np.max(residual / budget):.3e} exceeds "
            f"{POWER_RTOL:g} * budget"
        )
    denom = eigvals + mu[..., None]
    x = eigvecs @ (bt / np.where(denom > 0.0, denom, 1.0)[..., None])
    return x, mu
