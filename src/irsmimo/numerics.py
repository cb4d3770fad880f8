"""Dense complex linear-algebra kernels shared by every other module.

All routines work on complex double-precision arrays, validate finiteness at
the call boundary, and symmetrize a Hermitian input that is not exactly equal
to its conjugate transpose before factorizing (the Monte-Carlo accumulation
order upstream breaks exact symmetry at the last ulp).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NumericalError",
    "herm",
    "check_finite",
    "check_hermitian",
    "logdet_hpd",
    "logdet_chol",
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


def check_hermitian(a: np.ndarray, name: str = "matrix", rtol: float = HERMITIAN_RTOL) -> bool:
    """Raise ValueError if A, or any matrix of a stack (..., n, n), deviates
    from its conjugate transpose by more than rtol (relative). An exactly
    Hermitian input, as every `herm` output is, returns True before the
    norms; an input within the tolerance returns False."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    a_h = a.conj().swapaxes(-1, -2)
    if (a == a_h).all():
        return True
    scale = np.maximum(np.linalg.norm(a, axis=(-2, -1)), 1e-300)
    dev = np.linalg.norm(a - a_h, axis=(-2, -1))
    if (dev > rtol * scale).any():
        i = np.argmax(dev / scale)
        raise ValueError(
            f"{name} is not Hermitian: ||A - A^H|| = {dev.flat[i]:.3e}, ||A|| = {scale.flat[i]:.3e}"
        )
    return False


def logdet_hpd(mats: np.ndarray) -> np.ndarray:
    """log det of a Hermitian positive-definite matrix, or of each matrix of
    a stack (..., n, n), in nats, from the Cholesky factor of the symmetrized
    input. Raises NumericalError if a matrix is not positive definite."""
    try:
        chol = np.linalg.cholesky(herm(mats))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"batched log det: matrix not positive definite ({exc})") from exc
    return logdet_chol(chol)


def logdet_chol(chol: np.ndarray) -> np.ndarray:
    """log det(R R^H) = 2 sum_k log R_kk in nats, from a Cholesky factor R
    or a stack (..., n, n) of them, for callers that keep the factor of a
    matrix they also solve with."""
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
    zero; B is masked only when A has one), and with n > m the n - m
    smallest eigenvalues, which are null by shape and set to 0. A rank
    deficiency that neither shows is left to rounding, as the m x m search
    left the rounded null space of F^H F: its eigenvalues read as weak
    directions.

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
    from one evaluation on the two stacked multiplier arrays. When no
    boundary entry starts above its root the first pass of the rise is at
    that warm start, so it reads that evaluation instead of repeating it.
    The budget residual is read from the last pass of the rise, which moves
    no entry and so has evaluated p at the returned mu. A cold search costs
    one evaluation plus one per pass, a warm one a pass less when it reuses.
    No evaluation masks: a zero-power row is read at eigenvalue 1, where its
    term and slope are exactly +0 for mu >= 0.

    One eigensystem, A with every leading axis of size 1, runs on Python
    floats read by one `.tolist()` each of the eigenvalues, the row powers,
    the budgets and mu0: the mu0 check, and for each right-hand-side block
    its safe eigenvalues, search (bracket, p(0), warm start, Newton rise and
    residual check) and the denominators lam_k + mu of the final read. Two
    callers pass that shape: the tile beam update (A (n, n), one column, a
    scalar budget) and the online precoder step (A (1, n, n) shared by N_u
    blocks and budgets). There a pass of the stacked rise is about
    seventeen numpy calls on a few rows, each costing about a microsecond
    of dispatch, more than its arithmetic; the float pass is one loop that
    builds the terms and slopes. Counting each array method and index, a
    warm online call makes 41 numpy calls, 25 of them before the search
    (input checks, eigh, the zero-row test, eigenbasis transform and row
    powers), and a tile beam call 35. Stacks of eigensystems (the offline
    precoder step, one per sample) keep the vectorized rise. Both paths
    return the same bits: each value takes the same IEEE operations in the
    same order (d * d for the square, math.sqrt, comparisons in place of
    np.where, np.maximum and np.minimum that give their values wherever a
    NaN can reach them), and `_add_reduce` sums in the order of
    np.add.reduce, which Python's `sum` does not. A pass whose smallest
    denominator squared or slope sum is 0 runs in numpy, so x/0 gives inf
    or NaN as in the stacked rise instead of raising ZeroDivisionError.

    An A equal to its conjugate transpose is factorized as given: LAPACK
    reads one triangle and the real part of the diagonal, so `herm` would
    change no value it reads. An A Hermitian only to the tolerance of
    `check_hermitian` is symmetrized first.

    Raises
    ------
    ValueError
        If A is not square or not Hermitian to the tolerance, if a budget is
        not positive (zero, negative or NaN), or if mu0 is negative, NaN or
        infinite, or does not broadcast to the leading axes.
    NumericalError
        If A or B has a non-finite entry, or if a boundary power misses the
        budget by more than 1e-8 * budget.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    check_finite(a, "power_constrained_solve A")
    check_finite(b, "power_constrained_solve B")
    if not check_hermitian(a, "power_constrained_solve A"):
        a = herm(a)
    budget = np.asarray(budget, dtype=float)
    if not (budget > 0).all():
        raise ValueError(f"power budget must be positive, got {budget}")

    eigvals, eigvecs = np.linalg.eigh(a)
    # PSD contract allows eigenvalues down to about -1e-9 * scale from rounding.
    eigvals = np.maximum(eigvals, 0.0)
    if gram_cols is not None:
        diag = a.diagonal(axis1=-2, axis2=-1)
        if not diag.all():  # a zero row of F: drop B's part on it
            b = np.where(diag[..., None] != 0.0, b, 0.0)
    bt = eigvecs.conj().swapaxes(-1, -2) @ b
    row_power = (np.abs(bt) ** 2).sum(axis=-1)
    if gram_cols is not None:
        n_null = a.shape[-1] - gram_cols
        if n_null > 0:  # eigh sorts ascending: the null space comes first
            eigvals[..., :n_null] = 0.0
            bt[..., :n_null, :] = 0.0
        row_power = eigvals * row_power

    # Each evaluation forms the terms r_k / (lam_k + mu)^2, sums them to p(mu)
    # and the terms over (lam_k + mu) to -p'(mu) / 2, and takes the Newton
    # iterate mu + p (sqrt(p / P) - 1) / (-p'(mu) / 2) on 1/sqrt(p) - 1/sqrt(P).
    # x/0 and 0/0 arise only where p(0) = inf or B = 0, in steps the search discards.
    if math.prod(a.shape[:-2]) == 1:
        mu, denom = _float_search(eigvals.ravel(), row_power, budget, mu0)
    else:
        mu = _stacked_search(eigvals, row_power, budget, mu0)
        denom = eigvals + mu[..., None]
        denom = np.where(denom > 0.0, denom, 1.0)
    return eigvecs @ (bt / denom[..., None]), mu


def _stacked_search(eigvals, row_power, budget, mu0):
    """The multipliers of `power_constrained_solve` for a stack of
    eigensystems: every entry in one vectorized rise."""
    eig_safe = np.where(row_power > 0.0, eigvals, 1.0)  # zero-power rows read 1
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = (np.sqrt(row_power / budget[..., None]) - eigvals).max(axis=-1)
        hi = np.sqrt(row_power.sum(axis=-1) / budget)
        floor = np.maximum(lo, 0.0)
        warm = None  # (p, step) at mu, when the warm start evaluated them there
        if mu0 is None:
            p0 = np.add.reduce(row_power / eig_safe**2, axis=-1)
            moving = p0 > budget
            mu = floor
        else:
            mu0 = np.reshape(_check_mu0(mu0, floor.shape), floor.shape)
            mu, p0, p, step = _warm_start(mu0, floor, hi, eig_safe, row_power, budget)
            moving = p0 > budget
            above = p < budget
            if (above & moving).any():
                mu = np.where(above, np.maximum(step, floor), mu)
            else:
                warm = p, step
        mu = np.where(moving, mu, 0.0)
        boundary = moving.copy()
        p = budget  # the residual stays 0 when no entry is on the boundary
        while moving.any():
            if warm is None:
                denom = eig_safe + mu[..., None]
                terms = row_power / denom**2
                p = np.add.reduce(terms, axis=-1)
                step = mu + p * (np.sqrt(p / budget) - 1.0) / np.add.reduce(
                    terms / denom, axis=-1
                )
            else:
                # Boundary entries sit where the warm start evaluated them;
                # interior ones are not moving, so what this pass reads for
                # them is discarded.
                (p, step), warm = warm, None
            step = np.minimum(step, hi)
            moving &= step > mu
            mu = np.where(moving, step, mu)
        # The last pass moved no entry, so p is the power at the returned mu.
        residual = np.where(boundary, np.abs(p - budget), 0.0)
    if (residual > POWER_RTOL * budget).any():
        raise _missed_budget(np.max(residual / budget))
    return mu


def _float_search(eigvals, row_power, budget, mu0):
    """The multipliers of `power_constrained_solve` for one eigensystem
    (eigvals (n,)) shared by every right-hand-side block of row_power
    (..., n), and the denominators lam_k + mu of its final read (1 where
    that sum is not positive): each block's search on Python floats, bit
    for bit, from one `.tolist()` of the rows."""
    n = eigvals.size
    lead = row_power.shape[:-1]
    if budget.shape != lead:
        lead = np.broadcast_shapes(lead, budget.shape)
        row_power = np.broadcast_to(row_power, (*lead, n))
        budget = np.broadcast_to(budget, lead)
    budgets = budget.ravel().tolist()
    starts = [None] * len(budgets) if mu0 is None else _check_mu0(mu0, lead)
    lam = eigvals.tolist()
    mus = []
    denoms = []
    missed = []
    for rows, p_max, start in zip(row_power.reshape(-1, n).tolist(), budgets, starts):
        mu, residual = _block_search(lam, rows, p_max, start)
        mus.append(mu)
        denoms.append([d if (d := x + mu) > 0.0 else 1.0 for x in lam])
        if residual > POWER_RTOL * p_max:
            missed.append(residual / p_max)
    if missed:
        raise _missed_budget(max(missed))
    return np.array(mus).reshape(lead), np.array(denoms).reshape(*lead, n)


def _block_search(lam, rows, budget, mu0):
    """(mu, budget residual) of one block: eigenvalues lam and row powers
    rows as lists of floats, budget and mu0 (or None) as floats. Each value
    takes the operations of `_stacked_search` in the same order, and a
    comparison stands in for each np.where, np.maximum and np.minimum: a
    block with a NaN row power has p(0) NaN and a block with an infinite
    budget has p(0) <= budget, so neither moves, and a moving block has no
    NaN bracket end."""
    eig = [x if r > 0.0 else 1.0 for x, r in zip(lam, rows)]  # zero-power rows read 1
    emin = min(eig)
    if emin * emin > 0.0:
        p0 = _add_reduce([r / (e * e) for e, r in zip(eig, rows)])
    else:  # power on a zero eigenvalue: r / 0 = inf there, as in numpy
        p0 = _add_reduce([r / dd if (dd := e * e) else math.inf for e, r in zip(eig, rows)])
    if not p0 > budget:
        return 0.0, 0.0
    lo = max([math.sqrt(r / budget) - x for r, x in zip(rows, lam)])
    hi = math.sqrt(_add_reduce(rows) / budget)
    floor = lo if lo > 0.0 else 0.0
    warm = None  # (p, step) at mu, when the warm start evaluated them there
    if mu0 is None:
        mu = floor
    else:
        mu = mu0 if mu0 >= floor else floor
        if mu > hi:
            mu = hi
        p, step = _newton_pass(eig, emin, rows, mu, budget)
        if p < budget:
            mu = step if not step < floor else floor  # a NaN step stays, as in np.maximum
        else:
            warm = p, step
    while True:
        if warm is None:
            p, step = _newton_pass(eig, emin, rows, mu, budget)
        else:
            (p, step), warm = warm, None
        if step > hi:
            step = hi
        if not step > mu:
            break
        mu = step
    # The last pass did not move mu, so p is the power at the returned mu.
    return mu, abs(p - budget)


def _newton_pass(eig, emin, rows, mu, budget):
    """p(mu) and the Newton step from mu on Python floats. The smallest
    denominator is emin + mu, since rounding is monotone; when its square
    is 0 (a zero eigenvalue at mu = 0, or a denominator that underflows)
    or the slope sum is 0, `_numpy_pass` evaluates the pass instead, so
    x/0 gives numpy's inf or NaN and never raises ZeroDivisionError."""
    d = emin + mu
    if d * d > 0.0:
        terms = []
        slopes = []
        for e, r in zip(eig, rows):
            d = e + mu
            t = r / (d * d)
            terms.append(t)
            slopes.append(t / d)
        p = _add_reduce(terms)
        slope = _add_reduce(slopes)
        if slope != 0.0:
            return p, mu + p * (math.sqrt(p / budget) - 1.0) / slope
    return _numpy_pass(eig, rows, mu, budget)


def _numpy_pass(eig, rows, mu, budget):
    """The pass of `_newton_pass` on numpy arrays, for one whose
    denominator or slope sum is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = np.array(eig) + mu
        terms = np.array(rows) / denom**2
        p = np.add.reduce(terms)
        step = mu + p * (np.sqrt(p / budget) - 1.0) / np.add.reduce(terms / denom)
    return float(p), float(step)


def _add_reduce(xs: list[float]) -> float:
    """np.add.reduce of a list of floats, bit for bit: numpy's pairwise
    summation adds fewer than 8 terms left to right, up to 128 terms in
    eight interleaved accumulators, and more by halving at a multiple of 8,
    then adds the sum to its identity +0.0. Python's `sum` and `math.fsum`
    round differently."""
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return 0.0 + (_add_reduce(xs[:half]) + _add_reduce(xs[half:]))
    r0, r1, r2, r3, r4, r5, r6, r7 = xs[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        x0, x1, x2, x3, x4, x5, x6, x7 = xs[i : i + 8]
        r0 += x0
        r1 += x1
        r2 += x2
        r3 += x3
        r4 += x4
        r5 += x5
        r6 += x6
        r7 += x7
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for x in xs[end:]:
        total += x
    return 0.0 + total


def _check_mu0(mu0, shape: tuple[int, ...]) -> list[float]:
    """The entries of mu0 broadcast to the search's leading shape, as
    Python floats; raises ValueError if it does not broadcast or has an
    entry that is negative, NaN or infinite, where 0 <= m < inf fails."""
    mu0 = np.asarray(mu0, dtype=float)
    if mu0.shape != shape:
        try:
            mu0 = np.broadcast_to(mu0, shape)
        except ValueError as exc:
            raise ValueError(f"mu0 shape {mu0.shape} does not broadcast to {shape}") from exc
    starts = mu0.ravel().tolist()
    if not all(0.0 <= m < math.inf for m in starts):
        raise ValueError("mu0 must be finite and non-negative")
    return starts


def _warm_start(mu0, floor, hi, eig_safe, row_power, budget):
    """(mu, p(0), p(mu), Newton step from mu) for mu0 clipped into the
    bracket [floor, hi], from one evaluation on the two stacked multiplier
    arrays 0 and mu."""
    mu = np.minimum(np.maximum(mu0, floor), hi)
    mus = np.zeros((2, *mu.shape))
    mus[1] = mu
    denom = eig_safe + mus[..., None]
    terms = row_power / denom**2
    p0, p = np.add.reduce(terms, axis=-1)
    step = mu + p * (np.sqrt(p / budget) - 1.0) / np.add.reduce(terms[1] / denom[1], axis=-1)
    return mu, p0, p, step


def _missed_budget(worst) -> NumericalError:
    return NumericalError(
        f"power_constrained_solve: residual {worst:.3e} exceeds {POWER_RTOL:g} * budget"
    )
