"""Test oracles of the offline optimizer: the per-sample tile statistics and
the gradient identity check, and a reference form of the mu search.

The product path (`irs_opt._tile_factors` once per sweep, then
`irs_opt._tile_statistics` per tile) forms each tile's averaged quadratic
(M_m, u_m) as one Gram product and one GEMV over a face-splitting stack of
all samples, in the whitened stream coordinates of the MSE weights. The
forms here build the same quadratic one sample, one user pair and one tile
at a time from the unwhitened shorthand factors A, C, D and F, so the tests
can check the batched kernels against an independent derivation.
`verify_theorem1` checks the closed-form beam gradient against finite
differences of the averaged weighted sum-rate. `weighted_mse_objective`
forms the WMMSE objective from the MSE matrices E, and `whitened_residual`
builds the whitened residual of `wmmse.update_precoders` block by block at
any precoders, the references of the residual form that both solvers read
their objective from.
`reference_power_constrained_solve` keeps an earlier form of the mu
search, which the current one must match bit for bit. No optimize,
evaluate, sweep or array-factor run uses them, so they live beside the
tests that import them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from irsmimo import channel as channel_mod
from irsmimo import numerics, wmmse
from irsmimo.irs_opt import (
    _mean_sum_rate,
    _precoder_rows,
    _tile_factors,
    _tile_statistics,
    _tile_workspace,
)
from irsmimo.numerics import NumericalError, check_finite, check_hermitian, herm


@dataclass(frozen=True)
class QuadraticStats:
    """Monte-Carlo averaged per-tile quadratic statistics."""

    m_bar: np.ndarray  # (K, P, P)
    u_bar: np.ndarray  # (K, P)
    n_samples: int


# ---------------------------------------------------------------------------
# Quadratic-form algebra (single-sample reference forms)


def build_linear_factors(
    g_i: np.ndarray,
    v: np.ndarray,
    hbar_i: np.ndarray,
    s: np.ndarray,
    t_i: np.ndarray,
    beams: np.ndarray,
    m: int,
    j: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shorthand factors of the tile-m, stream-j term of G_i^H H_i V_j.

    A = G_i^H T_im (L x P), C = S_m V_j (P x L),
    D = C (G_i^H Hbar_i V_j)^H, and F = C (sum_{k != m} A_ik diag(b_k) C_kj)^H
    collect the direct-channel and other-tile cross couplings.
    """
    a = g_i.conj().T @ t_i[m]
    c = s[m] @ v[j]
    d = c @ (g_i.conj().T @ hbar_i @ v[j]).conj().T
    cross = np.zeros((g_i.shape[1], v[j].shape[1]), dtype=complex)
    for k in range(s.shape[0]):
        if k == m:
            continue
        cross += (g_i.conj().T @ t_i[k]) @ (beams[k][:, None] * (s[k] @ v[j]))
    f = c @ cross.conj().T
    return a, c, d, f


def q_map(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Compact row-block form Q (L x P*L) with block m equal to Q1 * Q2[:, m]^T,
    so that Q1 diag(b) Q2 = q_map(Q1, Q2) @ gamma_expand(b)."""
    l_rows, p = q1.shape
    p2, l_cols = q2.shape
    if p2 != p:
        raise ValueError("q_map: inner dimensions do not match")
    # blocks[l, m, p] = Q1[l, p] * Q2[p, m]
    blocks = q1[:, None, :] * q2.T[None, :, :]
    return blocks.reshape(l_rows, l_cols * p)


def gamma_expand(b: np.ndarray, l: int) -> np.ndarray:
    """Sparse companion of q_map: Gamma (P*L x L) whose column m carries b in
    rows m*P .. (m+1)*P - 1, so Q1 diag(b) Q2 = q_map(Q1, Q2) @ gamma_expand(b, L)."""
    b = np.asarray(b, dtype=complex)
    return np.kron(np.eye(l, dtype=complex), b[:, None])


def accumulate_quadratic(
    g: np.ndarray,
    w: np.ndarray,
    v: np.ndarray,
    hbar: np.ndarray,
    s: np.ndarray,
    t: np.ndarray,
    beams: np.ndarray,
    m: int,
    alpha: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-sample quadratic statistics (M_m, u_m) of tile m.

    The per-sample weighted MSE sum_i alpha_i tr(W_i E_i), as a function of
    b_m with everything else fixed, equals b^H M b - 2 Re(u^H b) + const with

        M = sum_i alpha_i (A_im^H W_i A_im) had (sum_j C_mj C_mj^H)^T
        u = sum_i alpha_i diagvec(A_im^H W_i (C_mi^H - sum_j (D_imj + F_imj)^H))

    (had = Hadamard product; diagvec = main diagonal of the matrix product).
    M is Hermitian PSD as a Hadamard product of PSD factors.
    """
    n_u, _, _ = hbar.shape
    p = s.shape[1]
    phi = np.zeros((p, p), dtype=complex)
    psi = np.zeros((p, p), dtype=complex)
    u = np.zeros(p, dtype=complex)
    for i in range(n_u):
        a_im = g[i].conj().T @ t[i, m]
        phi += alpha[i] * (a_im.conj().T @ w[i] @ a_im)
        inner = (s[m] @ v[i]).conj().T  # C_mi^H
        for j in range(n_u):
            _, c, d, f = build_linear_factors(g[i], v, hbar[i], s, t[i], beams, m, j)
            if i == 0:
                psi += c @ c.conj().T
            inner = inner - (d + f).conj().T
        u += alpha[i] * np.einsum("pl,lq,qp->p", a_im.conj().T, w[i], inner)
    m_mat = herm(phi * psi.T)
    eigs = np.linalg.eigvalsh(m_mat)
    scale = max(float(eigs[-1]), 0.0)
    if eigs[0] < -1e-9 * max(scale, 1e-300):
        raise NumericalError(f"accumulate_quadratic: M not PSD (lambda_min = {eigs[0]:.3e})")
    return m_mat, u


def mc_expectation(m_samples: np.ndarray, u_samples: np.ndarray) -> QuadraticStats:
    """Average per-sample statistics into QuadraticStats with numpy's mean
    over the samples. Validates the Hermitian/PSD contract per tile."""
    m_samples = np.asarray(m_samples)
    u_samples = np.asarray(u_samples)
    if m_samples.ndim == 3:  # single tile: (N_s, P, P)
        m_samples = m_samples[:, None]
        u_samples = u_samples[:, None]
    m_bar = np.mean(m_samples, axis=0)
    u_bar = np.mean(u_samples, axis=0)
    for k in range(m_bar.shape[0]):
        dev = np.linalg.norm(m_bar[k] - m_bar[k].conj().T)
        if dev > 1e-10 * max(np.linalg.norm(m_bar[k]), 1e-300):
            raise NumericalError(f"mc_expectation: tile {k} average is not Hermitian")
        eigs = np.linalg.eigvalsh(herm(m_bar[k]))
        if eigs[0] < -1e-9 * max(float(eigs[-1]), 1e-300):
            raise NumericalError(
                f"mc_expectation: tile {k} average not PSD (lambda_min = {eigs[0]:.3e})"
            )
    return QuadraticStats(m_bar=m_bar, u_bar=u_bar, n_samples=m_samples.shape[0])


def frozen_weighted_mse(
    hbar: np.ndarray,
    s: np.ndarray,
    t: np.ndarray,
    beams: np.ndarray,
    g: np.ndarray,
    w: np.ndarray,
    v: np.ndarray,
    sigma2: float,
    alpha: np.ndarray,
) -> float:
    """mean_n sum_i alpha_i tr(W_i E_i) as a function of the beams, with the
    digital variables frozen. Reference evaluator for the gradient oracles."""
    h = channel_mod.composite_channel(hbar, s, t, beams)
    e = wmmse.mse_matrices(wmmse.pair_products(h, v), g, sigma2)
    tr_we = np.real(np.einsum("nilk,nikl->ni", w, e))
    return float(np.mean(np.einsum("i,ni->n", alpha, tr_we)))


def weighted_mse_objective(
    hv: np.ndarray,
    g: np.ndarray,
    w: np.ndarray,
    w_chol: np.ndarray,
    alpha: np.ndarray,
    sigma2: float,
) -> np.ndarray:
    """Objective sum_i alpha_i { tr(W_i E_i) - log det(W_i) }, one value per
    channel set (shape (...)), from the pair products hv = `pair_products`(H, V)
    and the weights with their Cholesky factors, as `update_weights` returns
    them; E from `wmmse.mse_matrices` and log det W_i from the factor."""
    e = wmmse.mse_matrices(hv, g, sigma2)
    tr_we = np.einsum("...ilk,...ikl->...i", w, e).real
    return np.einsum("i,...i->...", alpha, tr_we - numerics.logdet_chol(w_chol))


def whitened_residual(
    h: np.ndarray,
    g: np.ndarray,
    w_chol: np.ndarray,
    alpha: np.ndarray,
    v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The whitened residual res (..., N_u*L, N_u*L) and receivers Rg
    (..., N_u, L, L) of `wmmse.update_precoders`, at any precoders v
    (..., N_u, M, L), built one channel set and one block at a time from
    their definitions: Rg_i = sqrt(alpha_i) R_i^H G_i^H with W_i = R_i R_i^H,
    and block (i, j) of res is delta_ij sqrt(alpha_i) R_i^H - Rg_i H_i V_j."""
    *lead, n_u, l_ant, _ = h.shape
    res = np.empty((*lead, n_u * l_ant, n_u * l_ant), dtype=complex)
    rg = np.empty((*lead, n_u, l_ant, l_ant), dtype=complex)
    for n in np.ndindex(*lead):
        for i in range(n_u):
            rh = np.sqrt(alpha[i]) * w_chol[n][i].conj().T
            rg[n][i] = rh @ g[n][i].conj().T
            for j in range(n_u):
                block = -(rg[n][i] @ h[n][i]) @ v[n][j]
                if i == j:
                    block += rh
                res[n][i * l_ant : (i + 1) * l_ant, j * l_ant : (j + 1) * l_ant] = block
    return res, rg


def receivers_and_weights(
    hbar: np.ndarray,
    s: np.ndarray,
    t: np.ndarray,
    beams: np.ndarray,
    v: np.ndarray,
    sigma2: float,
) -> tuple[np.ndarray, np.ndarray]:
    """MMSE receivers and W = E^-1 for the sample stack at the given beams."""
    hv = wmmse.pair_products(channel_mod.composite_channel(hbar, s, t, beams), v)
    g = wmmse.update_receivers(hv, sigma2)
    w, _ = wmmse.update_weights(wmmse.mse_matrices(hv, g, sigma2))
    return g, w


# ---------------------------------------------------------------------------
# Stationarity cross-check


def verify_theorem1(
    hbar: np.ndarray,
    s: np.ndarray,
    t: np.ndarray,
    beams: np.ndarray,
    v: np.ndarray,
    sigma2: float,
    alpha=None,
    fd_step: float = 1e-6,
    stale_w: np.ndarray | None = None,
) -> dict:
    """Compare the closed-form beam gradient of the averaged weighted-MSE
    objective against finite differences of the negated averaged weighted
    sum-rate.

    With MMSE receivers and W = E^-1 at the evaluation point the two
    gradients coincide; passing stale_w (weights from a different beam set)
    breaks the premise and the deviation becomes material.

    Returns a report dict with the per-tile and maximum relative deviations.
    """
    hbar = np.asarray(hbar, dtype=complex)
    s = np.asarray(s, dtype=complex)
    t = np.asarray(t, dtype=complex)
    beams = np.asarray(beams, dtype=complex)
    n_u = hbar.shape[1]
    k_tiles, p_elem, _ = s.shape
    alpha = np.ones(n_u) if alpha is None else np.broadcast_to(np.asarray(alpha, float), (n_u,)).copy()

    g, w = receivers_and_weights(hbar, s, t, beams, v, sigma2)
    if stale_w is not None:
        w = stale_w

    h = channel_mod.composite_channel(hbar, s, t, beams)
    res, rg = whitened_residual(h, g, np.linalg.cholesky(w), alpha, v)
    t_fold = channel_mod.fold_tiles(t)
    ws = _tile_workspace(t_fold.shape, p_elem)
    _tile_factors(rg, t_fold, ws)
    v_rows = _precoder_rows(v)
    grad_closed = np.zeros((k_tiles, p_elem), dtype=complex)
    for m in range(k_tiles):
        m_bar, u_bar, _ = _tile_statistics(ws, m, v_rows, s[m], res, beams[m])
        grad_closed[m] = 2.0 * (m_bar @ beams[m] - u_bar)

    def theta2(b: np.ndarray) -> float:
        hv = wmmse.pair_products(channel_mod.composite_channel(hbar, s, t, b), v)
        return -_mean_sum_rate(hv, sigma2, alpha)

    grad_fd = np.zeros((k_tiles, p_elem), dtype=complex)
    for m in range(k_tiles):
        for p in range(p_elem):
            for direction in (1.0, 1.0j):
                bp = beams.copy()
                bp[m, p] += fd_step * direction
                bm = beams.copy()
                bm[m, p] -= fd_step * direction
                slope = (theta2(bp) - theta2(bm)) / (2.0 * fd_step)
                grad_fd[m, p] += slope * direction

    per_tile = np.array(
        [
            np.linalg.norm(grad_closed[m] - grad_fd[m])
            / max(np.linalg.norm(grad_fd[m]), 1e-300)
            for m in range(k_tiles)
        ]
    )
    return {
        "max_rel_deviation": float(per_tile.max()),
        "per_tile_rel_deviation": per_tile.tolist(),
        "fd_step": fd_step,
        "stale_weights": stale_w is not None,
    }


# ---------------------------------------------------------------------------
# Reference mu search


def reference_power_constrained_solve(
    a: np.ndarray, b: np.ndarray, budget, mu0=None, *, gram_cols: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The mu search as it stood before it skipped re-symmetrizing an exactly
    Hermitian A and reused the warm start's evaluation in the first pass of
    the rise: `numerics.power_constrained_solve` must return the same bits."""
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
    if (residual > numerics.POWER_RTOL * budget).any():
        raise NumericalError(
            f"power_constrained_solve: residual {np.max(residual / budget):.3e} exceeds "
            f"{numerics.POWER_RTOL:g} * budget"
        )
    denom = eigvals + mu[..., None]
    x = eigvecs @ (bt / np.where(denom > 0.0, denom, 1.0)[..., None])
    return x, mu
