"""Test oracles of the offline optimizer: the per-sample tile statistics and
the gradient identity check.

The product path (`irs_opt._tile_statistics`) forms each tile's averaged
quadratic (M_m, u_m) as batched products over the sample stack. The forms
here build the same quadratic one sample, one user pair and one tile at a
time from the shorthand factors A, C, D and F, so the tests can check the
batched kernels against an independent derivation. `verify_theorem1` checks
the closed-form beam gradient against finite differences of the averaged
weighted sum-rate. No optimize, evaluate, sweep or array-factor run uses
them, so they live beside the tests that import them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from irsmimo import channel as channel_mod
from irsmimo import wmmse
from irsmimo.irs_opt import _coupling, _tile_statistics, _tile_workspace, frozen_sum_rate
from irsmimo.numerics import NumericalError, herm, pairwise_mean


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
    """Average per-sample statistics into QuadraticStats.

    Uses the recursive-halving mean, so the reduction is order-independent
    and the mean over an even split equals the average of the half means
    bit-exactly. Validates the Hermitian/PSD contract per tile.
    """
    m_samples = np.asarray(m_samples)
    u_samples = np.asarray(u_samples)
    if m_samples.ndim == 3:  # single tile: (N_s, P, P)
        m_samples = m_samples[:, None]
        u_samples = u_samples[:, None]
    m_bar = pairwise_mean(m_samples)
    u_bar = pairwise_mean(u_samples)
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
    return float(pairwise_mean(np.einsum("i,ni->n", alpha, tr_we)))


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
    return g, wmmse.update_weights(wmmse.mse_matrices(hv, g, sigma2))


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

    ghv = _coupling(g, channel_mod.composite_channel(hbar, s, t, beams), v)
    ws = _tile_workspace(hbar.shape[0], p_elem)
    grad_closed = np.zeros((k_tiles, p_elem), dtype=complex)
    for m in range(k_tiles):
        m_bar, u_bar, _ = _tile_statistics(g, w, v, s, t, ghv, beams[m], m, alpha, ws)
        grad_closed[m] = 2.0 * (m_bar @ beams[m] - u_bar)

    def theta2(b: np.ndarray) -> float:
        hv = wmmse.pair_products(channel_mod.composite_channel(hbar, s, t, b), v)
        return -frozen_sum_rate(hv, sigma2, alpha)

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
