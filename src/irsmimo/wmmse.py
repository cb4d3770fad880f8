"""Weighted-MMSE block updates for the digital beamformers, and the online solver.

For fixed per-user channels H_i (analog beams already embedded), the
weighted-MSE objective

    sum_i alpha_i { tr(W_i E_i) - log det(W_i) }

is minimized by alternating closed-form updates of the receive filters G,
the MSE weights W and the precoders V. Each block update is the exact
minimizer of the objective over its block.

The kernels work on channels shaped (..., N_u, L, M): with no leading axis
they serve one channel realization (the online solver), with a leading N_s
axis the frozen sample stack of the offline optimizer in `irs_opt`. Each
slice of a stack gets the same floating-point operations as that channel
set alone, so batching never changes a result.

The receivers, the MSE matrices, the objective and the rates read the
channels only through the user-pair products H_i V_j, so they take those
products from `pair_products` instead of (H, V). A caller forms them once
per precoder iterate and shares them: in the online solver the objective,
the next iteration's receivers and weights, and the final rates all use
one set. The precoder update takes the channels themselves.

`online_wmmse` runs the updates to convergence on one realization; its
objective trace is non-increasing, and a measured increase beyond 1e-9
raises. Rates are computed in nats internally and reported in bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .numerics import NumericalError, check_finite, herm, logdet_hpd, power_constrained_solve

__all__ = [
    "LinkVariables",
    "pair_products",
    "update_receivers",
    "mse_matrices",
    "update_weights",
    "update_precoders",
    "weighted_mse_objective",
    "user_rates",
    "initial_precoders",
    "online_wmmse",
]

MONOTONE_TOL = 1e-9


@dataclass
class LinkVariables:
    """Converged per-user digital variables and rates."""

    v: np.ndarray  # (N_u, M, L) precoders
    g: np.ndarray  # (N_u, L, L) receive filters
    w: np.ndarray  # (N_u, L, L) Hermitian PSD weights
    rates: np.ndarray  # (N_u,) per-user rates, bits/s/Hz
    # (N_u,) power multipliers from the last V update. Each is the smallest
    # one meeting its budget, even though every update's search starts from
    # the previous mu: a start above the root is first brought down to or
    # below it (see `numerics.power_constrained_solve`).
    mu: np.ndarray | None = None
    objective_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


@functools.lru_cache(maxsize=16)
def _eye(n: int) -> np.ndarray:
    """The complex identity of order n, read-only: every caller shares it."""
    eye = np.eye(n, dtype=complex)
    eye.setflags(write=False)
    return eye


@functools.lru_cache(maxsize=16)
def _user_index(n: int) -> np.ndarray:
    """The indices 0 .. n-1 that `_diag_pairs` reads, read-only and shared."""
    idx = np.arange(n)
    idx.setflags(write=False)
    return idx


def _diag_pairs(x: np.ndarray) -> np.ndarray:
    """The i == j entries of a (..., N_u, N_u, a, b) user-pair stack."""
    idx = _user_index(x.shape[-3])
    return x[..., idx, idx, :, :]


def pair_products(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """User-pair products H_i V_j, shaped (..., N_u, N_u, L, L) with the
    receiving user i before the precoded user j."""
    return np.einsum("...ilm,...jmc->...ijlc", h, v)


def update_receivers(hv: np.ndarray, sigma2: float) -> np.ndarray:
    """MMSE receive filters G_i = J_i^-1 H_i V_i with
    J_i = sum_j H_i V_j V_j^H H_i^H + sigma2 I (the sum includes j = i),
    from the pair products hv = `pair_products`(H, V)."""
    j_mat = sigma2 * _eye(hv.shape[-2]) + np.einsum(
        "...ijlc,...ijkc->...ilk", hv, hv.conj()
    )
    return np.linalg.solve(j_mat, _diag_pairs(hv))


def mse_matrices(hv: np.ndarray, g: np.ndarray, sigma2: float) -> np.ndarray:
    """Symbol MSE matrices E_i = (I - G_i^H H_i V_i)(.)^H
    + sum_{j != i} G_i^H H_i V_j (.)^H + sigma2 G_i^H G_i (Hermitian PSD),
    from the pair products hv = `pair_products`(H, V)."""
    gh = g.conj().swapaxes(-1, -2)
    cross = np.einsum("...ilk,...ijkc->...ijlc", gh, hv)  # G_i^H H_i V_j
    total = np.einsum("...ijlc,...ijkc->...ilk", cross, cross.conj())
    own = _diag_pairs(cross)
    e = total + _eye(hv.shape[-1]) - own - own.conj().swapaxes(-1, -2)
    e = e + sigma2 * np.einsum("...ilk,...ikc->...ilc", gh, g)
    return herm(e)


def update_weights(e: np.ndarray) -> np.ndarray:
    """MSE weights W_i = E_i^-1."""
    try:
        w = np.linalg.inv(e)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"update_weights: singular MSE matrix ({exc})") from exc
    check_finite(w, "weights")
    return herm(w)


def update_precoders(
    h: np.ndarray,
    g: np.ndarray,
    w: np.ndarray,
    alpha: np.ndarray,
    p_budget: np.ndarray,
    mu0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Precoders V_i = alpha_i (K + mu_i I)^-1 H_i^H G_i W_i, with
    K = sum_j alpha_j H_j^H G_j W_j G_j^H H_j and mu_i >= 0 the smallest
    multiplier meeting tr(V_i V_i^H) <= P_i (mu = 0 when already feasible).

    Returns V (..., N_u, M, L) and mu (..., N_u). One batched mu search
    covers the whole stack, with one eigendecomposition of K per channel set
    shared by its users. mu0 (..., N_u), typically the previous iterate's
    mu, warm-starts that search; the search first brings a start above
    the root down to or below it, so the multipliers are the same smallest
    ones to rounding."""
    hh = h.conj().swapaxes(-1, -2)
    gw = g @ w
    gwg = gw @ g.conj().swapaxes(-1, -2)
    k_mat = herm(np.einsum("j,...jmr->...mr", alpha, hh @ gwg @ h))
    rhs = alpha[:, None, None] * (hh @ gw)
    return power_constrained_solve(k_mat[..., None, :, :], rhs, p_budget, mu0=mu0)


def weighted_mse_objective(
    hv: np.ndarray,
    g: np.ndarray,
    w: np.ndarray,
    alpha: np.ndarray,
    sigma2: float,
) -> np.ndarray:
    """Objective sum_i alpha_i { tr(W_i E_i) - log det(W_i) }, one value per
    channel set (shape (...)), from the pair products hv = `pair_products`(H, V)."""
    e = mse_matrices(hv, g, sigma2)
    tr_we = np.einsum("...ilk,...ikl->...i", w, e).real
    return np.einsum("i,...i->...", alpha, tr_we - logdet_hpd(w))


def user_rates(hv: np.ndarray, sigma2: float) -> np.ndarray:
    """Achievable per-user rates in nats, shape (..., N_u):
    log det(I_L + V_i^H H_i^H Jbar_i^-1 H_i V_i), with Jbar_i the
    interference-plus-noise covariance sum_{j != i} H_i V_j V_j^H H_i^H + sigma2 I,
    from the pair products hv = `pair_products`(H, V).
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    total = np.einsum("...ijlc,...ijkc->...ilk", hv, hv.conj())
    own = _diag_pairs(hv)
    jbar = sigma2 * _eye(hv.shape[-2]) + total - np.einsum(
        "...ilc,...ikc->...ilk", own, own.conj()
    )
    inner = np.einsum("...ilc,...ilk->...ick", own.conj(), np.linalg.solve(jbar, own))
    return logdet_hpd(_eye(hv.shape[-1]) + inner)


def initial_precoders(h: np.ndarray, p_budget: np.ndarray) -> np.ndarray:
    """Full-power SVD initialization: V_i spans the L leading right singular
    vectors of H_i with equal per-stream power P_i / L."""
    l_ant = h.shape[-2]
    _, _, vh = np.linalg.svd(h)
    return vh.conj().swapaxes(-1, -2)[..., :l_ant] * np.sqrt(
        np.asarray(p_budget, dtype=float)[:, None, None] / l_ant
    )


def online_wmmse(
    h: np.ndarray,
    sigma2: float,
    p_budget,
    alpha=None,
    tol: float = 1e-6,
    max_iters: int = 500,
) -> LinkVariables:
    """Run the WMMSE block coordinate descent to convergence for fixed channels.

    Stops when the relative objective decrease falls below tol or max_iters is
    reached. A single final receiver/weight refresh at the final precoders
    precedes the rate computation, so the reported rates coincide with
    sum_i alpha_i log det(W_i) (rate-MMSE duality).

    Each precoder update warm-starts its mu search from the previous
    iteration's multipliers (zeros at the first, which is the cold start),
    because mu moves little between iterates. The warm start changes the
    Newton path only: the search still returns the smallest multiplier
    meeting each budget, so V agrees with a cold-started loop to rounding.

    The pair products H_i V_j are formed once per precoder iterate: the
    objective at the new precoders, the next iteration's receivers and
    weights, and at the end the final refresh and the rates share them.

    Raises NumericalError if the objective increases by more than 1e-9
    between iterations.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 3:
        raise ValueError(f"expected channels stacked as (N_u, L, M), got shape {h.shape}")
    check_finite(h, "channels")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    n_u = h.shape[0]
    p_budget = np.broadcast_to(np.asarray(p_budget, dtype=float), (n_u,)).copy()
    alpha = (
        np.ones(n_u) if alpha is None else np.broadcast_to(np.asarray(alpha, dtype=float), (n_u,)).copy()
    )
    v = initial_precoders(h, p_budget)
    hv = pair_products(h, v)

    trace: list[float] = []
    prev = np.inf
    mu = np.zeros(n_u)
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        g = update_receivers(hv, sigma2)
        w = update_weights(mse_matrices(hv, g, sigma2))
        v, mu = update_precoders(h, g, w, alpha, p_budget, mu0=mu)
        hv = pair_products(h, v)
        obj = float(weighted_mse_objective(hv, g, w, alpha, sigma2))
        if not np.isfinite(obj):
            raise NumericalError("online_wmmse: non-finite objective")
        if obj > prev + MONOTONE_TOL:
            raise NumericalError(
                f"online_wmmse: objective increased from {prev:.12e} to {obj:.12e}"
            )
        trace.append(obj)
        if np.isfinite(prev) and prev - obj <= tol * abs(prev):
            converged = True
            break
        prev = obj

    # Final refresh so rates and weights satisfy the duality identity.
    g = update_receivers(hv, sigma2)
    w = update_weights(mse_matrices(hv, g, sigma2))
    return LinkVariables(
        v=v,
        g=g,
        w=w,
        rates=user_rates(hv, sigma2) / np.log(2.0),
        mu=mu,
        objective_trace=trace,
        iterations=iterations,
        converged=converged,
    )
