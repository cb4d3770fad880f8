"""Channel synthesis for one scenario sample.

Direct BS-UE links follow a clustered NLOS model (optionally with an LOS
component gated by the blockage indicator), IRS links are near-field LOS with
a per-element cosine-power cell pattern, and the composite downlink channel
embeds the analog beams as H_i(B) = Hbar_i + sum_k T_ik diag(b_k) S_k.

One LOS kernel, `_los_link`, broadcasts over leading axes, so the BS-IRS
stack S (K, P, M) and the IRS-UE stack T (N_u, K, L, P) are one call each.
One composite kernel, `composite_channel`, serves one realization and a
stack of realizations alike. `sample_channels` is the one path from a config
to channels: the offline training draws, the evaluation realizations and the
array-factor realization all come from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scenario as scenario_mod
from .numerics import NumericalError, check_finite
from .scenario import ArrayGeometry, ScenarioConfig, ScenarioSample

__all__ = [
    "ChannelSet",
    "pathloss_nlos_db",
    "cell_pattern",
    "direct_channel",
    "composite_channel",
    "build_channel_set",
    "sample_channels",
    "bs_irs_channels",
]

PATHLOSS_EXPONENTS = {"IO": 3.83, "SM": 3.21}


def pathloss_nlos_db(d, profile: str, pl0_db: float):
    """NLOS large-scale gain in dB: -PL0 - 10 n_e log10(d).

    The exponent n_e is 3.83 for the indoor-office profile and 3.21 for the
    shopping-mall profile. Distances below the 1 m reference are clamped to
    1 m.
    """
    if profile not in PATHLOSS_EXPONENTS:
        raise ValueError(f"unknown path-loss profile {profile!r}")
    d = np.asarray(d, dtype=float)
    clipped = np.maximum(d, 1.0)
    out = -pl0_db - 10.0 * PATHLOSS_EXPONENTS[profile] * np.log10(clipped)
    return float(out) if out.ndim == 0 else out


def cell_pattern(theta, q: float):
    """Normalized unit-cell power pattern: cos^q(theta) on [0, pi/2], else 0."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < -1e-12) or np.any(theta > np.pi + 1e-12):
        raise ValueError("cell_pattern: theta must lie in [0, pi]")
    out = np.where(theta < np.pi / 2.0, np.cos(np.minimum(theta, np.pi / 2.0)) ** q, 0.0)
    return float(out) if out.ndim == 0 else out


def _pairwise_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between rows of a (n,3) and rows of b (m,3) -> (n, m)."""
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)


def direct_channel(
    sample: ScenarioSample, geometry: ArrayGeometry, cfg: ScenarioConfig
) -> np.ndarray:
    """Direct BS-UE channel matrices Hbar, shape (N_u, L, M).

    Entry (n, m) of link i is
        x_d * beta_los(m, n) * exp(-j 2 pi |t_m - r_n| / lambda)
        + beta_nlos / (N_p N_c) * sum_ql alpha_ql
            * exp(-j 2 pi (|t_m - p_ql| + |r_n - p_ql|) / lambda)
    with beta_los = sqrt(Gt Gr) lambda / (4 pi |t_m - r_n|) per element pair
    and beta_nlos the profile path loss at the array-center distance.
    """
    lam = cfg.wavelength
    gt = 10.0 ** (cfg.channel.tx_gain_db / 10.0)
    gr = 10.0 ** (cfg.channel.rx_gain_db / 10.0)
    bs_pos = geometry.bs
    bs_center = np.array(cfg.bs.position, dtype=float)
    n_u = cfg.ue.count
    l_ant = cfg.ue.n_antennas
    m_ant = bs_pos.shape[0]
    n_c = cfg.channel.n_clusters
    n_p = cfg.channel.n_paths

    h = np.zeros((n_u, l_ant, m_ant), dtype=complex)
    for i in range(n_u):
        r_elems = sample.ue_elements[i]
        d_los = _pairwise_dist(r_elems, bs_pos)
        if np.any(d_los == 0.0):
            raise NumericalError("direct_channel: coincident BS and UE elements")
        if sample.x_d[i] != 0.0:
            beta_los = math.sqrt(gt * gr) * lam / (4.0 * np.pi * d_los)
            h[i] += sample.x_d[i] * beta_los * np.exp(-2j * np.pi * d_los / lam)
        if n_c > 0:
            d_center = np.linalg.norm(bs_center - sample.ue_centers[i])
            beta_nlos = 10.0 ** (
                pathloss_nlos_db(d_center, cfg.channel.profile, cfg.pl0_db()) / 20.0
            )
            pts = sample.path_points[i].reshape(-1, 3)
            alph = sample.fading[i].reshape(-1)
            d_t = _pairwise_dist(pts, bs_pos)  # (QP, M)
            d_r = _pairwise_dist(pts, r_elems)  # (QP, L)
            if np.any(d_t == 0.0) or np.any(d_r == 0.0):
                raise NumericalError("direct_channel: path point coincides with an element")
            e_t = np.exp(-2j * np.pi * d_t / lam)
            e_r = np.exp(-2j * np.pi * d_r / lam)
            h[i] += (beta_nlos / (n_p * n_c)) * np.einsum("p,pn,pm->nm", alph, e_r, e_t)
    check_finite(h, "direct channel")
    return h


def _los_link(
    elems: np.ndarray, normal: np.ndarray, other: np.ndarray, gain: float, cfg: ScenarioConfig
) -> np.ndarray:
    """Near-field LOS blocks between IRS elements (rows) and an array (cols).

    elems (..., P, 3), normal (..., 3) and other (..., Q, 3) broadcast over
    their leading axes; the result is (..., P, Q). Per element pair:
    sqrt(gain * Gc * F(theta)) * lambda / (4 pi d) * e^{-j2pi d/lambda},
    with theta the angle at the IRS element between the outgoing direction and
    the wall normal (pattern null past grazing).
    """
    lam = cfg.wavelength
    gc = cfg.cell_gain()
    diff = other[..., None, :, :] - elems[..., :, None, :]
    d = np.linalg.norm(diff, axis=-1)
    if np.any(d == 0.0):
        raise NumericalError("IRS link: coincident elements")
    cos_t = (diff @ normal[..., None, :, None])[..., 0] / d
    theta = np.arccos(np.clip(cos_t, -1.0, 1.0))
    f = cell_pattern(theta, cfg.channel.cell_q)
    return np.sqrt(gain * gc * f) * lam / (4.0 * np.pi * d) * np.exp(-2j * np.pi * d / lam)


def bs_irs_channels(geometry: ArrayGeometry, cfg: ScenarioConfig) -> np.ndarray:
    """BS to IRS-tile channels S_k stacked, shape (K, P, M); sample-independent,
    compute once."""
    gt = 10.0 ** (cfg.channel.tx_gain_db / 10.0)
    return _los_link(geometry.tiles, geometry.tile_normals, geometry.bs, gt, cfg)


@dataclass(frozen=True)
class ChannelSet:
    """Per-sample channel matrices: direct links, BS-IRS tiles, IRS-UE tiles."""

    hbar: np.ndarray  # (N_u, L, M)
    s: np.ndarray  # (K, P, M)
    t: np.ndarray  # (N_u, K, L, P)


def build_channel_set(
    sample: ScenarioSample, geometry: ArrayGeometry, cfg: ScenarioConfig, s: np.ndarray
) -> ChannelSet:
    """Assemble the full ChannelSet for one sample around the BS-IRS stack
    s (K, P, M), which is sample-independent: every caller builds it once
    with `bs_irs_channels` and passes it to each sample."""
    # T_ik (N_u, K, L, P): the tile-to-UE blocks (N_u, K, P, L), transposed.
    gr = 10.0 ** (cfg.channel.rx_gain_db / 10.0)
    blocks = _los_link(
        geometry.tiles, geometry.tile_normals, sample.ue_elements[:, None], gr, cfg
    )
    t = np.swapaxes(blocks, -1, -2)
    hbar = direct_channel(sample, geometry, cfg)
    return ChannelSet(hbar=hbar, s=s, t=t)


def sample_channels(cfg: ScenarioConfig, namespace: int, indices) -> ChannelSet:
    """The channel sets of draws `indices` of stream `namespace`, stacked on a
    leading axis: hbar (n, N_u, L, M) and t (n, N_u, K, L, P) around the one
    shared S (K, P, M). Draws and synthesis go through the module names
    `scenario.draw_sample` and `build_channel_set`, one call per index."""
    geometry = scenario_mod.build_antenna_positions(cfg)
    s = bs_irs_channels(geometry, cfg)
    sets = [
        build_channel_set(scenario_mod.draw_sample(cfg, i, namespace), geometry, cfg, s=s)
        for i in indices
    ]
    return ChannelSet(
        hbar=np.array([cs.hbar for cs in sets]), s=s, t=np.array([cs.t for cs in sets])
    )


def composite_channel(
    hbar: np.ndarray, s: np.ndarray, t: np.ndarray, beams: np.ndarray
) -> np.ndarray:
    """Composite channels H_i(B) = Hbar_i + sum_k T_ik diag(b_k) S_k.

    hbar (..., N_u, L, M), s (K, P, M) and t (..., N_u, K, L, P) share any
    leading axes (one realization, or a stack of samples); the result has
    the shape of hbar. The tile sum is one matmul over the folded (K*P) axis.
    """
    beams = np.asarray(beams, dtype=complex)
    k_tiles, p_elem, _ = s.shape
    if beams.shape != (k_tiles, p_elem):
        raise ValueError(
            f"beam set shape {beams.shape} does not match channel tiling "
            f"(K={k_tiles}, P={p_elem})"
        )
    *lead, _, l_ant, _ = t.shape
    t_folded = np.swapaxes(t, -3, -2).reshape(*lead, l_ant, k_tiles * p_elem)
    return hbar + t_folded @ (beams[:, :, None] * s).reshape(k_tiles * p_elem, -1)

