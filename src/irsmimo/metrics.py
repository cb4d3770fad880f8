"""Evaluation quantities: average sum-rate, effective rank, array factors.

Evaluation draws fresh network realizations from the evaluation stream
namespace (never the training namespace), runs the online digital solver
with the analog beams frozen, and aggregates the per-user rates. The
reduction is deterministic: a fixed realization order and the
recursive-halving mean, so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import channel as channel_mod
from . import scenario as scenario_mod
from .numerics import NumericalError, check_finite, pairwise_mean
from .scenario import NAMESPACE_EVAL, ScenarioConfig
from .wmmse import LinkVariables, online_wmmse

__all__ = [
    "EvalResult",
    "effective_rank",
    "array_factor",
    "equivalent_array_factor",
    "default_direction_grid",
    "online_solve",
    "evaluate_average_sum_rate",
    "write_eval_csv",
    "write_array_factor_csv",
    "summary_dict",
    "write_summary_json",
]

EVAL_CSV_VERSION = 1
MAX_EXCLUDED_FRACTION = 0.01
DB_FLOOR = -300.0
# Realizations drawn, synthesized and solved per chunk of an evaluation,
# which bounds its memory whatever the realization count.
EVAL_CHUNK = 64


@dataclass
class EvalResult:
    """Aggregated evaluation of one beam set over independent realizations."""

    per_ue_rates: np.ndarray  # (n_ok, N_u) bits/s/Hz
    sum_rates: np.ndarray  # (n_ok,)
    eff_ranks: np.ndarray  # (n_ok, N_u)
    realization_ids: list[int]
    excluded_ids: list[int]
    mean_sum_rate: float
    stderr_sum_rate: float
    mean_eff_rank: float
    stderr_eff_rank: float
    config_hash: str
    beams_hash: str
    seed: int
    n_realizations: int
    failure_messages: list[str] = field(default_factory=list)
    # online solver telemetry per ok realization: iterations run, and whether
    # the stop rule was met (False means the solve hit max_online_iters)
    iterations: list[int] = field(default_factory=list)
    converged: list[bool] = field(default_factory=list)

    @property
    def n_excluded(self) -> int:
        return len(self.excluded_ids)

    @property
    def n_capped(self) -> int:
        return self.converged.count(False)


def effective_rank(h: np.ndarray) -> np.ndarray:
    """R = sum(sigma_i) / max(sigma_i) over the singular values of each
    matrix of a stack h (..., L, M), shaped (...); in [1, min(L, M)] for any
    nonzero matrix. Raises NumericalError for a non-finite matrix and
    ValueError for a zero one."""
    h = np.asarray(h, dtype=complex)
    check_finite(h, "effective_rank input")
    sv = np.linalg.svd(h, compute_uv=False)
    top = sv[..., 0]
    if np.any(top == 0.0):
        raise ValueError("effective_rank: zero matrix has no defined rank ratio")
    return np.sum(sv, axis=-1) / top


def array_factor(
    positions: np.ndarray,
    excitation: np.ndarray,
    wavelength: float,
    angles_deg: np.ndarray,
    normal: np.ndarray | None = None,
    q: float | None = None,
) -> np.ndarray:
    """Far-field power pattern of an excited element set over azimuth angles.

    AF(theta) = |sum_p e_p exp(j (2 pi / lambda) <pos_p, u(theta)>)|^2 with
    u(theta) the horizontal unit vector at azimuth theta; multiplied by the
    per-element power pattern F(theta) = cos^q of the angle from `normal`
    when both are given. Returns the linear pattern (not dB).
    """
    angles = np.asarray(angles_deg, dtype=float)
    if angles.size == 0:
        raise ValueError("array_factor: empty direction grid")
    positions = np.asarray(positions, dtype=float)
    excitation = np.asarray(excitation, dtype=complex)
    if positions.shape[0] != excitation.shape[0]:
        raise ValueError("array_factor: positions and excitation lengths differ")
    rad = np.deg2rad(angles)
    u = np.stack([np.cos(rad), np.sin(rad), np.zeros_like(rad)], axis=1)  # (A, 3)
    phase = (2.0 * np.pi / wavelength) * (u @ positions.T)  # (A, N)
    pattern = np.abs(np.exp(1j * phase) @ excitation) ** 2
    if normal is not None and q is not None:
        normal = np.asarray(normal, dtype=float)
        normal = normal / np.linalg.norm(normal)
        cos_t = np.clip(u @ normal, -1.0, 1.0)
        theta = np.arccos(cos_t)
        pattern = pattern * channel_mod.cell_pattern(theta, q)
    return pattern


def default_direction_grid() -> np.ndarray:
    """Azimuth sweep 0 to 360 degrees (exclusive) in 0.5 degree steps."""
    return np.arange(0.0, 360.0, 0.5)


def equivalent_array_factor(
    geometry: scenario_mod.ArrayGeometry,
    cfg: ScenarioConfig,
    beams: np.ndarray,
    v_col: np.ndarray,
    tile: int,
    s: np.ndarray,
    angles_deg: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Radiation pattern of the virtual array formed at IRS tile `tile`.

    The excitation combines the BS precoder column, the BS-to-tile channel
    S_k = s[tile] of the BS-IRS stack s (K, P, M) and the tile's beam:
    e = diag(b_k) S_k v. Gains are in dB, normalized to the grid maximum,
    floored at -300 dB. Invariant to a global phase rotation of b_k (only
    |.|^2 of the sum enters).
    """
    angles = default_direction_grid() if angles_deg is None else np.asarray(angles_deg, float)
    if angles.size == 0:
        raise ValueError("equivalent_array_factor: empty direction grid")
    e = np.asarray(beams)[tile] * (np.asarray(s)[tile] @ np.asarray(v_col, dtype=complex))
    pattern = array_factor(
        geometry.tiles[tile],
        e,
        cfg.wavelength,
        angles,
        normal=geometry.tile_normals[tile],
        q=cfg.channel.cell_q,
    )
    peak = float(np.max(pattern))
    if peak <= 0.0:
        raise ValueError("equivalent_array_factor: pattern is identically zero")
    with np.errstate(divide="ignore"):
        gain_db = 10.0 * np.log10(pattern / peak)
    return angles, np.maximum(gain_db, DB_FLOOR)


def online_solve(cfg: ScenarioConfig, h: np.ndarray) -> LinkVariables:
    """The online digital solve of composite channels h (N_u, L, M) under the
    config's noise power, power budgets, rate weights and stop rule."""
    return online_wmmse(
        h,
        cfg.noise_power_w(),
        cfg.power_budgets_w(),
        alpha=cfg.alpha(),
        tol=cfg.solver.tol_online,
        max_iters=cfg.solver.max_online_iters,
    )


def _mean_stderr(x: np.ndarray) -> tuple[float, float]:
    """The recursive-halving mean of x and its standard error (0 for one value)."""
    mean = float(pairwise_mean(x))
    n = len(x)
    if n < 2:
        return mean, 0.0
    return mean, float(np.sqrt(np.sum((x - mean) ** 2) / (n - 1)) / np.sqrt(n))


def evaluate_average_sum_rate(
    cfg: ScenarioConfig,
    beams: np.ndarray,
    n_realizations: int | None = None,
    beams_hash: str = "",
) -> EvalResult:
    """Monte-Carlo evaluation of fixed analog beams under the online solver.

    The realizations run in chunks of EVAL_CHUNK consecutive indices: a
    chunk's channel sets are drawn and synthesized as one stack
    (`channel.sample_channels`) and its composite channels formed in one
    call; then per realization the online solver runs and records the
    per-user rates, and one stacked SVD gives the per-user effective ranks
    of the chunk's solved composite channels. Only one chunk's channels are
    held at a time, so memory does not grow with the realization count, and
    the results equal those of one stack of all realizations bit for bit.
    Solver failures exclude the realization (counted); more than 1%
    exclusions is a hard failure. Paired comparisons across beam sets reuse
    identical realization indices, so differences are not seed noise.
    """
    n_real = cfg.eval.n_realizations if n_realizations is None else n_realizations
    if isinstance(n_real, bool) or not isinstance(n_real, (int, np.integer)):
        raise ValueError(f"evaluate_average_sum_rate: n_realizations {n_real!r} is not an integer")
    n_real = int(n_real)
    if n_real < 1:
        raise ValueError("evaluate_average_sum_rate: need at least one realization")
    cfg_hash = scenario_mod.config_hash(cfg)
    rate_rows: list[np.ndarray] = []
    rank_rows: list[np.ndarray] = []
    ok_ids: list[int] = []
    iterations: list[int] = []
    converged: list[bool] = []
    excluded: list[int] = []
    messages: list[str] = []
    for start in range(0, n_real, EVAL_CHUNK):
        chunk = range(start, min(start + EVAL_CHUNK, n_real))
        cs = channel_mod.sample_channels(cfg, NAMESPACE_EVAL, chunk)
        h_chunk = channel_mod.composite_channel(cs.hbar, cs.s, cs.t, beams)
        solved = []
        for idx, h in zip(chunk, h_chunk):
            try:
                link = online_solve(cfg, h)
            except (NumericalError, np.linalg.LinAlgError) as exc:
                excluded.append(idx)
                messages.append(f"realization {idx}: {exc}")
                continue
            solved.append(idx - start)
            rate_rows.append(link.rates)
            ok_ids.append(idx)
            iterations.append(int(link.iterations))
            converged.append(bool(link.converged))
        # A dark channel (no direct path, zero beams) has no rank ratio: it
        # records 0 instead of losing its realization.
        h_ok = h_chunk[solved]
        lit = np.any(h_ok != 0.0, axis=(-2, -1))
        ranks = np.zeros(lit.shape)
        ranks[lit] = effective_rank(h_ok[lit])
        rank_rows.append(ranks)

    if len(excluded) > MAX_EXCLUDED_FRACTION * n_real:
        raise NumericalError(
            f"evaluation excluded {len(excluded)}/{n_real} realizations "
            f"(threshold {MAX_EXCLUDED_FRACTION:.0%}); first failure: "
            + (messages[0] if messages else "")
        )

    per_ue = np.array(rate_rows)
    ranks = np.concatenate(rank_rows)
    sums = per_ue.sum(axis=1)
    mean_rate, stderr_rate = _mean_stderr(sums)
    mean_rank, stderr_rank = _mean_stderr(ranks.mean(axis=1))
    return EvalResult(
        per_ue_rates=per_ue,
        sum_rates=sums,
        eff_ranks=ranks,
        realization_ids=ok_ids,
        excluded_ids=excluded,
        mean_sum_rate=mean_rate,
        stderr_sum_rate=stderr_rate,
        mean_eff_rank=mean_rank,
        stderr_eff_rank=stderr_rank,
        config_hash=cfg_hash,
        beams_hash=beams_hash,
        seed=cfg.seed,
        n_realizations=n_real,
        failure_messages=messages,
        iterations=iterations,
        converged=converged,
    )


def write_eval_csv(path, result: EvalResult) -> None:
    """One row per realization; excluded realizations keep their id with
    empty metric fields and status 'excluded'."""
    n_u = result.per_ue_rates.shape[1] if result.per_ue_rates.size else 0
    ok_lookup = {rid: pos for pos, rid in enumerate(result.realization_ids)}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# format_version={EVAL_CSV_VERSION}\n")
        fh.write(f"# config_hash={result.config_hash}\n")
        fh.write(f"# beams_hash={result.beams_hash}\n")
        fh.write(f"# seed={result.seed}\n")
        fh.write(f"# n_realizations={result.n_realizations}\n")
        fh.write(f"# n_excluded={result.n_excluded}\n")
        writer = csv.writer(fh)
        header = (
            ["realization"]
            + [f"rate_ue{i}" for i in range(n_u)]
            + ["sum_rate"]
            + [f"eff_rank_ue{i}" for i in range(n_u)]
            + ["status"]
        )
        writer.writerow(header)
        for rid in sorted(set(result.realization_ids) | set(result.excluded_ids)):
            if rid in ok_lookup:
                pos = ok_lookup[rid]
                row = (
                    [rid]
                    + [f"{x:.12g}" for x in result.per_ue_rates[pos]]
                    + [f"{result.sum_rates[pos]:.12g}"]
                    + [f"{x:.12g}" for x in result.eff_ranks[pos]]
                    + ["ok"]
                )
            else:
                row = [rid] + [""] * (2 * n_u + 1) + ["excluded"]
            writer.writerow(row)


def write_array_factor_csv(path, angles_deg: np.ndarray, gain_db: np.ndarray, meta: dict) -> None:
    """(angle_deg, gain_dB) profile with hash metadata in comment lines."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(["angle_deg", "gain_db"])
        for a, g in zip(angles_deg, gain_db):
            writer.writerow([f"{a:.6g}", f"{g:.9g}"])


def _percentile(values: list[int], q: float) -> float:
    """Linear-interpolation percentile of a possibly empty list (0 when empty)."""
    return float(np.percentile(values, q)) if values else 0.0


def summary_dict(result: EvalResult) -> dict:
    """JSON-able aggregate view of an EvalResult."""
    return {
        "mean_sum_rate": result.mean_sum_rate,
        "stderr_sum_rate": result.stderr_sum_rate,
        "mean_eff_rank": result.mean_eff_rank,
        "stderr_eff_rank": result.stderr_eff_rank,
        "mean_rate_per_ue": (
            result.per_ue_rates.mean(axis=0).tolist() if result.per_ue_rates.size else []
        ),
        "n_realizations": result.n_realizations,
        "n_ok": len(result.realization_ids),
        "n_excluded": result.n_excluded,
        "n_capped": result.n_capped,
        "max_online_iterations": max(result.iterations, default=0),
        "online_iterations_p50": _percentile(result.iterations, 50),
        "online_iterations_p95": _percentile(result.iterations, 95),
        "config_hash": result.config_hash,
        "beams_hash": result.beams_hash,
        "seed": result.seed,
    }


def write_summary_json(path, result: EvalResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary_dict(result), fh, indent=1, sort_keys=True)
        fh.write("\n")
