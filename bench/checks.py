"""Correctness checks on the artifacts of `irsmimo optimize` and `irsmimo evaluate`.

Every check rests on an independent computation or on a property the method
must have, never on a stored copy of earlier output. Channels come from
`channel.build_channel_set`; the capacity bounds and the reference SVD
precoders are computed here with plain numpy.

Each failure is a string that starts with a tag naming the check, so the
self-test can tell which check rejected a corrupted artifact.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from irsmimo import channel as channel_mod
from irsmimo import scenario as scenario_mod

GC_TOL = 1e-9  # ||b_k||^2 <= rho^2 + GC_TOL
LC_TOL = 1e-9  # unit modulus and grid phase, absolute
CSV_TOL = 1e-9  # relative; eval.csv carries 12 significant digits
BOUND_TOL = 1e-7  # relative slack on the rate bounds (mu-search residual is 1e-8)


def command_dir(root) -> Path:
    """The single output directory a command created under its output root."""
    dirs = [p for p in Path(root).iterdir() if p.is_dir()]
    if len(dirs) != 1:
        raise FileNotFoundError(f"expected one command directory under {root}, found {len(dirs)}")
    return dirs[0]


def beams_from_doc(doc: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in tile] for tile in doc["tiles"]])


def composite(cset, beams: np.ndarray) -> np.ndarray:
    """H_i = Hbar_i + sum_k T_ik diag(b_k) S_k, shape (N_u, L, M)."""
    return cset.hbar + np.einsum("iklp,kp,kpm->ilm", cset.t, beams, cset.s)


def _logdet2(mats: np.ndarray) -> np.ndarray:
    """log2 det of a stack of Hermitian positive-definite matrices."""
    sign, logdet = np.linalg.slogdet(0.5 * (mats + np.swapaxes(mats.conj(), -1, -2)))
    if np.any(sign.real <= 0):
        raise ValueError("log det of a matrix that is not positive definite")
    return logdet / np.log(2.0)


def capacity_bits(h: np.ndarray, p_budget: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-user interference-free bound log2 det(I + P_i / sigma2 H_i H_i^H).

    Any precoder with tr(V_i V_i^H) <= P_i obeys V_i V_i^H <= P_i I, and
    interference only lowers a rate, so user i's rate cannot exceed this.
    """
    eye = np.eye(h.shape[-2])
    gram = np.einsum("ilm,ikm->ilk", h, h.conj())
    return _logdet2(eye + (p_budget / sigma2)[:, None, None] * gram)


def svd_precoders(h: np.ndarray, p_budget: np.ndarray) -> np.ndarray:
    """Full-power SVD precoders: the L leading right singular vectors of H_i at
    power P_i / L each (the point the online WMMSE starts from)."""
    n_u, l_ant, _ = h.shape
    _, _, vh = np.linalg.svd(h)
    return np.swapaxes(vh.conj(), -1, -2)[:, :, :l_ant] * np.sqrt(p_budget / l_ant)[:, None, None]


def rates_bits(h: np.ndarray, v: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-user rates log2 det(I + V_i^H H_i^H Jbar_i^-1 H_i V_i) with the
    other users' streams as interference."""
    n_u, l_ant, _ = h.shape
    out = np.empty(n_u)
    for i in range(n_u):
        jbar = sigma2 * np.eye(l_ant, dtype=complex)
        for j in range(n_u):
            if j != i:
                hv = h[i] @ v[j]
                jbar = jbar + hv @ hv.conj().T
        hv_i = h[i] @ v[i]
        out[i] = _logdet2(np.eye(v.shape[-1]) + hv_i.conj().T @ np.linalg.solve(jbar, hv_i))
    return out


def _channels(cfg, namespace: int, indices):
    geometry = scenario_mod.build_antenna_positions(cfg)
    s = channel_mod.bs_irs_channels(geometry, cfg)
    for idx in indices:
        sample = scenario_mod.draw_sample(cfg, idx, namespace=namespace)
        yield idx, channel_mod.build_channel_set(sample, geometry, cfg, s=s)


# ---------------------------------------------------------------------------
# optimize


def check_beam_doc(doc: dict, cfg) -> list[str]:
    errors = []
    beams = beams_from_doc(doc)
    if beams.shape != (cfg.k_total, cfg.p_per_tile):
        return [f"shape: beams {beams.shape}, config tiling {(cfg.k_total, cfg.p_per_tile)}"]
    if doc["mode"] != cfg.constraint.mode:
        errors.append(f"mode: beams.json says {doc['mode']}, config {cfg.constraint.mode}")
    if cfg.constraint.mode == "GC":
        rho_sq = cfg.rho_sq()
        norms = np.sum(np.abs(beams) ** 2, axis=1)
        for k in np.flatnonzero(norms > rho_sq + GC_TOL):
            errors.append(f"gc_ball: tile {k} has ||b||^2 = {norms[k]:.12g} > rho^2 = {rho_sq:g}")
    else:
        n = 2 ** cfg.constraint.n_bits
        modulus_err = np.abs(np.abs(beams) - 1.0)
        for k, p in zip(*np.nonzero(modulus_err > LC_TOL)):
            errors.append(f"lc_modulus: tile {k} element {p} has |b| = {abs(beams[k, p]):.15g}")
        steps = np.angle(beams) * n / (2.0 * np.pi)
        nearest = np.round(steps)
        for k, p in zip(*np.nonzero(np.abs(steps - nearest) > LC_TOL)):
            errors.append(f"lc_grid: tile {k} element {p} phase is off the {n}-point grid")
        idx = np.mod(nearest.astype(int), n)
        stored = np.asarray(doc.get("phase_indices"), dtype=int)
        if stored.shape != idx.shape or np.any(stored != idx):
            errors.append("lc_grid: beam phases do not match phase_indices")
    return errors


def check_optimize(outdir, cfg) -> list[str]:
    """Feasibility, descent and the capacity bound of an optimize run."""
    outdir = Path(outdir)
    doc = json.loads((outdir / "beams.json").read_text(encoding="utf-8"))
    report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    errors = check_beam_doc(doc, cfg)
    if errors and errors[0].startswith("shape"):
        return errors

    n_iter = report["iterations"]
    for key in ("objective_history", "sum_rate_history", "delta_history"):
        if len(report[key]) != n_iter:
            errors.append(f"report: {key} has {len(report[key])} entries for {n_iter} iterations")
    digest = hashlib.sha256((outdir / "beams.json").read_bytes()).hexdigest()
    if report.get("beams_hash") != digest:
        errors.append("report: beams_hash does not match beams.json")
    if cfg.constraint.mode == "GC" and cfg.solver.tile_order == "sequential":
        obj = report["objective_history"]
        for i in range(1, len(obj)):
            if obj[i] > obj[i - 1] + 1e-9 * max(1.0, abs(obj[i - 1])):
                errors.append(f"descent: objective rose at iteration {i + 1}: "
                              f"{obj[i - 1]:.12g} -> {obj[i]:.12g}")

    rate = report["sum_rate_history"][-1] if report["sum_rate_history"] else float("nan")
    beams = beams_from_doc(doc)
    p_budget, sigma2, alpha = cfg.power_budgets_w(), cfg.noise_power_w(), cfg.alpha()
    bounds = [
        float(alpha @ capacity_bits(composite(cset, beams), p_budget, sigma2))
        for _, cset in _channels(cfg, scenario_mod.NAMESPACE_TRAIN, range(cfg.solver.n_samples))
    ]
    bound = float(np.mean(bounds))
    if not rate > 0.0:
        errors.append(f"capacity: training rate {rate!r} is not positive")
    elif rate > bound * (1.0 + BOUND_TOL):
        errors.append(f"capacity: training rate {rate:.12g} exceeds the bound {bound:.12g}")
    return errors


# ---------------------------------------------------------------------------
# evaluate


def read_eval_csv(path) -> tuple[dict, list[dict]]:
    """Comment header (key=value lines) and the data rows of eval.csv."""
    meta, lines = {}, []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            else:
                lines.append(line)
    return meta, list(csv.DictReader(lines))


def check_evaluate(outdir, cfg, n_realizations: int) -> tuple[list[str], int]:
    """Row sums, rank range, the summary mean and the per-realization rate
    bounds of an evaluate run. Returns (errors, number of excluded rows)."""
    outdir = Path(outdir)
    meta, rows = read_eval_csv(outdir / "eval.csv")
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    beams_doc = json.loads((outdir / "beams_random.json").read_text(encoding="utf-8"))
    errors = check_beam_doc(beams_doc, cfg)
    n_u = cfg.ue.count
    max_rank = min(cfg.ue.n_antennas, cfg.m_antennas)

    ok = [r for r in rows if r["status"] == "ok"]
    excluded = [r for r in rows if r["status"] == "excluded"]
    if len(rows) != n_realizations or len(ok) + len(excluded) != len(rows):
        errors.append(f"rows: {len(rows)} rows ({len(ok)} ok, {len(excluded)} excluded) "
                      f"for {n_realizations} realizations")
    if int(summary["n_excluded"]) != len(excluded) or int(meta.get("n_excluded", -1)) != len(excluded):
        errors.append("rows: excluded count disagrees between eval.csv and summary.json")

    sums = []
    for r in ok:
        rates = [float(r[f"rate_ue{i}"]) for i in range(n_u)]
        total = float(r["sum_rate"])
        sums.append(total)
        if abs(total - sum(rates)) > CSV_TOL * (1.0 + abs(total)):
            errors.append(f"row_sum: realization {r['realization']}: sum_rate {total!r} "
                          f"!= {sum(rates)!r}")
        for i in range(n_u):
            rank = float(r[f"eff_rank_ue{i}"])
            if not 1.0 - CSV_TOL <= rank <= max_rank + CSV_TOL:
                errors.append(f"rank: realization {r['realization']} user {i}: "
                              f"effective rank {rank!r} outside [1, {max_rank}]")
    if sums:
        mean = sum(sums) / len(sums)
        if abs(summary["mean_sum_rate"] - mean) > CSV_TOL * (1.0 + abs(mean)):
            errors.append(f"mean: summary mean {summary['mean_sum_rate']!r} != row mean {mean!r}")

    beams = beams_from_doc(beams_doc)
    p_budget, sigma2, alpha = cfg.power_budgets_w(), cfg.noise_power_w(), cfg.alpha()
    by_id = {int(r["realization"]): r for r in ok}
    for rid, cset in _channels(cfg, scenario_mod.NAMESPACE_EVAL, sorted(by_id)):
        h = composite(cset, beams)
        rates = np.array([float(by_id[rid][f"rate_ue{i}"]) for i in range(n_u)])
        start = float(alpha @ rates_bits(h, svd_precoders(h, p_budget), sigma2))
        achieved = float(alpha @ rates)
        if achieved < start - BOUND_TOL * (1.0 + abs(start)):
            errors.append(f"wmmse_start: realization {rid}: weighted sum-rate {achieved:.12g} "
                          f"is below the SVD starting point {start:.12g}")
        cap = capacity_bits(h, p_budget, sigma2)
        for i in np.flatnonzero(rates > cap * (1.0 + BOUND_TOL)):
            errors.append(f"capacity: realization {rid} user {i}: rate {rates[i]:.12g} "
                          f"exceeds the bound {cap[i]:.12g}")
    return errors, len(excluded)
