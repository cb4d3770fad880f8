"""End-to-end acceptance gate.

Fourteen checks: nine exact property gates on the solver stack (the
offline descent gate runs in GC and in LC) and five scaled statistical
reproductions of the qualitative experiment trends (optimized vs. random beams, placement-knowledge ordering, effective-rank
growth with panel count, phase-quantization loss, beam pointing). The
statistical checks run desk-scale scenarios with pinned seeds, so every
number below is deterministic, and one more test pins the desk run's
numbers themselves.
"""

import copy
import time

import numpy as np
import pytest

from conftest import crandn, synthetic_instance
from oracles import (
    accumulate_quadratic,
    frozen_weighted_mse,
    gamma_expand,
    mc_expectation,
    q_map,
    receivers_and_weights,
    verify_theorem1,
)
from irsmimo import irs_opt, metrics, scenario, wmmse
from irsmimo.numerics import herm, logdet_hpd
from irsmimo.irs_opt import (
    BeamConstraint,
    initial_beams,
    lc_grid_point,
    offline_optimize_channels,
    quantize_lc,
    update_b,
)


# ---------------------------------------------------------------------------
# Shared desk-scale scenario (two UEs, two wall panels, known positions)

DESK = {
    "room": {"x": 12.0, "y": 12.0},
    "wavelength": 0.06,
    "bs": {"position": [6.0, 11.5, 2.0], "n_y": 4, "n_z": 2},
    "ue": {
        "count": 2,
        "n_antennas": 2,
        "height": 1.0,
        "placement": "UD-0m",
        "nominal_positions": [[1.5, 4.0], [1.5, 8.0]],
    },
    "irs": {
        "panels": [
            {"wall": "west", "center_along": 4.0, "center_height": 1.5, "n_h": 8, "n_v": 8},
            {"wall": "west", "center_along": 8.0, "center_height": 1.5, "n_h": 8, "n_v": 8},
        ],
        "tiles_per_panel": 4,
    },
    "channel": {"n_clusters": 3, "n_paths": 5},
    "solver": {"n_samples": 100, "max_offline_iters": 150},
    "eval": {"n_realizations": 200},
    "seed": 7,
}


def desk_config(**updates):
    data = copy.deepcopy(DESK)
    scenario.apply_overrides(data, updates)
    return scenario.config_from_dict(data)


def optimize_and_evaluate(cfg):
    beam_set, report = irs_opt.offline_optimize(cfg)
    result = metrics.evaluate_average_sum_rate(cfg, beam_set.beams)
    return beam_set, report, result


def paired_gap(res_hi, res_lo):
    """Mean and stderr of per-realization sum-rate differences on the
    common-random-number realization ids."""
    ids = sorted(set(res_hi.realization_ids) & set(res_lo.realization_ids))
    hi = dict(zip(res_hi.realization_ids, res_hi.sum_rates))
    lo = dict(zip(res_lo.realization_ids, res_lo.sum_rates))
    d = np.array([hi[r] - lo[r] for r in ids])
    return float(d.mean()), float(d.std(ddof=1) / np.sqrt(len(d)))


@pytest.fixture(scope="session")
def desk_opt_run():
    """Optimized beams on the known-position desk scenario, plus its paired
    random-baseline evaluation. Timed for the runtime gate."""
    cfg = desk_config()
    t0 = time.monotonic()
    beam_set, report, result = optimize_and_evaluate(cfg)
    baseline = irs_opt.random_beam_set(cfg)
    base_result = metrics.evaluate_average_sum_rate(cfg, baseline.beams)
    elapsed = time.monotonic() - t0
    return {
        "cfg": cfg,
        "beam_set": beam_set,
        "report": report,
        "opt": result,
        "random": base_result,
        "elapsed_s": elapsed,
    }


@pytest.fixture(scope="session")
def placement_runs(desk_opt_run):
    """Optimized-beam evaluations for each placement-knowledge law; the
    offline stage re-trains per law since the location statistics differ."""
    runs = {"UD-0m": desk_opt_run["opt"]}
    for law in ("UD-1m", "UD"):
        cfg = desk_config(**{"ue.placement": law})
        _, _, result = optimize_and_evaluate(cfg)
        runs[law] = result
    return runs


@pytest.fixture(scope="session")
def quantized_runs():
    """Per-bit-depth unit-modulus runs on the desk scenario, re-optimized
    per constraint so the comparison isolates the phase grid."""
    runs = {}
    for n_bits in (1, 2, 3):
        cfg = desk_config(
            **{"constraint.mode": "LC", "constraint.n_bits": n_bits}
        )
        beam_set, _, result = optimize_and_evaluate(cfg)
        runs[n_bits] = {"beam_set": beam_set, "result": result}
    return runs


@pytest.fixture(scope="session")
def rank_runs():
    """Effective-rank sweep: one UE, constant total reflecting area split
    across 1, 2, or 4 wall panels, both path-loss profiles."""
    panel_sets = {
        1: [{"wall": "south", "center_along": 6.0, "center_height": 1.5, "n_h": 8, "n_v": 8}],
        2: [
            {"wall": "west", "center_along": 5.0, "center_height": 1.5, "n_h": 8, "n_v": 4},
            {"wall": "south", "center_along": 4.0, "center_height": 1.5, "n_h": 8, "n_v": 4},
        ],
        4: [
            {"wall": "west", "center_along": 5.0, "center_height": 1.5, "n_h": 4, "n_v": 4},
            {"wall": "east", "center_along": 2.0, "center_height": 1.5, "n_h": 4, "n_v": 4},
            {"wall": "south", "center_along": 4.0, "center_height": 1.5, "n_h": 4, "n_v": 4},
            {"wall": "north", "center_along": 8.0, "center_height": 1.5, "n_h": 4, "n_v": 4},
        ],
    }
    tiles = {1: 4, 2: 2, 4: 1}
    out = {}
    for profile in ("IO", "SM"):
        for n_irs in (1, 2, 4):
            data = {
                "room": {"x": 12.0, "y": 12.0},
                "wavelength": 0.06,
                "bs": {"position": [6.0, 11.5, 2.0], "n_y": 4, "n_z": 2},
                "ue": {
                    "count": 1,
                    "n_antennas": 4,
                    "height": 1.0,
                    "placement": "UD",
                    "service_area": [4.0, 8.0, 3.0, 6.0],
                },
                "irs": {"panels": panel_sets[n_irs], "tiles_per_panel": tiles[n_irs]},
                "channel": {"profile": profile, "n_clusters": 5, "n_paths": 10},
                "solver": {"n_samples": 30, "max_offline_iters": 25},
                "eval": {"n_realizations": 100},
                "seed": 11,
            }
            cfg = scenario.config_from_dict(data)
            assert sum(p.n_h * p.n_v for p in cfg.irs.panels) == 64
            _, _, result = optimize_and_evaluate(cfg)
            out[(profile, n_irs)] = result
    return out


# ---------------------------------------------------------------------------
# Property gates


def test_01_online_objective_never_increases():
    t0 = time.monotonic()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        h = crandn(rng, 3, 2, 8)
        out = wmmse.online_wmmse(h, 0.1, 1.5, alpha=1.0, tol=1e-6, max_iters=40)
        trace = np.array(out.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9), f"objective rose on instance {seed}"
    assert time.monotonic() - t0 < 30.0


def test_02_rate_weight_duality_at_convergence():
    alpha = np.array([1.0, 1.4, 2.0])
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        h = crandn(rng, 3, 2, 8)
        out = wmmse.online_wmmse(h, 0.05, 2.0, alpha=alpha, tol=1e-10, max_iters=400)
        rates_nats = out.rates * np.log(2.0)
        lhs = float(np.sum(alpha * rates_nats))
        rhs = float(sum(alpha[i] * logdet_hpd(herm(out.w[i])) for i in range(3)))
        assert lhs == pytest.approx(rhs, rel=1e-6), f"duality broken on instance {seed}"


def test_03_diagonal_vectorization_identity():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        l1 = int(rng.integers(1, 5))
        l2 = int(rng.integers(1, 5))
        p = int(rng.integers(1, 33))
        q1 = crandn(rng, l1, p)
        q2 = crandn(rng, p, l2)
        b = crandn(rng, p)
        direct = q1 @ np.diag(b) @ q2
        mapped = (q_map(q1, q2) @ gamma_expand(b, l2)).reshape(l1, l2)
        worst = max(worst, float(np.max(np.abs(direct - mapped))))
    assert worst <= 1e-13


def test_04_tile_quadratic_contract():
    for seed in range(20):
        inst = synthetic_instance(3000 + seed)
        g, w = receivers_and_weights(
            inst["hbar"], inst["s"], inst["t"], inst["beams"], inst["v"], inst["sigma2"]
        )
        n = 0
        m = seed % inst["beams"].shape[0]
        m_mat, u_vec = accumulate_quadratic(
            g[n], w[n], inst["v"][n], inst["hbar"][n], inst["s"], inst["t"][n],
            inst["beams"], m, inst["alpha"],
        )

        def f(b_m):
            beams = inst["beams"].copy()
            beams[m] = b_m
            return frozen_weighted_mse(
                inst["hbar"][n : n + 1], inst["s"], inst["t"][n : n + 1], beams,
                g[n : n + 1], w[n : n + 1], inst["v"][n : n + 1], inst["sigma2"],
                inst["alpha"],
            )

        f0 = f(np.zeros(inst["beams"].shape[1], dtype=complex))
        rng = inst["rng"]
        for _ in range(10):
            b = crandn(rng, inst["beams"].shape[1])
            quad = float(np.real(b.conj() @ m_mat @ b) - 2.0 * np.real(u_vec.conj() @ b))
            assert f(b) - f0 == pytest.approx(quad, rel=1e-9, abs=1e-12)


def test_05_averaged_gradient_matches_finite_differences():
    for seed in range(10):
        inst = synthetic_instance(4000 + seed, n_s=3, k=2, p=5)
        g, w = receivers_and_weights(
            inst["hbar"], inst["s"], inst["t"], inst["beams"], inst["v"], inst["sigma2"]
        )
        n_s = inst["hbar"].shape[0]
        k, p = inst["beams"].shape
        for m in range(k):
            pairs = [
                accumulate_quadratic(
                    g[n], w[n], inst["v"][n], inst["hbar"][n], inst["s"], inst["t"][n],
                    inst["beams"], m, inst["alpha"],
                )
                for n in range(n_s)
            ]
            stats = mc_expectation(
                np.array([q[0] for q in pairs]), np.array([q[1] for q in pairs])
            )
            closed = 2.0 * (stats.m_bar[0] @ inst["beams"][m] - stats.u_bar[0])

            def f(b_m):
                beams = inst["beams"].copy()
                beams[m] = b_m
                return frozen_weighted_mse(
                    inst["hbar"], inst["s"], inst["t"], beams, g, w, inst["v"],
                    inst["sigma2"], inst["alpha"],
                )

            step = 1e-6
            fd = np.zeros(p, dtype=complex)
            b0 = inst["beams"][m]
            for idx in range(p):
                e = np.zeros(p)
                e[idx] = 1.0
                fd[idx] = (f(b0 + step * e) - f(b0 - step * e)) / (2 * step) + 1j * (
                    f(b0 + 1j * step * e) - f(b0 - 1j * step * e)
                ) / (2 * step)
            rel = np.linalg.norm(fd - closed) / max(np.linalg.norm(fd), 1e-300)
            assert rel <= 1e-5, f"instance {seed} tile {m}: rel dev {rel:.3e}"


def test_06_constraint_feasibility_every_update():
    rng = np.random.default_rng(50)
    p = 6
    for trial in range(20):
        a = crandn(rng, p + 1, p)
        m_bar = a.conj().T @ a
        u_bar = crandn(rng, p)
        b_gc = update_b(m_bar, u_bar, float(p))
        assert float(np.real(b_gc.conj() @ b_gc)) <= p + 1e-9
        n_bits = 1 + trial % 3
        b_lc, _ = quantize_lc(update_b(m_bar, u_bar, float(p)), n_bits)
        assert np.allclose(np.abs(b_lc), 1.0, atol=1e-15)
        _, idx = quantize_lc(b_lc, n_bits)
        assert np.array_equal(b_lc, lc_grid_point(idx, n_bits))
    # whole-run violation tracking on a synthetic instance
    inst = synthetic_instance(51, k=2, p=4)
    beams0 = initial_beams(2, 4, BeamConstraint(mode="GC", rho_sq=4.0), rng)
    _, report = offline_optimize_channels(
        inst["hbar"], inst["s"], inst["t"],
        sigma2=inst["sigma2"], p_budget=inst["p_budget"], alpha=1.0,
        constraint=BeamConstraint(mode="GC", rho_sq=4.0),
        beams0=beams0, eps=1e-9, max_iters=10,
    )
    assert report.max_gc_violation <= 1e-9


def test_07_offline_frozen_sample_descent():
    for seed in range(10):
        inst = synthetic_instance(5000 + seed, n_s=3, k=2, p=4)
        beams0 = initial_beams(
            2, 4, BeamConstraint(mode="GC", rho_sq=4.0), np.random.default_rng(seed)
        )
        _, report = offline_optimize_channels(
            inst["hbar"], inst["s"], inst["t"],
            sigma2=inst["sigma2"], p_budget=inst["p_budget"], alpha=inst["alpha"],
            constraint=BeamConstraint(mode="GC", rho_sq=4.0),
            beams0=beams0, eps=1e-12, max_iters=15,
        )
        obj = np.array(report.objective_history)
        assert np.all(np.diff(obj) <= 1e-8), f"ascent on instance {seed}: {np.diff(obj).max()}"


def test_07_lc_offline_frozen_sample_descent():
    for seed in range(10):
        inst = synthetic_instance(5000 + seed, n_s=3, k=2, p=4)
        constraint = BeamConstraint(mode="LC", n_bits=1 + seed % 3)
        beams0 = initial_beams(2, 4, constraint, np.random.default_rng(seed))
        _, report = offline_optimize_channels(
            inst["hbar"], inst["s"], inst["t"],
            sigma2=inst["sigma2"], p_budget=inst["p_budget"], alpha=inst["alpha"],
            constraint=constraint, beams0=beams0, eps=1e-12, max_iters=15,
        )
        obj = np.array(report.objective_history)
        assert np.all(np.diff(obj) <= 1e-8), f"ascent on instance {seed}: {np.diff(obj).max()}"


def test_08_gradient_identity_with_fresh_vs_stale_weights():
    for seed in range(3):
        inst = synthetic_instance(6000 + seed, n_s=3, k=2, p=4)
        fresh = verify_theorem1(
            inst["hbar"], inst["s"], inst["t"], inst["beams"], inst["v"],
            inst["sigma2"], alpha=inst["alpha"],
        )
        assert fresh["max_rel_deviation"] <= 1e-4
        # negative control: weights taken from a different (earlier) beam set
        rng = np.random.default_rng(7000 + seed)
        old_beams = initial_beams(
            2, 4, BeamConstraint(mode="GC", rho_sq=4.0), rng
        )
        _, w_old = receivers_and_weights(
            inst["hbar"], inst["s"], inst["t"], old_beams, inst["v"], inst["sigma2"]
        )
        stale = verify_theorem1(
            inst["hbar"], inst["s"], inst["t"], inst["beams"], inst["v"],
            inst["sigma2"], alpha=inst["alpha"], stale_w=w_old,
        )
        assert stale["max_rel_deviation"] > 1e-2


# ---------------------------------------------------------------------------
# Scaled experiment reproductions


def test_09_optimized_beams_beat_random_baseline(desk_opt_run):
    opt, rnd = desk_opt_run["opt"], desk_opt_run["random"]
    assert opt.mean_sum_rate >= 1.10 * rnd.mean_sum_rate, (
        f"gain {opt.mean_sum_rate / rnd.mean_sum_rate - 1:.2%} below 10%"
    )
    assert opt.mean_sum_rate - 2 * opt.stderr_sum_rate > (
        rnd.mean_sum_rate + 2 * rnd.stderr_sum_rate
    ), "2-stderr intervals overlap"
    assert desk_opt_run["elapsed_s"] < 600.0


# The desk run's numbers, measured on a 2-core host with Python 3.11.7,
# numpy 2.4.6 and OpenBLAS: (value, tolerance, relative).
DESK_PINS = {
    "training rate": (20.838668788921108, 1e-6, True),
    "optimized mean_sum_rate": (21.038606254743694, 1e-6, True),
    "random mean_sum_rate": (17.983230205793536, 1e-6, True),
    "optimized n_capped": (34, 1, False),
    "random n_capped": (13, 1, False),
    "optimized online_iterations_p50": (238.0, 1, False),
    "random online_iterations_p50": (152.5, 1, False),
}


def test_desk_numbers_are_pinned(desk_opt_run):
    observed = {"training rate": desk_opt_run["report"].sum_rate_history[-1]}
    for label in ("optimized", "random"):
        summary = metrics.summary_dict(desk_opt_run["opt" if label == "optimized" else "random"])
        for key in ("mean_sum_rate", "n_capped", "online_iterations_p50"):
            observed[f"{label} {key}"] = summary[key]
    moved = {
        name: (pinned, observed[name])
        for name, (pinned, tol, relative) in DESK_PINS.items()
        if not (
            observed[name] == pytest.approx(pinned, rel=tol, abs=0)
            if relative
            else abs(observed[name] - pinned) <= tol
        )
    }
    assert not moved, (
        f"desk results moved (pinned, observed): {moved}; a change that moves results "
        "must state the old and new values in CHANGES.md"
    )


def test_10_placement_knowledge_ordering(placement_runs):
    exact = placement_runs["UD-0m"]
    disk = placement_runs["UD-1m"]
    uniform = placement_runs["UD"]
    for hi, lo, label in ((exact, disk, "exact vs disk"), (disk, uniform, "disk vs uniform")):
        gap, gap_se = paired_gap(hi, lo)
        assert gap >= -gap_se, f"{label}: gap {gap:.4f} below -1 stderr {-gap_se:.4f}"


def test_11_effective_rank_grows_with_panel_count(rank_runs):
    for profile in ("IO", "SM"):
        means = [rank_runs[(profile, n)].mean_eff_rank for n in (1, 2, 4)]
        errs = [rank_runs[(profile, n)].stderr_eff_rank for n in (1, 2, 4)]
        for a in range(2):
            tol = np.hypot(errs[a], errs[a + 1])
            assert means[a + 1] >= means[a] - tol, (
                f"{profile}: rank fell {means[a]:.4f} -> {means[a + 1]:.4f} beyond {tol:.4f}"
            )
    io4, sm4 = rank_runs[("IO", 4)], rank_runs[("SM", 4)]
    tol = np.hypot(io4.stderr_eff_rank, sm4.stderr_eff_rank)
    assert sm4.mean_eff_rank >= io4.mean_eff_rank - tol


def test_12_phase_quantization_loss(desk_opt_run, quantized_runs):
    gc_mean = desk_opt_run["opt"].mean_sum_rate
    lc3 = quantized_runs[3]["result"].mean_sum_rate
    assert lc3 >= 0.9 * gc_mean, f"3-bit mean {lc3:.3f} under 90% of {gc_mean:.3f}"
    means = [quantized_runs[n]["result"].mean_sum_rate for n in (1, 2, 3)]
    errs = [quantized_runs[n]["result"].stderr_sum_rate for n in (1, 2, 3)]
    for a in range(2):
        tol = np.hypot(errs[a], errs[a + 1])
        assert means[a + 1] >= means[a] - tol, (
            f"rate fell with more phase bits: {means[a]:.4f} -> {means[a + 1]:.4f}"
        )
    for n_bits, run in quantized_runs.items():
        beams = run["beam_set"].beams
        assert np.array_equal(
            beams, lc_grid_point(run["beam_set"].phase_indices(), n_bits)
        ), f"{n_bits}-bit beams left the phase grid"


def test_13_array_factor_points_at_user():
    data = {
        "room": {"x": 12.0, "y": 12.0},
        "wavelength": 0.01,
        "bs": {"position": [6.0, 11.5, 2.0], "n_y": 4, "n_z": 2},
        "ue": {
            "count": 1,
            "n_antennas": 2,
            "height": 1.0,
            "placement": "UD-0m",
            "nominal_positions": [[2.0, 7.5]],
        },
        "irs": {
            "panels": [
                {"wall": "west", "center_along": 6.0, "center_height": 1.5, "n_h": 8, "n_v": 8}
            ],
            "tiles_per_panel": 1,
        },
        "channel": {"n_clusters": 3, "n_paths": 5},
        "solver": {"n_samples": 20, "max_offline_iters": 50},
        "eval": {"n_realizations": 5},
        "seed": 5,
    }
    cfg = scenario.config_from_dict(data)
    beam_set, _ = irs_opt.offline_optimize(cfg)
    geometry = scenario.build_antenna_positions(cfg)
    from irsmimo import channel as channel_mod

    s = channel_mod.bs_irs_channels(geometry, cfg)
    sample = scenario.draw_sample(cfg, 0, namespace=scenario.NAMESPACE_EVAL)
    cset = channel_mod.build_channel_set(sample, geometry, cfg, s=s)
    h = channel_mod.composite_channel(cset.hbar, cset.s, cset.t, beam_set.beams)
    link = metrics.online_solve(cfg, h)
    angles, gain = metrics.equivalent_array_factor(
        geometry, cfg, beam_set.beams, link.v[0][:, 0], 0, s=s
    )
    peak = angles[int(np.argmax(gain))]
    tile_center = geometry.tiles[0].mean(axis=0)
    ue = np.array([2.0, 7.5, 1.0])
    true_az = np.degrees(np.arctan2(ue[1] - tile_center[1], ue[0] - tile_center[0])) % 360
    err = abs((peak - true_az + 180.0) % 360.0 - 180.0)
    assert err <= 5.0, f"main lobe at {peak:.1f} deg, user at {true_az:.2f} deg"
