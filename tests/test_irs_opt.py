import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    MALFORMED_BEAM_EDITS,
    crandn,
    synthetic_instance,
    tiny_scenario_dict,
    write_malformed_beams,
)
from oracles import (
    accumulate_quadratic,
    frozen_weighted_mse,
    gamma_expand,
    mc_expectation,
    q_map,
    receivers_and_weights,
    verify_theorem1,
)
from irsmimo import channel, irs_opt, scenario, wmmse
from irsmimo.irs_opt import (
    BeamConstraint,
    IrsBeamSet,
    beam_set_digest,
    gc_violation,
    initial_beams,
    lc_grid_point,
    load_beams,
    offline_optimize,
    offline_optimize_channels,
    quantize_lc,
    save_beams,
    update_b,
)
from irsmimo.scenario import ConfigError, config_from_dict


class TestLcGrid:
    def test_canonical_materialization(self):
        idx = np.array([0, 1, 2, 3])
        expect = np.exp(2j * np.pi * idx / 4.0)
        assert np.array_equal(lc_grid_point(idx, 2), expect)

    def test_quantize_identity_on_grid(self):
        idx = np.array([5, 0, 7, 3])
        b = lc_grid_point(idx, 3)
        back, back_idx = quantize_lc(b, 3)
        assert np.array_equal(back_idx, idx)
        assert np.array_equal(back, b)

    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True), min_size=1, max_size=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_quantization_phase_error_bound(self, n_bits, phases):
        b = np.exp(1j * np.array(phases))
        q, idx = quantize_lc(b, n_bits)
        assert np.all(idx >= 0) and np.all(idx < 2 ** n_bits)
        err = np.angle(b * q.conj())
        assert np.all(np.abs(err) <= np.pi / 2 ** n_bits + 1e-12)

    def test_quantized_points_unit_modulus(self):
        rng = np.random.default_rng(0)
        q, _ = quantize_lc(crandn(rng, 32), 4)
        assert np.allclose(np.abs(q), 1.0)


class TestGammaAlgebra:
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_qmap_identity(self, l_rows, l_cols, p, seed):
        rng = np.random.default_rng(seed)
        q1 = crandn(rng, l_rows, p)
        q2 = crandn(rng, p, l_cols)
        b = crandn(rng, p)
        direct = q1 @ np.diag(b) @ q2
        mapped = (q_map(q1, q2) @ gamma_expand(b, l_cols)).reshape(l_rows, l_cols)
        assert np.allclose(mapped, direct, rtol=1e-12, atol=1e-13)

    def test_gamma_expand_shape(self):
        b = np.arange(3, dtype=complex)
        g = gamma_expand(b, 2)
        assert g.shape == (6, 2)
        assert np.array_equal(g[:3, 0], b)
        assert np.array_equal(g[3:, 1], b)
        assert np.all(g[3:, 0] == 0)


class TestUpdateB:
    def test_gc_feasible_and_optimal(self):
        rng = np.random.default_rng(1)
        p = 6
        a = crandn(rng, p + 2, p)
        m = a.conj().T @ a
        u = crandn(rng, p)
        b = update_b(m, u, float(p))
        assert float(np.real(b.conj() @ b)) <= p + 1e-9
        # quadratic objective value beats random feasible probes
        def obj(x):
            return float(np.real(x.conj() @ m @ x) - 2 * np.real(u.conj() @ x))
        best = obj(b)
        for _ in range(50):
            probe = crandn(rng, p)
            probe *= np.sqrt(p) / max(np.linalg.norm(probe), 1e-12) * rng.random() ** 0.5
            assert obj(probe) >= best - 1e-9

    def test_lc_lands_on_grid(self):
        rng = np.random.default_rng(2)
        p = 8
        a = crandn(rng, p, p)
        m = a.conj().T @ a
        u = crandn(rng, p)
        b, _ = quantize_lc(update_b(m, u, float(p)), 3)
        _, idx = quantize_lc(b, 3)
        assert np.array_equal(b, lc_grid_point(idx, 3))

    def test_zero_stats_keep_current(self):
        p = 4
        cur = np.exp(1j * np.linspace(0, 1, p))
        b = update_b(
            np.zeros((p, p), dtype=complex),
            np.zeros(p, dtype=complex),
            4.0,
            b_current=cur,
        )
        assert np.array_equal(b, cur)


class TestQuadraticModel:
    def test_single_sample_matches_contract(self):
        inst = synthetic_instance(0)
        g, w = receivers_and_weights(
            inst["hbar"], inst["s"], inst["t"], inst["beams"], inst["v"], inst["sigma2"]
        )
        n, m = 0, 1
        m_mat, u_vec = accumulate_quadratic(
            g[n], w[n], inst["v"][n], inst["hbar"][n], inst["s"], inst["t"][n],
            inst["beams"], m, inst["alpha"],
        )
        base = inst["beams"].copy()

        def f(b_m):
            beams = base.copy()
            beams[m] = b_m
            return frozen_weighted_mse(
                inst["hbar"][n : n + 1], inst["s"], inst["t"][n : n + 1], beams,
                g[n : n + 1], w[n : n + 1], inst["v"][n : n + 1], inst["sigma2"],
                inst["alpha"],
            )

        zero = np.zeros_like(base[m])
        rng = inst["rng"]
        for _ in range(5):
            b = crandn(rng, base.shape[1])
            quad = float(np.real(b.conj() @ m_mat @ b) - 2 * np.real(u_vec.conj() @ b))
            assert f(b) - f(zero) == pytest.approx(quad, rel=1e-10, abs=1e-12)

    def test_accumulated_matrix_is_psd(self):
        inst = synthetic_instance(3)
        g, w = receivers_and_weights(
            inst["hbar"], inst["s"], inst["t"], inst["beams"], inst["v"], inst["sigma2"]
        )
        for m in range(inst["beams"].shape[0]):
            m_mat, _ = accumulate_quadratic(
                g[0], w[0], inst["v"][0], inst["hbar"][0], inst["s"], inst["t"][0],
                inst["beams"], m, inst["alpha"],
            )
            eigs = np.linalg.eigvalsh(m_mat)
            assert eigs[0] >= -1e-9 * max(eigs[-1], 1e-12)

    def test_mc_expectation_averages(self):
        inst = synthetic_instance(4)
        g, w = receivers_and_weights(
            inst["hbar"], inst["s"], inst["t"], inst["beams"], inst["v"], inst["sigma2"]
        )
        pairs = [
            accumulate_quadratic(
                g[n], w[n], inst["v"][n], inst["hbar"][n], inst["s"], inst["t"][n],
                inst["beams"], 0, inst["alpha"],
            )
            for n in range(inst["hbar"].shape[0])
        ]
        m_samples = np.array([p[0] for p in pairs])
        u_samples = np.array([p[1] for p in pairs])
        stats = mc_expectation(m_samples, u_samples)
        assert stats.n_samples == len(pairs)
        assert np.allclose(stats.m_bar[0], m_samples.mean(axis=0), rtol=1e-12)
        assert np.allclose(stats.u_bar[0], u_samples.mean(axis=0), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        inst = synthetic_instance(6)
        g, w = receivers_and_weights(
            inst["hbar"], inst["s"], inst["t"], inst["beams"], inst["v"], inst["sigma2"]
        )
        n, m = 0, 0
        m_mat, u_vec = accumulate_quadratic(
            g[n], w[n], inst["v"][n], inst["hbar"][n], inst["s"], inst["t"][n],
            inst["beams"], m, inst["alpha"],
        )
        b0 = inst["beams"][m]
        grad = 2.0 * (m_mat @ b0 - u_vec)

        def f(b_m):
            beams = inst["beams"].copy()
            beams[m] = b_m
            return frozen_weighted_mse(
                inst["hbar"][n : n + 1], inst["s"], inst["t"][n : n + 1], beams,
                g[n : n + 1], w[n : n + 1], inst["v"][n : n + 1], inst["sigma2"],
                inst["alpha"],
            )

        h = 1e-6
        p = b0.shape[0]
        fd = np.zeros(p, dtype=complex)
        for idx in range(p):
            e = np.zeros(p)
            e[idx] = 1.0
            fd[idx] = (f(b0 + h * e) - f(b0 - h * e)) / (2 * h) + 1j * (
                f(b0 + 1j * h * e) - f(b0 - 1j * h * e)
            ) / (2 * h)
        assert np.allclose(fd, grad, rtol=1e-5, atol=1e-8)


class TestBatchedKernels:
    """The sample-stack kernels of the offline loop against per-sample forms."""

    @staticmethod
    def _sweep_state(g, w, v, t, alpha, p):
        """The offline loop's state at the start of a tile sweep: a workspace
        with the tile factors formed, and the precoder rows."""
        t_fold = channel.fold_tiles(t)
        ws = irs_opt._tile_workspace(t_fold.shape, p)
        irs_opt._tile_factors(g, w, t_fold, alpha, ws)
        return ws, irs_opt._precoder_rows(v)

    def test_tile_statistics_match_per_sample_reference(self):
        self._check_against_per_sample_reference(
            synthetic_instance(12, n_s=4, n_u=3, l=2, m=4, k=3, p=5)
        )

    @pytest.mark.parametrize("n_u, l, p", [(3, 3, 4), (1, 2, 9)], ids=["nu3-l3-p4", "nu1-l2-p9"])
    def test_tile_statistics_match_reference_where_rows_differ_from_p(self, n_u, l, p):
        # (N_u L)^2 = 81 against P = 4, and 4 against 9: a face-splitting
        # stack reshaped along the wrong axis fails here, while at desk shapes
        # (N_u L)^2 = P = 16 it would go unseen.
        self._check_against_per_sample_reference(
            synthetic_instance(17, n_s=4, n_u=n_u, l=l, m=4, k=3, p=p)
        )

    def _check_against_per_sample_reference(self, inst):
        hbar, s, t, beams, v = inst["hbar"], inst["s"], inst["t"], inst["beams"], inst["v"]
        g, w = receivers_and_weights(hbar, s, t, beams, v, inst["sigma2"])
        ghv = irs_opt._coupling(g, channel.composite_channel(hbar, s, t, beams), v)
        ws, v_rows = self._sweep_state(g, w, v, t, inst["alpha"], s.shape[1])
        for m in range(beams.shape[0]):
            m_bar, u_bar, _ = irs_opt._tile_statistics(ws, m, v_rows, s[m], ghv, beams[m])
            pairs = [
                accumulate_quadratic(g[n], w[n], v[n], hbar[n], s, t[n], beams, m, inst["alpha"])
                for n in range(hbar.shape[0])
            ]
            ref = mc_expectation(np.array([q[0] for q in pairs]), np.array([q[1] for q in pairs]))
            np.testing.assert_allclose(m_bar, ref.m_bar[0], rtol=1e-12, atol=0)
            np.testing.assert_allclose(u_bar, ref.u_bar[0], rtol=1e-12, atol=0)

    def test_tile_factor_views_equal_per_tile_products(self):
        """At the desk tiling, the factors formed once per sweep for all
        tiles are bit for bit the per-tile products G_i^H T_im and
        alpha_i W_i G_i^H T_im. (With 5 elements per tile, OpenBLAS rounds
        the narrow per-tile product differently in the last bit.)"""
        inst = synthetic_instance(16, n_s=4, n_u=2, l=2, m=8, k=8, p=16)
        hbar, s, t, beams, v = inst["hbar"], inst["s"], inst["t"], inst["beams"], inst["v"]
        alpha, p = inst["alpha"], s.shape[1]
        g, w = receivers_and_weights(hbar, s, t, beams, v, inst["sigma2"])
        ghv = irs_opt._coupling(g, channel.composite_channel(hbar, s, t, beams), v)
        ws, v_rows = self._sweep_state(g, w, v, t, alpha, p)
        g_h = np.swapaxes(g.conj(), -1, -2)
        for m in range(beams.shape[0]):
            a_want = g_h @ t[:, :, m]
            x_want = (alpha[:, None, None] * w) @ a_want
            _, _, k_m = irs_opt._tile_statistics(ws, m, v_rows, s[m], ghv, beams[m])
            a_m = ws.a[..., m * p : (m + 1) * p]
            x_m = ws.x[..., m * p : (m + 1) * p]
            assert np.shares_memory(k_m, ws.k)
            assert np.array_equal(a_m, a_want), f"A, tile {m}"
            assert np.array_equal(x_m, x_want), f"X, tile {m}"

    def test_sequential_refresh_matches_recomputed_coupling(self):
        inst = synthetic_instance(13, n_s=3, n_u=3, l=2, m=4, k=3, p=5)
        hbar, s, t, beams, v = inst["hbar"], inst["s"], inst["t"], inst["beams"], inst["v"]
        g, w = receivers_and_weights(hbar, s, t, beams, v, inst["sigma2"])
        ghv = irs_opt._coupling(g, channel.composite_channel(hbar, s, t, beams), v)
        ws, v_rows = self._sweep_state(g, w, v, t, inst["alpha"], s.shape[1])
        for m in range(beams.shape[0]):
            _, _, k_m = irs_opt._tile_statistics(ws, m, v_rows, s[m], ghv, beams[m])
            b_new = crandn(inst["rng"], beams.shape[1])
            ghv += (k_m @ (b_new - beams[m])).reshape(ghv.shape)
            beams[m] = b_new
            fresh = irs_opt._coupling(g, channel.composite_channel(hbar, s, t, beams), v)
            np.testing.assert_allclose(ghv, fresh, rtol=1e-12, atol=1e-12 * np.abs(fresh).max())

    def test_reused_workspace_carries_no_stale_state(self, tiny_config):
        """One workspace reused across the tiles of a sweep, NaN before its
        factors are formed, gives the bits of a fresh workspace per tile:
        every call writes every row it reads."""
        cfg = tiny_config
        geometry = scenario.build_antenna_positions(cfg)
        s = channel.bs_irs_channels(geometry, cfg)
        sets = [
            channel.build_channel_set(scenario.draw_sample(cfg, n), geometry, cfg, s=s)
            for n in range(cfg.solver.n_samples)
        ]
        hbar = np.array([cs.hbar for cs in sets])
        t = np.array([cs.t for cs in sets])
        beams0 = irs_opt.random_beam_set(cfg).beams
        h = channel.composite_channel(hbar, s, t, beams0)
        v = wmmse.initial_precoders(h, cfg.power_budgets_w())
        g, w = receivers_and_weights(hbar, s, t, beams0, v, cfg.noise_power_w())
        alpha = cfg.alpha()
        rho_sq = cfg.rho_sq()
        p = s.shape[1]

        def sweep(workspace_for_tile):
            # One sequential tile sweep of the offline loop.
            beams = beams0.copy()
            ghv = irs_opt._coupling(g, h, v)
            v_rows = irs_opt._precoder_rows(v)
            out = []
            for m in range(beams.shape[0]):
                m_bar, u_bar, k_m = irs_opt._tile_statistics(
                    workspace_for_tile(), m, v_rows, s[m], ghv, beams[m]
                )
                b_new = update_b(m_bar, u_bar, rho_sq, b_current=beams[m])
                ghv += (k_m @ (b_new - beams[m])).reshape(ghv.shape)
                beams[m] = b_new
                out.append((m_bar, u_bar, ghv.copy()))
            return out

        fresh = sweep(lambda: self._sweep_state(g, w, v, t, alpha, p)[0])
        t_fold = channel.fold_tiles(t)
        stale = irs_opt._tile_workspace(t_fold.shape, p)
        for stack in (stale.a, stale.x, stale.k, stale.z_conj):
            stack.fill(np.nan)
        # As in the loop: the factors once, before the sweep.
        irs_opt._tile_factors(g, w, t_fold, alpha, stale)
        reused = sweep(lambda: stale)
        assert len(fresh) == cfg.k_total
        for m, (want, got) in enumerate(zip(fresh, reused)):
            for name, a, b in zip(("m_bar", "u_bar", "ghv"), want, got):
                assert np.array_equal(a, b), f"tile {m}: {name}"

    def test_tile_statistics_allocate_no_per_tile_stack(self):
        """numpy reports its data buffers to tracemalloc. With the K and
        conj(Z) stacks in the workspace, one call peaks near 0.89 (N_s, P, P)
        stacks at desk shapes (1.32 with the Hadamard-product statistics,
        1.85 while each call formed its own A and X factors, 2.06 while M and
        u shared packed rows); forming K and conj(Z) per call puts it near
        2.90, so the bound of 2 stacks fails it."""
        # Desk shapes: N_s = 100 draws, 2 users with 2 antennas, 8 BS
        # antennas, 8 tiles of 16 elements.
        inst = synthetic_instance(15, n_s=100, n_u=2, l=2, m=8, k=8, p=16)
        hbar, s, t, beams, v = inst["hbar"], inst["s"], inst["t"], inst["beams"], inst["v"]
        g, w = receivers_and_weights(hbar, s, t, beams, v, inst["sigma2"])
        ghv = irs_opt._coupling(g, channel.composite_channel(hbar, s, t, beams), v)
        n_s, p = hbar.shape[0], s.shape[1]
        ws, v_rows = self._sweep_state(g, w, v, t, inst["alpha"], p)
        args = (ws, 0, v_rows, s[0], ghv, beams[0])
        stack_bytes = n_s * p * p * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            irs_opt._tile_statistics(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * stack_bytes, f"peak {peak / stack_bytes:.2f} (N_s, P, P) stacks"

    def test_frozen_sum_rate_is_mean_rate_at_mmse_weights(self):
        """Rate-MMSE duality: at the MMSE receivers and weights of hv,
        mean_n sum_i alpha_i log det W_i is the mean weighted sum rate."""
        inst = synthetic_instance(18, n_s=5, n_u=3, l=2, m=4, k=3, p=5)
        sigma2, alpha = inst["sigma2"], inst["alpha"]
        h = channel.composite_channel(inst["hbar"], inst["s"], inst["t"], inst["beams"])
        hv = wmmse.pair_products(h, inst["v"])
        g = wmmse.update_receivers(hv, sigma2)
        w = wmmse.update_weights(wmmse.mse_matrices(hv, g, sigma2))
        want = irs_opt._mean_sum_rate(hv, sigma2, alpha)
        assert irs_opt.frozen_sum_rate(w, alpha) == pytest.approx(want, rel=1e-10, abs=0)

    def test_composite_matches_per_sample_loop(self):
        inst = synthetic_instance(14, n_s=3, n_u=2, l=3, m=4, k=3, p=5)
        hbar, s, t, beams = inst["hbar"], inst["s"], inst["t"], inst["beams"]
        want = np.array(hbar)
        for n in range(hbar.shape[0]):
            for i in range(hbar.shape[1]):
                for k in range(beams.shape[0]):
                    want[n, i] += t[n, i, k] @ np.diag(beams[k]) @ s[k]
        got = channel.composite_channel(hbar, s, t, beams)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestOfflineOptimizer:
    def test_objective_descends_gc(self):
        inst = synthetic_instance(7, n_s=4, m=3, k=3, p=5)
        beams0 = initial_beams(3, 5, BeamConstraint(mode="GC", rho_sq=5.0), np.random.default_rng(0))
        beams, report = offline_optimize_channels(
            inst["hbar"], inst["s"], inst["t"],
            sigma2=inst["sigma2"], p_budget=inst["p_budget"], alpha=inst["alpha"],
            constraint=BeamConstraint(mode="GC", rho_sq=5.0),
            beams0=beams0, eps=1e-9, max_iters=30,
        )
        obj = np.array(report.objective_history)
        assert np.all(np.diff(obj) <= 1e-8 * np.maximum(np.abs(obj[:-1]), 1.0))
        assert gc_violation(beams, 5.0) <= 1e-9

    def test_delta_stopping_rule(self):
        inst = synthetic_instance(8, n_s=3, m=3, k=2, p=4)
        beams0 = initial_beams(2, 4, BeamConstraint(mode="GC", rho_sq=4.0), np.random.default_rng(1))
        _, report = offline_optimize_channels(
            inst["hbar"], inst["s"], inst["t"],
            sigma2=inst["sigma2"], p_budget=inst["p_budget"], alpha=1.0,
            constraint=BeamConstraint(mode="GC", rho_sq=4.0),
            beams0=beams0, eps=0.01, max_iters=300,
        )
        assert report.converged
        assert report.iterations < 300
        assert report.delta_history[-1] <= 0.01
        # the stop fires at the first crossing, not later
        assert all(d > 0.01 for d in report.delta_history[:-1])

    def test_lc_iterates_stay_on_grid(self):
        inst = synthetic_instance(9, k=2, p=4)
        constraint = BeamConstraint(mode="LC", n_bits=2)
        beams0 = initial_beams(2, 4, constraint, np.random.default_rng(2))
        beams, report = offline_optimize_channels(
            inst["hbar"], inst["s"], inst["t"],
            sigma2=inst["sigma2"], p_budget=inst["p_budget"], alpha=1.0,
            constraint=constraint, beams0=beams0, eps=1e-9, max_iters=10,
        )
        _, idx = quantize_lc(beams.ravel(), 2)
        assert np.array_equal(beams.ravel(), lc_grid_point(idx, 2))
        obj = np.array(report.objective_history)
        assert np.all(np.diff(obj) <= 1e-8 * np.maximum(np.abs(obj[:-1]), 1.0))

    def test_sum_rate_history_in_bits(self):
        inst = synthetic_instance(10)
        beams0 = initial_beams(2, 6, BeamConstraint(mode="GC", rho_sq=6.0), np.random.default_rng(3))
        _, report = offline_optimize_channels(
            inst["hbar"], inst["s"], inst["t"],
            sigma2=inst["sigma2"], p_budget=inst["p_budget"], alpha=inst["alpha"],
            constraint=BeamConstraint(mode="GC", rho_sq=6.0),
            beams0=beams0, eps=1e-9, max_iters=5,
        )
        assert len(report.sum_rate_history) == report.iterations
        assert report.sum_rate_history[-1] > 0

    def test_config_level_entrypoint(self):
        cfg = config_from_dict(tiny_scenario_dict())
        beam_set, report = offline_optimize(cfg)
        assert beam_set.beams.shape == (4, 8)
        assert beam_set.mode == "GC"
        assert report.iterations >= 1
        assert report.max_gc_violation <= 1e-9
        # rerun is bit-identical
        again, _ = offline_optimize(cfg)
        assert np.array_equal(again.beams, beam_set.beams)

    def test_lc_run_is_grid_projection_of_gc_run(self):
        gc_set, gc_report = offline_optimize(config_from_dict(tiny_scenario_dict()))
        assert gc_report.to_dict()["projected_sum_rate"] is None
        for n_bits in (1, 2, 3):
            cfg = config_from_dict(
                tiny_scenario_dict(**{"constraint.mode": "LC", "constraint.n_bits": n_bits})
            )
            lc_set, lc_report = offline_optimize(cfg)
            assert lc_set.mode == "LC"
            assert np.array_equal(lc_set.beams, quantize_lc(gc_set.beams, n_bits)[0])
            assert lc_report.objective_history == gc_report.objective_history
            assert lc_report.to_dict()["projected_sum_rate"] > 0.0


class TestStationarityCheck:
    def test_gradient_identity_holds_with_fresh_weights(self):
        inst = synthetic_instance(12, n_s=4)
        out = verify_theorem1(
            inst["hbar"], inst["s"], inst["t"], inst["beams"], inst["v"], inst["sigma2"],
            alpha=inst["alpha"],
        )
        assert out["max_rel_deviation"] <= 1e-4
        assert out["stale_weights"] is False

    def test_stale_weights_break_identity(self):
        inst = synthetic_instance(13, n_s=4)
        rng = inst["rng"]
        n_s, n_u, l, _ = inst["hbar"].shape
        stale = np.zeros((n_s, n_u, l, l), dtype=complex)
        for n in range(n_s):
            for i in range(n_u):
                a = crandn(rng, l, l)
                stale[n, i] = a @ a.conj().T + np.eye(l)
        out = verify_theorem1(
            inst["hbar"], inst["s"], inst["t"], inst["beams"], inst["v"], inst["sigma2"],
            alpha=inst["alpha"], stale_w=stale,
        )
        assert out["max_rel_deviation"] > 1e-2
        assert out["stale_weights"] is True


class TestBeamPersistence:
    def test_roundtrip_gc(self, tmp_path):
        rng = np.random.default_rng(5)
        beams = crandn(rng, 3, 4)
        beams *= np.sqrt(4.0) / np.linalg.norm(beams, axis=1, keepdims=True)
        bs = IrsBeamSet(beams=beams, mode="GC", n_bits=None, rho_sq=4.0, config_hash="ab" * 32)
        path = tmp_path / "beams.json"
        save_beams(path, bs)
        back = load_beams(path)
        assert back.mode == "GC"
        assert back.rho_sq == 4.0
        assert back.config_hash == bs.config_hash
        assert np.allclose(back.beams, beams, rtol=0, atol=1e-15)

    def test_lc_roundtrip_bit_exact(self, tmp_path):
        idx = np.arange(8).reshape(2, 4) % 4
        beams = lc_grid_point(idx, 2)
        bs = IrsBeamSet(beams=beams, mode="LC", n_bits=2, rho_sq=None, config_hash="")
        path = tmp_path / "beams.json"
        save_beams(path, bs)
        back = load_beams(path)
        assert np.array_equal(back.beams, beams)

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(6)
        beams = crandn(rng, 2, 3)
        # Onto the sphere ||b_k||^2 = rho_sq: `load_beams` rejects GC tiles
        # outside the ball.
        beams *= np.sqrt(3.0) / np.linalg.norm(beams, axis=1, keepdims=True)
        bs = IrsBeamSet(beams=beams, mode="GC", n_bits=None, rho_sq=3.0, config_hash="")
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_beams(p1, bs)
        save_beams(p2, bs)
        assert p1.read_bytes() == p2.read_bytes()
        assert beam_set_digest(bs) == beam_set_digest(load_beams(p1))

    def test_digest_tracks_content(self):
        rng = np.random.default_rng(7)
        beams = crandn(rng, 2, 3)
        a = IrsBeamSet(beams=beams, mode="GC", n_bits=None, rho_sq=3.0, config_hash="")
        b = IrsBeamSet(beams=beams * 1.001, mode="GC", n_bits=None, rho_sq=3.0, config_hash="")
        assert beam_set_digest(a) != beam_set_digest(b)

    def test_version_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(8)
        bs = IrsBeamSet(beams=crandn(rng, 1, 2), mode="GC", n_bits=None, rho_sq=2.0, config_hash="")
        path = tmp_path / "beams.json"
        save_beams(path, bs)
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(IOError, match="version"):
            load_beams(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "beams.json"
        path.write_text(json.dumps({"format_version": 1, "kind": "other"}))
        with pytest.raises(IOError, match="beam-set"):
            load_beams(path)

    @pytest.mark.parametrize("key, value", MALFORMED_BEAM_EDITS)
    def test_malformed_file_rejected_naming_key(self, tmp_path, key, value):
        path = write_malformed_beams(tmp_path / "beams.json", key, value)
        with pytest.raises(IOError, match=key):
            load_beams(path)


class TestInitialBeams:
    def test_gc_initial_feasible(self):
        rng = np.random.default_rng(9)
        b = initial_beams(3, 5, BeamConstraint(mode="GC", rho_sq=5.0), rng)
        assert b.shape == (3, 5)
        assert gc_violation(b, 5.0) <= 1e-12

    def test_lc_initial_on_grid(self):
        rng = np.random.default_rng(10)
        b = initial_beams(2, 4, BeamConstraint(mode="LC", n_bits=1), rng)
        _, idx = quantize_lc(b.ravel(), 1)
        assert np.array_equal(b.ravel(), lc_grid_point(idx, 1))

    def test_seeded_reproducibility(self):
        c = BeamConstraint(mode="GC", rho_sq=4.0)
        b1 = initial_beams(2, 4, c, np.random.default_rng(11))
        b2 = initial_beams(2, 4, c, np.random.default_rng(11))
        assert np.array_equal(b1, b2)


@pytest.mark.parametrize("order", ["shuffled", "sequential", "simultaneous"])
def test_solver_rejects_unknown_tile_order(order):
    # The tile order is no config key: every value, the one order too, is
    # an unknown key, and the config carries the sequential order.
    with pytest.raises(ConfigError, match="unknown configuration key.*solver.tile_order"):
        config_from_dict(tiny_scenario_dict(**{"solver.tile_order": order}))
    assert config_from_dict(tiny_scenario_dict()).solver.tile_order == "sequential"
