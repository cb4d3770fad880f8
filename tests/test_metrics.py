import csv
import dataclasses
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import crandn, tiny_scenario_dict
from irsmimo import metrics, wmmse
from irsmimo.numerics import NumericalError
from irsmimo.scenario import NAMESPACE_EVAL, build_antenna_positions, config_from_dict, draw_sample
from irsmimo import channel as ch


class TestEffectiveRank:
    def test_identity(self):
        assert metrics.effective_rank(np.eye(4)) == pytest.approx(4.0)

    def test_rank_one(self):
        a = np.outer([1.0, 2.0], [3.0, 4.0, 5.0])
        assert metrics.effective_rank(a) == pytest.approx(1.0)

    def test_diagonal_example(self):
        assert metrics.effective_rank(np.diag([2.0, 1.0, 1.0, 0.0])) == pytest.approx(2.0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            metrics.effective_rank(np.zeros((3, 3)))

    def test_nonfinite_channel_rejected(self):
        for bad in (np.nan, np.inf):
            h = np.eye(3, dtype=complex)
            h[1, 2] = bad
            with pytest.raises(NumericalError, match="effective_rank"):
                metrics.effective_rank(h)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(0)
        h = crandn(rng, 3, 5)
        r = metrics.effective_rank(h)
        assert metrics.effective_rank(1e7 * h) == pytest.approx(r, abs=1e-9)
        assert metrics.effective_rank(1e-7 * h) == pytest.approx(r, abs=1e-9)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(1)
        h = crandn(rng, 3, 5)
        ql, _ = np.linalg.qr(crandn(rng, 3, 3))
        qr, _ = np.linalg.qr(crandn(rng, 5, 5))
        r = metrics.effective_rank(h)
        assert metrics.effective_rank(ql @ h @ qr) == pytest.approx(r, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            h = crandn(rng, 2, 6)
            r = metrics.effective_rank(h)
            assert 1.0 <= r <= 2.0 + 1e-12


class TestArrayFactor:
    def test_single_element_is_flat(self):
        pos = np.zeros((1, 3))
        exc = np.array([0.7 + 0.2j])
        angles = metrics.default_direction_grid()
        pat = metrics.array_factor(pos, exc, 0.06, angles)
        assert np.allclose(pat, abs(exc[0]) ** 2)

    def test_single_element_with_cell_pattern_traces_f(self):
        pos = np.zeros((1, 3))
        exc = np.array([1.0 + 0j])
        angles = np.array([0.0, 45.0, 90.0, 180.0])
        pat = metrics.array_factor(pos, exc, 0.06, angles, normal=[1.0, 0.0, 0.0], q=0.57)
        f = ch.cell_pattern(np.deg2rad([0.0, 45.0, 90.0, 180.0]), 0.57)
        assert np.allclose(pat, f)

    def test_two_element_broadside(self):
        lam = 0.06
        pos = np.array([[0.0, -lam / 4, 0.0], [0.0, lam / 4, 0.0]])
        exc = np.ones(2, dtype=complex)
        angles = np.array([0.0, 90.0, 180.0, 270.0])
        pat = metrics.array_factor(pos, exc, lam, angles)
        # broadside (x axis) peaks at 4, endfire (y axis) is a null
        assert pat[0] == pytest.approx(4.0, rel=1e-12)
        assert pat[2] == pytest.approx(4.0, rel=1e-12)
        assert pat[1] == pytest.approx(0.0, abs=1e-12)
        assert pat[3] == pytest.approx(0.0, abs=1e-12)

    def test_ten_element_main_lobe_matches_scan_oracle(self):
        lam = 0.06
        n = 10
        ys = (np.arange(n) - (n - 1) / 2) * lam / 2
        pos = np.stack([np.zeros(n), ys, np.zeros(n)], axis=1)
        rng = np.random.default_rng(3)
        # steer to a random azimuth by conjugate phasing
        target = rng.uniform(0.0, 180.0)
        u = np.array([np.cos(np.deg2rad(target)), np.sin(np.deg2rad(target)), 0.0])
        exc = np.exp(-2j * np.pi / lam * (pos @ u))
        grid = metrics.default_direction_grid()
        pat = metrics.array_factor(pos, exc, lam, grid)
        found = grid[int(np.argmax(pat))]
        # dense scan oracle
        dense = np.arange(0.0, 360.0, 0.01)
        oracle = dense[int(np.argmax(metrics.array_factor(pos, exc, lam, dense)))]
        # mirror ambiguity of a linear array: compare against the grid
        diff = min(abs(found - oracle), 360.0 - abs(found - oracle))
        assert diff <= 0.5 + 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics.array_factor(np.zeros((1, 3)), np.ones(1), 0.06, np.array([]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            metrics.array_factor(np.zeros((2, 3)), np.ones(3), 0.06, np.array([0.0]))


class TestEquivalentArrayFactor:
    @pytest.fixture
    def setup(self, tiny_config):
        geo = build_antenna_positions(tiny_config)
        rng = np.random.default_rng(4)
        beams = np.exp(2j * np.pi * rng.random((4, 8)))
        v_col = crandn(rng, 8)
        return geo, beams, v_col, ch.bs_irs_channels(geo, tiny_config)

    def test_global_phase_invariance(self, tiny_config, setup):
        geo, beams, v_col, s = setup
        angles, gain = metrics.equivalent_array_factor(geo, tiny_config, beams, v_col, 1, s=s)
        rotated = beams.copy()
        rotated[1] = rotated[1] * np.exp(1j * 1.234)
        _, gain_rot = metrics.equivalent_array_factor(geo, tiny_config, rotated, v_col, 1, s=s)
        assert np.allclose(gain, gain_rot, atol=1e-9)

    def test_normalized_peak_is_zero_db(self, tiny_config, setup):
        geo, beams, v_col, s = setup
        _, gain = metrics.equivalent_array_factor(geo, tiny_config, beams, v_col, 0, s=s)
        assert np.max(gain) == pytest.approx(0.0, abs=1e-12)
        assert np.all(gain >= metrics.DB_FLOOR - 1e-12)

    def test_default_grid_spacing(self, tiny_config, setup):
        geo, beams, v_col, s = setup
        angles, gain = metrics.equivalent_array_factor(geo, tiny_config, beams, v_col, 0, s=s)
        assert angles.shape == (720,)
        assert gain.shape == (720,)
        assert angles[1] - angles[0] == 0.5

    def test_empty_grid_rejected(self, tiny_config, setup):
        geo, beams, v_col, s = setup
        with pytest.raises(ValueError, match="empty"):
            metrics.equivalent_array_factor(
                geo, tiny_config, beams, v_col, 0, s=s, angles_deg=np.array([])
            )

    def test_zero_excitation_rejected(self, tiny_config, setup):
        geo, beams, v_col, s = setup
        dark = np.zeros_like(beams)
        with pytest.raises(ValueError, match="zero"):
            metrics.equivalent_array_factor(geo, tiny_config, dark, v_col, 0, s=s)

    def test_precomputed_s_matches(self, tiny_config, setup):
        geo, beams, v_col, s = setup
        _, a = metrics.equivalent_array_factor(
            geo, tiny_config, beams, v_col, 2, s=ch.bs_irs_channels(geo, tiny_config)
        )
        _, b = metrics.equivalent_array_factor(geo, tiny_config, beams, v_col, 2, s=s)
        assert np.array_equal(a, b)


class TestEvaluate:
    def test_duplicate_run_is_identical(self, tiny_config):
        rng = np.random.default_rng(5)
        beams = np.exp(2j * np.pi * rng.random((4, 8)))
        r1 = metrics.evaluate_average_sum_rate(tiny_config, beams, beams_hash="x")
        r2 = metrics.evaluate_average_sum_rate(tiny_config, beams, beams_hash="x")
        assert np.array_equal(r1.per_ue_rates, r2.per_ue_rates)
        assert np.array_equal(r1.eff_ranks, r2.eff_ranks)
        assert r1.mean_sum_rate == r2.mean_sum_rate
        assert r1.stderr_sum_rate == r2.stderr_sum_rate
        assert r1.realization_ids == r2.realization_ids

    def test_zero_channels_zero_mean(self):
        cfg = config_from_dict(tiny_scenario_dict(**{"channel.n_clusters": 0}))
        beams = np.zeros((4, 8), dtype=complex)
        out = metrics.evaluate_average_sum_rate(cfg, beams)
        assert out.mean_sum_rate == pytest.approx(0.0, abs=1e-12)
        assert out.n_excluded == 0

    def test_stats_match_direct_formulas(self, tiny_config):
        rng = np.random.default_rng(6)
        beams = np.exp(2j * np.pi * rng.random((4, 8)))
        out = metrics.evaluate_average_sum_rate(tiny_config, beams)
        sums = out.sum_rates
        assert out.mean_sum_rate == pytest.approx(np.mean(sums), rel=1e-12)
        assert out.stderr_sum_rate == pytest.approx(
            np.std(sums, ddof=1) / np.sqrt(len(sums)), rel=1e-12
        )
        assert out.n_realizations == tiny_config.eval.n_realizations
        assert len(out.realization_ids) == out.n_realizations

    def test_rates_agree_with_direct_online_solve(self, tiny_config):
        rng = np.random.default_rng(7)
        beams = np.exp(2j * np.pi * rng.random((4, 8)))
        out = metrics.evaluate_average_sum_rate(tiny_config, beams, n_realizations=2)
        geo = build_antenna_positions(tiny_config)
        sample = draw_sample(tiny_config, 1, namespace=1)
        s = ch.bs_irs_channels(geo, tiny_config)
        cset = ch.build_channel_set(sample, geo, tiny_config, s=s)
        h = ch.composite_channel(cset.hbar, cset.s, cset.t, beams)
        link = wmmse.online_wmmse(
            h,
            tiny_config.noise_power_w(),
            tiny_config.power_budgets_w(),
            alpha=tiny_config.alpha(),
            tol=tiny_config.solver.tol_online,
            max_iters=tiny_config.solver.max_online_iters,
        )
        assert np.allclose(out.per_ue_rates[1], link.rates, rtol=1e-12)

    def test_realization_row_independent_of_realization_count(self, tiny_config):
        rng = np.random.default_rng(13)
        beams = np.exp(2j * np.pi * rng.random((4, 8)))
        few = metrics.evaluate_average_sum_rate(tiny_config, beams, n_realizations=3)
        many = metrics.evaluate_average_sum_rate(tiny_config, beams, n_realizations=5)
        assert few.realization_ids == many.realization_ids[:3]
        for r in range(3):
            assert np.array_equal(few.per_ue_rates[r], many.per_ue_rates[r])
            assert np.array_equal(few.eff_ranks[r], many.eff_ranks[r])
            assert few.iterations[r] == many.iterations[r]
            assert few.converged[r] == many.converged[r]

    def test_chunk_boundary_rows_equal_single_realization_solves(self, tiny_config, monkeypatch):
        """Chunks of 2 over 5 realizations, so rows 1|2 and 3|4 straddle a
        boundary: every row equals one online solve of that realization."""
        monkeypatch.setattr(metrics, "EVAL_CHUNK", 2)
        rng = np.random.default_rng(14)
        beams = np.exp(2j * np.pi * rng.random((4, 8)))
        out = metrics.evaluate_average_sum_rate(tiny_config, beams, n_realizations=5)
        assert out.realization_ids == list(range(5))
        for idx in range(5):
            cs = ch.sample_channels(tiny_config, NAMESPACE_EVAL, [idx])
            h = ch.composite_channel(cs.hbar, cs.s, cs.t, beams)[0]
            link = metrics.online_solve(tiny_config, h)
            assert np.array_equal(out.per_ue_rates[idx], link.rates)
            assert np.array_equal(out.eff_ranks[idx], [metrics.effective_rank(hi) for hi in h])
            assert out.iterations[idx] == link.iterations

    def test_memory_does_not_grow_with_realization_count(self, tiny_config, monkeypatch):
        """The tracemalloc peak over 8 chunks stays below 3 times the peak of
        one chunk; one stack of all realizations holds about 8 times as
        much. The online solver is stubbed: it frees what it allocates, and
        it would dominate the run time."""
        n_u = tiny_config.ue.count
        link = SimpleNamespace(rates=np.ones(n_u), iterations=1, converged=True)
        monkeypatch.setattr(metrics, "online_wmmse", lambda *args, **kwargs: link)
        beams = np.ones((4, 8), dtype=complex)
        peaks = []
        for n in (metrics.EVAL_CHUNK, 8 * metrics.EVAL_CHUNK):
            tracemalloc.start()
            try:
                metrics.evaluate_average_sum_rate(tiny_config, beams, n_realizations=n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 3 * peaks[0], f"peaks {peaks} bytes"

    @pytest.mark.parametrize("n", [2.5, 2.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_realization_count_rejected(self, tiny_config, n):
        beams = np.ones((4, 8), dtype=complex)
        with pytest.raises(ValueError, match="not an integer"):
            metrics.evaluate_average_sum_rate(tiny_config, beams, n_realizations=n)

    def test_numpy_integer_realization_count_accepted(self, tiny_config):
        beams = np.ones((4, 8), dtype=complex)
        out = metrics.evaluate_average_sum_rate(tiny_config, beams, n_realizations=np.int64(2))
        assert type(out.n_realizations) is int
        assert out.realization_ids == [0, 1]

    def test_capped_solves_reported(self, tmp_path):
        cfg = config_from_dict(tiny_scenario_dict(**{"solver.max_online_iters": 1}))
        rng = np.random.default_rng(11)
        beams = np.exp(2j * np.pi * rng.random((4, 8)))
        out = metrics.evaluate_average_sum_rate(cfg, beams)
        path = tmp_path / "summary.json"
        metrics.write_summary_json(path, out)
        doc = json.loads(path.read_text())
        assert doc["n_ok"] == cfg.eval.n_realizations
        assert doc["n_capped"] == doc["n_ok"]
        assert doc["max_online_iterations"] == 1

    def test_online_iteration_percentiles_reported(self, tiny_config, tmp_path):
        rng = np.random.default_rng(12)
        beams = np.exp(2j * np.pi * rng.random((4, 8)))
        out = metrics.evaluate_average_sum_rate(tiny_config, beams)
        path = tmp_path / "summary.json"
        metrics.write_summary_json(path, out)
        doc = json.loads(path.read_text())
        assert doc["online_iterations_p50"] == float(np.median(out.iterations))
        assert doc["online_iterations_p95"] == float(np.percentile(out.iterations, 95))
        assert min(out.iterations) <= doc["online_iterations_p50"]
        assert doc["online_iterations_p50"] <= doc["online_iterations_p95"]
        assert doc["online_iterations_p95"] <= doc["max_online_iterations"]

    def test_beam_shape_validated(self, tiny_config):
        with pytest.raises(ValueError, match="beam"):
            metrics.evaluate_average_sum_rate(tiny_config, np.ones((2, 8)))

    def test_exclusions_above_threshold_hard_fail(self, tiny_config, monkeypatch):
        calls = {"n": 0}
        real = wmmse.online_wmmse

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise NumericalError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(metrics, "online_wmmse", flaky)
        rng = np.random.default_rng(8)
        beams = np.exp(2j * np.pi * rng.random((4, 8)))
        with pytest.raises(NumericalError, match="excluded"):
            metrics.evaluate_average_sum_rate(tiny_config, beams)

    def test_rare_exclusions_tolerated(self, tiny_config, monkeypatch):
        calls = {"n": 0}
        canned = wmmse.LinkVariables(
            v=np.zeros((2, 8, 2), dtype=complex),
            g=np.zeros((2, 2, 2), dtype=complex),
            w=np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2)).copy(),
            rates=np.array([1.0, 2.0]),
        )

        def once(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NumericalError("synthetic failure")
            return canned

        monkeypatch.setattr(metrics, "online_wmmse", once)
        rng = np.random.default_rng(9)
        beams = np.exp(2j * np.pi * rng.random((4, 8)))
        out = metrics.evaluate_average_sum_rate(tiny_config, beams, n_realizations=200)
        assert out.excluded_ids == [0]
        assert len(out.realization_ids) == 199
        assert out.mean_sum_rate == pytest.approx(3.0, rel=1e-12)
        assert out.failure_messages and "synthetic failure" in out.failure_messages[0]


class TestWriters:
    @pytest.fixture
    def result(self, tiny_config):
        rng = np.random.default_rng(10)
        beams = np.exp(2j * np.pi * rng.random((4, 8)))
        return metrics.evaluate_average_sum_rate(tiny_config, beams, beams_hash="beef" * 16)

    def test_eval_csv_layout(self, result, tmp_path):
        path = tmp_path / "eval.csv"
        metrics.write_eval_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# format_version={metrics.EVAL_CSV_VERSION}"
        assert lines[1] == f"# config_hash={result.config_hash}"
        assert lines[2] == f"# beams_hash={'beef' * 16}"
        header = lines[6].split(",")
        assert header == [
            "realization", "rate_ue0", "rate_ue1", "sum_rate",
            "eff_rank_ue0", "eff_rank_ue1", "status",
        ]
        rows = list(csv.reader(lines[7:]))
        assert len(rows) == result.n_realizations
        assert all(r[-1] == "ok" for r in rows)
        got = float(rows[0][3])
        assert got == pytest.approx(result.sum_rates[0], rel=1e-11)

    def test_eval_csv_marks_excluded(self, result, tmp_path):
        gutted = dataclasses.replace(
            result,
            per_ue_rates=result.per_ue_rates[1:],
            sum_rates=result.sum_rates[1:],
            eff_ranks=result.eff_ranks[1:],
            realization_ids=result.realization_ids[1:],
            excluded_ids=[0],
        )
        path = tmp_path / "eval.csv"
        metrics.write_eval_csv(path, gutted)
        rows = list(csv.reader(path.read_text().splitlines()[7:]))
        assert rows[0] == ["0", "", "", "", "", "", "excluded"]
        assert rows[1][-1] == "ok"

    def test_summary_json(self, result, tmp_path):
        path = tmp_path / "summary.json"
        metrics.write_summary_json(path, result)
        doc = json.loads(path.read_text())
        assert doc["mean_sum_rate"] == result.mean_sum_rate
        assert doc["n_ok"] == len(result.realization_ids)
        assert doc["beams_hash"] == "beef" * 16
        assert doc["n_excluded"] == 0

    def test_summary_bytes_deterministic(self, result, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        metrics.write_summary_json(p1, result)
        metrics.write_summary_json(p2, result)
        assert p1.read_bytes() == p2.read_bytes()

    def test_array_factor_csv(self, tmp_path):
        angles = np.array([0.0, 0.5, 1.0])
        gain = np.array([-3.0, 0.0, -10.0])
        path = tmp_path / "af.csv"
        metrics.write_array_factor_csv(path, angles, gain, {"tile": 0, "beams_hash": "ff"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# beams_hash=ff"
        assert lines[1] == "# tile=0"
        assert lines[2] == "angle_deg,gain_db"
        assert lines[3] == "0,-3"
