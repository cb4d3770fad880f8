import numpy as np
import pytest

from conftest import crandn
from oracles import weighted_mse_objective, whitened_residual
from irsmimo.numerics import NumericalError, logdet_hpd, herm
from irsmimo import channel as ch
from irsmimo import wmmse
from irsmimo.scenario import build_antenna_positions, draw_sample

# Kernels are checked against the per-user loop forms below to this relative
# tolerance.
LOOP_RTOL = 1e-12


def random_links(seed, n_u=3, l_ant=2, m_ant=6):
    rng = np.random.default_rng(seed)
    h = crandn(rng, n_u, l_ant, m_ant)
    return h, rng


# ---------------------------------------------------------------------------
# Per-user loop reference forms


def user_rate(h_i, v, sigma2, i):
    """Rate of user i in nats: log det(I_L + V_i^H H_i^H Jbar_i^-1 H_i V_i),
    with Jbar_i = sum_{j != i} H_i V_j V_j^H H_i^H + sigma2 I."""
    l_ant = h_i.shape[0]
    jbar = sigma2 * np.eye(l_ant, dtype=complex)
    for j in range(v.shape[0]):
        if j == i:
            continue
        hv = h_i @ v[j]
        jbar += hv @ hv.conj().T
    hv_i = h_i @ v[i]
    inner = hv_i.conj().T @ np.linalg.solve(jbar, hv_i)
    return logdet_hpd(herm(np.eye(v.shape[2], dtype=complex) + inner))


def mse_matrix(h_i, v, g_i, sigma2, i):
    """Symbol MSE matrix E_i of user i for receive filter G_i."""
    gh = g_i.conj().T
    resid = np.eye(v.shape[2], dtype=complex) - gh @ (h_i @ v[i])
    e = resid @ resid.conj().T
    for j in range(v.shape[0]):
        if j == i:
            continue
        cross = gh @ (h_i @ v[j])
        e += cross @ cross.conj().T
    e += sigma2 * (gh @ g_i)
    return herm(e)


def kernel_loop_online_wmmse(h, sigma2, p_budget, alpha, tol, max_iters, warm_mu=True):
    """The online solver spelled out as a plain loop of the public kernels,
    each forming its own pair products, then the final receiver and weight
    refresh and the rates. With warm_mu=False every mu search starts cold
    (no mu0). Returns (rates in bits, V, G, W, mu, objective trace,
    iterations, converged)."""
    v = wmmse.initial_precoders(h, p_budget)
    mu = np.zeros(h.shape[0])
    trace = []
    prev = np.inf
    converged = False
    for iterations in range(1, max_iters + 1):
        g = wmmse.update_receivers(wmmse.pair_products(h, v), sigma2)
        w, w_chol = wmmse.update_weights(wmmse.mse_matrices(wmmse.pair_products(h, v), g, sigma2))
        v, mu, res, rg = wmmse.update_precoders(
            h, g, w_chol, alpha, p_budget, mu0=mu if warm_mu else None
        )
        obj = wmmse.mean_objective(res, rg, w_chol, alpha, sigma2)
        trace.append(obj)
        if np.isfinite(prev) and prev - obj <= tol * abs(prev):
            converged = True
            break
        prev = obj
    g = wmmse.update_receivers(wmmse.pair_products(h, v), sigma2)
    w, _ = wmmse.update_weights(wmmse.mse_matrices(wmmse.pair_products(h, v), g, sigma2))
    rates = wmmse.user_rates(wmmse.pair_products(h, v), sigma2) / np.log(2.0)
    return rates, v, g, w, mu, trace, iterations, converged


class TestUserRate:
    def test_single_user_equals_capacity_logdet(self):
        h, rng = random_links(0, n_u=1)
        v = crandn(rng, 1, 6, 2)
        sigma2 = 0.5
        hv = h[0] @ v[0]
        direct = logdet_hpd(
            herm(np.eye(2, dtype=complex) + hv.conj().T @ hv / sigma2)
        )
        assert wmmse.user_rates(wmmse.pair_products(h, v), sigma2)[0] == pytest.approx(direct, rel=1e-12)

    def test_matches_loop_reference(self):
        h, rng = random_links(18)
        v = crandn(rng, 3, 6, 2)
        expect = [user_rate(h[i], v, 0.3, i) for i in range(3)]
        assert np.allclose(wmmse.user_rates(wmmse.pair_products(h, v), 0.3), expect, rtol=LOOP_RTOL, atol=0.0)

    def test_interference_lowers_rate(self):
        h, rng = random_links(1)
        v = crandn(rng, 3, 6, 2)
        alone = wmmse.user_rates(wmmse.pair_products(h[:1], v[:1]), 1.0)[0]
        crowded = wmmse.user_rates(wmmse.pair_products(h, v), 1.0)[0]
        assert crowded < alone

    def test_zero_precoder_zero_rate(self):
        h, _ = random_links(2, n_u=1)
        v = np.zeros((1, 6, 2), dtype=complex)
        assert wmmse.user_rates(wmmse.pair_products(h, v), 1.0)[0] == pytest.approx(0.0, abs=1e-15)

    def test_rejects_nonpositive_noise(self):
        h, rng = random_links(3, n_u=1)
        v = crandn(rng, 1, 6, 2)
        with pytest.raises(ValueError):
            wmmse.user_rates(wmmse.pair_products(h, v), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_noise_that_is_not_finite(self, bad):
        """A NaN or infinite noise power is refused by name, by the rates and
        by the online solver, instead of reaching the weights as NaN."""
        h, rng = random_links(3, n_u=2)
        hv = wmmse.pair_products(h, crandn(rng, 2, 6, 2))
        with pytest.raises(ValueError, match="sigma2"):
            wmmse.user_rates(hv, bad)
        with pytest.raises(ValueError, match="sigma2"):
            wmmse.online_wmmse(h, bad, 1.0, alpha=1.0, tol=1e-6, max_iters=5)


class TestBlocks:
    def test_mmse_receiver_matches_direct_inverse(self):
        h, rng = random_links(4)
        v = crandn(rng, 3, 6, 2)
        sigma2 = 0.3
        g = wmmse.update_receivers(wmmse.pair_products(h, v), sigma2)
        for i in range(3):
            j = sigma2 * np.eye(2, dtype=complex)
            for k in range(3):
                hv = h[i] @ v[k]
                j += hv @ hv.conj().T
            expect = np.linalg.inv(j) @ (h[i] @ v[i])
            assert np.allclose(g[i], expect, rtol=1e-11, atol=1e-13)

    def test_mmse_receiver_minimizes_trace_mse(self):
        h, rng = random_links(5)
        v = crandn(rng, 3, 6, 2)
        g = wmmse.update_receivers(wmmse.pair_products(h, v), 0.7)
        base = float(np.real(np.trace(wmmse.mse_matrices(wmmse.pair_products(h, v), g, 0.7)[0])))
        for _ in range(20):
            probe = g.copy()
            probe[0] = g[0] + 0.1 * crandn(rng, 2, 2)
            other = float(np.real(np.trace(wmmse.mse_matrices(wmmse.pair_products(h, v), probe, 0.7)[0])))
            assert other >= base - 1e-12

    def test_mse_matrices_match_loop_reference(self):
        h, rng = random_links(19)
        v = crandn(rng, 3, 6, 2)
        g = crandn(rng, 3, 2, 2)
        expect = np.array([mse_matrix(h[i], v, g[i], 0.6, i) for i in range(3)])
        assert np.allclose(wmmse.mse_matrices(wmmse.pair_products(h, v), g, 0.6), expect, rtol=LOOP_RTOL, atol=0.0)

    def test_weights_invert_mse(self):
        h, rng = random_links(6)
        v = crandn(rng, 3, 6, 2)
        g = wmmse.update_receivers(wmmse.pair_products(h, v), 0.4)
        e = wmmse.mse_matrices(wmmse.pair_products(h, v), g, 0.4)
        w, w_chol = wmmse.update_weights(e)
        for i in range(3):
            assert np.allclose(w[i] @ e[i], np.eye(2), atol=1e-10)
            assert np.allclose(w_chol[i] @ w_chol[i].conj().T, w[i], rtol=1e-12, atol=0.0)
            assert np.array_equal(w_chol[i], np.tril(w_chol[i]))

    def test_weights_not_positive_definite_raise(self):
        e = np.array([[[1.0, 0.0], [0.0, -2.0]]], dtype=complex)
        with pytest.raises(NumericalError, match="not positive definite"):
            wmmse.update_weights(e)

    def test_precoders_meet_power_budgets(self):
        h, rng = random_links(7)
        v = crandn(rng, 3, 6, 2)
        g = wmmse.update_receivers(wmmse.pair_products(h, v), 0.2)
        e = wmmse.mse_matrices(wmmse.pair_products(h, v), g, 0.2)
        _, w_chol = wmmse.update_weights(e)
        budgets = np.array([1.0, 2.0, 0.5])
        v_new, mu, _, _ = wmmse.update_precoders(h, g, w_chol, np.ones(3), budgets)
        for i in range(3):
            power = float(np.real(np.trace(v_new[i] @ v_new[i].conj().T)))
            assert power <= budgets[i] + 1e-8 * budgets[i]
            if mu[i] > 0:
                assert power == pytest.approx(budgets[i], rel=1e-6)

    def test_precoder_update_descends_objective(self):
        h, rng = random_links(8)
        v = wmmse.initial_precoders(h, np.full(3, 2.0))
        sigma2 = 0.5
        alpha = np.ones(3)
        g = wmmse.update_receivers(wmmse.pair_products(h, v), sigma2)
        e = wmmse.mse_matrices(wmmse.pair_products(h, v), g, sigma2)
        w, w_chol = wmmse.update_weights(e)
        before = weighted_mse_objective(wmmse.pair_products(h, v), g, w, w_chol, alpha, sigma2)
        v_new = wmmse.update_precoders(h, g, w_chol, alpha, np.full(3, 2.0))[0]
        after = weighted_mse_objective(wmmse.pair_products(h, v_new), g, w, w_chol, alpha, sigma2)
        assert after <= before + 1e-12

    def test_svd_init_uses_full_power(self):
        h, _ = random_links(9)
        budgets = np.array([1.0, 3.0, 0.25])
        v = wmmse.initial_precoders(h, budgets)
        for i in range(3):
            power = float(np.real(np.trace(v[i] @ v[i].conj().T)))
            assert power == pytest.approx(budgets[i], rel=1e-12)

    def test_svd_init_spans_leading_directions(self):
        h, _ = random_links(10, n_u=1)
        v = wmmse.initial_precoders(h, np.array([2.0]))
        _, _, vh = np.linalg.svd(h[0])
        sub = vh.conj().T[:, :2]
        # projection onto the leading right-singular subspace is lossless
        proj = sub @ (sub.conj().T @ v[0])
        assert np.allclose(proj, v[0], atol=1e-12)


def m_space_precoders(h, g, w, alpha, mu):
    """V_i = alpha_i (K + mu_i I)^-1 H_i^H G_i W_i formed in the M-dimensional
    space, K = sum_j alpha_j H_j^H G_j W_j G_j^H H_j; at mu_i = 0 the
    minimum-norm solution (pseudo-inverse), the limit mu_i -> 0."""
    n_u, _, m_ant = h.shape
    hgw = [h[j].conj().T @ g[j] @ w[j] for j in range(n_u)]
    k_mat = sum(alpha[j] * hgw[j] @ g[j].conj().T @ h[j] for j in range(n_u))
    out = []
    for i in range(n_u):
        rhs = alpha[i] * hgw[i]
        if mu[i] > 0.0:
            out.append(np.linalg.solve(k_mat + mu[i] * np.eye(m_ant), rhs))
        else:
            out.append(np.linalg.pinv(k_mat, hermitian=True) @ rhs)
    return np.array(out)


class TestStreamSpacePrecoders:
    """`update_precoders` solves in the N_u*L-dimensional stream space; V
    must be the M-dimensional solution at the returned mu, within budget."""

    @pytest.mark.parametrize(
        "n_u, l_ant, m_ant, zero_user, budget, interior",
        [
            (2, 2, 8, None, 0.5, False),  # N_u*L < M
            (3, 2, 6, None, 0.5, False),  # N_u*L = M, the random_links shape
            (3, 2, 8, 1, 0.5, False),  # user 1's channel is zero: B is rank-deficient
            (2, 2, 8, None, 1e6, True),  # budget large enough that mu = 0
            (3, 4, 8, None, 0.5, False),  # N_u*L > M: B B^H is singular by shape
            (3, 4, 8, None, 1e6, True),
        ],
        ids=["narrow", "square", "zero_user", "mu_zero", "tall", "tall_mu_zero"],
    )
    def test_equals_m_space_solution_within_budget(
        self, n_u, l_ant, m_ant, zero_user, budget, interior
    ):
        h, rng = random_links(23, n_u=n_u, l_ant=l_ant, m_ant=m_ant)
        if zero_user is not None:
            h[zero_user] = 0.0
        sigma2 = 0.2
        alpha = np.linspace(1.0, 2.0, n_u)
        budgets = budget * np.linspace(1.0, 1.5, n_u)
        v0 = crandn(rng, n_u, m_ant, l_ant)
        g = wmmse.update_receivers(wmmse.pair_products(h, v0), sigma2)
        w, w_chol = wmmse.update_weights(wmmse.mse_matrices(wmmse.pair_products(h, v0), g, sigma2))
        v, mu, _, _ = wmmse.update_precoders(h, g, w_chol, alpha, budgets)
        expect = m_space_precoders(h, g, w, alpha, mu)
        assert np.linalg.norm(v - expect) <= 1e-9 * np.linalg.norm(expect)
        power = np.sum(np.abs(v) ** 2, axis=(-2, -1))
        assert np.all(power <= budgets * (1.0 + 1e-8))
        on_boundary = mu > 0.0
        assert np.all(np.abs(power - budgets)[on_boundary] <= 1e-8 * budgets[on_boundary])
        if interior:
            assert np.all(mu == 0.0)
        else:
            served = np.ones(n_u, dtype=bool)
            if zero_user is not None:
                served[zero_user] = False
                assert mu[zero_user] == 0.0
                assert np.linalg.norm(v[zero_user]) <= 1e-12 * np.linalg.norm(v)
            assert np.all(mu[served] > 0.0)


class TestMeanObjective:
    """`mean_objective` reads sum_i alpha_i { tr(W_i E_i) - log det W_i }
    from the whitened residual; the E-matrix form of
    `oracles.weighted_mse_objective` is the reference."""

    def test_online_trace_is_weighted_mse_at_each_iterate(self, monkeypatch):
        h, _ = random_links(24, n_u=3, l_ant=2, m_ant=8)
        sigma2, alpha = 0.1, np.array([1.0, 2.5, 0.5])
        weights, steps = [], []
        update_weights, update_precoders = wmmse.update_weights, wmmse.update_precoders

        def recording_weights(e):
            weights.append(update_weights(e))
            return weights[-1]

        def recording_precoders(h, g, w_chol, alpha, p_budget, mu0=None):
            out = update_precoders(h, g, w_chol, alpha, p_budget, mu0=mu0)
            steps.append((g, w_chol, out[0]))
            return out

        monkeypatch.setattr(wmmse, "update_weights", recording_weights)
        monkeypatch.setattr(wmmse, "update_precoders", recording_precoders)
        out = wmmse.online_wmmse(h, sigma2, 1.5, alpha=alpha, tol=1e-8, max_iters=40)
        assert out.iterations == len(out.objective_trace) == len(steps) > 2
        for it, (obj, (g, w_chol, v)) in enumerate(zip(out.objective_trace, steps)):
            w, w_chol_made = weights[it]
            assert w_chol is w_chol_made
            want = weighted_mse_objective(wmmse.pair_products(h, v), g, w, w_chol, alpha, sigma2)
            assert obj == pytest.approx(float(want), rel=1e-12, abs=0), f"iteration {it}"

    def test_stack_objective_is_mean_weighted_mse(self):
        rng = np.random.default_rng(25)
        stack = crandn(rng, 5, 3, 2, 6)
        sigma2 = 0.3
        alpha = np.array([1.0, 1.5, 0.5])
        budgets = np.array([1.0, 2.0, 0.5])
        hv = wmmse.pair_products(stack, wmmse.initial_precoders(stack, budgets))
        g = wmmse.update_receivers(hv, sigma2)
        w, w_chol = wmmse.update_weights(wmmse.mse_matrices(hv, g, sigma2))
        v, _, res, rg = wmmse.update_precoders(stack, g, w_chol, alpha, budgets)
        want_res, want_rg = whitened_residual(stack, g, w_chol, alpha, v)
        np.testing.assert_allclose(res, want_res, rtol=1e-12, atol=1e-12 * np.abs(want_res).max())
        np.testing.assert_allclose(rg, want_rg, rtol=1e-12, atol=0)
        # At the precoder step's V, and at precoders that no step produced.
        for v_at, res_at in [(v, res), (crandn(rng, *v.shape), None)]:
            if res_at is None:
                res_at = whitened_residual(stack, g, w_chol, alpha, v_at)[0]
            want = weighted_mse_objective(
                wmmse.pair_products(stack, v_at), g, w, w_chol, alpha, sigma2
            )
            got = wmmse.mean_objective(res_at, rg, w_chol, alpha, sigma2)
            assert got == pytest.approx(float(np.mean(want)), rel=1e-12, abs=0)


class TestOnlineWmmse:
    def test_objective_trace_monotone(self):
        for seed in range(5):
            h, _ = random_links(seed, n_u=3, l_ant=2, m_ant=8)
            out = wmmse.online_wmmse(h, 0.1, 1.5, alpha=1.0, tol=1e-6, max_iters=60)
            trace = np.array(out.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9)

    def test_rate_weight_duality_at_convergence(self):
        h, _ = random_links(11, n_u=3, l_ant=2, m_ant=8)
        out = wmmse.online_wmmse(h, 0.05, 2.0, alpha=1.0, tol=1e-10, max_iters=400)
        rates_nats = out.rates * np.log(2.0)
        for i in range(3):
            assert rates_nats[i] == pytest.approx(logdet_hpd(herm(out.w[i])), rel=1e-6)

    def test_reported_rates_match_user_rate(self):
        h, _ = random_links(12)
        out = wmmse.online_wmmse(h, 0.2, 1.0, alpha=1.0, tol=1e-6, max_iters=500)
        for i in range(3):
            direct = user_rate(h[i], out.v, 0.2, i) / np.log(2.0)
            assert out.rates[i] == pytest.approx(direct, rel=1e-12)

    def test_converges_flag_and_tolerance(self):
        h, _ = random_links(13)
        out = wmmse.online_wmmse(h, 0.1, 1.0, alpha=1.0, tol=1e-8, max_iters=500)
        assert out.converged
        assert out.iterations < 500
        tail = out.objective_trace[-2:]
        assert tail[0] - tail[1] <= 1e-8 * abs(tail[0])

    def test_beats_isotropic_baseline(self):
        h, _ = random_links(14, n_u=3, l_ant=2, m_ant=8)
        sigma2 = 0.1
        out = wmmse.online_wmmse(h, sigma2, 2.0, alpha=1.0, tol=1e-6, max_iters=500)
        v_iso = wmmse.initial_precoders(h, np.full(3, 2.0))
        base = wmmse.user_rates(wmmse.pair_products(h, v_iso), sigma2).sum()
        assert out.rates.sum() * np.log(2.0) >= base - 1e-9

    def test_zero_channels_give_zero_rates(self):
        h = np.zeros((2, 2, 4), dtype=complex)
        out = wmmse.online_wmmse(h, 1.0, 1.0, alpha=1.0, tol=1e-6, max_iters=5)
        assert np.allclose(out.rates, 0.0, atol=1e-12)

    def test_rejects_nonfinite_channels(self):
        h, _ = random_links(15)
        h[0, 0, 0] = np.nan
        with pytest.raises(NumericalError):
            wmmse.online_wmmse(h, 0.1, 1.0, alpha=1.0, tol=1e-6, max_iters=500)

    def test_warm_mu_search_matches_cold_start_loop(self, tiny_config):
        cfg = tiny_config
        geo = build_antenna_positions(cfg)
        s = ch.bs_irs_channels(geo, cfg)
        rng = np.random.default_rng(21)
        beams = np.exp(2j * np.pi * rng.random((cfg.k_total, cfg.p_per_tile)))
        sigma2, p_budget, alpha = cfg.noise_power_w(), cfg.power_budgets_w(), cfg.alpha()
        tol, max_iters = cfg.solver.tol_online, cfg.solver.max_online_iters
        for idx in range(4):
            cset = ch.build_channel_set(draw_sample(cfg, idx, namespace=1), geo, cfg, s=s)
            h = ch.composite_channel(cset.hbar, cset.s, cset.t, beams)
            out = wmmse.online_wmmse(h, sigma2, p_budget, alpha=alpha, tol=tol, max_iters=max_iters)
            rates, *_, iterations, converged = kernel_loop_online_wmmse(
                h, sigma2, p_budget, alpha, tol, max_iters, warm_mu=False
            )
            assert out.iterations == iterations
            assert out.converged == converged
            assert np.allclose(out.rates, rates, rtol=1e-8, atol=0.0)

    def test_shared_pair_products_match_kernel_loop_bit_for_bit(self, tiny_config):
        """Forming H_i V_j once per precoder iterate changes no bit: four
        realizations, the last stopped by a small iteration cap, equal the
        plain kernel loop exactly."""
        cfg = tiny_config
        geo = build_antenna_positions(cfg)
        s = ch.bs_irs_channels(geo, cfg)
        rng = np.random.default_rng(22)
        beams = np.exp(2j * np.pi * rng.random((cfg.k_total, cfg.p_per_tile)))
        sigma2, p_budget, alpha = cfg.noise_power_w(), cfg.power_budgets_w(), cfg.alpha()
        tol = cfg.solver.tol_online
        caps = [cfg.solver.max_online_iters] * 3 + [4]
        for idx, max_iters in enumerate(caps):
            cset = ch.build_channel_set(draw_sample(cfg, idx, namespace=1), geo, cfg, s=s)
            h = ch.composite_channel(cset.hbar, cset.s, cset.t, beams)
            out = wmmse.online_wmmse(h, sigma2, p_budget, alpha=alpha, tol=tol, max_iters=max_iters)
            rates, v, g, w, mu, trace, iterations, converged = kernel_loop_online_wmmse(
                h, sigma2, p_budget, alpha, tol, max_iters
            )
            for got, expect in [(out.rates, rates), (out.v, v), (out.g, g), (out.w, w),
                                (out.mu, mu), (out.objective_trace, trace)]:
                assert np.array_equal(got, expect)
            assert out.iterations == iterations
            assert out.converged == converged
        assert not out.converged and out.iterations == 4

    def test_alpha_weights_shift_rates(self):
        h, _ = random_links(17, n_u=2, l_ant=2, m_ant=6)
        even = wmmse.online_wmmse(h, 0.1, 1.0, alpha=np.array([1.0, 1.0]), tol=1e-6, max_iters=500)
        tilted = wmmse.online_wmmse(h, 0.1, 1.0, alpha=np.array([5.0, 1.0]), tol=1e-6, max_iters=500)
        assert tilted.rates[0] >= even.rates[0] - 1e-9


class TestRefresh:
    @pytest.mark.parametrize("lead", [(), (4,)], ids=["one", "stack"])
    def test_equals_the_hand_chain_bit_for_bit(self, lead):
        """`refresh` returns the bits of pair_products, update_receivers,
        mse_matrices and update_weights chained by hand, on one realization
        and on an (N_s, N_u, L, M) stack."""
        rng = np.random.default_rng(26)
        h = crandn(rng, *lead, 3, 2, 6)
        v = crandn(rng, *lead, 3, 6, 2)
        sigma2 = 0.3
        hv = wmmse.pair_products(h, v)
        g = wmmse.update_receivers(hv, sigma2)
        w, w_chol = wmmse.update_weights(wmmse.mse_matrices(hv, g, sigma2))
        got = wmmse.refresh(h, v, sigma2)
        assert len(got) == 4
        for out, want in zip(got, (hv, g, w, w_chol)):
            assert out.shape == want.shape and np.array_equal(out, want)


class TestBatching:
    def test_stack_slices_equal_single_solves(self):
        """A stack of B channel sets gives, slice by slice, exactly the
        numbers of each set run through the same block updates alone."""
        rng = np.random.default_rng(20)
        stack = crandn(rng, 4, 3, 2, 6)
        sigma2 = 0.3
        alpha = np.array([1.0, 1.5, 0.5])
        budgets = np.array([1.0, 2.0, 0.5])

        def run(h):
            v = wmmse.initial_precoders(h, budgets)
            out = []
            for _ in range(3):
                g = wmmse.update_receivers(wmmse.pair_products(h, v), sigma2)
                w, w_chol = wmmse.update_weights(
                    wmmse.mse_matrices(wmmse.pair_products(h, v), g, sigma2)
                )
                v, mu, res, rg = wmmse.update_precoders(h, g, w_chol, alpha, budgets)
                obj = weighted_mse_objective(wmmse.pair_products(h, v), g, w, w_chol, alpha, sigma2)
                rates = wmmse.user_rates(wmmse.pair_products(h, v), sigma2)
                out.append((g, w, v, mu, res, rg, rates, obj))
            return out

        batched = run(stack)
        for b in range(stack.shape[0]):
            for step_batched, step_alone in zip(batched, run(stack[b])):
                for got, expect in zip(step_batched, step_alone):
                    assert np.array_equal(got[b], expect)
