import re

import numpy as np
import pytest

from irsmimo.numerics import (
    NumericalError,
    check_finite,
    check_hermitian,
    herm,
    logdet_hpd,
    power_constrained_solve,
)

from conftest import crandn


def random_psd(rng, n, jitter=0.1):
    x = crandn(rng, n, n)
    return x @ x.conj().T + jitter * np.eye(n)


def test_herm_pins_hermitian_part():
    rng = np.random.default_rng(0)
    a = crandn(rng, 4, 4)
    h = herm(a)
    assert np.allclose(h, h.conj().T)


def test_check_finite_rejects_nan():
    with pytest.raises(NumericalError):
        check_finite(np.array([1.0, np.nan]), "x")


def test_check_hermitian_rejects_skew():
    a = np.array([[1.0, 2.0], [3.0, 1.0]])
    with pytest.raises(ValueError):
        check_hermitian(a, "a")


def test_check_hermitian_exact_shortcut_keeps_tolerance():
    """An exactly Hermitian stack returns early; a slice off by less than
    rtol still passes and one off by more still raises, with its norms."""
    rng = np.random.default_rng(2)
    a = herm(crandn(rng, 3, 4, 4))
    check_hermitian(a, "a")
    scale = np.linalg.norm(a[1])
    near = a.copy()
    near[1, 0, 2] += 1e-12 * scale
    assert not np.array_equal(near, near.conj().swapaxes(-1, -2))
    check_hermitian(near, "near")
    far = a.copy()
    far[1, 0, 2] += 1e-8 * scale
    dev = np.linalg.norm(far[1] - far[1].conj().T)
    want = f"||A - A^H|| = {dev:.3e}, ||A|| = {np.linalg.norm(far[1]):.3e}"
    with pytest.raises(ValueError, match=re.escape(want)):
        check_hermitian(far, "far")


@pytest.mark.parametrize("seed", range(5))
def test_logdet_psd_matches_slogdet(seed):
    rng = np.random.default_rng(seed)
    a = random_psd(rng, 5)
    sign, ref = np.linalg.slogdet(a)
    assert sign > 0
    assert logdet_hpd(a) == pytest.approx(ref, rel=1e-12)


def test_logdet_psd_rejects_indefinite():
    with pytest.raises(NumericalError):
        logdet_hpd(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("n", [2, 5, 16])
def test_logdet_hpd_stack_slices_equal_single_calls(n):
    rng = np.random.default_rng(n)
    stack = np.array([[random_psd(rng, n) for _ in range(3)] for _ in range(2)])
    out = logdet_hpd(stack)
    assert out.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(out[idx], logdet_hpd(stack[idx]))


class TestPowerConstrainedSolve:
    def test_interior_solution_has_zero_multiplier(self):
        rng = np.random.default_rng(3)
        a = random_psd(rng, 4, jitter=1.0)
        b = 1e-3 * crandn(rng, 4, 2)
        x, mu = power_constrained_solve(a, b, budget=10.0)
        assert mu == 0.0
        assert np.allclose(a @ x, b, atol=1e-10)

    def test_boundary_solution_meets_budget(self):
        rng = np.random.default_rng(4)
        a = random_psd(rng, 5)
        b = crandn(rng, 5, 2)
        budget = 0.5
        x, mu = power_constrained_solve(a, b, budget)
        power = np.sum(np.abs(x) ** 2)
        assert mu > 0
        assert abs(power - budget) <= 1e-8 * budget

    def test_zero_rhs_gives_zero(self):
        x, mu = power_constrained_solve(np.eye(3), np.zeros((3, 2)), 1.0)
        assert np.all(x == 0) and mu == 0.0

    def test_zero_matrix_projects_rhs_to_budget(self):
        rng = np.random.default_rng(5)
        b = crandn(rng, 4, 2)
        budget = 2.0
        x, mu = power_constrained_solve(np.zeros((4, 4)), b, budget)
        # solution is the scaled right-hand side with norm^2 = budget
        assert np.sum(np.abs(x) ** 2) == pytest.approx(budget, rel=1e-8)
        assert np.allclose(x / np.linalg.norm(x), b / np.linalg.norm(b), atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_is_the_constrained_minimizer(self, seed):
        """x* must beat random feasible probes on the quadratic objective."""
        rng = np.random.default_rng(seed)
        n = 4
        a = random_psd(rng, n, jitter=0.01)
        b = crandn(rng, n, 2)
        budget = 1.0

        def objective(x):
            return float(np.real(np.trace(x.conj().T @ a @ x) - 2 * np.real(np.trace(b.conj().T @ x))))

        x_star, _ = power_constrained_solve(a, b, budget)
        f_star = objective(x_star)
        for _ in range(50):
            probe = crandn(rng, n, 2)
            probe *= np.sqrt(budget * rng.uniform()) / np.linalg.norm(probe)
            assert f_star <= objective(probe) + 1e-9

    def test_singular_matrix_zero_power_rows_give_zero(self):
        x, mu = power_constrained_solve(np.diag([1.0, 0.0]), np.array([[1.0], [0.0]]), 10.0)
        assert mu == 0.0
        assert np.allclose(x, [[1.0], [0.0]], rtol=0.0, atol=1e-15)

    def test_stack_slices_equal_single_solves(self):
        rng = np.random.default_rng(8)
        n = 4
        a = np.stack(
            [
                random_psd(rng, n, jitter=1.0),  # interior
                random_psd(rng, n),  # boundary
                random_psd(rng, n),  # zero right-hand side
                np.zeros((n, n)),  # zero matrix
                np.diag([2.0, 1.0, 0.5, 0.0]).astype(complex),  # singular, interior
            ]
        )
        b = crandn(rng, 5, n, 2)
        b[0] *= 1e-3
        b[2] = 0.0
        b[4, 3] = 0.0
        budget = np.array([10.0, 0.5, 1.0, 2.0, 50.0])
        x, mu = power_constrained_solve(a, b, budget)
        assert x.shape == b.shape and mu.shape == (5,)
        for s in range(5):
            x_s, mu_s = power_constrained_solve(a[s], b[s], budget[s])
            assert np.array_equal(x[s], x_s)
            assert np.array_equal(mu[s], mu_s)
        assert mu[0] == 0.0 and mu[1] > 0.0 and mu[2] == 0.0 and mu[3] > 0.0 and mu[4] == 0.0
        assert np.all(np.isfinite(x))

        skew = a.copy()
        skew[1, 0, 1] += 1.0
        with pytest.raises(ValueError):
            power_constrained_solve(skew, b, budget)

    def test_zero_power_row_on_zero_eigenvalue_at_the_boundary(self):
        """A singular slice that needs mu > 0, with a zero-power row on the
        eigenvalue 0: cold and warm stacks give the bits of per-slice solves,
        meet the budget and stay finite."""
        rng = np.random.default_rng(10)
        a = np.stack([np.diag([2.0, 1.0, 0.5, 0.0]).astype(complex), random_psd(rng, 4)])
        b = crandn(rng, 2, 4, 2)
        b[0, 3] = 0.0
        budget = np.array([0.05, 0.5])
        for mu0 in (None, np.array([0.3, 2.0])):
            x, mu = power_constrained_solve(a, b, budget, mu0=mu0)
            for s in range(2):
                x_s, mu_s = power_constrained_solve(
                    a[s], b[s], budget[s], mu0=None if mu0 is None else mu0[s]
                )
                assert np.array_equal(x[s], x_s)
                assert np.array_equal(mu[s], mu_s)
            assert np.all(mu > 0.0)
            assert np.all(np.isfinite(x))
            power = np.sum(np.abs(x) ** 2, axis=(-2, -1))
            assert np.all(np.abs(power - budget) <= 1e-8 * budget)

    @staticmethod
    def warm_cases():
        """A stack with interior, boundary, zero-matrix and singular slices."""
        rng = np.random.default_rng(9)
        n = 4
        a = np.stack(
            [
                random_psd(rng, n, jitter=1.0),  # interior
                random_psd(rng, n),  # boundary
                random_psd(rng, n, jitter=0.01),  # boundary
                np.zeros((n, n)),  # zero matrix, boundary
                np.diag([2.0, 1.0, 0.5, 0.0]).astype(complex),  # singular, interior
            ]
        )
        b = crandn(rng, 5, n, 2)
        b[0] *= 1e-3
        b[4, 3] = 0.0
        budget = np.array([10.0, 0.5, 1.0, 2.0, 50.0])
        return a, b, budget

    def test_warm_start_at_zero_is_the_cold_start(self):
        a, b, budget = self.warm_cases()
        x_cold, mu_cold = power_constrained_solve(a, b, budget)
        x_warm, mu_warm = power_constrained_solve(a, b, budget, mu0=np.zeros(5))
        assert np.array_equal(x_warm, x_cold)
        assert np.array_equal(mu_warm, mu_cold)
        x_scalar, mu_scalar = power_constrained_solve(a, b, budget, mu0=0.0)
        assert np.array_equal(x_scalar, x_cold)
        assert np.array_equal(mu_scalar, mu_cold)

    @pytest.mark.parametrize("where", ["below", "above", "hi", "ten_hi"])
    def test_warm_start_reaches_the_cold_root(self, where):
        a, b, budget = self.warm_cases()
        _, mu_cold = power_constrained_solve(a, b, budget)
        boundary = mu_cold > 0.0
        assert boundary.tolist() == [False, True, True, True, False]
        hi = np.linalg.norm(b, axis=(-2, -1)) / np.sqrt(budget)
        mu0 = {
            "below": 0.5 * mu_cold,
            "above": 1.5 * mu_cold,
            "hi": hi,
            "ten_hi": 10.0 * hi,
        }[where]
        x, mu = power_constrained_solve(a, b, budget, mu0=mu0)
        assert np.all(np.abs(mu - mu_cold) <= 1e-12 * mu_cold)
        power = np.sum(np.abs(x) ** 2, axis=(-2, -1))
        assert np.all(np.abs(power[boundary] - budget[boundary]) <= 1e-8 * budget[boundary])
        assert np.all(mu[~boundary] == 0.0)

    def test_warm_stack_slices_equal_single_solves(self):
        a, b, budget = self.warm_cases()
        _, mu_cold = power_constrained_solve(a, b, budget)
        mu0 = np.array([3.0, 0.5, 2.0, 0.0, 1.0]) * (mu_cold + 0.1)
        x, mu = power_constrained_solve(a, b, budget, mu0=mu0)
        for s in range(5):
            x_s, mu_s = power_constrained_solve(a[s], b[s], budget[s], mu0=mu0[s])
            assert np.array_equal(x[s], x_s)
            assert np.array_equal(mu[s], mu_s)

    @staticmethod
    def gram_cases(m):
        """Gram stacks A = F F^H for gram_cols=m, F (5, 4, m): two interior
        slices, two boundary ones and a zero factor; slices 2 and 4 have a
        zero row. With m < 4 the Gram is also singular by shape. B has
        components on every null space."""
        rng = np.random.default_rng(11 + m)
        f = crandn(rng, 5, 4, m)
        f[3] = 0.0
        f[2, 1] = f[4, 2] = 0.0
        b = crandn(rng, 5, 4, 2)
        limit = np.sum(np.abs(np.linalg.pinv(f) @ b) ** 2, axis=(-2, -1))  # the power at mu = 0
        budget = np.where(limit > 0.0, limit, 1.0) * np.array([2.0, 0.3, 0.05, 2.0, 1.5])
        return herm(f @ f.conj().swapaxes(-1, -2)), b, budget, f

    @staticmethod
    def bisection_root(f, b, budget):
        """Smallest mu >= 0 with ||F^H (F F^H + mu I)^-1 b||_F^2 <= budget,
        by bisection on solves formed directly; the power at mu = 0 is its
        limit through the pseudo-inverse of F F^H."""
        a = f @ f.conj().T
        eye = np.eye(a.shape[0])

        def power(mu):
            if mu == 0.0:
                x = np.linalg.pinv(a, hermitian=True) @ b
            else:
                x = np.linalg.solve(a + mu * eye, b)
            return np.sum(np.abs(f.conj().T @ x) ** 2)

        if power(0.0) <= budget:
            return 0.0
        lo, hi = 0.0, np.linalg.norm(f) * np.linalg.norm(b) / np.sqrt(budget)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if power(mid) > budget else (lo, mid)
        return hi

    def check_gram_solution(self, f, b, budget, x, mu):
        """mu matches the bisection root, and F^H x is the m-dimensional
        solution there and meets the budget."""
        mu_ref = self.bisection_root(f, b, budget)
        if mu_ref == 0.0:
            assert mu == 0.0
        else:
            assert abs(mu - mu_ref) <= 1e-9 * mu_ref
        a = f @ f.conj().T
        x_ref = (
            np.linalg.pinv(a, hermitian=True) @ b
            if mu == 0.0
            else np.linalg.solve(a + mu * np.eye(a.shape[0]), b)
        )
        fx, fx_ref = f.conj().T @ x, f.conj().T @ x_ref
        assert np.linalg.norm(fx - fx_ref) <= 1e-9 * np.linalg.norm(fx_ref)
        power = np.sum(np.abs(fx) ** 2)
        assert power <= budget * (1.0 + 1e-8)
        if mu > 0.0:
            assert abs(power - budget) <= 1e-8 * budget

    @pytest.mark.parametrize("m", [6, 3], ids=["wide", "tall"])
    @pytest.mark.parametrize("start", ["cold", "warm", "broadcast"])
    def test_gram_search_matches_bisection(self, start, m):
        """gram_cols bounds ||F^H x||^2 for the cold, warm and broadcast
        searches, with F wider than A (the precoder step's N_u*L < M) and
        narrower; each slice also equals its single solve bit for bit."""
        a, b, budget, f = self.gram_cases(m)
        _, mu_cold = power_constrained_solve(a, b, budget, gram_cols=m)
        assert (mu_cold > 0.0).tolist() == [False, True, True, False, False]
        if start == "broadcast":
            # One matrix per slice shared by three right-hand sides, as the
            # precoder step shares B B^H among its users.
            b = np.stack([b, 0.5 * b, 3.0 * b], axis=1)
            budget = np.stack([budget, budget, budget], axis=1)
            x, mu = power_constrained_solve(a[:, None], b, budget, gram_cols=m)
            for s, u in np.ndindex(5, 3):
                x_s, mu_s = power_constrained_solve(a[s], b[s, u], budget[s, u], gram_cols=m)
                assert np.array_equal(x[s, u], x_s) and np.array_equal(mu[s, u], mu_s)
                if s != 3:
                    self.check_gram_solution(f[s], b[s, u], budget[s, u], x_s, mu_s)
            assert (mu[:, 1] > 0.0).sum() < (mu[:, 2] > 0.0).sum()
            return
        mu0 = None if start == "cold" else np.array([3.0, 0.5, 2.0, 0.0, 1.0]) * (mu_cold + 0.1)
        x, mu = power_constrained_solve(a, b, budget, mu0=mu0, gram_cols=m)
        for s in range(5):
            x_s, mu_s = power_constrained_solve(
                a[s], b[s], budget[s], mu0=None if mu0 is None else mu0[s], gram_cols=m
            )
            assert np.array_equal(x[s], x_s) and np.array_equal(mu[s], mu_s)
            if s != 3:
                self.check_gram_solution(f[s], b[s], budget[s], x_s, mu_s)
        assert mu[3] == 0.0 and np.all(f[3].conj().T @ x[3] == 0.0)

    @pytest.mark.parametrize(
        "mu0",
        [
            np.array([0.0, -1e-3, 0.0, 0.0, 0.0]),  # negative
            np.array([0.0, np.nan, 0.0, 0.0, 0.0]),  # NaN
            np.zeros(4),  # mis-shaped
            np.zeros((2, 5)),  # mis-shaped
        ],
    )
    def test_warm_start_rejects_bad_mu0(self, mu0):
        a, b, budget = self.warm_cases()
        with pytest.raises(ValueError, match="mu0"):
            power_constrained_solve(a, b, budget, mu0=mu0)
