import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsmimo.numerics import (
    NumericalError,
    check_finite,
    check_hermitian,
    herm,
    logdet_hpd,
    pairwise_mean,
    pairwise_mean_nodes,
    power_constrained_solve,
    singular_values,
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


def test_singular_values_sorted():
    rng = np.random.default_rng(1)
    sv = singular_values(crandn(rng, 3, 5))
    assert np.all(np.diff(sv) <= 0)


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

    def test_vector_rhs(self):
        rng = np.random.default_rng(6)
        a = random_psd(rng, 4)
        b = crandn(rng, 4)
        x, _ = power_constrained_solve(a, b, 0.3)
        assert x.shape == (4,)
        assert np.sum(np.abs(x) ** 2) <= 0.3 + 1e-9

    def test_singular_matrix_zero_power_rows_give_zero(self):
        x, mu = power_constrained_solve(np.diag([1.0, 0.0]), np.array([1.0, 0.0]), 10.0)
        assert mu == 0.0
        assert np.allclose(x, [1.0, 0.0], rtol=0.0, atol=1e-15)

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


class TestPairwiseMean:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_plain_mean(self, values):
        x = np.array(values)
        assert pairwise_mean(x) == pytest.approx(float(np.mean(x)), rel=1e-12, abs=1e-9)

    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_even_split_combines_half_means_bit_exactly(self, half, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2 * half)
        left = pairwise_mean(x[:half])
        right = pairwise_mean(x[half:])
        assert pairwise_mean(x) == 0.5 * (left + right)

    def test_axis_and_complex(self):
        rng = np.random.default_rng(7)
        x = crandn(rng, 6, 3, 3)
        got = pairwise_mean(x, axis=0)
        assert got.shape == (3, 3)
        assert np.allclose(got, x.mean(axis=0), atol=1e-14)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_level_wise_tree_equals_recursive_oracle(self, axis, dtype):
        rng = np.random.default_rng(11)
        for n in range(1, 131):
            shape = (n, 3) if axis == 0 else (2, n)
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
            if dtype is complex:
                x = x + 1j * rng.standard_normal(shape)
            got = pairwise_mean(x, axis=axis)
            want = recursive_pairwise_mean(x, axis=axis)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), f"n = {n}"
            # The same tree on a caller-filled node buffer whose inner rows,
            # like the scratch, start as NaN, so every inner node must be
            # written.
            items = np.moveaxis(x, axis, 0)
            nodes = np.full((2 * n - 1,) + items.shape[1:], np.nan, dtype=want.dtype)
            nodes[:n] = items
            got_nodes = pairwise_mean_nodes(nodes, np.full_like(nodes[:n], np.nan))
            assert got_nodes.dtype == want.dtype
            assert np.array_equal(got_nodes, want), f"node buffer, n = {n}"

    def test_node_buffer_rejects_even_row_count(self):
        with pytest.raises(ValueError, match="2n - 1"):
            pairwise_mean_nodes(np.zeros((4, 3)), np.zeros((2, 3)))


def recursive_pairwise_mean(x, axis=0):
    """Reference recursive-halving mean: equal halves as (left + right) / 2,
    unequal splits with exact sample-count weights."""
    x = np.moveaxis(np.asarray(x), axis, 0)

    def reduce(block):
        n = block.shape[0]
        if n == 1:
            return block[0]
        h = n // 2
        left = reduce(block[:h])
        right = reduce(block[h:])
        if 2 * h == n:
            return 0.5 * (left + right)
        return (left * h + right * (n - h)) / n

    return reduce(x)
