import math
import re

import numpy as np
import pytest

from irsmimo import numerics
from irsmimo.numerics import (
    NumericalError,
    check_finite,
    check_hermitian,
    herm,
    logdet_chol,
    logdet_hpd,
    power_constrained_solve,
)

from conftest import crandn
from oracles import reference_power_constrained_solve


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
    """An exactly Hermitian stack returns True early; a slice off by less
    than rtol still passes, returning False, and one off by more still
    raises, with its norms."""
    rng = np.random.default_rng(2)
    a = herm(crandn(rng, 3, 4, 4))
    assert check_hermitian(a, "a") is True
    scale = np.linalg.norm(a[1])
    near = a.copy()
    near[1, 0, 2] += 1e-12 * scale
    assert not np.array_equal(near, near.conj().swapaxes(-1, -2))
    assert check_hermitian(near, "near") is False
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


def test_logdet_chol_is_logdet_hpd_bit_for_bit():
    """The log det read from the factor of an exactly Hermitian matrix is
    the one `logdet_hpd` forms: `herm` of it changes no bit."""
    rng = np.random.default_rng(3)
    stack = herm(np.linalg.inv(np.stack([random_psd(rng, 3) for _ in range(6)])))
    assert np.array_equal(herm(stack), stack)
    assert np.array_equal(logdet_chol(np.linalg.cholesky(stack)), logdet_hpd(stack))


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

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_rejects_a_budget_that_is_not_positive(self, bad):
        """A zero, negative or NaN budget raises for a single problem and
        for one entry of a stack, before any search."""
        a, b, budget = self.warm_cases()
        with pytest.raises(ValueError, match="budget must be positive"):
            power_constrained_solve(a[1], b[1], bad)
        budget[2] = bad
        with pytest.raises(ValueError, match="budget must be positive"):
            power_constrained_solve(a, b, budget)

    def test_a_missed_budget_raises(self, monkeypatch):
        """The residual check runs for a single problem and for a stack: with
        a tolerance below every residual, a boundary search raises."""
        monkeypatch.setattr(numerics, "POWER_RTOL", -1.0)
        a, b, budget = self.warm_cases()
        with pytest.raises(NumericalError, match="residual"):
            power_constrained_solve(a[1], b[1], budget[1])
        with pytest.raises(NumericalError, match="residual"):
            power_constrained_solve(a, b, budget)

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

    @staticmethod
    def mu0_cases(shape):
        """(A, B, budget, gram_cols, mu0's leading shape) for the stacked
        rise (the five-slice stack) and for the two one-eigensystem shapes
        that search on Python floats: the online precoder step's Gram
        (1, 4, 4) shared by two users with budgets (2,), and the tile beam
        update's one 16 x 16 matrix with a scalar budget, whose mu0 is 0-d.
        The last entry of mu0 belongs to an interior problem in the first
        two."""
        if shape == "stack":
            a, b, budget = TestPowerConstrainedSolve.warm_cases()
            return a, b, budget, None, (5,)
        rng = np.random.default_rng(12)
        if shape == "online_precoder":
            f = crandn(rng, 1, 4, 8)
            b = crandn(rng, 2, 4, 2)
            return f @ f.conj().swapaxes(-1, -2), b, np.array([0.05, 1e3]), 8, (2,)
        return random_psd(rng, 16, jitter=0.01), crandn(rng, 16, 1), 0.5, None, ()

    @pytest.mark.parametrize("shape", ["stack", "online_precoder", "beam"])
    @pytest.mark.parametrize(
        "bad", [-1e-3, np.nan, np.inf, "longer", "stacked"],
        ids=["negative", "nan", "inf", "longer", "stacked"],
    )
    def test_warm_start_rejects_bad_mu0(self, shape, bad):
        """A negative, NaN or infinite mu0 entry, or a mu0 that does not
        broadcast to the leading axes, raises on either search path."""
        a, b, budget, gram_cols, lead = self.mu0_cases(shape)
        if bad == "longer":
            mu0 = np.zeros(math.prod(lead) + 1)
        elif bad == "stacked":
            mu0 = np.zeros((2, math.prod(lead)))
        else:
            mu0 = np.zeros(lead)
            mu0.flat[-1] = bad
        power_constrained_solve(a, b, budget, mu0=np.zeros(lead), gram_cols=gram_cols)
        with pytest.raises(ValueError, match="mu0"):
            power_constrained_solve(a, b, budget, mu0=mu0, gram_cols=gram_cols)


class TestMatchesReferenceSearch:
    """The mu search returns the bits of `reference_power_constrained_solve`,
    its form before it skipped symmetrizing an exactly Hermitian A and let
    the first pass of the rise reuse the warm start's evaluation, for cold
    and warm starts on every shape its callers pass."""

    @staticmethod
    def plain(rng):
        """(A, B, budget, gram_cols): six slices, two interior (one singular)
        and four on the boundary (one singular, one the zero matrix)."""
        a = np.stack([random_psd(rng, 4, jitter=j) for j in (1.0, 0.1, 0.01, 0.1, 0.1, 1.0)])
        a[3] = np.diag([2.0, 1.0, 0.5, 0.0])
        a[4] = 0.0
        a[5] = np.diag([2.0, 1.0, 0.5, 0.0])
        b = crandn(rng, 6, 4, 2)
        b[0] *= 1e-3
        b[5, 3] = 0.0
        return a, b, np.array([10.0, 0.5, 1.0, 0.05, 2.0, 50.0]), None

    @staticmethod
    def gram(rng, m):
        """Gram stacks F F^H of F (6, 4, m): a zero user row in slice 2, a
        zero factor in slice 3, and with m < 4 more rows than columns."""
        f = crandn(rng, 6, 4, m)
        f[2, 1] = 0.0
        f[3] = 0.0
        b = crandn(rng, 6, 4, 2)
        limit = np.sum(np.abs(np.linalg.pinv(f) @ b) ** 2, axis=(-2, -1))
        budget = np.where(limit > 0.0, limit, 1.0) * np.array([2.0, 0.3, 0.05, 2.0, 0.5, 0.1])
        return herm(f @ f.conj().swapaxes(-1, -2)), b, budget, m

    @staticmethod
    def gram_wide(rng):
        return TestMatchesReferenceSearch.gram(rng, 6)

    @staticmethod
    def gram_tall(rng):
        return TestMatchesReferenceSearch.gram(rng, 3)

    @staticmethod
    def precoder(rng):
        """The precoder step's shape: one stream-space Gram B B^H per slice
        shared by two users' right-hand sides, gram_cols = M = 8."""
        f = crandn(rng, 3, 1, 4, 8)
        y = crandn(rng, 3, 2, 4, 2)
        budget = np.array([[0.05, 0.1], [1e3, 0.2], [0.05, 1e3]])
        return f @ f.conj().swapaxes(-1, -2), y, budget, 8

    @staticmethod
    def online_precoder(rng):
        """The online precoder step's shape: one stream-space Gram B B^H
        (1, 4, 4) shared by two users' right-hand sides, budgets (2,),
        gram_cols = M = 8; user 0 on the boundary, user 1 interior."""
        f = crandn(rng, 1, 4, 8)
        y = crandn(rng, 2, 4, 2)
        return f @ f.conj().swapaxes(-1, -2), y, np.array([0.05, 1e3]), 8

    @staticmethod
    def online_precoder_dead_user(rng):
        """The online precoder step's shape with user 1's rows of the factor
        zero, as for a zero channel or receiver: A has zero diagonal
        entries, the one case where the search drops B's part on the zero
        rows. As in the precoder step's Y, each user's right-hand side sits
        in its own row block, so user 1's is dropped whole; user 0 is on
        the boundary."""
        f = crandn(rng, 1, 4, 8)
        f[0, 2:] = 0.0
        y = np.zeros((2, 4, 2), dtype=complex)
        y[0, :2] = crandn(rng, 2, 2)
        y[1, 2:] = crandn(rng, 2, 2)
        return f @ f.conj().swapaxes(-1, -2), y, np.array([0.01, 0.01]), 8

    @staticmethod
    def beam(rng):
        """The tile beam update's shape: one 16 x 16 matrix, one column, a
        scalar budget, so mu is 0-d; on the boundary."""
        return random_psd(rng, 16, jitter=0.01), crandn(rng, 16, 1), 0.5, None

    @staticmethod
    def beam_interior(rng):
        """One problem whose unconstrained solution meets the budget: mu = 0."""
        return random_psd(rng, 16, jitter=1.0), 1e-3 * crandn(rng, 16, 1), 10.0, None

    @staticmethod
    def beam_zero_rhs(rng):
        """One problem with B = 0: every row power is 0, so mu = 0 and x = 0."""
        return random_psd(rng, 16), np.zeros((16, 1), dtype=complex), 0.5, None

    @staticmethod
    def beam_singular(rng):
        """One singular M on the boundary whose zero eigenvalues carry no
        power: the search reads those rows at eigenvalue 1."""
        lam = np.abs(rng.standard_normal(16))
        lam[[2, 7, 11]] = 0.0
        b = crandn(rng, 16, 1)
        b[[2, 7, 11]] = 0.0
        limit = np.sum(np.abs(b[lam > 0.0, 0]) ** 2 / lam[lam > 0.0] ** 2)  # the power at mu = 0
        return np.diag(lam).astype(complex), b, 0.1 * limit, None

    @staticmethod
    def beam_zero_eigenvalue(rng):
        """One singular M with power on a zero eigenvalue: p(0) = inf, read
        as inf for that row's r / 0, which raises on Python floats."""
        lam = np.abs(rng.standard_normal(16))
        lam[5] = 0.0
        return np.diag(lam).astype(complex), crandn(rng, 16, 1), 0.5, None

    @staticmethod
    def beam_subnormal_budget(rng):
        """A subnormal budget: near the root every slope term t_k / d_k
        underflows to 0, and the numpy pass divides by the zero slope sum
        where Python floats would raise. (Fixed data: at a subnormal budget
        the 1e-8 residual check leaves no rounding room, and these entries
        meet it.)"""
        b = np.array([[1e-150], [1e-151], [0.0]], dtype=complex)
        return np.diag([1.0, 2.0, 3.0]).astype(complex), b, 1e-320, None

    # The single problems (no leading axes) and whether each is on the boundary.
    SINGLE_BOUNDARY = {
        "beam": True,
        "beam_interior": False,
        "beam_zero_rhs": False,
        "beam_singular": True,
        "beam_zero_eigenvalue": True,
        "beam_subnormal_budget": True,
    }

    @staticmethod
    def rounded(rng):
        """The plain stack with A Hermitian only to rounding."""
        a, b, budget, _ = TestMatchesReferenceSearch.plain(rng)
        a = a.copy()
        a[:, 0, 2] *= 1.0 + 2.0**-50
        a[:, 1, 1] += 1e-15j * a[:, 1, 1].real
        assert not np.array_equal(a, a.conj().swapaxes(-1, -2))
        return a, b, budget, None

    @staticmethod
    def starts(mu_cold):
        """Warm starts against the cold multipliers: every boundary entry at
        or below its root (the evaluation is reused), every one above, a mix,
        and mu0 = 0; interior entries start anywhere."""
        boundary = mu_cold > 0.0
        interior = np.where(boundary, 0.0, 3.0)
        mix = np.where(np.arange(mu_cold.size).reshape(mu_cold.shape) % 2 == 0, 0.5, 1.5)
        return {
            "below": 0.5 * mu_cold + interior,
            "at_root": mu_cold + interior,
            "above": 1.5 * mu_cold + interior,
            "mix": mix * mu_cold + interior,
            "zero": np.zeros_like(mu_cold),
        }

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "case",
        [
            "plain",
            "gram_wide",
            "gram_tall",
            "precoder",
            "online_precoder",
            "online_precoder_dead_user",
            "rounded",
            *SINGLE_BOUNDARY,
        ],
    )
    def test_equals_reference_bit_for_bit(self, case, seed):
        """Stacks of eigensystems search every entry in one vectorized rise;
        one eigensystem (the online precoder step, a single problem) takes
        the search on Python floats, which must give the same bits and
        return mu shaped like the leading axes: 0-d for a single problem."""
        rng = np.random.default_rng([41, seed])
        a, b, budget, gram_cols = getattr(self, case)(rng)
        x_ref, mu_cold = reference_power_constrained_solve(a, b, budget, gram_cols=gram_cols)
        x, mu = power_constrained_solve(a, b, budget, gram_cols=gram_cols)
        assert np.array_equal(x, x_ref) and np.array_equal(mu, mu_cold)
        assert type(mu) is np.ndarray and mu.shape == mu_cold.shape
        if case == "online_precoder":
            assert mu.shape == (2,)
        if case in self.SINGLE_BOUNDARY:
            assert mu.shape == ()
            assert bool(mu_cold > 0.0) == self.SINGLE_BOUNDARY[case]
        else:
            assert np.any(mu_cold > 0.0) and np.any(mu_cold == 0.0)
        for name, mu0 in self.starts(mu_cold).items():
            x_ref, mu_ref = reference_power_constrained_solve(
                a, b, budget, mu0=mu0, gram_cols=gram_cols
            )
            x, mu = power_constrained_solve(a, b, budget, mu0=mu0, gram_cols=gram_cols)
            assert np.array_equal(x, x_ref), name
            assert np.array_equal(mu, mu_ref), name
            assert type(mu) is np.ndarray and mu.shape == mu_ref.shape, name

    @pytest.mark.parametrize("seed", range(3))
    def test_online_dead_user_gets_no_power(self, seed):
        """A user whose rows of the factor are zero gets x = 0, so
        V = F^H x = 0, and mu = 0, cold and from every warm start, while
        the other user's search runs on the boundary."""
        rng = np.random.default_rng([41, seed])
        a, b, budget, gram_cols = self.online_precoder_dead_user(rng)
        _, mu_cold = power_constrained_solve(a, b, budget, gram_cols=gram_cols)
        for mu0 in [None, *self.starts(mu_cold).values()]:
            x, mu = power_constrained_solve(a, b, budget, mu0=mu0, gram_cols=gram_cols)
            assert mu[0] > 0.0
            assert mu[1] == 0.0 and not x[1].any()

    @pytest.mark.parametrize("mu0", [None, 5e-324], ids=["cold", "subnormal"])
    def test_underflowed_denominator_misses_the_budget_as_the_reference(self, mu0):
        """A row with power on a zero eigenvalue whose floor sqrt(r / P)
        underflows to 0: the rise starts at mu = 0, or at the subnormal
        warm start, where the denominator squared is 0. That pass gives
        p = inf and a NaN step in numpy, not ZeroDivisionError, so both
        searches stop there and report the same infinite residual."""
        a = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        b = np.array([[3e-162], [0.1], [0.1], [0.1]], dtype=complex)
        messages = []
        for solve in (reference_power_constrained_solve, power_constrained_solve):
            with pytest.raises(NumericalError, match="residual inf") as err:
                solve(a, b, 10.0, mu0=mu0)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def test_add_reduce_is_numpy_summation():
    """The Python-float search sums in numpy's pairwise order: left to right
    below 8 terms, eight accumulators up to 128, halving above. Terms of
    mixed sign and magnitude make any other order round differently, at
    every length from 1 to 300."""
    rng = np.random.default_rng(43)
    for n in range(1, 301):
        terms = rng.standard_normal(n) * np.exp2(rng.integers(-40, 40, n))
        for xs in (terms, -0.0 * np.abs(terms)):  # the second: negative zeros
            got = numerics._add_reduce(xs.tolist())
            assert type(got) is float
            assert np.float64(got).tobytes() == np.add.reduce(xs).tobytes(), n
