import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzflows import lax
from gzflows.errors import ToleranceError
from gzflows.lax import (
    LaxPath,
    _alpha_midpoints,
    _diff4,
    gauge_apply,
    gauge_fix_regular,
    isospectral_drift,
    lax_integrate,
    lax_residual,
    lax_symplectic,
)
from gzflows.matpoly import charpoly, matexp
from oracles import classical_rk4


def bracket(a, b):
    """[a, b] = a b - b a, the right side of the Lax equation, written apart from lax."""
    return a @ b - b @ a


def random_matrix(rng, n, norm=1.0):
    M = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return norm * M / np.linalg.norm(M)


def closed_form_path(alpha, beta0, grid):
    a = grid[0]
    return np.array([
        matexp(-(t - a) * alpha) @ beta0 @ matexp((t - a) * alpha) for t in grid
    ])


class TestIntegrate:
    def test_zero_alpha_keeps_beta(self):
        rng = np.random.default_rng(0)
        beta = random_matrix(rng, 3)
        path = lax_integrate(lambda t: np.zeros((3, 3)), beta, 0.0, 1.0, 50)
        assert np.max(np.abs(path.beta - beta)) < 1e-14

    def test_commuting_diagonal_pair(self):
        alpha = np.diag([1.0, 2.0, -0.5]).astype(complex)
        beta = np.diag([0.3, -1.0, 0.7]).astype(complex)
        path = lax_integrate(lambda t: alpha, beta, 0.0, 1.0, 50)
        assert np.max(np.abs(path.beta - beta)) < 1e-13

    def test_constant_alpha_closed_form(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            alpha = random_matrix(rng, n)
            beta = random_matrix(rng, n)
            path = lax_integrate(lambda t: alpha, beta, 0.0, 1.0, 200)
            exact = closed_form_path(alpha, beta, path.grid)
            assert np.max(np.abs(path.beta - exact)) < 1e-8

    def test_time_dependent_isospectral(self):
        rng = np.random.default_rng(2)
        A0 = random_matrix(rng, 3)
        A1 = random_matrix(rng, 3)
        beta = random_matrix(rng, 3)
        path = lax_integrate(lambda t: A0 + t * A1, beta, 0.0, 1.0, 200)
        assert isospectral_drift(path) < 1e-8
        assert lax_residual(path) < 1e-7

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("kind", ["constant", "quadratic"])
    def test_bit_equal_to_classical_rk4_with_one_alpha_per_time(self, n, kind):
        rng = np.random.default_rng(n)
        A0, A1, A2, beta = (random_matrix(rng, n) for _ in range(4))
        calls = []

        def alpha(t):
            calls.append(t)
            return A0 if kind == "constant" else A0 + t * A1 + t * t * A2

        steps = 500
        path = lax_integrate(alpha, beta, 0.0, 1.0, steps)
        assert len(calls) == 1 + 3 * steps
        # classical RK4, alpha evaluated at every stage
        h = 1.0 / steps
        f = lambda t, b: b @ alpha(t) - alpha(t) @ b
        b, betas = beta, [beta]
        for t in path.grid[:-1]:
            k1 = f(t, b)
            k2 = f(t + h / 2, b + h / 2 * k1)
            k3 = f(t + h / 2, b + h / 2 * k2)
            k4 = f(t + h, b + h * k3)
            b = b + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            betas.append(b)
        assert np.array_equal(path.beta, np.array(betas))
        assert np.array_equal(path.alpha, np.array([alpha(t) for t in path.grid]))

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            lax_integrate(lambda t: np.zeros((2, 2)), np.zeros((2, 2)), 1.0, 0.0, 10)

    def test_empty_beta_is_refused_by_name(self):
        with pytest.raises(ValueError, match="^beta must be a nonempty square matrix"):
            lax_integrate(lambda t: np.zeros((0, 0)), np.zeros((0, 0)), 0.0, 1.0, 4)

    def test_alpha_checked_at_every_midpoint(self):
        steps, h = 10, 0.1
        midpoint = (h * np.arange(steps + 1))[3] + h / 2
        alpha = lambda t: np.full((2, 2), np.nan) if t == midpoint else np.eye(2)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            lax_integrate(alpha, np.eye(2), 0.0, 1.0, steps)

    def test_alpha_is_evaluated_in_time_order(self):
        # an alpha_fn that refuses a time refuses the first one
        seen = []
        path = lax_integrate(lambda t: seen.append(t) or np.diag([t, 0.0]), np.eye(2), 0.0, 1.0, 10)
        assert len(seen) == 31 and seen == sorted(seen)
        assert np.array_equal(path.alpha[:, 0, 0], path.grid)
        # a constant alpha, one object held once, is evaluated at the same times
        held, alpha = [], np.diag([1.0, 0.0])
        lax_integrate(lambda t: held.append(t) or alpha, np.eye(2), 0.0, 1.0, 10)
        assert held == seen

    @pytest.mark.parametrize("value", [0.5, np.zeros((2, 3)), np.zeros((1, 2, 2))])
    def test_alpha_must_be_square_matrices(self, value):
        with pytest.raises(ValueError, match="square"):
            lax_integrate(lambda t: value, np.eye(2), 0.0, 1.0, 4)


class TestGaugeApply:
    def make_path(self, rng, n=3, steps=200):
        alpha = random_matrix(rng, n)
        beta = random_matrix(rng, n)
        return lax_integrate(lambda t: alpha, beta, 0.0, 1.0, steps)

    def test_identity_gauge(self):
        rng = np.random.default_rng(3)
        path = self.make_path(rng)
        g = np.array([np.eye(3, dtype=complex)] * path.grid.size)
        out = gauge_apply(g, path)
        assert np.max(np.abs(out.alpha - path.alpha)) < 1e-12
        assert np.max(np.abs(out.beta - path.beta)) < 1e-12

    def test_constant_gauge_conjugates(self):
        rng = np.random.default_rng(4)
        path = self.make_path(rng)
        g0 = np.eye(3) + 0.3 * random_matrix(rng, 3)
        g = np.array([g0] * path.grid.size)
        out = gauge_apply(g, path)
        gi = np.linalg.inv(g0)
        assert np.max(np.abs(out.alpha - g0 @ path.alpha @ gi)) < 1e-10
        assert np.max(np.abs(out.beta - g0 @ path.beta @ gi)) < 1e-10

    def test_solutions_map_to_solutions(self):
        rng = np.random.default_rng(5)
        path = self.make_path(rng)
        X = random_matrix(rng, 3, norm=0.8)
        g = np.array([matexp(t * X) for t in path.grid])
        out = gauge_apply(g, path)
        assert lax_residual(out) < 5 * lax_residual(path) + 1e-7

    def test_grid_mismatch(self):
        rng = np.random.default_rng(6)
        path = self.make_path(rng, steps=20)
        with pytest.raises(ValueError):
            gauge_apply(np.array([np.eye(3)] * 5), path)


class TestGaugeFix:
    def test_zero_alpha(self):
        rng = np.random.default_rng(7)
        beta = random_matrix(rng, 3)
        path = lax_integrate(lambda t: np.zeros((3, 3)), beta, 0.0, 1.0, 100)
        fix = gauge_fix_regular(path)
        assert np.max(np.abs(fix.g_end - np.eye(3))) < 1e-12
        assert np.max(np.abs(fix.constant_matrix - beta)) < 1e-12

    def test_constant_alpha_closed_form(self):
        rng = np.random.default_rng(8)
        alpha = random_matrix(rng, 3)
        beta = random_matrix(rng, 3)
        path = lax_integrate(lambda t: alpha, beta, 0.0, 1.0, 200)
        fix = gauge_fix_regular(path)
        assert np.max(np.abs(fix.g_end - matexp(alpha))) < 1e-9
        assert np.max(np.abs(fix.constant_matrix - beta)) < 1e-12
        assert fix.drift < 1e-9

    def test_isospectral_chart(self):
        rng = np.random.default_rng(9)
        alpha = random_matrix(rng, 4)
        beta = random_matrix(rng, 4)
        path = lax_integrate(lambda t: alpha, beta, 0.0, 1.0, 200)
        fix = gauge_fix_regular(path)
        want = charpoly(path.beta[0])
        for j in (0, 50, 199):
            assert np.max(np.abs(charpoly(path.beta[j]) - want)) < 1e-8
        assert np.max(np.abs(charpoly(fix.constant_matrix) - want)) < 1e-10

    def test_round_trip_through_gauge_apply(self):
        rng = np.random.default_rng(10)
        alpha = random_matrix(rng, 3)
        beta = random_matrix(rng, 3)
        path = lax_integrate(lambda t: alpha, beta, 0.0, 1.0, 200)
        fix = gauge_fix_regular(path)
        straight = gauge_apply(fix.g_path, path)
        assert np.max(np.abs(straight.alpha)) < 1e-6
        assert np.max(np.abs(straight.beta - fix.constant_matrix)) < 1e-10
        inverse = np.array([np.linalg.inv(g) for g in fix.g_path])
        back = gauge_apply(inverse, straight)
        assert np.max(np.abs(back.alpha - path.alpha)) < 1e-6
        assert np.max(np.abs(back.beta - path.beta)) < 1e-10

    def test_residual_gate(self):
        rng = np.random.default_rng(11)
        grid = np.linspace(0.0, 1.0, 51)
        alpha = np.array([random_matrix(rng, 2) for _ in grid])
        beta = np.array([random_matrix(rng, 2) for _ in grid])
        junk = LaxPath(grid=grid, alpha=alpha, beta=beta)
        with pytest.raises(ToleranceError):
            gauge_fix_regular(junk)
        with pytest.raises(ToleranceError, match="^path is not a Lax solution") as info:
            gauge_fix_regular(junk, residual_tol=0.5)
        assert (info.value.defect, info.value.tolerance) == (lax_residual(junk), 0.5)


class TestSymplectic:
    def make_flat_path(self, n=2, steps=40):
        grid = np.linspace(0.0, 1.0, steps + 1)
        zeros = np.zeros((steps + 1, n, n), dtype=complex)
        beta = np.array([np.eye(n, dtype=complex)] * (steps + 1))
        return LaxPath(grid=grid, alpha=zeros, beta=beta)

    def test_equal_tangents(self):
        rng = np.random.default_rng(12)
        path = self.make_flat_path()
        da = np.array([random_matrix(rng, 2)] * path.grid.size)
        db = np.array([random_matrix(rng, 2)] * path.grid.size)
        assert lax_symplectic(path, (da, db), (da, db)) == 0

    def test_tangents_off_the_grid_are_refused(self):
        path = self.make_flat_path()
        short = np.zeros((path.grid.size - 1, 2, 2), dtype=complex)
        with pytest.raises(ValueError, match="^tangent samples must match the path grid$"):
            lax_symplectic(path, (path.alpha, path.alpha), (short, short))

    def test_zero_second_slot(self):
        rng = np.random.default_rng(13)
        path = self.make_flat_path()
        da = np.array([random_matrix(rng, 2)] * path.grid.size)
        db = np.array([random_matrix(rng, 2)] * path.grid.size)
        zero = np.zeros_like(da)
        assert lax_symplectic(path, (da, db), (zero, zero)) == 0

    def test_constant_tangents_exact(self):
        rng = np.random.default_rng(14)
        path = self.make_flat_path()
        A1, B1 = random_matrix(rng, 2), random_matrix(rng, 2)
        A2, B2 = random_matrix(rng, 2), random_matrix(rng, 2)
        t1 = (np.array([A1] * path.grid.size), np.array([B1] * path.grid.size))
        t2 = (np.array([A2] * path.grid.size), np.array([B2] * path.grid.size))
        got = lax_symplectic(path, t1, t2)
        want = np.trace(A1 @ B2 - A2 @ B1)  # interval length 1
        assert abs(got - want) < 1e-12

    def test_bilinearity(self):
        rng = np.random.default_rng(15)
        path = self.make_flat_path()
        size = path.grid.size
        t1 = (np.array([random_matrix(rng, 2)] * size),
              np.array([random_matrix(rng, 2)] * size))
        t2 = (np.array([random_matrix(rng, 2)] * size),
              np.array([random_matrix(rng, 2)] * size))
        t3 = (t1[0] + 2.0 * t2[0], t1[1] + 2.0 * t2[1])
        lhs = lax_symplectic(path, t3, t2)
        rhs = lax_symplectic(path, t1, t2) + 2.0 * lax_symplectic(path, t2, t2)
        assert abs(lhs - rhs) < 1e-12


# Per-sample loops the stacked forms replaced, kept as references: on a
# stack, @, inv and cond give each matrix the bits it gets alone.

def loop_residual(path):
    h = float(path.grid[1] - path.grid[0])
    dbeta = _diff4(path.beta, h)
    worst = 0.0
    for j in range(path.grid.size):
        defect = dbeta[j] - bracket(path.beta[j], path.alpha[j])
        worst = max(
            worst,
            float(np.linalg.norm(defect) / (1.0 + np.linalg.norm(path.beta[j]))),
        )
    return worst


def loop_gauge_apply(g, path):
    h = float(path.grid[1] - path.grid[0])
    g_dot = _diff4(g, h)
    alphas = np.empty_like(path.alpha)
    betas = np.empty_like(path.beta)
    for j in range(path.grid.size):
        g_inv = np.linalg.inv(g[j])
        alphas[j] = g[j] @ path.alpha[j] @ g_inv - g_dot[j] @ g_inv
        betas[j] = g[j] @ path.beta[j] @ g_inv
    return alphas, betas


def loop_midpoints(alpha):
    count = alpha.shape[0] - 1
    mids = np.empty((count,) + alpha.shape[1:], dtype=complex)
    if alpha.shape[0] < 4:
        for j in range(count):
            mids[j] = (alpha[j] + alpha[j + 1]) / 2.0
        return mids
    for j in range(count):
        if j == 0:
            stencil, weights = (0, 1, 2, 3), (5.0, 15.0, -5.0, 1.0)
        elif j == count - 1:
            stencil, weights = (count - 3, count - 2, count - 1, count), (1.0, -5.0, 15.0, 5.0)
        else:
            stencil, weights = (j - 1, j, j + 1, j + 2), (-1.0, 9.0, 9.0, -1.0)
        mids[j] = sum(wq * alpha[s] for wq, s in zip(weights, stencil)) / 16.0
    return mids


def loop_gauge_fix(path):
    """g_path, X, drift and max condition as the per-sample loops computed them."""
    n = path.n
    h = float(path.grid[1] - path.grid[0])
    mids = loop_midpoints(path.alpha)
    gs = [np.eye(n, dtype=complex)]
    for j in range(path.grid.size - 1):
        g = gs[-1]
        a0, am, a1 = path.alpha[j], mids[j], path.alpha[j + 1]
        k1 = g @ a0
        k2 = (g + h / 2 * k1) @ am
        k3 = (g + h / 2 * k2) @ am
        k4 = (g + h * k3) @ a1
        gs.append(g + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    g_path = np.array(gs)
    X = path.beta[0].copy()
    drift = 0.0
    max_cond = 1.0
    for j in range(path.grid.size):
        max_cond = max(max_cond, float(np.linalg.cond(g_path[j])))
        conj = g_path[j] @ path.beta[j] @ np.linalg.inv(g_path[j])
        drift = max(drift, float(np.linalg.norm(conj - X) / (1.0 + np.linalg.norm(X))))
    return g_path, X, drift, max_cond


def sample_path(n, kind, seed, steps=120):
    rng = np.random.default_rng(seed)
    A0, A1, A2, beta = (random_matrix(rng, n) for _ in range(4))
    if kind == "constant":
        return lax_integrate(lambda t: A0, beta, 0.0, 1.0, steps)
    return lax_integrate(lambda t: A0 + t * A1 + t * t * A2, beta, -0.5, 1.0, steps)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["constant", "polynomial"])
class TestStackedFormsBitEqual:
    def test_residual(self, n, kind):
        path = sample_path(n, kind, seed=n)
        assert lax_residual(path) == loop_residual(path)

    def test_gauge_apply(self, n, kind):
        path = sample_path(n, kind, seed=10 + n)
        rng = np.random.default_rng(n)
        g = np.array([np.eye(n) + 0.3 * random_matrix(rng, n) for _ in path.grid])
        out = gauge_apply(g, path)
        alphas, betas = loop_gauge_apply(g, path)
        assert np.array_equal(out.alpha, alphas) and np.array_equal(out.beta, betas)

    def test_gauge_fix(self, n, kind):
        # coarse grids: a drift near 1e-7 shows rounding that one at 1e-12 may hide
        for seed in range(10):
            path = sample_path(n, kind, seed=20 + seed, steps=30)
            fix = gauge_fix_regular(path)
            g_path, X, drift, max_cond = loop_gauge_fix(path)
            assert np.array_equal(fix.g_path, g_path)
            assert np.array_equal(fix.g_end, g_path[-1])
            assert np.array_equal(fix.constant_matrix, X)
            assert fix.drift == drift and fix.max_condition == max_cond


@pytest.mark.parametrize("samples", [2, 3, 4, 5, 6, 501])
def test_alpha_midpoints_bit_equal(samples):
    rng = np.random.default_rng(samples)
    alpha = np.array([random_matrix(rng, 3) for _ in range(samples)])
    assert np.array_equal(_alpha_midpoints(alpha), loop_midpoints(alpha))


class TestNonFinitePaths:
    def test_residual_keeps_nan(self):
        path = sample_path(2, "constant", seed=0, steps=20)
        path.beta[5, 0, 0] = np.nan
        assert np.isnan(lax_residual(path))
        with pytest.raises(ToleranceError, match="residual nan"):
            gauge_fix_regular(path)

    def test_gauge_overflow_is_a_numerical_failure(self):
        # a constant beta is a Lax solution for any alpha; g = exp(800 t) I overflows
        alpha = 800.0 * np.eye(2)
        path = lax_integrate(lambda t: alpha, np.diag([1.0, 2.0]), 0.0, 1.0, 200)
        with pytest.raises(ToleranceError, match="gauge factor overflowed"):
            gauge_fix_regular(path)

    def test_unstable_step_is_a_numerical_failure(self):
        # h * rho(alpha) = 20 > 2.78: RK4 multiplies g by R(20) ~ 8221 per step
        # instead of exp(20), so g(1) ~ 4e156 I would come back as the answer
        alpha = 800.0 * np.eye(2)
        path = lax_integrate(lambda t: alpha, np.diag([1.0, 2.0]), 0.0, 1.0, 40)
        with pytest.raises(ToleranceError, match="step is unstable") as info:
            gauge_fix_regular(path)
        assert info.value.defect == 20.0 and info.value.tolerance == 2.78

    def test_nilpotent_alpha_with_a_large_norm_answers(self):
        # |alpha|_F = 1000 fails the norm bound, but rho(alpha) = 0: g = I + t alpha
        alpha = np.array([[0.0, 1000.0], [0.0, 0.0]])
        beta = np.array([[1.0, 5.0], [0.0, 1.0]])
        path = lax_integrate(lambda t: alpha, beta, 0.0, 1.0, 40)
        fix = gauge_fix_regular(path)
        assert np.array_equal(fix.g_end, np.eye(2) + alpha)

    def test_condition_gate_reports_first_offending_sample(self):
        alpha = np.diag([30.0, -30.0])
        path = lax_integrate(lambda t: alpha, np.diag([1.0, 2.0]), 0.0, 1.0, 200)
        conds = [np.linalg.cond(g) for g in loop_gauge_fix(path)[0]]
        first = next(c for c in conds if c > 1e12)
        with pytest.raises(ToleranceError) as info:
            gauge_fix_regular(path)
        assert info.value.defect == first
        assert info.value.tolerance == 1e12
        assert f"condition {first:.3e}" in str(info.value)


def random_stack(rng, S, n):
    return np.array([random_matrix(rng, n) for _ in range(S)])


@pytest.mark.parametrize("n", range(2, 13))
class TestSampleAxis:
    """A stack of S starts runs in the one RK4 loop and gives each path its own bits."""

    def test_stacked_integrate_equals_separate_calls(self, n):
        rng = np.random.default_rng(n)
        for S in range(1, 11):
            alphas, betas = random_stack(rng, S, n), random_stack(rng, S, n)
            path = lax_integrate(lambda t: alphas, betas, 0.0, 1.0, 40)
            assert path.alpha.shape == path.beta.shape == (S, 41, n, n)
            for a, b, pa, pb in zip(alphas, betas, path.alpha, path.beta):
                one = lax_integrate(lambda t: a, b, 0.0, 1.0, 40)
                assert np.array_equal(pb, one.beta) and np.array_equal(pa, one.alpha)
                assert np.array_equal(path.grid, one.grid)

    def test_shared_time_dependent_alpha(self, n):
        rng = np.random.default_rng(100 + n)
        A0, A1 = random_matrix(rng, n), random_matrix(rng, n)
        alpha = lambda t: A0 + t * A1
        betas = random_stack(rng, 3, n)
        path = lax_integrate(alpha, betas, -0.5, 1.0, 30)
        for start, a, b in zip(betas, path.alpha, path.beta):
            one = lax_integrate(alpha, start, -0.5, 1.0, 30)
            assert np.array_equal(b, one.beta) and np.array_equal(a, one.alpha)

    def test_stacked_drift_is_each_paths_drift(self, n):
        rng = np.random.default_rng(200 + n)
        alphas, betas = random_stack(rng, 4, n), random_stack(rng, 4, n)
        drift = isospectral_drift(lax_integrate(lambda t: alphas, betas, 0.0, 1.0, 25))
        assert drift.shape == (4,)
        for d, a, b in zip(drift, alphas, betas):
            assert d == isospectral_drift(lax_integrate(lambda t: a, b, 0.0, 1.0, 25))


def constant_and_copied(seed, n, stack, shared):
    """(alpha, beta): an alpha of one path, of a stack or shared by a stack, and a start."""
    rng = np.random.default_rng(seed)
    alpha = random_matrix(rng, n) if shared or stack is None else random_stack(rng, stack, n)
    return alpha, random_matrix(rng, n) if stack is None else random_stack(rng, stack, n)


class TestHeldAlpha:
    """An alpha_fn that returns one object at every time is held once: the path and every
    refusal are those of an alpha_fn that returns a fresh copy of it at every time."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), stack=st.sampled_from([None, 1, 2, 3, 10]),
           shared=st.booleans(), steps=st.integers(1, 40))
    def test_bits_of_a_fresh_copy_at_every_time(self, seed, n, stack, shared, steps):
        alpha, beta = constant_and_copied(seed, n, stack, shared)
        held = lax_integrate(lambda t: alpha, beta, 0.0, 1.0, steps)
        fresh = lax_integrate(lambda t: alpha.copy(), beta, 0.0, 1.0, steps)
        assert held.beta.shape == fresh.beta.shape == held.alpha.shape
        assert held.beta.tobytes() == fresh.beta.tobytes()
        assert held.alpha.tobytes() == fresh.alpha.tobytes()

    @pytest.mark.parametrize("shared", [True, False])
    def test_one_sequence_is_loaded_once(self, shared):
        # an array-like that counts its reads: _rk4 given one sequence for starts, mids and
        # ends reads its alpha once, and three sequences are read at every stage
        class Counted:
            reads = 0

            def __array__(self, dtype=None, copy=None):
                Counted.reads += 1
                return a

        steps, rng = 7, np.random.default_rng(11)
        a = random_matrix(rng, 3) if shared else random_stack(rng, 2, 3)
        y, h = random_stack(rng, 2, 3), 0.05
        want = classical_rk4(y, bracket, [a] * (steps + 1), [a] * steps, [a] * steps, h)
        one = [Counted()] * steps
        assert lax._rk4(y, one, one, one, h, commutator=True).tobytes() == want.tobytes()
        assert Counted.reads == 1
        assert lax._rk4(y, one, list(one), list(one), h, commutator=True).tobytes() == want.tobytes()
        assert Counted.reads == 1 + 4 * steps

    def test_the_first_object_again_among_fresh_copies(self):
        # the times before the first other object gave the first one: the stack made there
        # holds its sample at each of them
        rng = np.random.default_rng(12)
        a, beta = random_matrix(rng, 3), random_matrix(rng, 3)
        mixed = lax_integrate(lambda t: a if t < 0.3 or t > 0.7 else a.copy(), beta, 0.0, 1.0, 20)
        fresh = lax_integrate(lambda t: a.copy(), beta, 0.0, 1.0, 20)
        assert mixed.beta.tobytes() == fresh.beta.tobytes()
        assert mixed.alpha.tobytes() == fresh.alpha.tobytes()

    def test_a_value_unlike_the_first_is_refused_before_it_is_stored(self):
        # numpy would broadcast a (1, n, n) value into an (n, n) slot
        calls = []

        def alpha_fn(t):
            calls.append(t)
            return np.eye(2) if len(calls) < 3 else np.eye(2)[None]

        with pytest.raises(ValueError) as info:
            lax_integrate(alpha_fn, np.eye(2), 0.0, 1.0, 4)
        assert str(info.value) == "expected square alpha matrices like beta, got shape (1, 2, 2)"
        assert len(calls) == 3

    @pytest.mark.parametrize("alpha, beta, steps, error, text", [
        # h * gap = 0.1 * 60 = 6 > 2.78, and beta grows by R(6) ~ 115 a step: finite
        (np.diag([30.0, -30.0]), [[1.0, 2.0], [3.0, 4.0]], 10, ToleranceError,
         "Lax step is unstable (h * largest eigenvalue gap of alpha 6.000e+00 > 2.78)"),
        (np.array([np.zeros((2, 2)), np.diag([800.0, -800.0])]), np.array([np.eye(2), [[1.0, 2.0], [3.0, 4.0]]]),
         200, ToleranceError, "integration overflowed (not finite at t = 0.62)"),
        (np.zeros((2, 3)), np.eye(2), 4, ValueError, "expected square alpha matrices like beta, got shape (2, 3)"),
        (np.zeros((3, 2, 2)), np.zeros((2, 2, 2)), 4, ValueError,
         "expected square alpha matrices like beta, got shape (3, 2, 2)"),
        (np.full((2, 2), np.nan), np.eye(2), 4, ValueError, "matrix entries must be finite"),
    ], ids=["unstable", "overflow", "not-square", "stack-mismatch", "not-finite"])
    def test_refusals_of_a_fresh_copy_at_every_time(self, alpha, beta, steps, error, text):
        for alpha_fn in (lambda t: alpha, lambda t: alpha.copy()):
            with pytest.raises(error) as info:
                lax_integrate(alpha_fn, beta, 0.0, 1.0, steps)
            assert str(info.value) == text


def stacked_path():
    rng = np.random.default_rng(0)
    alphas, betas = random_stack(rng, 2, 3), random_stack(rng, 2, 3)
    return lax_integrate(lambda t: alphas, betas, 0.0, 1.0, 20)


class TestOnePathConsumers:
    """Functions that take one path refuse a stack instead of misreading its axes."""

    def test_residual(self):
        with pytest.raises(ValueError, match="one path"):
            lax_residual(stacked_path())

    def test_gauge_apply(self):
        path = stacked_path()
        with pytest.raises(ValueError, match="one path"):
            gauge_apply(np.broadcast_to(np.eye(3), path.alpha.shape), path)

    def test_gauge_fix(self):
        with pytest.raises(ValueError, match="one path"):
            gauge_fix_regular(stacked_path())

    def test_symplectic(self):
        path = stacked_path()
        tangent = (np.zeros_like(path.alpha), np.zeros_like(path.beta))
        with pytest.raises(ValueError, match="one path"):
            lax_symplectic(path, tangent, tangent)

    def test_encode(self):
        from gzflows.serialize import encode_lax_path

        with pytest.raises(ValueError, match="one path"):
            encode_lax_path(stacked_path())


class TestSampleAxisInput:
    def test_alpha_stack_must_match_beta_stack(self):
        rng = np.random.default_rng(1)
        alphas, betas = random_stack(rng, 2, 3), random_stack(rng, 3, 3)
        with pytest.raises(ValueError, match="alpha matrices like beta"):
            lax_integrate(lambda t: alphas, betas, 0.0, 1.0, 10)

    def test_beta_of_rank_four_refused(self):
        with pytest.raises(ValueError, match="stack"):
            lax_integrate(lambda t: np.eye(2), np.zeros((1, 1, 2, 2)), 0.0, 1.0, 10)

    def test_one_overflowing_path_fails_the_stack_at_its_first_time(self):
        # the second path alone overflows at t = 0.62 with 200 steps
        alphas = np.array([np.zeros((2, 2)), np.diag([800.0, -800.0])])
        betas = np.array([np.eye(2), [[1.0, 2.0], [3.0, 4.0]]])
        with pytest.raises(ToleranceError, match="not finite at t = 0.62"):
            lax_integrate(lambda t: alphas, betas, 0.0, 1.0, 200)


def kernel_case(seed, n, stack, shared, steps):
    """(y, starts, mids, ends, h): random start and alpha samples, alpha (n, n) when shared."""
    rng = np.random.default_rng(seed)
    shape = (n, n) if stack is None else (stack, n, n)
    cplx = lambda *s: rng.normal(size=s) + 1j * rng.normal(size=s)
    a_shape = (n, n) if shared else shape
    return (cplx(*shape), cplx(steps + 1, *a_shape), cplx(steps, *a_shape), cplx(steps, *a_shape),
            rng.uniform(0.01, 0.5) / steps)


class TestBufferedKernel:
    """lax._rk4 writes every stage in place and gives the bits of the classical loop."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 4, 5, 6, 12]),
           stack=st.sampled_from([None, 1, 2, 3, 10]), shared=st.booleans(), steps=st.integers(1, 12))
    def test_bits_of_the_classical_loop(self, seed, n, stack, shared, steps):
        y, starts, mids, ends, h = kernel_case(seed, n, stack, shared or stack is None, steps)
        for commutator, rhs in ((True, bracket), (False, np.matmul)):
            got = lax._rk4(y, starts, mids, ends, h, commutator=commutator)
            want = classical_rk4(y, rhs, starts, mids, ends, h)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12])
    def test_stack_with_a_shared_time_varying_alpha(self, n):
        rng = np.random.default_rng(300 + n)
        A0, A1 = random_matrix(rng, n), random_matrix(rng, n)
        alpha = lambda t: A0 + t * t * A1
        betas = random_stack(rng, 3, n)
        path = lax_integrate(alpha, betas, -0.5, 1.0, 40)
        h = 1.5 / 40
        samples = [np.array([alpha(t) for t in times]) for times in
                   (path.grid, path.grid[:-1] + h / 2, path.grid[:-1] + h)]
        want = classical_rk4(betas, bracket, *samples, h)
        assert path.beta.flags.c_contiguous and path.beta.tobytes() == want.tobytes()
        fix = gauge_fix_regular(lax_integrate(alpha, betas[0], -0.5, 1.0, 40))
        # the gauge steps by the grid's own spacing
        want = classical_rk4(np.eye(n, dtype=complex), np.matmul, samples[0],
                             _alpha_midpoints(samples[0]), samples[0][1:], path.grid[1] - path.grid[0])
        assert fix.g_path.flags.c_contiguous and fix.g_path.tobytes() == want.tobytes()

    @pytest.mark.parametrize("commutator", [True, False])
    def test_one_matmul_per_stage(self, monkeypatch, commutator):
        calls = []
        matmul = np.matmul

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        y, starts, mids, ends, h = kernel_case(0, 4, 3, False, 7)
        lax._rk4(y, starts, mids, ends, h, commutator=commutator)
        # the Lax right-hand side takes z a and a z from one stacked product
        assert calls == [(2, 3, 4, 4) if commutator else (3, 4, 4)] * (4 * 7)

    def test_overflow_is_refused_with_the_same_text_and_no_warning(self):
        alphas = np.array([np.zeros((2, 2)), np.diag([800.0, -800.0])])
        betas = np.array([np.eye(2), [[1.0, 2.0], [3.0, 4.0]]])
        grid = np.linspace(0.0, 1.0, 201)
        with np.errstate(over="ignore", invalid="ignore"):
            want = classical_rk4(betas.astype(complex), bracket, [alphas] * 201,
                                 [alphas] * 200, [alphas] * 200, 1.0 / 200)
        first = grid[np.argmin(np.isfinite(want).all(axis=(0, 2, 3)))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceError) as info:
                lax_integrate(lambda t: alphas, betas, 0.0, 1.0, 200)
        assert str(info.value) == f"integration overflowed (not finite at t = {first:.6g})"
        # g = exp(800 t) I overflows: the gauge refuses at its own first non-finite sample
        path = lax_integrate(lambda t: 800.0 * np.eye(2), np.diag([1.0, 2.0]), 0.0, 1.0, 200)
        with np.errstate(over="ignore", invalid="ignore"):
            g = classical_rk4(np.eye(2, dtype=complex), np.matmul, path.alpha,
                              _alpha_midpoints(path.alpha), path.alpha[1:], 1.0 / 200)
        first = path.grid[np.argmin(np.isfinite(g).all(axis=(1, 2)))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceError) as info:
                gauge_fix_regular(path)
        assert str(info.value) == f"gauge factor overflowed (not finite at t = {first:.6g})"


def torus_case(seed, n, stack, exps):
    """(alpha_fn, beta, scale): a time-varying alpha of one path or a stack, and
    scale[i, j] = 2^(e_i - e_j), so that D M D^-1 = scale * M for D = diag(2^e)."""
    rng = np.random.default_rng(seed)
    shape = (n, n) if stack is None else (stack, n, n)
    A0, A1, beta = (random_stack(rng, 1 if stack is None else stack, n).reshape(shape) for _ in range(3))
    d = np.ldexp(1.0, np.array(exps[:n]))
    return (lambda t: A0 + t * A1), beta, d[:, None] / d[None, :]


class TestTorusRelation:
    """Conjugation by D = diag(2^e) is exact in floating point, so it commutes with
    the Lax kernel and the gauge to the bit: the torus relation needs no oracle."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), stack=st.sampled_from([None, 2, 3]),
           exps=st.lists(st.integers(-8, 8), min_size=6, max_size=6), steps=st.integers(4, 40))
    def test_lax_path_and_drift(self, seed, n, stack, exps, steps):
        alpha, beta, scale = torus_case(seed, n, stack, exps)
        path = lax_integrate(alpha, beta, 0.0, 1.0, steps)
        moved = lax_integrate(lambda t: scale * alpha(t), scale * beta, 0.0, 1.0, steps)
        assert moved.beta.tobytes() == (scale * path.beta).tobytes()
        assert np.asarray(isospectral_drift(moved)).tobytes() == np.asarray(isospectral_drift(path)).tobytes()

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), stack=st.sampled_from([None, 2, 3]),
           exps=st.lists(st.integers(-8, 8), min_size=6, max_size=6), steps=st.integers(20, 60))
    def test_gauge(self, seed, n, stack, exps, steps):
        alpha, beta, scale = torus_case(seed, n, stack, exps)
        path = lax_integrate(alpha, beta, 0.0, 1.0, steps)
        moved = lax_integrate(lambda t: scale * alpha(t), scale * beta, 0.0, 1.0, steps)
        for a, b, ma, mb in zip(*(x.reshape((-1, steps + 1, n, n)) for x in
                                  (path.alpha, path.beta, moved.alpha, moved.beta))):
            g = gauge_fix_regular(LaxPath(path.grid, a, b)).g_path
            mg = gauge_fix_regular(LaxPath(moved.grid, ma, mb)).g_path
            assert mg.tobytes() == (scale * g).tobytes()


class TestIntervalIntake:
    @pytest.mark.parametrize("t_start, t_end", [
        (-1e308, 1e308), (0.0, np.inf), (-np.inf, 0.0), (0.0, 1.7976931348623157e308),
    ])
    def test_a_span_or_time_past_the_largest_float_is_refused_quietly(self, t_start, t_end):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="every step time between them must be finite"):
                lax_integrate(lambda t: np.eye(2), np.eye(2), t_start, t_end, 3)

    @pytest.mark.parametrize("steps", [0, -1, 2.5, 3.0, True, "3"])
    def test_steps_must_be_a_positive_integer(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer of at least 1"):
            lax_integrate(lambda t: np.eye(2), np.eye(2), 0.0, 1.0, steps)

    @pytest.mark.parametrize("steps", [
        # 10**400 overflowed in the step h (OverflowError) and 2**63 gave an empty grid
        # (IndexError); the grid of intp.max + 1 times is the first numpy cannot index
        pytest.param(10**400, id="1e400"), pytest.param(2**63, id="2**63"),
        pytest.param(np.iinfo(np.intp).max, id="intp-max"),
    ])
    def test_steps_past_an_indexable_grid_are_refused_before_any_allocation(self, steps):
        alpha = lambda t: pytest.fail("alpha evaluated")  # noqa: E731
        limit = np.iinfo(np.intp).max
        with pytest.raises(ValueError, match=f"^steps must be below {limit}, the grid size numpy can index$"):
            lax_integrate(alpha, np.eye(2), 0.0, 1.0, steps)

    def test_a_numpy_integer_is_an_integer(self):
        path = lax_integrate(lambda t: np.eye(2), np.eye(2), 0.0, 1.0, np.int64(3))
        assert path.grid.size == 4
