import numpy as np
import pytest

from gzflows.errors import ValidationError
from gzflows.lax import (
    LaxPath,
    gauge_apply,
    gauge_fix_regular,
    isospectral_drift,
    lax_integrate,
    lax_residual,
    lax_symplectic,
)
from gzflows.matpoly import charpoly, matexp


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

    def test_alpha_checked_at_every_midpoint(self):
        steps, h = 10, 0.1
        midpoint = (h * np.arange(steps + 1))[3] + h / 2
        alpha = lambda t: np.full((2, 2), np.nan) if t == midpoint else np.eye(2)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            lax_integrate(alpha, np.eye(2), 0.0, 1.0, steps)

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
        with pytest.raises(ValidationError):
            gauge_fix_regular(junk)


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
