import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gzflows.errors import ValidationError
from gzflows.gzcore import _padded_minor_power, gz_flow, gz_indices, gz_map, gz_vector_field
from gzflows.verify import (
    Chart,
    commute_defect,
    conservation_defect,
    fd_gradient,
    lie_poisson_bracket,
    lie_poisson_chart,
    matrix_gradient,
    poisson_bracket,
    report,
)


def random_matrix(rng, n, unit_norm=True):
    M = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return M / np.linalg.norm(M) if unit_norm else M


class TestFdGradient:
    def test_linear_exact(self):
        # zero truncation for linear f; a wide step keeps roundoff below 1e-12
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
        x = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
        grad = fd_gradient(lambda y: a @ y, x, step=1e-3)
        assert np.max(np.abs(grad - a)) < 1e-12

    def test_quadratic_at_origin(self):
        grad = fd_gradient(lambda y: np.sum(y * y), np.zeros(4, dtype=complex))
        assert np.max(np.abs(grad)) < 1e-12

    def test_trace_cubed_matrix_chart(self):
        # d tr(B^3) / dB_ab = 3 (B^2)_ba
        rng = np.random.default_rng(1)
        B = random_matrix(rng, 3, unit_norm=False)
        grad = fd_gradient(lambda x: np.trace(np.linalg.matrix_power(x.reshape(3, 3), 3)),
                           B.reshape(-1))
        want = 3 * (B @ B).T.reshape(-1)
        assert np.max(np.abs(grad - want)) < 1e-7

    def test_non_finite_rejected(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValidationError):
                fd_gradient(lambda y: 1.0 / (y[0] - y[0]), np.zeros(1, dtype=complex))


class TestLiePoissonBracket:
    def test_invariants_commute(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 4):
            B = random_matrix(rng, n, unit_norm=False)
            idx = [(m, i) for m in range(1, n + 1) for i in range(1, m + 1)]
            for a in range(len(idx)):
                for b in range(a + 1, len(idx)):
                    m1, i1 = idx[a]
                    m2, i2 = idx[b]
                    f = lambda M, m=m1, i=i1: np.trace(np.linalg.matrix_power(M[:m, :m], i))
                    g = lambda M, m=m2, i=i2: np.trace(np.linalg.matrix_power(M[:m, :m], i))
                    val = lie_poisson_bracket(f, g, B)
                    assert abs(val) < 1e-6 * (1 + np.linalg.norm(B) ** (i1 + i2))

    def test_self_bracket_zero(self):
        rng = np.random.default_rng(3)
        B = random_matrix(rng, 3)
        f = lambda M: np.trace(M @ M @ M)
        assert abs(lie_poisson_bracket(f, f, B)) < 1e-10

    def test_center(self):
        rng = np.random.default_rng(4)
        B = random_matrix(rng, 3)
        g = lambda M: M[0, 2] ** 2 + np.trace(M @ M)
        assert abs(lie_poisson_bracket(np.trace, g, B)) < 1e-8

    def test_entry_bracket_closed_form(self):
        # {B_11, B_12} = -B_12 in this convention
        rng = np.random.default_rng(5)
        B = random_matrix(rng, 2, unit_norm=False)
        val = lie_poisson_bracket(lambda M: M[0, 0], lambda M: M[0, 1], B)
        assert abs(val + B[0, 1]) < 1e-9

    def test_generates_the_flow(self):
        # d/dz F(flow_z(B)) at 0 equals {F, tr(minor^i)/i}
        rng = np.random.default_rng(6)
        B = random_matrix(rng, 3, unit_norm=False)
        m, i = 2, 2
        F = lambda M: M[0, 2] * M[2, 1] + M[1, 1] ** 2
        H = lambda M: np.trace(np.linalg.matrix_power(M[:m, :m], i)) / i
        bracket = lie_poisson_bracket(F, H, B)
        h = 1e-6
        deriv = (F(gz_flow(B, [(m, i, h)])) - F(gz_flow(B, [(m, i, -h)]))) / (2 * h)
        assert abs(bracket - deriv) < 1e-6

    def test_jacobi_identity(self):
        rng = np.random.default_rng(7)
        B = random_matrix(rng, 3)
        A1 = random_matrix(rng, 3)
        fs = [
            lambda M: np.trace(M @ M),
            lambda M: np.trace(M @ M @ M),
            lambda M, A=A1: np.trace(A @ M),
        ]
        step = 1e-3

        def bracket(f, g):
            return lambda M: lie_poisson_bracket(f, g, M, step=1e-6)

        total = 0.0
        f, g, h = fs
        for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
            total += lie_poisson_bracket(a, bracket(b, c), B, step=step)
        assert abs(total) < 1e-5


class TestExactBracketGradient:
    """i * pad(B_m^(i-1)), the gradient bracket-table uses, against finite differences."""

    @pytest.mark.parametrize("n", range(1, 7))
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_fd_gradient(self, n, data):
        entries = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
        B = data.draw(arrays(np.complex128, (n, n), elements=entries))
        for m, i in gz_indices(n):
            exact = i * _padded_minor_power(B, m, i)
            fd = matrix_gradient(
                lambda M, m=m, i=i: np.trace(np.linalg.matrix_power(M[:m, :m], i)), B
            )
            assert np.linalg.norm(fd - exact) <= 1e-7 * (1.0 + np.linalg.norm(exact))


class TestChart:
    def test_tensor_antisymmetry_checked(self):
        bad = Chart(names=("x", "y"), poisson_tensor=lambda x: np.eye(2))
        with pytest.raises(ValidationError):
            bad.tensor_at(np.zeros(2, dtype=complex))

    def test_canonical_pair(self):
        # {q, p} = 1 for the constant canonical tensor
        chart = Chart(
            names=("q", "p"),
            poisson_tensor=lambda x: np.array([[0, 1], [-1, 0]], dtype=complex),
        )
        x = np.array([0.3 + 0.1j, -0.7 + 0.4j])
        val = poisson_bracket(chart, lambda y: y[0], lambda y: y[1], x, step=1e-3)
        assert abs(val - 1) < 1e-12

    def test_lie_poisson_chart_matches_bracket(self):
        rng = np.random.default_rng(8)
        n = 3
        B = random_matrix(rng, n, unit_norm=False)
        chart = lie_poisson_chart(n)
        f = lambda M: np.trace(M @ M)
        g = lambda M: M[0, 1] * M[2, 2]
        direct = lie_poisson_bracket(f, g, B)
        via_chart = poisson_bracket(
            chart,
            lambda x: f(x.reshape(n, n)),
            lambda x: g(x.reshape(n, n)),
            B.reshape(-1),
        )
        assert abs(direct - via_chart) < 1e-7


class TestDefects:
    def test_identity_flows(self):
        rng = np.random.default_rng(9)
        B = random_matrix(rng, 3)
        same = lambda M: M
        assert commute_defect(same, same, B) == 0.0
        flow = lambda M: gz_flow(M, [(2, 1, 0.5)])
        assert commute_defect(flow, same, B) < 1e-15

    def test_equal_flows(self):
        rng = np.random.default_rng(10)
        B = random_matrix(rng, 3)
        flow = lambda M: gz_flow(M, [(2, 2, 0.3 + 0.4j)])
        assert commute_defect(flow, flow, B) == 0.0

    def test_gz_flows_commute(self):
        rng = np.random.default_rng(11)
        B = random_matrix(rng, 4)
        f1 = lambda M: gz_flow(M, [(2, 1, 0.8 - 0.1j)])
        f2 = lambda M: gz_flow(M, [(3, 3, -0.4 + 0.6j)])
        assert commute_defect(f1, f2, B) < 1e-9

    def test_conservation_trivial(self):
        rng = np.random.default_rng(12)
        B = random_matrix(rng, 3)
        assert conservation_defect(lambda M: M, lambda M: gz_map(M).values, B) == 0.0
        assert conservation_defect(lambda M: gz_flow(M, [(2, 1, 1.0)]),
                                   lambda M: 7.0, B) == 0.0

    def test_nan_invariant_gives_nan_defect(self):
        # max(0.0, nan) is 0.0: a NaN invariant used to read as perfectly conserved
        B = np.eye(2, dtype=complex)
        invariants = [lambda M: np.array([1.0, np.nan]), lambda M: 2.0]
        assert np.isnan(conservation_defect(lambda M: M, invariants, B))

    def test_conservation_of_invariants(self):
        rng = np.random.default_rng(13)
        B = random_matrix(rng, 4)
        flow = lambda M: gz_flow(M, [(3, 2, 0.5 + 0.5j)])
        assert conservation_defect(flow, lambda M: gz_map(M).values, B) < 1e-9

    def test_vector_field_is_flow_derivative(self):
        rng = np.random.default_rng(14)
        B = random_matrix(rng, 3)
        h = 1e-6
        for m, i in ((1, 1), (2, 2)):
            fd = (gz_flow(B, [(m, i, h)]) - gz_flow(B, [(m, i, -h)])) / (2 * h)
            assert np.max(np.abs(fd - gz_vector_field(B, m, i))) < 1e-9


class TestReport:
    def test_pass_and_fail(self):
        ok = report("thing", 5, 1e-9, 1e-6)
        assert ok["pass"] and ok["samples"] == 5
        bad = report("thing", 5, 1e-3, 1e-6)
        assert not bad["pass"]
