import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gzflows.errors import ValidationError
from gzflows.gzcore import _padded_minor_power, gz_flow, gz_indices, gz_map, gz_vector_field
from gzflows.verify import (
    Chart,
    _antisymmetric_count,
    commute_defect,
    conservation_defect,
    fd_gradient,
    report,
)
from oracles import (
    lie_poisson_bracket,
    lie_poisson_chart,
    matrix_gradient,
    poisson_bracket,
    probe_loop_gradient,
    trace,
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
        grad = fd_gradient(lambda y: y @ a, x, step=1e-3)
        assert np.max(np.abs(grad - a)) < 1e-12

    def test_quadratic_at_origin(self):
        grad = fd_gradient(lambda y: np.sum(y * y, axis=-1), np.zeros(4, dtype=complex))
        assert np.max(np.abs(grad)) < 1e-12

    def test_trace_cubed_matrix_chart(self):
        # d tr(B^3) / dB_ab = 3 (B^2)_ba
        rng = np.random.default_rng(1)
        B = random_matrix(rng, 3, unit_norm=False)
        grad = fd_gradient(lambda x: trace(np.linalg.matrix_power(x.reshape(x.shape[:-1] + (3, 3)), 3)),
                           B.reshape(-1))
        want = 3 * (B @ B).T.reshape(-1)
        assert np.max(np.abs(grad - want)) < 1e-7

    def test_non_finite_rejected(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValidationError):
                fd_gradient(lambda y: 1.0 / (y[..., 0] - y[..., 0]), np.zeros(1, dtype=complex))


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
                    f = lambda M, m=m1, i=i1: trace(np.linalg.matrix_power(M[..., :m, :m], i))
                    g = lambda M, m=m2, i=i2: trace(np.linalg.matrix_power(M[..., :m, :m], i))
                    val = lie_poisson_bracket(f, g, B)
                    assert abs(val) < 1e-6 * (1 + np.linalg.norm(B) ** (i1 + i2))

    def test_self_bracket_zero(self):
        rng = np.random.default_rng(3)
        B = random_matrix(rng, 3)
        f = lambda M: trace(M @ M @ M)
        assert abs(lie_poisson_bracket(f, f, B)) < 1e-10

    def test_center(self):
        rng = np.random.default_rng(4)
        B = random_matrix(rng, 3)
        g = lambda M: M[..., 0, 2] ** 2 + trace(M @ M)
        assert abs(lie_poisson_bracket(trace, g, B)) < 1e-8

    def test_entry_bracket_closed_form(self):
        # {B_11, B_12} = -B_12 in this convention
        rng = np.random.default_rng(5)
        B = random_matrix(rng, 2, unit_norm=False)
        val = lie_poisson_bracket(lambda M: M[..., 0, 0], lambda M: M[..., 0, 1], B)
        assert abs(val + B[0, 1]) < 1e-9

    def test_generates_the_flow(self):
        # d/dz F(flow_z(B)) at 0 equals {F, tr(minor^i)/i}
        rng = np.random.default_rng(6)
        B = random_matrix(rng, 3, unit_norm=False)
        m, i = 2, 2
        F = lambda M: M[..., 0, 2] * M[..., 2, 1] + M[..., 1, 1] ** 2
        H = lambda M: trace(np.linalg.matrix_power(M[..., :m, :m], i)) / i
        bracket = lie_poisson_bracket(F, H, B)
        h = 1e-6
        deriv = (F(gz_flow(B, [(m, i, h)])) - F(gz_flow(B, [(m, i, -h)]))) / (2 * h)
        assert abs(bracket - deriv) < 1e-6

    def test_jacobi_identity(self):
        rng = np.random.default_rng(7)
        B = random_matrix(rng, 3)
        A1 = random_matrix(rng, 3)
        fs = [
            lambda M: trace(M @ M),
            lambda M: trace(M @ M @ M),
            lambda M, A=A1: trace(A @ M),
        ]
        step = 1e-3

        def bracket(f, g):
            # the inner bracket at each matrix of the stack
            return lambda M: np.array(
                [lie_poisson_bracket(f, g, one, step=1e-6) for one in M.reshape(-1, 3, 3)]
            ).reshape(M.shape[:-2])

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
                lambda M, m=m, i=i: trace(np.linalg.matrix_power(M[..., :m, :m], i)), B
            )
            assert np.linalg.norm(fd - exact) <= 1e-7 * (1.0 + np.linalg.norm(exact))


class TestChart:
    def test_tensor_antisymmetry_checked(self):
        bad = Chart(names=("x", "y"), poisson_tensor=lambda x: np.eye(2))
        with pytest.raises(ValidationError):
            bad.tensor_at(np.zeros(2, dtype=complex))

    def test_tensor_of_the_wrong_shape_is_refused(self):
        bad = Chart(names=("x", "y"), poisson_tensor=lambda x: np.zeros((3, 3)))
        with pytest.raises(ValidationError, match=r"^tensor shape \(3, 3\) does not match dim 2$"):
            bad.tensor_at(np.zeros(2, dtype=complex))

    def test_canonical_pair(self):
        # {q, p} = 1 for the constant canonical tensor
        chart = Chart(
            names=("q", "p"),
            poisson_tensor=lambda x: np.array([[0, 1], [-1, 0]], dtype=complex),
        )
        x = np.array([0.3 + 0.1j, -0.7 + 0.4j])
        val = poisson_bracket(chart, lambda y: y[..., 0], lambda y: y[..., 1], x, step=1e-3)
        assert abs(val - 1) < 1e-12

    def test_lie_poisson_chart_matches_bracket(self):
        rng = np.random.default_rng(8)
        n = 3
        B = random_matrix(rng, n, unit_norm=False)
        chart = lie_poisson_chart(n)
        f = lambda M: trace(M @ M)
        g = lambda M: M[..., 0, 1] * M[..., 2, 2]
        direct = lie_poisson_bracket(f, g, B)
        via_chart = poisson_bracket(
            chart,
            lambda x: f(x.reshape(x.shape[:-1] + (n, n))),
            lambda x: g(x.reshape(x.shape[:-1] + (n, n))),
            B.reshape(-1),
        )
        assert abs(direct - via_chart) < 1e-7

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lie_poisson_chart_matches_entry_loop(self, n):
        B = random_matrix(np.random.default_rng(n), n, unit_norm=False)
        pi = np.zeros((n * n, n * n), dtype=complex)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        val = (B[c, b] if a == d else 0.0) - (B[a, d] if c == b else 0.0)
                        if val != 0.0:
                            pi[a * n + b, c * n + d] = val
        assert np.array_equal(lie_poisson_chart(n).tensor_at(B.reshape(-1)), pi)


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


class TestVectorValuedFdGradient:
    """A vector-valued f gives the Jacobian whose rows are the scalar gradients, bit for bit."""

    @staticmethod
    def family(y):
        return np.stack([
            y[..., 0] * y[..., 1], 1.0 / y[..., 2], np.exp(y[..., 0] - y[..., 3]),
            y[..., 1] ** 3, np.sum(y * y, axis=-1),
        ], axis=-1)

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_are_scalar_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        jac = fd_gradient(self.family, x)
        assert jac.shape == (5, 4) and jac.flags.c_contiguous
        for l in range(5):
            assert np.array_equal(jac[l], fd_gradient(lambda y: self.family(y)[..., l], x))

    def test_chart_families(self):
        # the kw-check families: q_l = y[l] and 1 / rho_l
        rng = np.random.default_rng(9)
        N = 6
        x = rng.uniform(-2, 2, 2 * N) + 1j * rng.uniform(-2, 2, 2 * N)
        dq, ds = fd_gradient(lambda y: y[..., :N], x), fd_gradient(lambda y: 1.0 / y[..., N:], x)
        for l in range(N):
            assert np.array_equal(dq[l], fd_gradient(lambda y: y[..., l], x))
            assert np.array_equal(ds[l], fd_gradient(lambda y: 1.0 / y[..., N + l], x))

    def test_scalar_still_a_vector(self):
        assert fd_gradient(lambda y: y[..., 0] * y[..., 1], np.ones(3, dtype=complex)).shape == (3,)


def same_bits(a, b) -> bool:
    """Equal shapes and equal bits, signed zeros included."""
    return a.shape == b.shape and np.array_equal(
        np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64)
    )


# signed zeros and magnitudes from 1e-5 to 1e5
SCALED = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
    st.sampled_from([1.0, -1.0]),
    st.floats(1.0, 9.99),
    st.integers(-5, 5),
) | st.sampled_from([0.0, -0.0])


class TestStackedProbes:
    """One call of f on the 4d probe points gives the bits of probing one point at a time."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data(), N=st.integers(2, 12))
    def test_chart_families(self, data, N):
        re, im = (np.array(data.draw(st.lists(SCALED, min_size=2 * N, max_size=2 * N)))
                  for _ in range(2))
        x = re + 1j * im
        # both families as kw-check takes them
        q = lambda y: y[..., :N]  # noqa: E731
        s = lambda y: 1.0 / y[..., N:]  # noqa: E731
        assert same_bits(fd_gradient(q, x), probe_loop_gradient(q, x))
        # a residue of exactly 0 has no finite 1/rho gradient
        if np.all(x[N:] != 0):
            assert same_bits(fd_gradient(s, x), probe_loop_gradient(s, x))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(values=st.lists(st.tuples(SCALED, SCALED), min_size=4, max_size=4))
    def test_vector_family(self, values):
        x = np.array([complex(*v) for v in values])
        family = TestVectorValuedFdGradient.family
        with np.errstate(all="ignore"):
            try:
                want = probe_loop_gradient(family, x)
            except ValidationError:
                with pytest.raises(ValidationError):
                    fd_gradient(family, x)
                return
        assert same_bits(fd_gradient(family, x), want)


class TestStackedFdGradient:
    """fd_gradient on a stack (S, d) gives each row the bits of probing that row alone."""

    @staticmethod
    def rows(data, S, d):
        return np.array([
            [complex(*v) for v in data.draw(st.lists(st.tuples(SCALED, SCALED), min_size=d, max_size=d))]
            for _ in range(S)
        ])

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data(), S=st.integers(1, 4), N=st.integers(1, 6))
    def test_chart_families(self, data, S, N):
        x = self.rows(data, S, 2 * N)
        q = lambda y: y[..., :N]  # noqa: E731
        s = lambda y: 1.0 / y[..., N:]  # noqa: E731
        families = [q] + ([s] if np.all(x[:, N:] != 0) else [])
        for f in families:
            stacked = fd_gradient(f, x)
            assert stacked.shape == (S, N, 2 * N) and stacked.flags.c_contiguous
            for row, want in zip(stacked, x):
                assert same_bits(row, probe_loop_gradient(f, want))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data(), S=st.integers(1, 4))
    def test_vector_family(self, data, S):
        x = self.rows(data, S, 4)
        family = TestVectorValuedFdGradient.family
        with np.errstate(all="ignore"):
            wants = []
            for row in x:
                try:
                    wants.append(probe_loop_gradient(family, row))
                except ValidationError:
                    with pytest.raises(ValidationError):
                        fd_gradient(family, x)
                    return
            stacked = fd_gradient(family, x)
        assert stacked.shape == (S, 5, 4)
        for row, want in zip(stacked, wants):
            assert same_bits(row, want)

    def test_scalar_family_stack(self):
        x = np.arange(6, dtype=complex).reshape(2, 3) + 1j
        f = lambda y: np.sum(y * y, axis=-1)  # noqa: E731
        stacked = fd_gradient(f, x)
        assert stacked.shape == (2, 3)
        for row, point in zip(stacked, x):
            assert same_bits(row, fd_gradient(f, point))

    def test_one_non_finite_row_fails_the_stack(self):
        x = np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ValidationError, match="non-finite"):
            fd_gradient(lambda y: 1.0 / y, x)


class TestStackedMinorPower:
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(data=st.data(), S=st.integers(1, 4), n=st.integers(1, 6))
    def test_each_matrix_has_its_own_bits(self, data, S, n):
        entries = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
        B = data.draw(arrays(np.complex128, (S, n, n), elements=entries))
        for m, i in gz_indices(n):
            stacked = _padded_minor_power(B, m, i)
            assert stacked.shape == (S, n, n)
            for k in range(S):
                assert same_bits(stacked[k], _padded_minor_power(B[k], m, i))


class TestStackedTensor:
    def test_skew_has_the_bits_of_linalg_norm(self):
        rng = np.random.default_rng(3)
        pi = rng.normal(size=(4, 6, 6)) + 1j * rng.normal(size=(4, 6, 6))
        pi[:2] -= pi[:2].swapaxes(1, 2)  # the first two are antisymmetric
        count, skew = _antisymmetric_count(pi)
        assert count == 2 and skew == np.linalg.norm(pi[2] + pi[2].T)
        assert _antisymmetric_count(pi[:2]) == (2, 0.0)

    def test_first_failing_point_raises(self):
        # the tensor of point k is k times the identity: points 1 and 2 fail, point 1 first
        chart = Chart(names=("a", "b"), poisson_tensor=lambda x: x[..., :1, None] * np.eye(2))
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], dtype=complex)
        with pytest.raises(ValidationError, match=r"defect 2\.828e\+00"):
            chart.tensor_at(x)
        assert np.array_equal(chart.tensor_at(x[:1]), np.zeros((1, 2, 2)))
