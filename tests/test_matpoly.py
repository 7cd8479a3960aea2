import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzflows.matpoly import (
    _MONIC_TOL,
    _clusters,
    _coincident,
    _faddeev_leverrier,
    _frobenius,
    _max_scaled,
    _powers,
    _unit,
    as_matrix,
    charpoly,
    companion_of,
    is_monic,
    krylov_matrix,
    krylov_rank,
    matexp,
    newton_convert,
    poly_divmod,
    poly_from_roots,
    poly_trim,
    roots,
)
from oracles import faddeev_leverrier, mask_clusters, pair_distances


def random_matrix(rng, n, scale=1.0):
    return scale * (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))


class TestPowers:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_each_power_is_one_product_with_a(self, n):
        A = random_matrix(np.random.default_rng(n), n)
        power = np.eye(n, dtype=complex)
        for k, got in enumerate(_powers(A, n + 2)):
            assert np.array_equal(got, power), k
            power = power @ A

    def test_a_stack_gets_the_chain_of_each_matrix(self):
        rng = np.random.default_rng(3)
        stack = np.array([random_matrix(rng, 5) for _ in range(4)])
        chains = _powers(stack, 6)
        for j, A in enumerate(stack):
            assert np.array_equal(chains[:, j], _powers(A, 6))


class TestUnitChain:
    """A chain of _powers of a _max_scaled matrix, put on unit lines by _unit."""

    @pytest.mark.parametrize("scale", [1e-300, 1e-3, 1.0, 1e3, 1e300])
    def test_scale_free_and_finite(self, scale):
        A = random_matrix(np.random.default_rng(4), 6)
        want = _unit(_powers(_max_scaled(A), 6))
        got = _unit(_powers(_max_scaled(scale * A), 6))
        assert np.all(np.isfinite(got)) and np.allclose(got, want, rtol=0, atol=1e-12)
        assert np.allclose(_frobenius(got), 1.0)

    def test_zero_powers_stay_zero(self):
        shift = np.diag(np.ones(3), 1)  # its fourth power is zero
        norms = _frobenius(_unit(_powers(_max_scaled(shift), 6)))
        assert np.allclose(norms[:4], 1.0) and np.array_equal(norms[4:], [0.0, 0.0])
        assert np.array_equal(_max_scaled(np.zeros((2, 3, 3))), np.zeros((2, 3, 3)))

    def test_each_matrix_of_a_stack_gets_its_own_scale(self):
        A = random_matrix(np.random.default_rng(5), 4)
        stack = _max_scaled(np.array([1e-200 * A, A, 1e200 * A]))
        assert np.allclose(stack, _max_scaled(A), rtol=0, atol=1e-15)


class TestFrobenius:
    """One stacked dot per part gives each matrix the bits np.linalg.norm gives it alone."""

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_per_sample_loop(self, seed):
        rng = np.random.default_rng(seed)
        N, n = int(rng.integers(1, 600)), int(rng.integers(0, 13))
        A = 10.0 ** rng.uniform(-5, 5) * (rng.normal(size=(N, n, n)) + 1j * rng.normal(size=(N, n, n)))
        if seed % 2:
            A = A - A[0]  # differences from one sample, as in a drift
        loop = np.array([np.linalg.norm(a) for a in A])
        assert np.array_equal(_frobenius(A), loop)

    def test_real_and_stacked_stacks(self):
        rng = np.random.default_rng(7)
        real = rng.normal(size=(30, 5, 5))
        assert np.array_equal(_frobenius(real), [np.linalg.norm(a) for a in real])
        stack = rng.normal(size=(3, 20, 4, 4)) + 1j * rng.normal(size=(3, 20, 4, 4))
        loop = [[np.linalg.norm(a) for a in path] for path in stack]
        assert np.array_equal(_frobenius(stack), loop)
        assert np.array_equal(_frobenius(stack[0, 0]), np.linalg.norm(stack[0, 0]))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_empty_stack(self, dtype):
        norms = _frobenius(np.zeros((0, 3, 3), dtype=dtype))
        assert norms.shape == (0,) and norms.dtype == float


class TestCharpoly:
    def test_zero_2x2(self):
        assert np.allclose(charpoly(np.zeros((2, 2))), [0, 0, 1])

    def test_diag_12(self):
        assert np.allclose(charpoly(np.diag([1.0, 2.0])), [2, -3, 1])

    def test_eigenvalue_oracle_6x6(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            A = random_matrix(rng, 6)
            expected = poly_from_roots(np.linalg.eigvals(A))
            got = charpoly(A)
            assert np.max(np.abs(got - expected) / (1 + np.abs(expected))) < 1e-9

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("lead", [(5,), (2, 3)])
    def test_stack_bit_equal_to_single_matrices(self, n, lead):
        rng = np.random.default_rng(n)
        A = random_matrix(rng, n).reshape(1, n, n) * rng.uniform(0.5, 2, lead + (1, 1))
        A = A + random_matrix(rng, n)
        got = charpoly(A)
        assert got.shape == lead + (n + 1,)
        for idx in np.ndindex(*lead):
            assert np.array_equal(got[idx], charpoly(A[idx]))

    def test_empty_stack(self):
        assert charpoly(np.zeros((0, 4, 4))).shape == (0, 5)

    def test_stack_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValueError, match="square"):
            charpoly(np.zeros((3, 2, 4)))
        A = np.zeros((3, 4, 4))
        A[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            charpoly(A)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), lead=st.sampled_from([(), (1,), (4,)]),
           pattern=st.sampled_from(["dense", "zero-row", "negative-zero", "real", "zero"]))
    def test_recursion_has_the_bits_of_the_reference(self, seed, n, lead, pattern):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=lead + (n, n)) + 1j * rng.normal(size=lead + (n, n))
        if pattern == "zero-row":
            A[..., rng.integers(n), :] = 0
        elif pattern == "negative-zero":
            A.real[A.real < 0] = -0.0
        elif pattern == "real":
            A = A.real + 0j
        elif pattern == "zero":
            A = np.zeros_like(A)
        got, want = list(_faddeev_leverrier(A)), list(faddeev_leverrier(A))
        assert len(got) == len(want) == n
        for (c, M), (c_ref, M_ref) in zip(got, want):
            assert c.tobytes() == c_ref.tobytes()
            assert M.shape == M_ref.shape and np.asarray(M).tobytes() == np.asarray(M_ref).tobytes()
        # ascending: c_n, ..., c_1, then the leading 1
        low = np.moveaxis(np.array([c for c, _ in want[::-1]]), 0, -1)
        coeffs = np.concatenate([low, np.ones(lead + (1,), dtype=complex)], axis=-1)
        assert charpoly(A).tobytes() == coeffs.tobytes()

    def test_the_shared_identities_are_read_only(self):
        M = next(_faddeev_leverrier(np.zeros((3, 3), dtype=complex)))[1]
        with pytest.raises(ValueError, match="read-only"):
            M[...] = 2.0
        assert np.array_equal(charpoly(np.zeros((3, 3))), [0, 0, 0, 1])

    def test_as_matrix_stays_two_dimensional(self):
        with pytest.raises(ValueError, match="square"):
            as_matrix(np.zeros((2, 3, 3)))

    def test_stack_peak_memory(self):
        # the recursion keeps a few stack-sized arrays live, never the n adjugate terms
        rng = np.random.default_rng(3)
        A = rng.normal(size=(2000, 12, 12)) + 1j * rng.normal(size=(2000, 12, 12))
        tracemalloc.start()
        try:
            charpoly(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * A.nbytes


class TestMatexp:
    def test_zero(self):
        assert np.allclose(matexp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        d = np.array([0.3 - 1j, -2.0, 1.5 + 0.5j])
        assert np.allclose(matexp(np.diag(d)), np.diag(np.exp(d)), atol=1e-13)

    def test_nilpotent(self):
        z = 1.7 - 0.4j
        A = np.array([[0, z], [0, 0]], dtype=complex)
        assert np.allclose(matexp(A), np.array([[1, z], [0, 1]]), atol=1e-14)

    def test_inverse_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = random_matrix(rng, 4)
            A = 2.0 * A / np.linalg.norm(A)
            resid = np.linalg.norm(matexp(A) @ matexp(-A) - np.eye(4))
            assert resid < 1e-12

    def test_commuting_product(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            A = random_matrix(rng, n)
            B = 0.3 * A @ A + 0.7 * A - 0.2 * np.eye(n)
            lhs = matexp(A + B)
            rhs = matexp(A) @ matexp(B)
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * (1 + np.max(np.abs(lhs)))

    def test_large_norm_scaling(self):
        # above the squaring threshold the identity holds up to conditioning
        rng = np.random.default_rng(4)
        A = random_matrix(rng, 3)
        A = 40.0 * A / np.linalg.norm(A)
        E, E_inv = matexp(A), matexp(-A)
        resid = np.linalg.norm(E @ E_inv - np.eye(3))
        assert resid < 1e-12 * np.linalg.norm(E) * np.linalg.norm(E_inv)


class TestRoots:
    def test_quadratic(self):
        got = sorted(roots([-1, 0, 1]), key=lambda z: z.real)
        assert np.allclose(got, [-1, 1])

    def test_triple_zero(self):
        got = roots([0, 0, 0, 1])
        assert np.max(np.abs(got)) < 1e-4

    def test_roundtrip_degree_5(self):
        rng = np.random.default_rng(5)
        p = np.append(rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5), 1.0)
        back = charpoly(companion_of(p))
        assert np.max(np.abs(back - p)) < 1e-8

    def test_zero_polynomial(self):
        with pytest.raises(ValueError):
            roots([0.0])
        with pytest.raises(ValueError):
            roots([3.0])


class TestCompanion:
    def test_z_squared(self):
        assert np.array_equal(companion_of([0, 0, 1]), np.array([[0, 0], [1, 0]]))

    def test_linear(self):
        a = 2.5 - 1j
        C = companion_of([-a, 1])
        assert C.shape == (1, 1) and C[0, 0] == a

    def test_roundtrip_degree_4(self):
        rng = np.random.default_rng(6)
        p = np.append(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4), 1.0)
        assert np.max(np.abs(charpoly(companion_of(p)) - p)) < 1e-10

    def test_roundtrip_degree_10(self):
        rng = np.random.default_rng(7)
        p = np.append(rng.uniform(-1, 1, 10) + 1j * rng.uniform(-1, 1, 10), 1.0)
        back = charpoly(companion_of(p))
        assert np.max(np.abs(back - p) / (1 + np.abs(p))) < 1e-10

    @pytest.mark.parametrize("p", [[1, 2], [1, 1 + 2e-9], [1, 2, 0]])
    def test_non_monic(self, p):
        with pytest.raises(ValueError, match=r"^companion matrix needs a monic polynomial$"):
            companion_of(p)

    @pytest.mark.parametrize("p", [[3.0], [0.0, 0.0], [2.0, 0.0]], ids=["constant", "zero", "constant-with-zero"])
    def test_constant_is_refused(self, p):
        with pytest.raises(ValueError, match=r"^companion matrix needs degree >= 1$"):
            companion_of(p)

    def test_near_monic_is_divided_by_its_leading_coefficient(self):
        # one monic tolerance: what fixture_from_polar and strata accept, companion_of takes
        p = np.array([2.0, -3.0, 1 + 5e-10])
        C = companion_of(p)
        assert np.array_equal(C, [[0, -2.0 / p[-1]], [1, 3.0 / p[-1]]])
        assert np.array_equal(newton_convert(p, "coeffs-to-power"), newton_convert(p / p[-1], "coeffs-to-power"))


class TestNewtonConvert:
    def test_diag_12(self):
        coeffs = newton_convert([3, 5], "power-to-coeffs")
        assert np.allclose(coeffs, [2, -3, 1])

    def test_all_zero_power_sums(self):
        coeffs = newton_convert(np.zeros(4), "power-to-coeffs")
        assert np.allclose(coeffs, [0, 0, 0, 0, 1])

    def test_roundtrip_degree_6(self):
        rng = np.random.default_rng(8)
        psums = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        coeffs = newton_convert(psums, "power-to-coeffs")
        back = newton_convert(coeffs, "coeffs-to-power")
        assert np.max(np.abs(back - psums)) < 1e-11
        coeffs2 = newton_convert(back, "power-to-coeffs")
        assert np.max(np.abs(coeffs2 - coeffs)) < 1e-11

    def test_matches_charpoly(self):
        rng = np.random.default_rng(9)
        A = random_matrix(rng, 5)
        psums = [np.trace(np.linalg.matrix_power(A, i)) for i in range(1, 6)]
        assert np.max(np.abs(newton_convert(psums, "power-to-coeffs") - charpoly(A))) < 1e-10

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            newton_convert([1.0], "sideways")

    @pytest.mark.parametrize("p, psums", [([-1, 1, 0], [1]), ([2, -3, 1, 0], [3, 5]), ([2, -3, 1, 0, 0], [3, 5])])
    def test_trailing_zeros_are_trimmed(self, p, psums):
        # the degree used to be read from the untrimmed length: [-1, 3] and [-1, 7, -16]
        got = newton_convert(p, "coeffs-to-power")
        assert got.tobytes() == newton_convert(poly_trim(p), "coeffs-to-power").tobytes()
        assert np.array_equal(got, psums)

    @pytest.mark.parametrize("values, direction, text", [
        pytest.param([], "power-to-coeffs", "empty input", id="empty-power-sums"),
        pytest.param([], "coeffs-to-power", "empty input", id="empty-coefficients"),
        pytest.param([1.0], "coeffs-to-power", "coeffs-to-power needs degree >= 1", id="degree-0"),
        pytest.param([1.0, 0.0], "coeffs-to-power", "coeffs-to-power needs degree >= 1", id="degree-0-padded"),
        pytest.param([0.0, 0.0], "coeffs-to-power", "coeffs-to-power needs degree >= 1", id="zero"),
        pytest.param([1.0, 2.0], "coeffs-to-power", "coeffs-to-power needs a monic polynomial", id="not-monic"),
    ])
    def test_refusals(self, values, direction, text):
        with pytest.raises(ValueError, match=f"^{text}$"):
            newton_convert(values, direction)


class TestPolyDivmod:
    @pytest.mark.parametrize("seed", range(6))
    def test_quotient_and_remainder(self, seed):
        rng = np.random.default_rng(seed)
        dp, dq = sorted(rng.integers(1, 7, 2))[::-1]
        p = rng.normal(size=dp + 1) + 1j * rng.normal(size=dp + 1)
        q = rng.normal(size=dq + 1) + 1j * rng.normal(size=dq + 1)
        quot, rem = poly_divmod(p, q)
        assert quot.size == dp - dq + 1 and rem.size <= max(dq, 1)
        back = np.convolve(q, quot)
        back[: rem.size] += rem
        assert np.max(np.abs(back - p)) < 1e-10 * np.max(np.abs(p))

    def test_a_short_dividend_is_its_own_remainder(self):
        quot, rem = poly_divmod([1.0, 2.0, 0.0], [0.0, 0.0, 1.0])
        assert np.array_equal(quot, [0]) and np.array_equal(rem, [1.0, 2.0])

    def test_an_exact_division_leaves_the_zero_polynomial(self):
        quot, rem = poly_divmod(poly_from_roots([1, 2, 3]), poly_from_roots([2]))
        assert np.allclose(quot, poly_from_roots([1, 3])) and np.array_equal(rem, [0])

    @pytest.mark.parametrize("q", [[0.0], [0.0, 0.0], []])
    def test_division_by_zero_is_refused(self, q):
        with pytest.raises(ValueError, match="^division by the zero polynomial$"):
            poly_divmod([1.0, 1.0], q)


class TestIsMonic:
    @pytest.mark.parametrize("p, monic", [
        pytest.param([2.0, 1.0], True, id="one"),
        pytest.param([2.0, 1.0 + 0.9 * _MONIC_TOL], True, id="inside"),
        pytest.param([2.0, 1.0 - 0.9 * _MONIC_TOL], True, id="inside-below"),
        pytest.param([2.0, 1.0 + 0.9j * _MONIC_TOL], True, id="inside-imaginary"),
        pytest.param([2.0, 1.0 + 1.1 * _MONIC_TOL], False, id="outside"),
        pytest.param([2.0, 1.0 - 1.1 * _MONIC_TOL], False, id="outside-below"),
        pytest.param([2.0, 1.0 + 1.1j * _MONIC_TOL], False, id="outside-imaginary"),
        pytest.param([2.0, 1.0, 0.0, 0.0], True, id="trailing-zeros"),
        pytest.param([1.0], True, id="constant-one"),
        pytest.param([0.0, 0.0], False, id="zero"),
        pytest.param([1.0, float("nan")], False, id="nan"),
    ])
    def test_leading_coefficient_within_the_tolerance_of_one(self, p, monic):
        assert is_monic(p) == monic


class TestKrylovMatrix:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_columns_are_b_bb_and_so_on(self, n):
        rng = np.random.default_rng(n)
        B, b = random_matrix(rng, n), rng.normal(size=n) + 1j * rng.normal(size=n)
        K = krylov_matrix(B, b)
        col = b
        for j in range(n):
            assert np.array_equal(K[:, j], col)
            col = B @ col

    def test_length_mismatch_is_refused(self):
        with pytest.raises(ValueError, match="^vector length 2 does not match matrix size 3$"):
            krylov_matrix(np.eye(3), [1.0, 2.0])


class TestKrylovRank:
    def test_shift_with_e1(self):
        for n in (2, 4, 6):
            B = companion_of(np.append(np.zeros(n), 1.0))
            e1 = np.zeros(n)
            e1[0] = 1.0
            assert krylov_rank(B, e1) == n

    def test_zero_vector(self):
        assert krylov_rank(np.eye(3), np.zeros(3)) == 0

    def test_repeated_eigenvalue(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            b = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
            assert krylov_rank(np.eye(2), b) <= 1

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_scales(self, scale):
        B = companion_of(poly_from_roots([1, 2, 3, 4]))
        b = np.array([1.0, 0, 0, 0])
        assert krylov_rank(scale * B, b) == krylov_rank(B, scale * b) == 4
        assert krylov_rank(scale * np.eye(4), scale * b) == 1


def cluster_points(points, tol):
    """The (mean, size) pairs of _clusters."""
    return _clusters(points, tol)[0]


class TestClusterPoints:
    def test_two_coincident(self):
        assert cluster_points([0, 0], 1e-8) == [(0, 2)]

    def test_two_separate(self):
        assert cluster_points([0, 1], 1e-8) == [(0, 1), (1, 1)]

    def test_near_pair(self):
        got = cluster_points([0, 1e-10, 5], 1e-8)
        assert len(got) == 2
        assert abs(got[0][0] - 5e-11) < 1e-20 and got[0][1] == 2
        assert got[1] == (5, 1)

    def test_order_independent(self):
        pts = [1.0, 1.0 + 1e-9, -3.0, 2j]
        assert cluster_points(pts, 1e-8) == cluster_points(pts[::-1], 1e-8)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            cluster_points([0], 0.0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        tol=st.sampled_from([1e-8, 0.27, 1.0]),
        walk=st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-12, 2.0]), st.floats(0.0, 3.0)),
                st.floats(0.0, 6.3),
                st.booleans(),
            ),
            max_size=24,
        ),
    )
    def test_matches_union_find(self, tol, walk):
        # chains: each point steps about tol away from the last, or jumps to a new start
        pts, z = [], 0j
        for step, angle, jump in walk:
            if jump:
                z = complex(10 * np.cos(7 * angle), 10 * np.sin(3 * angle))
            else:
                z = z + step * tol * np.exp(1j * angle)
            pts.append(z)
        reps, index = _clusters(pts, tol)
        assert reps == union_find_clusters(pts, tol)
        assert [size for _, size in reps] == np.bincount(index, minlength=len(reps)).tolist()
        for i, p in enumerate(pts):
            others = [q for j, q in enumerate(pts) if index[j] == index[i] and j != i]
            assert not others or min(abs(p - q) for q in others) <= tol


def union_find_clusters(points, tol):
    """Single-linkage clusters by union-find over every pair, with Python's abs()."""
    pts = sorted((complex(p) for p in points), key=lambda z: (z.real, z.imag))
    if not pts:
        return []
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[complex]] = {}
    for i, p in enumerate(pts):
        groups.setdefault(find(i), []).append(p)
    reps = [(sum(g) / len(g), len(g)) for g in groups.values()]
    reps.sort(key=lambda t: (t[0].real, t[0].imag))
    return reps


def bits(z):
    return np.array(z, dtype=complex).view(np.uint64).tolist()


class TestSortedSweep:
    """_clusters and _coincident find their pairs by a sweep over the points sorted by real
    part; they answer as the matrix of every pair's distance does, bit for bit."""

    @staticmethod
    def check(points, tol):
        z = np.array(points, dtype=complex)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            (reps, index), coincident = _clusters(z, tol), _coincident(z, tol)
        want, want_index = mask_clusters(z.tolist(), tol)
        assert np.array_equal(index, want_index)
        assert [size for _, size in reps] == [size for _, size in want]
        assert bits([r for r, _ in reps]) == bits([r for r, _ in want])
        near = pair_distances(z) <= tol
        assert coincident == bool(near[~np.eye(z.size, dtype=bool)].any())
        return reps

    def test_equal_real_parts(self):
        tol = 0.25
        reps = self.check([1j, 0.5j, 0.25j, 1.0 + 0j, 2j, 1.25j, 0j, -3j], tol)
        assert [size for _, size in reps] == [1, 3, 2, 1, 1]
        assert reps == union_find_clusters([1j, 0.5j, 0.25j, 1.0 + 0j, 2j, 1.25j, 0j, -3j], tol)

    @pytest.mark.parametrize("start", [0.0, 1.0, -3.0, 1e6])
    def test_real_gap_at_tol_and_one_ulp_past(self, start):
        tol = 2.0 ** -10  # start + tol is exact, so the real gap is tol
        points = [start, start + tol, start + 5.0]
        assert [size for _, size in self.check(points, tol)] == [2, 1]
        assert [size for _, size in self.check(points, np.nextafter(tol, 0.0))] == [1, 1, 1]
        assert _coincident(np.array(points, dtype=complex), tol)
        assert not _coincident(np.array(points, dtype=complex), np.nextafter(tol, 0.0))

    def test_far_points_inside_the_window(self):
        # two near points with far ones between them in the sorted order
        tol = 1e-3
        points = [0.0, 0.25e-3 + 5j, 0.5e-3 - 7j, 0.6e-3 + 2j, 0.75e-3 + 0.1e-3j]
        reps = self.check(points, tol)
        assert sorted(size for _, size in reps) == [1, 1, 1, 2]
        assert self.check(points[:1] + points[-1:], tol) == [(sum(points[::4]) / 2, 2)]

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]])
    def test_chains_that_link_out_of_sorted_order(self, order):
        # sorted a, b, c, d: each of a, b and c is near d only, so all join through the last
        tol = 1.0
        a, b, c, d = 0j, 0.5 + 0.9j, 0.6 - 0.9j, 0.8 + 0j
        assert min(abs(a - b), abs(a - c), abs(b - c)) > tol >= max(abs(a - d), abs(b - d), abs(c - d))
        points = [[a, b, c, d][i] for i in order]
        reps = self.check(points, tol)
        assert reps == union_find_clusters(points, tol) and [size for _, size in reps] == [4]

    @pytest.mark.parametrize("tol", [1e-8, 1.0, 1e308, 1.7e308])
    def test_parts_near_the_largest_float(self, tol):
        # differences past the largest float are infinite distances, with no exception
        # or warning: abs() of complex(1.5e308, 1.5e308) would raise OverflowError
        points = [0j, 1.5e308 + 1.5e308j, -1.5e308 + 0j, 1.5e308 - 1.5e308j, 1e308 + 1e308j,
                  1.5e308 + 1.5e308j, -1.7e308 - 1.7e308j]
        self.check(points, tol)

    def test_tol_wider_than_the_spread(self):
        rng = np.random.default_rng(5)
        points = (rng.uniform(-1, 1, 30) + 1j * rng.uniform(-1, 1, 30)).tolist()
        reps = self.check(points, 3.0)
        assert [size for _, size in reps] == [30]
        assert reps == union_find_clusters(points, 3.0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        tol=st.sampled_from([0.005, 0.01, 0.25]),
        points=st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), max_size=20),
    )
    def test_lattice_matches_every_pair(self, tol, points):
        # a 0.005 lattice puts many real gaps and distances within an ulp of tol
        self.check([complex(a, b) * 0.005 for a, b in points], tol)


class TestEigenvalueMultiset:
    def test_roots_of_charpoly(self):
        rng = np.random.default_rng(11)
        for n in (4, 6, 8):
            # well-separated spectrum conjugated by a moderate similarity
            eigs = np.arange(1, n + 1) + 0.3j * rng.uniform(-1, 1, n)
            V = np.eye(n) + 0.3 * random_matrix(rng, n)
            A = V @ np.diag(eigs) @ np.linalg.inv(V)
            got = np.array(sorted(roots(charpoly(A)), key=lambda z: z.real))
            want = np.array(sorted(eigs, key=lambda z: z.real))
            assert np.max(np.abs(got - want)) < 1e-7


class TestCoincident:
    """One hypot over the pair differences decides as the pair loops did."""

    @staticmethod
    def loop_decisions(z, tol):
        # open_stratum_chart's "some gap <= tol" and kw-check's "min gap > tol"
        gaps = [abs(z[a] - z[b]) for a in range(z.size) for b in range(a + 1, z.size)]
        return any(g <= tol for g in gaps), not (not gaps or min(gaps) > tol)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        points=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=8),
        tol=st.sampled_from([1e-2, 5e-3, 1.5e-2]),
    )
    def test_lattice_matches_pair_loops(self, points, tol):
        # a 0.005 lattice puts many gaps within an ulp of the thresholds
        z = np.array([complex(a, b) for a, b in points], dtype=complex) * 0.005
        decision = _coincident(z, tol)
        assert self.loop_decisions(z, tol) == (decision, decision)

    @pytest.mark.parametrize("z", [
        [0.0, 0.01], [0.01, 0.0], [0.0, 0.01j], [-0.01j, 0.0], [1.0, 0.5, 0.01, 3.0, 0.0],
    ])
    def test_gap_exactly_at_the_kw_check_threshold(self, z):
        z = np.array(z, dtype=complex)
        assert _coincident(z, 1e-2) and self.loop_decisions(z, 1e-2) == (True, True)
        assert not _coincident(z, np.nextafter(1e-2, 0.0))

    def test_fewer_than_two_points(self):
        assert not _coincident(np.zeros(0, dtype=complex), 1.0)
        assert not _coincident(np.ones(1, dtype=complex), 1.0)
