import tracemalloc

import numpy as np
import pytest

from gzflows.matpoly import (
    as_matrix,
    charpoly,
    cluster_points,
    companion_of,
    krylov_rank,
    leading_minor,
    matexp,
    newton_convert,
    poly_from_roots,
    roots,
)


def random_matrix(rng, n, scale=1.0):
    return scale * (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))


class TestLeadingMinor:
    def test_identity(self):
        assert np.array_equal(leading_minor(np.eye(3), 2), np.eye(2))

    def test_scalar(self):
        A = np.zeros((2, 2))
        A[0, 0] = 5.0
        assert leading_minor(A, 1)[0, 0] == 5.0

    def test_matches_slicing(self):
        rng = np.random.default_rng(0)
        A = random_matrix(rng, 4)
        assert np.array_equal(leading_minor(A, 3), A[:3, :3])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            leading_minor(np.eye(2), 3)
        with pytest.raises(ValueError):
            leading_minor(np.eye(2), 0)

    def test_non_square(self):
        with pytest.raises(ValueError):
            leading_minor(np.zeros((2, 3)), 1)


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

    def test_non_monic(self):
        with pytest.raises(ValueError):
            companion_of([1, 2])


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
