import warnings

import numpy as np
import pytest

from gzflows.errors import ToleranceError, ValidationError
from gzflows.gzcore import GZGroupElement, gz_flow, gz_map
from gzflows.matpoly import companion_of, krylov_rank
from gzflows.spaces import (
    CotangentPoint,
    cotangent_validate,
    tgl_flow,
    tgl_symplectic,
    tilde_a_flow,
    vn_gz_flow,
    vn_iso,
    vn_validate,
)


def random_matrix(rng, n, unit_norm=True):
    M = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return M / np.linalg.norm(M) if unit_norm else M


def random_cotangent(rng, n):
    while True:
        g = random_matrix(rng, n, unit_norm=False)
        if np.linalg.cond(g) < 100:
            return cotangent_validate(g, random_matrix(rng, n))


def shift(n):
    return companion_of(np.append(np.zeros(n), 1.0))


class TestVnValidate:
    def test_shift_with_e1(self):
        n = 3
        e1 = np.zeros(n)
        e1[0] = 1.0
        p = vn_validate(shift(n), e1)
        assert p.n == n

    def test_identity_rejected(self):
        with pytest.raises(ValidationError) as err:
            vn_validate(np.eye(2), np.array([1.0, 1.0]))
        assert "rank" in str(err.value)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_vector_rejected(self, entry):
        # this ended in LinAlgError "SVD did not converge", with RuntimeWarnings
        b = np.array([1.0, entry])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in (vn_validate, krylov_rank):
                with pytest.raises(ValueError, match="^vector entries must be finite$"):
                    check(shift(2), b)

    def test_random_pairs_accepted(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            B = random_matrix(rng, 4)
            b = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
            assert krylov_rank(B, b) == 4
            vn_validate(B, b)


class TestVnIso:
    def test_shift_basis(self):
        n = 4
        e1 = np.zeros(n)
        e1[0] = 1.0
        K, traces = vn_iso(vn_validate(shift(n), e1))
        assert np.allclose(K, np.eye(n))
        assert np.allclose(traces, 0)

    def test_diag_example(self):
        p = vn_validate(np.diag([1.0, 2.0]), np.array([1.0, 1.0]))
        K, traces = vn_iso(p)
        assert np.allclose(K, np.array([[1, 1], [1, 2]]))
        assert np.allclose(traces, [3, 5])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_traces_of_the_per_step_power_loop(self, n):
        rng = np.random.default_rng(n)
        B = random_matrix(rng, n)
        _, traces = vn_iso(vn_validate(B, rng.uniform(-1, 1, n) + 0j))
        power = np.eye(n, dtype=complex)
        for i in range(n):
            power = power @ B
            assert traces[i] == np.trace(power)

    def test_traces_match_invariants(self):
        rng = np.random.default_rng(1)
        B = random_matrix(rng, 3)
        b = rng.uniform(-1, 1, 3) + 0j
        _, traces = vn_iso(vn_validate(B, b))
        coords = gz_map(B, basis="tr-power")
        assert np.allclose(traces, coords.values[-3:])


class TestVnFlow:
    def test_scalar_index_scales_b(self):
        rng = np.random.default_rng(2)
        B = random_matrix(rng, 3)
        b = rng.uniform(-1, 1, 3) + 0j
        p = vn_validate(B, b)
        z = 0.8 - 0.3j
        moved = vn_gz_flow(p, [(3, 1, z)])
        assert np.array_equal(moved.B, B)
        assert np.max(np.abs(moved.b - np.exp(z) * b)) < 1e-12

    def test_identity(self):
        rng = np.random.default_rng(3)
        p = vn_validate(random_matrix(rng, 3), rng.uniform(-1, 1, 3) + 0j)
        moved = vn_gz_flow(p, GZGroupElement.zero(3))
        assert np.array_equal(moved.B, p.B) and np.array_equal(moved.b, p.b)

    def test_invariants_preserved(self):
        rng = np.random.default_rng(4)
        p = vn_validate(random_matrix(rng, 4), rng.uniform(-1, 1, 4) + 0j)
        lam = GZGroupElement(
            4,
            0.3 * (rng.uniform(-1, 1, 10) + 1j * rng.uniform(-1, 1, 10)),
        )
        moved = vn_gz_flow(p, lam)
        before = gz_map(p.B).values
        after = gz_map(moved.B).values
        assert np.max(np.abs(after - before) / (1 + np.abs(before))) < 1e-9

    def test_cyclicity_preserved(self):
        rng = np.random.default_rng(5)
        p = vn_validate(random_matrix(rng, 4), rng.uniform(-1, 1, 4) + 0j)
        lam = GZGroupElement.from_pairs(4, [(2, 2, 0.7j), (4, 3, 0.4), (3, 1, -0.2)])
        moved = vn_gz_flow(p, lam)
        assert krylov_rank(moved.B, moved.b) == 4


class TestCotangentSymplectic:
    def test_zero_everything(self):
        x = CotangentPoint(g=np.eye(2, dtype=complex), B=np.zeros((2, 2), dtype=complex))
        zero = np.zeros((2, 2))
        assert tgl_symplectic(x, (zero, zero), (zero, zero)) == 0

    def test_canonical_pairing(self):
        rng = np.random.default_rng(6)
        x = random_cotangent(rng, 3)
        rho1 = random_matrix(rng, 3, unit_norm=False)
        b2 = random_matrix(rng, 3, unit_norm=False)
        zero = np.zeros((3, 3))
        val = tgl_symplectic(x, (rho1, zero), (zero, b2))
        assert abs(val - np.trace(rho1 @ b2)) < 1e-12

    def test_antisymmetry(self):
        rng = np.random.default_rng(7)
        x = random_cotangent(rng, 3)
        t1 = (random_matrix(rng, 3), random_matrix(rng, 3))
        t2 = (random_matrix(rng, 3), random_matrix(rng, 3))
        assert abs(tgl_symplectic(x, t1, t2) + tgl_symplectic(x, t2, t1)) < 1e-12

    def test_reduces_to_pairing_at_zero(self):
        rng = np.random.default_rng(8)
        x = CotangentPoint(g=np.eye(3, dtype=complex), B=np.zeros((3, 3), dtype=complex))
        t1 = (random_matrix(rng, 3), random_matrix(rng, 3))
        t2 = (random_matrix(rng, 3), random_matrix(rng, 3))
        want = np.trace(t1[0] @ t2[1] - t2[0] @ t1[1])
        assert abs(tgl_symplectic(x, t1, t2) - want) < 1e-12


class TestCotangentFlows:
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("m, i", [(0, 0), (2, 3), (4, 1)])
    def test_index_outside_the_triangle_is_refused(self, side, m, i):
        x = random_cotangent(np.random.default_rng(9), 3)
        with pytest.raises(ValueError, match=rf"^index \({m}, {i}\) invalid for n = 3$"):
            tgl_flow(x, side, m, i, 0.5)

    def test_unknown_side_is_refused(self):
        x = random_cotangent(np.random.default_rng(9), 3)
        with pytest.raises(ValueError, match="^unknown side 'middle'$"):
            tgl_flow(x, "middle", 2, 1, 0.5)

    def test_left_top_index_fixes_B(self):
        rng = np.random.default_rng(9)
        x = random_cotangent(rng, 3)
        moved = tgl_flow(x, "left", 3, 2, 0.6 - 0.2j)
        assert np.array_equal(moved.B, x.B)
        assert not np.array_equal(moved.g, x.g)

    def test_right_flow_fixes_B_exactly(self):
        rng = np.random.default_rng(10)
        x = random_cotangent(rng, 3)
        for m, i in ((1, 1), (2, 2), (3, 3)):
            moved = tgl_flow(x, "right", m, i, 0.4 + 0.3j)
            assert np.array_equal(moved.B, x.B)

    def test_descent_to_matrices_is_bit_exact(self):
        rng = np.random.default_rng(11)
        x = random_cotangent(rng, 4)
        for m in range(1, 5):
            for i in range(1, m + 1):
                z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                left = tgl_flow(x, "left", m, i, z)
                assert np.array_equal(left.B, gz_flow(x.B, [(m, i, z)]))

    def test_right_flow_preserves_right_invariants(self):
        rng = np.random.default_rng(12)
        x = random_cotangent(rng, 3)
        before = gz_map(x.right_moment()).values
        moved = x
        for m, i, z in ((2, 1, 0.5), (3, 2, -0.3 + 0.2j), (1, 1, 0.7j)):
            moved = tgl_flow(moved, "right", m, i, z)
        after = gz_map(moved.right_moment()).values
        assert np.max(np.abs(after - before) / (1 + np.abs(before))) < 1e-9

    def test_scalar_left_right_coincide(self):
        rng = np.random.default_rng(13)
        x = random_cotangent(rng, 3)
        z = 0.9 - 0.4j
        left = tgl_flow(x, "left", 3, 1, z)
        right = tgl_flow(x, "right", 3, 1, -z)
        assert np.max(np.abs(left.g - right.g)) < 1e-12 * (1 + np.max(np.abs(left.g)))
        assert np.array_equal(left.B, right.B) or np.max(np.abs(left.B - right.B)) < 1e-13


class TestTildeAFlow:
    def test_left_only_matches_composition(self):
        rng = np.random.default_rng(14)
        x = random_cotangent(rng, 3)
        lam = GZGroupElement.from_pairs(3, [(2, 1, 0.3), (3, 2, 0.2j)])
        a = tilde_a_flow(x, lam, GZGroupElement.zero(3))
        b = tgl_flow(tgl_flow(x, "left", 2, 1, 0.3), "left", 3, 2, 0.2j)
        assert np.max(np.abs(a.g - b.g)) < 1e-13
        assert np.max(np.abs(a.B - b.B)) < 1e-13

    def test_left_right_interleaving_irrelevant(self):
        rng = np.random.default_rng(15)
        x = random_cotangent(rng, 3)
        lam_l = GZGroupElement.from_pairs(3, [(2, 2, 0.4 - 0.1j)])
        lam_r = GZGroupElement.from_pairs(3, [(3, 2, 0.3 + 0.2j), (1, 1, -0.2)])
        one = tilde_a_flow(x, lam_l, lam_r)
        # right first, then left
        other = tilde_a_flow(tilde_a_flow(x, GZGroupElement.zero(3), lam_r),
                             lam_l, GZGroupElement.zero(3))
        scale = 1 + np.linalg.norm(one.as_vector())
        assert np.linalg.norm(one.as_vector() - other.as_vector()) / scale < 1e-9

    def test_moment_conservation_both_sides(self):
        rng = np.random.default_rng(16)
        x = random_cotangent(rng, 3)
        lam_l = GZGroupElement.from_pairs(3, [(2, 1, 0.5j), (1, 1, 0.3)])
        lam_r = GZGroupElement.from_pairs(3, [(2, 2, -0.4)])
        moved = tilde_a_flow(x, lam_l, lam_r)
        left_before = gz_map(x.B).values
        left_after = gz_map(moved.B).values
        assert np.max(np.abs(left_after - left_before) / (1 + np.abs(left_before))) < 1e-9
        right_before = gz_map(x.right_moment()).values
        right_after = gz_map(moved.right_moment()).values
        assert np.max(np.abs(right_after - right_before) / (1 + np.abs(right_before))) < 1e-9

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_overflowing_factor_raises_quietly(self, side):
        # exp(30 * 50 * M) overflows on either side: refused, never a non-finite g
        x = CotangentPoint(np.eye(3, dtype=complex), 50.0 * np.array([[1, 2, 0], [0, 3, 1], [1, 0, 2]]))
        flows = {"left": ([(2, 2, 30)], []), "right": ([], [(2, 2, 30)])}[side]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceError, match=r"flow factor for \(m, i\) = \(2, 2\) overflowed"):
                tilde_a_flow(x, *flows)


class TestCotangentValidate:
    def test_singular_rejected(self):
        with pytest.raises(ValidationError):
            cotangent_validate(np.zeros((2, 2)), np.eye(2))

    def test_small_multiple_of_identity_accepted(self):
        # condition number 1, determinant 1e-36
        x = cotangent_validate(1e-3 * np.eye(12), np.eye(12))
        assert np.array_equal(x.g, 1e-3 * np.eye(12))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            cotangent_validate(np.eye(2), np.eye(3))
