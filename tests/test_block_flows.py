"""Every Gelfand-Zeitlin flow acts through its (m, m) block.

g = exp(z * minor(B, m)**(i-1)) commutes with minor(B, m), so the flow of index
(m, i) keeps minor(B, m), and every invariant of the levels k <= m, to the bit.
The full conjugation h B h^-1 by the n-by-n factor (``oracles.full_conjugation_flow``)
is the reference for the block form on well-conditioned flows.
"""

import warnings

import numpy as np
import pytest

from gzflows.errors import ToleranceError
from gzflows.gzcore import _flow_step, flow_factor, gz_flow, gz_indices, gz_map
from gzflows.spaces import CotangentPoint, VnPoint, tgl_flow, vn_gz_flow
from oracles import full_conjugation_flow


def circular(rng, n):
    """Complex entries of variance 1/n: spectral radius near 1 at every n."""
    return (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))) / np.sqrt(2 * n / 3)


def unit_z(rng):
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def bits(A):
    return np.ascontiguousarray(A, dtype=complex).view(np.uint64)


def same_bits(A, B):
    return A.shape == B.shape and np.array_equal(bits(A), bits(B))


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def normal_flow_matrix(seed):
    # the (2, 2, 8) flows of the CLI tests: 3x3 standard-normal B
    return np.random.default_rng(seed).standard_normal((3, 3))


def fault_b_matrix():
    # (2, 2, 4) on U(-2, 2) + iU(-2, 2): cond(g) is about 3e7
    rng = np.random.default_rng(197)
    return rng.uniform(-2, 2, (3, 3)) + 1j * rng.uniform(-2, 2, (3, 3))


class TestLeadingBlockIsExact:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_flow_keeps_the_leading_and_trailing_blocks(self, n):
        rng = np.random.default_rng(n)
        for m, i in gz_indices(n):
            B, b, g = circular(rng, n), circular(rng, n)[0], np.eye(n) + 0.3 * circular(rng, n)
            z = unit_z(rng)
            moved = [
                gz_flow(B, [(m, i, z)]),
                vn_gz_flow(VnPoint(B=B, b=b), [(m, i, z)]).B,
                tgl_flow(CotangentPoint(g=g, B=B), "left", m, i, z).B,
            ]
            for M in moved:
                assert same_bits(M[:m, :m], B[:m, :m]), (m, i)
                assert same_bits(M[m:, m:], B[m:, m:]), (m, i)

    @pytest.mark.parametrize("B, z", [
        pytest.param(normal_flow_matrix(2), 8, id="normal-seed-2"),
        pytest.param(normal_flow_matrix(3), 8, id="normal-seed-3"),
        pytest.param(fault_b_matrix(), 4, id="fault-b"),
    ])
    def test_invariants_of_the_levels_up_to_m_keep_their_bits(self, B, z):
        # these flows are refused by gz-flow: the rounding of the level above m is large
        before, after = gz_map(B).values, gz_map(gz_flow(B, [(2, 2, z)])).values
        assert same_bits(after[:3], before[:3])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_top_level_step_returns_a_complex_copy_of_b(self, n):
        rng = np.random.default_rng(40 + n)
        B = rng.standard_normal((n, n))
        for i in range(1, n + 1):
            g, moved = _flow_step(B, n, i, unit_z(rng))
            assert g.shape == (n, n) and moved.dtype == complex
            assert same_bits(moved, B) and not np.shares_memory(moved, B)

    def test_flow_factor_is_the_block(self):
        B = circular(np.random.default_rng(0), 5)
        for m, i in gz_indices(5):
            assert flow_factor(B, m, i, 0.3j).shape == (m, m)

    def test_singular_factor_is_a_numerical_failure(self):
        # exp(-1000 I_2) underflows to the zero matrix
        B = np.array([[-1000, 0, 1], [0, -1000, 0], [1, 0, 1]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceError, match=r"^flow factor for \(m, i\) = \(2, 2\) is singular$"):
                _flow_step(B, 2, 2, 1)

    def test_singular_right_factor_is_a_numerical_failure(self):
        # C = -g^-1 B g = -B at g = I, and exp(-z minor(C, 2)) = exp(-1000 I_2) underflows
        # to the zero matrix: g h would have rank 1, outside GL(3, C)
        B = np.array([[-1000, 0, 1], [0, -1000, 0], [1, 0, 1]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceError, match=r"^flow factor for \(m, i\) = \(2, 2\) is singular$"):
                tgl_flow(CotangentPoint(g=np.eye(3), B=B), "right", 2, 2, 1)


def well_conditioned(rng, B, m, i):
    """z with |z| ||minor(B, m)**(i-1)||_2 <= 0.5, as the benchmark draws its flows."""
    size = np.linalg.norm(np.linalg.matrix_power(B[:m, :m], i - 1), 2)
    return 0.5 * unit_z(rng) / np.sqrt(2) / max(1.0, size)


class TestFullConjugationOracle:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_single_flows_match(self, n):
        rng = np.random.default_rng(100 + n)
        for m, i in gz_indices(n):
            B, b, g = circular(rng, n), circular(rng, n)[0], np.eye(n) + 0.3 * circular(rng, n)
            z = well_conditioned(rng, B, m, i)
            h, want = full_conjugation_flow(B, m, i, z)
            factor, moved = _flow_step(B, m, i, z)
            assert same_bits(factor, h[:m, :m])
            assert rel_err(moved, want) <= 1e-12, (m, i)
            p = vn_gz_flow(VnPoint(B=B, b=b), [(m, i, z)])
            assert rel_err(p.B, want) <= 1e-12 and rel_err(p.b, h @ b) <= 1e-12, (m, i)
            left = tgl_flow(CotangentPoint(g=g, B=B), "left", m, i, z)
            assert rel_err(left.B, want) <= 1e-12 and rel_err(left.g, h @ g) <= 1e-12, (m, i)
            x = CotangentPoint(g=g, B=B)
            C = x.right_moment()
            w = well_conditioned(rng, C, m, i)
            right = tgl_flow(x, "right", m, i, w)
            assert rel_err(right.g, g @ full_conjugation_flow(C, m, i, -w)[0]) <= 1e-12, (m, i)

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_composite_flows_match(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(5):
            B = circular(rng, n)
            triples = [(m, i, well_conditioned(rng, B, m, i)) for m, i in gz_indices(n - 1)]
            want = B
            for m, i, z in triples:
                want = full_conjugation_flow(want, m, i, z)[1]
            assert rel_err(gz_flow(B, triples), want) <= 1e-12
