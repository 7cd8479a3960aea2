"""The matpoly kernels against references that share none of their loops.

* ``_expm``, ``_powers`` and ``gz_map``'s tr-power values keep, byte for byte, the
  bits of the plain loops in ``oracles.py`` (``expm_loops``, ``eye_powers``): one
  stacked Pade sum and a chain seeded from the shared identity change no bit.
  (``charpoly``'s coefficients, single matrices and stacks, are held in ``test_matpoly.py``
  to the ``c`` terms of ``oracles.faddeev_leverrier``, whose loop forms each ``M`` anew;
  ``matpoly._charpoly`` keeps no ``M`` a caller could read.)
* ``_expm`` against ``mpmath.expm`` at 50 digits, within a bound derived below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from gzflows.gzcore import gz_map
from gzflows.matpoly import _PADE_BOUNDS, _expm, _powers
from oracles import expm_loops, eye_powers

# 1-norm bands: (0, theta_3], (theta_3, theta_5], ..., (theta_9, theta_13], and past theta_13
BANDS = list(zip([0.0] + [bound for _, bound in _PADE_BOUNDS], [bound for _, bound in _PADE_BOUNDS] + [300.0]))
KINDS = ["dense", "scalar", "diagonal", "triangular"]


def same_bits(A, B):
    return A.shape == B.shape and A.tobytes() == B.tobytes()


def drawn(seed, shape, kind):
    """A complex matrix (or stack) of the given kind: dense, z I as a flow's factor at
    i = 1, diagonal or upper triangular."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "scalar":
        return complex(A.flat[0]) * np.eye(shape[-1])
    if kind == "diagonal":
        return A * np.eye(shape[-1])
    return np.triu(A) if kind == "triangular" else A


class TestSameBits:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), kind=st.sampled_from(KINDS),
           band=st.sampled_from(BANDS), place=st.floats(0.01, 0.99))
    def test_expm_has_the_bits_of_the_loops(self, seed, n, kind, band, place):
        A = drawn(seed, (n, n), kind)
        A *= (band[0] + place * (band[1] - band[0])) / np.linalg.norm(A, 1)
        assert same_bits(_expm(A), expm_loops(A))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), lead=st.sampled_from([(), (1,), (3,)]),
           kind=st.sampled_from(KINDS + ["negative-zero", "zero"]), extra=st.integers(0, 2))
    def test_powers_have_the_bits_of_the_eye_chain(self, seed, n, lead, kind, extra):
        if kind == "negative-zero":
            A = drawn(seed, lead + (n, n), "dense")
            A.real[A.real < 0] = -0.0
        elif kind == "zero":
            A = np.zeros(lead + (n, n), dtype=complex)
        else:
            A = drawn(seed, lead + (n, n), kind)
        assert same_bits(_powers(A, n + extra), eye_powers(A, n + extra))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), lead=st.sampled_from([(), (1,), (3,)]),
           kind=st.sampled_from(KINDS))
    def test_tr_power_values_have_the_bits_of_np_trace_on_the_eye_chain(self, seed, n, lead, kind):
        B = drawn(seed, lead + (n, n), kind)
        want = np.concatenate([
            np.moveaxis(np.trace(eye_powers(B[..., :m, :m], m + 1)[1:], axis1=-2, axis2=-1), 0, -1)
            for m in range(1, n + 1)], axis=-1)
        assert same_bits(gz_map(B, "tr-power").values, want)


def exact_expm(A):
    """exp(A) by mpmath at 50 digits, from the exact binary entries of A."""
    with mp.workdps(50):
        return mp.expm(mp.matrix(A.tolist()))


class TestMpmathOracle:
    """_expm within c (n + 1) eps (1 + ||A||_1) e^||A||_1 of mpmath's exp(A) in the 1-norm.

    The bound: Higham's 1-norm bands theta_m (SIAM J. Matrix Anal. Appl. 2005) make the
    Pade approximant at A / 2^s the exact exponential of a matrix within u ||A||_1 of it.
    Its few products and its solve, of a denominator that is well conditioned at norms
    below theta_13, round to a relative error of a few (n + 1) eps; each of the s
    squarings doubles the relative error it is given and adds (n + 1) eps of its own, so
    the result is off by about (2^s + s) (n + 1) eps, relative, and 2^s < 1 + ||A||_1 with
    theta_13 > 2.  As ||e^(A+E) - e^A|| <= ||E|| e^(||A|| + ||E||) and ||e^A||_1 <=
    e^||A||_1, the error in the 1-norm is at most c (n + 1) eps (1 + ||A||_1) e^||A||_1,
    with c = 10 for the constants of that first-order count.  The measured error is under
    a tenth of the bound here.  For a nonnegative A with equal column sums
    ||e^A||_1 = e^||A||_1, so the "stochastic" kind holds the relative error to the bound.
    """

    NORMS = [0.01, 0.2, 0.9, 2.0, 5.0, 20.0, 200.0]  # orders 3, 5, 7, 9, 13, then 2 and 6 squarings

    def test_the_norms_cover_every_order_and_the_squarings(self):
        orders = [next((order for order, bound in _PADE_BOUNDS if norm <= bound), None) for norm in self.NORMS]
        assert orders == [3, 5, 7, 9, 13, None, None]

    @pytest.mark.parametrize("n, kind", [(1, "dense"), (2, "triangular"), (4, "dense"), (4, "stochastic"),
                                         (4, "triangular"), (12, "dense"), (12, "stochastic")])
    def test_within_the_bound(self, n, kind):
        rng = np.random.default_rng(700 + n)
        eps = np.finfo(float).eps
        for norm in self.NORMS:
            if kind == "stochastic":
                A = rng.uniform(0, 1, (n, n))
                A = (A / A.sum(axis=0)).astype(complex)
            else:
                A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                A = np.triu(A) if kind == "triangular" else A
            A *= norm / np.linalg.norm(A, 1)
            X, E, a = _expm(A), exact_expm(A), np.linalg.norm(A, 1)
            with mp.workdps(50):
                error = max(sum(abs(mp.mpc(X[i, j]) - E[i, j]) for i in range(n)) for j in range(n))
                bound = 10 * (n + 1) * eps * (1 + a) * mp.exp(a)
                assert error <= bound, (norm, float(error / bound))
