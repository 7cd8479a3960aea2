"""Span decisions that do not move with scale, each checked by a 50-digit oracle.

strongly_regular and krylov_rank rank unit-norm power chains against the bound their
generators can reach.  Raw power chains cut against sigma_max answer the generic, the
diagonal and the small- and large-scale inputs below wrongly; the b (+) B' pin, the
scale-1 cyclic pairs and the eigenvector come out right either way.

A full span is proved by a Cholesky factorization before any SVD is taken
(``matpoly._spans_rows``); every answer is held to the one the SVD alone gives.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzflows import matpoly, serialize
from gzflows.cli import _random_matrix, run
from gzflows.gzcore import strongly_regular
from gzflows.matpoly import RANK_RTOL, krylov_rank
from gzflows.spaces import vn_validate
from span_oracle import count_above, krylov_rows, mp_singular_values, sregular_rows

N = 12
SEEDS = range(20)


def circular(rng, n):
    """Entries of variance 1/n, as the benchmark's query-mix draws them."""
    return (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))) / np.sqrt(2 * n / 3)


def generic(family, seed):
    """A 12 x 12 strongly regular B: unit Frobenius norm, or variance 1/n times 1e-3 or 1e3."""
    rng = np.random.default_rng(seed)
    if family == "unit-norm":
        return _random_matrix(rng, N)
    return float(family) * circular(rng, N)


def diagonal():
    rng = np.random.default_rng(0)
    return np.diag(rng.normal(size=6) + 1j * rng.normal(size=6))


def split():
    """b (+) B': rank (n-1)(n-2)/2, the pin of the benchmark's non-generic sregular."""
    B = circular(np.random.default_rng(5), N)
    B[0, 1:] = B[1:, 0] = 0.0
    return B


def cyclic_pair(seed, scale):
    rng = np.random.default_rng([seed, 9])
    return scale * circular(rng, N), rng.normal(size=N) + 1j * rng.normal(size=N)


def eigenvector_pair(scale):
    B = scale * circular(np.random.default_rng(3), N)
    return B, np.linalg.eig(B)[1][:, 0]


FAMILIES = ["unit-norm", "1e-3", "1e3"]
SCALES = [1e-3, 1.0, 1e3]


class TestStronglyRegular:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_generic_matrices_at_every_scale(self, family):
        for seed in SEEDS:
            assert strongly_regular(generic(family, seed)) == (True, 66), seed

    def test_complex_diagonal_has_no_generator(self):
        assert strongly_regular(diagonal()) == (False, 0)

    def test_split_matrix(self):
        assert strongly_regular(split()) == (False, 55)

    def test_unit_norm_request_answers_true(self, capsys):
        B = generic("unit-norm", 0)
        payload = json.dumps({"matrix": serialize.encode_array(B).tolist()})
        assert run(["sregular", "--input", payload]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "strongly_regular": True, "rank": 66, "required_rank": 66,
        }


def query_draw(seed, n, split):
    """A query-mix sregular request: generic, or with its first basis vector split off."""
    B = circular(np.random.default_rng(seed), n)
    if split:  # B = b (+) B'
        B[0, 1:] = B[1:, 0] = 0.0
    return B


class TestRelations:
    """The generators at 2^e B are those at B times 2^(e i), and those at B^T are the negated
    transposes of those at B, so both spans have B's rank.  The first holds to the bit, since
    the unit scaling removes a power of two without rounding; the second guards the
    orientation the SVD is taken in."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 6, 12]), split=st.booleans(),
           e=st.integers(-20, 20))
    def test_a_power_of_two_scale(self, seed, n, split, e):
        B = query_draw(seed, n, split)
        assert strongly_regular(B * 2.0**e) == strongly_regular(B)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 6, 12]), split=st.booleans())
    def test_the_transpose(self, seed, n, split):
        B = query_draw(seed, n, split)
        assert strongly_regular(B.T) == strongly_regular(B) == (not split, n * (n - 1) // 2 - split * (n - 1))


class TestKrylovRank:
    def test_cyclic_pairs_at_every_scale(self):
        for scale in SCALES:
            for seed in SEEDS:
                assert krylov_rank(*cyclic_pair(seed, scale)) == N, (scale, seed)

    @pytest.mark.parametrize("scale", SCALES)
    def test_eigenvector_spans_a_line(self, scale):
        assert krylov_rank(*eigenvector_pair(scale)) == 1

    def test_vn_validate_accepts_a_small_cyclic_pair(self):
        B, b = cyclic_pair(0, 1e-3)
        assert vn_validate(B, b).n == N

    def test_scale_of_b_does_not_matter(self):
        B, b = cyclic_pair(1, 1.0)
        assert [krylov_rank(B, s * b) for s in (1e-150, 1.0, 1e150)] == [N] * 3
        assert krylov_rank(B, np.zeros(N)) == 0


class TestFiftyDigitOracle:
    """The library's rank r has sigma_r above the cut and sigma_(r+1) below it, at 50 digits.

    A 66 x 144 generator matrix takes about a second here, so the oracle takes two seeds
    of each strongly regular family; the library's answers above cover all twenty.
    """

    @pytest.mark.parametrize("B, want", [
        *[pytest.param(generic(f, s), 66, id=f"{f}-{s}") for f in FAMILIES for s in (0, 2)],
        pytest.param(diagonal(), 0, id="diagonal"),
        pytest.param(split(), 55, id="split"),
    ])
    def test_strongly_regular(self, B, want):
        assert count_above(*sregular_rows(B), RANK_RTOL) == strongly_regular(B)[1] == want

    @pytest.mark.parametrize("scale", SCALES)
    def test_cyclic_pairs(self, scale):
        for seed in SEEDS:
            B, b = cyclic_pair(seed, scale)
            assert count_above(*krylov_rows(B, b), RANK_RTOL) == krylov_rank(B, b) == N, seed

    @pytest.mark.parametrize("pair, want", [
        pytest.param(cyclic_pair(0, 1e-3), N, id="cyclic-1e-3"),
        pytest.param(cyclic_pair(0, 1e3), N, id="cyclic-1e3"),
        pytest.param(eigenvector_pair(1.0), 1, id="eigenvector"),
    ])
    def test_krylov_singular_values(self, pair, want):
        sigma, cut = mp_singular_values(*krylov_rows(*pair), RANK_RTOL)
        assert sigma[want - 1] > cut
        assert want == N or sigma[want] < cut
        assert krylov_rank(*pair) == want


@pytest.fixture
def proofs(monkeypatch):
    """The outcome of every full-span proof the library tries, in order."""
    outcomes = []
    prove = matpoly._spans_rows

    def recorded(*args):
        outcomes.append(prove(*args))
        return outcomes[-1]

    monkeypatch.setattr(matpoly, "_spans_rows", recorded)
    return outcomes


def svd_answer(monkeypatch, decide, *args):
    """decide(*args) with every rank counted from the SVD alone."""
    with monkeypatch.context() as patch:
        patch.setattr(matpoly, "_spans_rows", lambda *_: False)
        return decide(*args)


def near_split(coupling, seed):
    """b (+) B' joined again by couplings of that size."""
    rng = np.random.default_rng([seed, 11])
    B = circular(rng, N)
    B[0, 1:] *= coupling
    B[1:, 0] *= coupling
    return B


class TestCertificateAgreesWithSvd:
    """A proved full span is the span the SVD counts, and a span it does not prove goes to
    the SVD: no family below answers differently with the certificate off."""

    def agree(self, monkeypatch, proofs, decide, *args):
        answer = decide(*args)
        assert answer == svd_answer(monkeypatch, decide, *args), args
        return proofs.pop() if proofs else None

    @pytest.mark.parametrize("scale", SCALES)
    def test_circular_matrices_are_proved_at_every_size(self, monkeypatch, proofs, scale):
        rng = np.random.default_rng(17)
        for n in range(2, N + 1):
            for _ in range(3):
                B = scale * circular(rng, n)
                assert self.agree(monkeypatch, proofs, strongly_regular, B) is True, (n, scale)
                b = rng.normal(size=n) + 1j * rng.normal(size=n)
                assert self.agree(monkeypatch, proofs, krylov_rank, B, b) is True, (n, scale)

    def test_split_matrix_goes_to_the_svd(self, monkeypatch, proofs):
        assert self.agree(monkeypatch, proofs, strongly_regular, split()) is False

    @pytest.mark.parametrize("exponent", range(-12, -3))
    def test_near_split_couplings(self, monkeypatch, proofs, exponent):
        for seed in range(3):
            self.agree(monkeypatch, proofs, strongly_regular, near_split(10.0 ** exponent, seed))

    def test_weak_coupling_is_left_to_the_svd(self, monkeypatch, proofs):
        # a generator of norm 1e-12 sits far below sqrt(tau): the row check refuses it
        assert self.agree(monkeypatch, proofs, strongly_regular, near_split(1e-12, 0)) is False

    @pytest.mark.parametrize("shape", [np.triu, lambda B: np.diag(np.diag(B))], ids=["upper", "diagonal"])
    def test_triangular_and_diagonal(self, monkeypatch, proofs, shape):
        rng = np.random.default_rng(23)
        for n in range(2, N + 1):
            B = shape(circular(rng, n))
            self.agree(monkeypatch, proofs, strongly_regular, B)
            self.agree(monkeypatch, proofs, krylov_rank, B, rng.normal(size=n) + 0j)

    def test_zero_and_one_by_one(self, monkeypatch, proofs):
        for n in (1, 2, 5):
            assert self.agree(monkeypatch, proofs, strongly_regular, np.zeros((n, n))) in (None, False)
            self.agree(monkeypatch, proofs, krylov_rank, np.zeros((n, n)), np.ones(n))
        assert self.agree(monkeypatch, proofs, strongly_regular, np.array([[2.0 + 1j]])) is None
        assert self.agree(monkeypatch, proofs, krylov_rank, np.array([[2.0 + 1j]]), [1.0]) is True

    @pytest.mark.parametrize("B, want", [
        *[pytest.param(generic(f, s), 66, id=f"{f}-{s}") for f in FAMILIES for s in (0, 2)],
        pytest.param(diagonal(), 0, id="diagonal"),
        pytest.param(split(), 55, id="split"),
    ])
    def test_the_oracle_cases_of_strongly_regular(self, monkeypatch, proofs, B, want):
        """The 50-digit oracle above pins want; only a full span is proved."""
        assert self.agree(monkeypatch, proofs, strongly_regular, B) is (want == len(B) * (len(B) - 1) // 2)

    @pytest.mark.parametrize("pair, want", [
        *[pytest.param(cyclic_pair(s, scale), N, id=f"cyclic-{scale}-{s}") for scale in SCALES for s in (0, 1)],
        pytest.param(eigenvector_pair(1.0), 1, id="eigenvector"),
    ])
    def test_the_oracle_cases_of_krylov_rank(self, monkeypatch, proofs, pair, want):
        assert self.agree(monkeypatch, proofs, krylov_rank, *pair) is (want == N)
