"""Answers that skip work whose result they already have keep the bits of doing it.

Each shortcut is held to the expression it replaced:

* gz-flow's conservation defect over the levels above the smallest flowed m, against
  the defect of one stacked gz_map over every level;
* verify-suite's flows of each sample from one factor per flow at B, taken again after
  the other flow only at the larger m, against the stdout of a gz_flow for each of the
  four flows and of the first flow again for conservation, and gz_flow against the
  factor and its move, the two halves of its step;
* lax_integrate's constant alpha (one object at every time) read, checked and loaded
  once, with no stack of its samples, against a peak of memory below that stack, and
  a fresh alpha at every time written into that stack as it comes, with no list of
  them, against a peak below twice it;
* GZGroupElement.items() over the nonzero entries, against a loop over every (m, i);
* gz_map's charpoly basis through the unchecked kernel, against public charpoly;
* _expm's 1-norm and identity, against np.linalg.norm(A, 1) and np.eye;
* _companion's shared shift matrix, against np.eye(k=-1), and poly_trim of a polynomial
  with a nonzero last coefficient, against its trim by np.nonzero;
* _clusters' pairs from a sweep over the sorted points, with no matrix of every pair's
  distance, and its means from one grouping, against one mask per cluster;
* strongly_regular's full span from one Cholesky factorization, with no SVD, and a
  split B's zero generator sent to the SVD before any factorization.
"""

import hashlib
import io
import json
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from gzflows import cli, gzcore, lax, matpoly, verify
from gzflows.gzcore import GZGroupElement, gz_flow, gz_indices, gz_map, strongly_regular
from gzflows.matpoly import _PADE_BOUNDS, _clusters, _expm, charpoly
from oracles import expm_loops, mask_clusters


def bits(A):
    return np.ascontiguousarray(A, dtype=complex).view(np.uint64)


def same_bits(A, B):
    return A.shape == B.shape and np.array_equal(bits(A), bits(B))


def circular(rng, n):
    return (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))) / np.sqrt(2 * n / 3)


def all_level_defect(B, moved):
    """The conservation defect as one stacked gz_map over every level."""
    return verify._change(*gz_map(np.stack([B, moved])).values)


def random_flows(rng, n):
    """1-4 triples over every (m, i) with m <= n, some of them with z = 0."""
    indices = gz_indices(n)
    picks = rng.choice(len(indices), size=min(len(indices), rng.integers(1, 5)), replace=False)
    return [(*indices[p], 0j if rng.uniform() < 0.25 else complex(*rng.uniform(-0.3, 0.3, 2)))
            for p in picks]


def cli_doc(payload):
    """(exit code, parsed stdout) of one gz-flow request."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(["gz-flow", "--input", json.dumps(payload)])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


class TestMovedLevelDefect:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_equals_the_all_level_defect(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(12):
            B = circular(rng, n)
            lam = GZGroupElement.from_pairs(n, random_flows(rng, n))
            moved = gz_flow(B, lam)
            m = next(lam.items(), (n,))[0]
            got = cli._conservation_defect(B, moved, m)
            assert np.float64(got).view(np.uint64) == np.float64(all_level_defect(B, moved)).view(np.uint64)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_the_cli_answers_the_all_level_defect(self, n):
        rng = np.random.default_rng(400 + n)
        for _ in range(6):
            B = circular(rng, n)
            flows = random_flows(rng, n)
            payload = {"matrix": np.stack([B.real, B.imag], axis=-1).tolist(),
                       "flows": [{"m": m, "i": i, "z": [z.real, z.imag]} for m, i, z in flows]}
            code, doc = cli_doc(payload)
            moved = np.array(doc["matrix"]).view(complex)[..., 0]
            assert code == 0 and doc["conservation_defect"] == all_level_defect(B, moved)

    def test_each_verify_suite_flow_is_measured_from_its_level(self):
        rng = np.random.default_rng(7)
        for n in (3, 4, 5):
            for m, i in gz_indices(n - 1):
                B = circular(rng, n)
                moved = gz_flow(B, [(m, i, complex(*rng.uniform(-1, 1, 2)))])
                assert cli._conservation_defect(B, moved, m) == all_level_defect(B, moved)

    def test_overflowing_invariants_above_the_flowed_level_give_nan(self):
        # 3x3 with entries 1e200: the level-3 power sums overflow, and (2, 1) moves level 3
        huge = [[[1e200, 0], [0, 0], [0, 0]], [[0, 0], [1e200, 0], [0, 0]], [[0, 0], [0, 0], [1e200, 0]]]
        B = np.array(huge).view(complex)[..., 0]
        moved = gz_flow(B, [(2, 1, 0.1)])
        assert np.isnan(cli._conservation_defect(B, moved, 2)) and np.isnan(all_level_defect(B, moved))
        assert cli_doc({"matrix": huge, "flows": [{"m": 2, "i": 1, "z": [0.1, 0]}]}) == (3, None)

    def test_a_flow_that_moves_no_level_has_no_defect(self):
        # m = n and z = 0 leave B as it is: nothing is measured, even where the invariants
        # of B overflow (one stacked gz_map over every level read NaN here)
        huge = [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]
        flows = [{"m": 2, "i": 1, "z": [0.1, 0]}, {"m": 1, "i": 1, "z": [0, 0]}]
        code, doc = cli_doc({"matrix": huge, "flows": flows})
        assert code == 0 and doc == {"matrix": huge, "conservation_defect": 0.0}


# sha256 of verify-suite's stdout at (n, samples) and seed 36, recorded when each
# sample's first flow was computed for the commutation check and again for conservation
SUITE_BYTES = {
    (3, 3): "14350afee6ff2d1c3683b417bb78b54ae271787fde05cdd01d7853d72ccd24d5",
    (4, 2): "b2ff83a70f8a5c0622dccf5b7b2d0ab2a5c645bce43bd96674d6f044cde24fb2",
    (5, 2): "9386632c5438c999b6d0190da8013500a928122b3640ed9a12aa14684274ac16",
}


class TestVerifySuiteFlows:
    @pytest.mark.parametrize("n, samples", list(SUITE_BYTES))
    def test_a_factor_per_moved_minor_gives_the_same_bytes(self, monkeypatch, n, samples):
        calls = []
        factor = gzcore.flow_factor

        def counting(B, m, i, z):
            calls.append((m, i, z))
            return factor(B, m, i, z)

        monkeypatch.setattr(gzcore, "flow_factor", counting)
        argv = ["verify-suite", "--input", json.dumps({"n": n}), "--samples", str(samples), "--seed", "36"]
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.run(argv)
        assert code == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == SUITE_BYTES[n, samples]
        # g1 and g2 at B, then the factor of a flow whose m exceeds the other's, taken again
        # after the other flow: 2 or 3 a sample
        for _ in range(samples):
            first, second = calls[:2]
            again = [max(first, second, key=lambda c: c[0])] if first[0] != second[0] else []
            assert calls[2 : 2 + len(again)] == again
            del calls[: 2 + len(again)]
        assert calls == []


class TestSplitFlowStep:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_gz_flow_has_the_bits_of_the_factor_and_its_move(self, n):
        rng = np.random.default_rng(700 + n)
        for m, i in gz_indices(n - 1):
            B, z = circular(rng, n), complex(*rng.uniform(-1, 1, 2))
            g = gzcore.flow_factor(B, m, i, z)
            assert same_bits(gz_flow(B, [(m, i, z)]), gzcore._move(B, g, m, i))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_a_flow_keeps_every_factor_of_its_minor(self, n):
        # verify-suite's reuse: the factor of m1 <= m2 is the same at B and after flow m2
        rng = np.random.default_rng(800 + n)
        indices = gz_indices(n - 1)
        for (m1, i1), (m2, i2) in zip(rng.permutation(indices), rng.permutation(indices)):
            if m1 > m2:
                (m1, i1), (m2, i2) = (m2, i2), (m1, i1)
            B, z1, z2 = circular(rng, n), *(complex(*rng.uniform(-1, 1, 2)) for _ in range(2))
            moved = gz_flow(B, [(m2, i2, z2)])
            assert same_bits(moved[:m2, :m2], B[:m2, :m2])
            assert same_bits(gzcore.flow_factor(moved, m1, i1, z1), gzcore.flow_factor(B, m1, i1, z1))

    def test_a_zero_z_moves_no_absolute_value(self):
        # gz_flow skips z = 0; its factor exp(0) = I moves B at most by the sign of a zero
        rng = np.random.default_rng(9)
        for n in (2, 3, 5):
            for m, i in gz_indices(n - 1):
                B = circular(rng, n)
                B[0, -1] = complex(-0.0, 0.0)
                moved = gzcore._move(B, gzcore.flow_factor(B, m, i, 0j), m, i)
                assert np.array_equal(moved, gz_flow(B, [(m, i, 0j)]))
                assert same_bits(np.abs(moved), np.abs(B))


class TestHeldAlpha:
    N, STEPS = 4, 20000
    # one (n, n) complex sample at each grid time, midpoint and step end: 14.65 MiB
    STACK = (3 * STEPS + 1) * N * N * 16

    def peak(self, fresh):
        rng = np.random.default_rng(10)
        a, b = circular(rng, self.N), circular(rng, self.N)
        tracemalloc.start()
        try:
            path = lax.lax_integrate((lambda t: a.copy()) if fresh else (lambda t: a), b, 0.0, 1.0, self.STEPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.alpha.shape == (self.STEPS + 1, self.N, self.N)
        return peak

    def test_a_constant_alpha_takes_less_memory_than_a_stack_of_its_samples(self):
        assert self.peak(fresh=False) < self.STACK

    def test_a_fresh_alpha_at_every_time_is_written_into_the_stack(self):
        # each value goes into the one stack as it comes: no list keeps every value alive
        # beside the stack made from it (47.9 MiB here), so the stack and the path remain
        assert self.peak(fresh=True) < 2 * self.STACK


def zip_items(lam):
    """items() as a loop over every (m, i)."""
    for (m, i), z in zip(gz_indices(lam.n), lam.values):
        if z != 0:
            yield m, i, complex(z)


class TestItems:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_yield_what_the_loop_over_every_index_yields(self, n):
        rng = np.random.default_rng(n)
        N = n * (n + 1) // 2
        specials = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1e-320j, complex(np.nan, 0)]
        for _ in range(10):
            values = rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)
            values[rng.uniform(size=N) < 0.5] = 0
            values[rng.integers(N)] = specials[rng.integers(len(specials))]
            lam = GZGroupElement(n, values)
            got, want = list(lam.items()), list(zip_items(lam))
            assert [(m, i) for m, i, _ in got] == [(m, i) for m, i, _ in want]
            assert all(type(z) is complex and same_bits(np.array(z), np.array(w))
                       for (_, _, z), (_, _, w) in zip(got, want))

    def test_invert_the_position_at_every_level_boundary(self):
        # items() reads (m, i) back from the position in closed form; here it is held to
        # from_pairs' _gz_position at the first and last i of every level up to n = 1000,
        # far past the n = 8 of the loop comparison above
        n = 1000
        pairs = [(m, i, complex(m, i)) for m in range(1, n + 1) for i in sorted({1, m})]
        assert list(GZGroupElement.from_pairs(n, pairs).items()) == pairs

    def test_real_values_yield_complex_parameters(self):
        lam = GZGroupElement(2, np.array([0.0, -1.5, 2.0]))
        assert list(lam.items()) == list(zip_items(lam)) == [(2, 1, -1.5 + 0j), (2, 2, 2 + 0j)]


class TestCharpolyBasis:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_public_charpoly_of_each_minor(self, n):
        rng = np.random.default_rng(500 + n)
        B = np.stack([circular(rng, n) for _ in range(3)])
        values = gz_map(B, "charpoly").values
        for m in range(1, n + 1):
            pos = m * (m - 1) // 2
            for s in range(3):
                assert same_bits(values[s, pos : pos + m], charpoly(B[s, :m, :m])[:m])
            assert same_bits(values[..., pos : pos + m], charpoly(B[..., :m, :m])[..., :m])

    def test_overflow_stays_quiet(self):
        B = np.diag([1e200, 1e200, 1e200]).astype(complex)
        with np.errstate(all="raise"):
            values = gz_map(B, "charpoly").values
        assert not np.isfinite(values).all()


def at_bounds():
    """Matrices whose 1-norm is each Pade bound, and the float on either side of it."""
    for _, bound in _PADE_BOUNDS:
        for norm in (np.nextafter(bound, 0), bound, np.nextafter(bound, np.inf)):
            for n in (1, 3):
                A = np.zeros((n, n), dtype=complex)
                A[:, 0] = norm / n
                A[0, 0] = norm - (n - 1) * (norm / n)  # the column sums to norm exactly
                yield A


class TestExpm:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_equals_the_norm_form(self, n):
        rng = np.random.default_rng(600 + n)
        for scale in (1e-3, 0.1, 1, 3, 10, 100):
            A = scale * circular(rng, n)
            assert np.abs(A).sum(axis=0).max() == np.linalg.norm(A, 1)
            assert same_bits(_expm(A), expm_loops(A))

    def test_equals_the_norm_form_at_each_pade_bound(self):
        for A in at_bounds():
            assert np.abs(A).sum(axis=0).max() == np.linalg.norm(A, 1)
            assert same_bits(_expm(A), expm_loops(A))

    @pytest.mark.parametrize("A", [
        np.zeros((1, 1), dtype=complex), np.zeros((4, 4), dtype=complex), np.array([[2.5 - 1j]]),
        np.array([[np.inf + 0j]]), np.zeros((0, 0), dtype=complex),
    ], ids=["zero-1", "zero-4", "one-by-one", "infinite", "empty"])
    def test_edge_inputs(self, A):
        got, want = _expm(A), expm_loops(A)
        assert got.shape == want.shape and (same_bits(got, want) or np.isnan(got).all() and np.isnan(want).all())

    def test_the_shared_identity_is_never_written(self):
        A = 0.01 * np.ones((3, 3), dtype=complex)
        _expm(A)
        assert same_bits(matpoly._identities(3)[1], np.eye(3, dtype=complex))


class TestPolynomialIntake:
    @pytest.mark.parametrize("degree", [1, 2, 5, 12])
    def test_companions_share_a_shift_that_is_never_written(self, degree):
        rng = np.random.default_rng(degree)
        for _ in range(2):
            p = np.append(rng.standard_normal(degree) + 1j * rng.standard_normal(degree), 1.0)
            C = np.eye(degree, k=-1, dtype=complex)
            C[:, -1] = -p[:-1]
            assert same_bits(matpoly._companion(p), C)
        assert same_bits(matpoly._shift(degree), np.eye(degree, k=-1, dtype=complex))
        assert not matpoly._shift(degree).flags.writeable

    @pytest.mark.parametrize("p", [[1.0], [0.0, 1.0], [2.0, -0.0, 1e-300], [1.0, 0.0, 0.0], [0.0], [-0.0, 0.0]])
    def test_poly_trim_keeps_the_bits_of_the_nonzero_trim(self, p):
        p = np.array(p, dtype=complex)
        nz = np.nonzero(p)[0]
        want = p[: nz[-1] + 1] if nz.size else np.zeros(1, dtype=complex)
        got = matpoly.poly_trim(p)
        assert same_bits(got, want) and not np.shares_memory(got, p)


class TestClusters:
    @pytest.mark.parametrize("seed", range(20))
    def test_means_equal_the_masked_means(self, seed):
        rng = np.random.default_rng(seed)
        centres = rng.uniform(-2, 2, (rng.integers(1, 8), 2)) @ [1, 1j]
        count = rng.integers(1, 40)
        z = rng.choice(centres, size=count) + 1e-9 * (rng.standard_normal((count, 2)) @ [1, 1j])
        for tol in (1e-12, 1e-8, 0.5):
            (reps, index), (want, want_index) = _clusters(z, tol), mask_clusters(z.tolist(), tol)
            assert np.array_equal(index, want_index)
            assert [size for _, size in reps] == [size for _, size in want]
            assert same_bits(np.array([r for r, _ in reps]), np.array([r for r, _ in want]))

    def test_no_pair_matrix_is_formed(self):
        # 2000 points one apart: a matrix of every pair's distance would take 64 MB
        z = np.arange(2000.0) + 0.5j * np.random.default_rng(4).uniform(-1, 1, 2000)
        tracemalloc.start()
        try:
            reps, _ = _clusters(z, 0.5)
            coincident = matpoly._coincident(z, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reps) == z.size and not coincident
        assert peak < z.size ** 2

    def test_the_roots_of_a_fibre_cluster_as_their_list_does(self):
        polys = [np.array(matpoly.poly_from_roots(rs)) for rs in ([1], [1, 2], [1, 2, 2 + 1e-10])]
        reps, counts, tol = gzcore._clustered_roots(polys, None)
        roots = np.concatenate([np.linalg.eigvals(gzcore._companion(p / p[-1])) for p in polys])
        scale = 1.0 + max(map(abs, roots.tolist()))
        assert tol == matpoly.CLUSTER_TOL * scale and type(tol) is float
        assert reps == mask_clusters(roots.tolist(), tol)[0]


def power_form_factor(B, m, i, z):
    """gzcore.flow_factor as it was: the power from matrix_power at every i."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _expm(z * np.linalg.matrix_power(B[:m, :m], i - 1))


class TestFlowFactor:
    @pytest.mark.parametrize("kind", ["complex", "real", "integer"])
    @pytest.mark.parametrize("z", [0.3 - 0.2j, -0.7, complex(-0.0, 0.5), 2.0 + 0j])
    def test_the_first_power_is_the_identity_matrix_power_builds(self, kind, z):
        rng = np.random.default_rng(8)
        B = {"complex": circular(rng, 4), "real": rng.standard_normal((4, 4)),
             "integer": rng.integers(-3, 4, (4, 4))}[kind]
        for m in range(1, 5):
            for i in range(1, m + 1):
                got, want = gzcore.flow_factor(B, m, i, z), power_form_factor(B, m, i, z)
                assert got.dtype == want.dtype and np.array_equal(got.view(np.uint8), want.view(np.uint8))


def counted(monkeypatch, *names) -> dict:
    """Calls of each named np.linalg routine, counted from now on."""
    counts = dict.fromkeys(names, 0)

    def counting(name, call):
        def count(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)
        return count

    for name in names:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return counts


class TestSpanCertificate:
    def test_a_generic_span_takes_no_svd(self, monkeypatch):
        B = circular(np.random.default_rng(12), 12)
        counts = counted(monkeypatch, "svd", "cholesky")
        assert strongly_regular(B) == (True, 66)
        assert counts == {"svd": 0, "cholesky": 1}

    def test_a_split_span_takes_one_svd_and_no_factorization(self, monkeypatch):
        B = circular(np.random.default_rng(12), 12)
        B[0, 1:] = B[1:, 0] = 0.0  # b (+) B': the generator of B_1 is zero
        counts = counted(monkeypatch, "svd", "cholesky")
        assert strongly_regular(B) == (False, 55)
        assert counts == {"svd": 1, "cholesky": 0}

