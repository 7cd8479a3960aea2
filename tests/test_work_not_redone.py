"""Answers that skip work whose result they already have keep the bits of doing it.

Each shortcut is held to the expression it replaced:

* gz-flow's conservation defect over the levels above the smallest flowed m, against
  the defect of one stacked gz_map over every level;
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

import io
import json
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from gzflows import cli, gzcore, matpoly, verify
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

