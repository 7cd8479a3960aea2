import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzflows.errors import ToleranceError, ValidationError
from gzflows.gzcore import (
    FiberOrbitData,
    GZCoordinates,
    GZGroupElement,
    StratumSignature,
    _checked_monic,
    coords_to_polys,
    fiber_orbit_data,
    gz_flow,
    gz_indices,
    gz_map,
    gz_vector_field,
    sr_orbit_count_zero_fiber,
    stratum_signature,
    strongly_regular,
)
from gzflows.matpoly import (
    CLUSTER_TOL,
    _clusters,
    _rank,
    charpoly,
    poly_from_roots,
)


def random_matrix(rng, n, unit_norm=True):
    M = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return M / np.linalg.norm(M) if unit_norm else M


class TestGzMap:
    def test_diag_12_tr_power(self):
        c = gz_map(np.diag([1.0, 2.0]), basis="tr-power")
        assert np.allclose(c.values, [1, 3, 5])

    def test_zero_matrix(self):
        for basis in ("tr-power", "charpoly"):
            c = gz_map(np.zeros((3, 3)), basis=basis)
            assert np.allclose(c.values, 0)

    def test_charpoly_against_determinant(self):
        rng = np.random.default_rng(0)
        B = random_matrix(rng, 4, unit_norm=False)
        c = gz_map(B, basis="charpoly")
        pos = 0
        for m in range(1, 5):
            want = charpoly(B[:m, :m])[:m]
            assert np.max(np.abs(c.values[pos : pos + m] - want)) < 1e-10
            pos += m

    def test_basis_coherence(self):
        # tr-power converts to charpoly minor by minor through Newton's identities
        rng = np.random.default_rng(1)
        B = random_matrix(rng, 5, unit_norm=False)
        tr = gz_map(B, basis="tr-power")
        ch = gz_map(B, basis="charpoly")
        for p, q in zip(coords_to_polys(tr), coords_to_polys(ch)):
            assert np.max(np.abs(p - q)) < 1e-10


    @pytest.mark.parametrize("basis", ["tr-power", "charpoly"])
    @pytest.mark.parametrize("n", [1, 3, 6, 12])
    def test_a_stack_has_the_bits_of_each_matrix(self, basis, n):
        # gz-flow evaluates the invariants of B and of its flowed matrix as one stack
        rng = np.random.default_rng(n)
        for _ in range(20):
            B = random_matrix(rng, n, unit_norm=False) * 10.0 ** rng.integers(-3, 4)
            moved = gz_flow(B, [(max(n - 1, 1), 1, complex(*rng.uniform(-1, 1, 2)))])
            stacked = gz_map(np.stack([B, moved]), basis=basis).values
            assert stacked.shape == (2, n * (n + 1) // 2)
            for M, values in zip((B, moved), stacked):
                assert values.tobytes() == gz_map(M, basis=basis).values.tobytes()


    def test_overflow_gives_values_that_are_not_finite_without_a_warning(self):
        # the trace of B overflows; pytest turns a RuntimeWarning into an error
        values = gz_map(np.full((2, 2), 1e308)).values
        assert not np.isfinite(values).all()

    def test_power_sums_whose_coefficients_overflow_are_a_numerical_failure(self):
        coords = GZCoordinates(n=2, basis="tr-power", values=np.full(3, 1e308, dtype=complex))
        with pytest.raises(ToleranceError, match="^the power sums of level 2 overflow"):
            coords_to_polys(coords)


def times_pow2(X, k):
    """X * 2**k, exact in the real and in the imaginary part; k broadcasts against X."""
    out = np.empty(np.broadcast_shapes(np.shape(X), np.shape(k)), dtype=complex)
    out.real, out.imag = np.ldexp(X.real, k), np.ldexp(X.imag, k)
    return out


class TestTorusRelations:
    """The maximal torus acts exactly on gz_map: D = diag(2**e) keeps every leading minor up
    to an exact similarity, and 2**s B scales every value by a power of two."""

    # a stack of three independent draws takes the stacked _charpoly and _powers paths
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "stack"])
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           e=st.lists(st.integers(-8, 8), min_size=12, max_size=12), s=st.integers(-8, 8))
    def test_conjugation_keeps_and_scaling_moves_every_bit(self, lead, seed, n, e, s):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=lead + (n, n)) + 1j * rng.normal(size=lead + (n, n))
        e = np.array(e[:n])
        m, i = np.array(gz_indices(n)).T
        for basis, weight in (("tr-power", i), ("charpoly", m - i + 1)):
            values = gz_map(B, basis).values
            assert gz_map(times_pow2(B, e[:, None] - e[None, :]), basis).values.tobytes() == values.tobytes()
            assert gz_map(times_pow2(B, s), basis).values.tobytes() == times_pow2(values, s * weight).tobytes()


class TestVectorField:
    def test_center_acts_trivially(self):
        rng = np.random.default_rng(2)
        B = random_matrix(rng, 4)
        assert np.allclose(gz_vector_field(B, 4, 1), 0)

    def test_2x2_commutator_by_hand(self):
        B = np.array([[0, 1], [0, 0]], dtype=complex)
        # [diag(1,0), B] = B for this B
        assert np.array_equal(gz_vector_field(B, 1, 1), B)

    def test_zero_matrix(self):
        for m, i in gz_indices(3):
            assert np.allclose(gz_vector_field(np.zeros((3, 3)), m, i), 0)

    @pytest.mark.parametrize("m, i", [(0, 0), (2, 3), (4, 1)])
    def test_index_outside_the_triangle_is_refused(self, m, i):
        with pytest.raises(ValueError, match=rf"^index \({m}, {i}\) invalid for n = 3$"):
            gz_vector_field(np.eye(3), m, i)


class TestFlow:
    def test_block_scaling_closed_form(self):
        # index (m, 1) conjugates by blockdiag(e^z I_m, I)
        rng = np.random.default_rng(3)
        n = 4
        B = random_matrix(rng, n, unit_norm=False)
        z = 0.4 - 0.7j
        for m in (1, 2, 3):
            moved = gz_flow(B, [(m, 1, z)])
            want = B.copy()
            want[:m, m:] = np.exp(z) * B[:m, m:]
            want[m:, :m] = np.exp(-z) * B[m:, :m]
            assert np.max(np.abs(moved - want)) < 1e-12 * (1 + np.max(np.abs(want)))

    def test_items_skip_zeros_in_lexicographic_order(self):
        lam = GZGroupElement.from_pairs(3, [(3, 1, 2j), (1, 1, 0.5), (2, 2, 0), (2, 1, -1)])
        assert list(lam.items()) == [(1, 1, 0.5 + 0j), (2, 1, -1 + 0j), (3, 1, 2j)]

    def test_identity_element(self):
        rng = np.random.default_rng(4)
        B = random_matrix(rng, 3)
        assert np.array_equal(gz_flow(B, GZGroupElement.zero(3)), B)

    def test_group_element_of_another_n_is_refused(self):
        B = random_matrix(np.random.default_rng(4), 3)
        with pytest.raises(ValueError, match="^group element for n = 2 applied to n = 3$"):
            gz_flow(B, GZGroupElement.zero(2))

    def test_top_indices_ignored(self):
        rng = np.random.default_rng(5)
        B = random_matrix(rng, 3)
        assert np.array_equal(gz_flow(B, [(3, 2, 0.8 + 0.1j)]), B)

    def test_one_parameter_group_law(self):
        rng = np.random.default_rng(6)
        B = random_matrix(rng, 4)
        z, w = 0.3 + 0.2j, -0.5 + 0.6j
        for m, i in ((2, 2), (3, 1), (3, 3)):
            two_steps = gz_flow(gz_flow(B, [(m, i, z)]), [(m, i, w)])
            one_step = gz_flow(B, [(m, i, z + w)])
            assert np.max(np.abs(two_steps - one_step)) < 1e-10

    def test_commutativity(self):
        rng = np.random.default_rng(7)
        for n in (3, 4, 5):
            for _ in range(10):
                B = random_matrix(rng, n)
                idx = [(m, i) for m in range(1, n) for i in range(1, m + 1)]
                (m1, i1), (m2, i2) = (
                    idx[rng.integers(len(idx))],
                    idx[rng.integers(len(idx))],
                )
                z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                ab = gz_flow(gz_flow(B, [(m1, i1, z)]), [(m2, i2, w)])
                ba = gz_flow(gz_flow(B, [(m2, i2, w)]), [(m1, i1, z)])
                assert np.linalg.norm(ab - ba) / (1 + np.linalg.norm(B)) < 1e-9

    def test_conservation(self):
        rng = np.random.default_rng(8)
        for n in (3, 4):
            B = random_matrix(rng, n)
            lam = GZGroupElement(
                n,
                (rng.uniform(-1, 1, n * (n + 1) // 2)
                 + 1j * rng.uniform(-1, 1, n * (n + 1) // 2)),
            )
            before = gz_map(B).values
            after = gz_map(gz_flow(B, lam)).values
            assert np.max(np.abs(after - before) / (1 + np.abs(before))) < 1e-9

    def test_order_independence_of_composition(self):
        rng = np.random.default_rng(9)
        n = 4
        B = random_matrix(rng, n)
        triples = [
            (2, 1, 0.4 + 0.1j),
            (3, 2, -0.3 + 0.5j),
            (1, 1, 0.2 - 0.2j),
        ]
        forward = gz_flow(B, triples)
        backward = B.copy()
        for m, i, z in reversed(triples):
            backward = gz_flow(backward, [(m, i, z)])
        assert np.linalg.norm(forward - backward) / (1 + np.linalg.norm(B)) < 1e-9


class TestStronglyRegular:
    def test_zero_matrix(self):
        assert strongly_regular(np.zeros((2, 2))) == (False, 0)

    def test_jordan_block(self):
        B = np.array([[0, 1], [0, 0]], dtype=complex)
        assert strongly_regular(B) == (True, 1)

    def test_disjoint_simple_minor_spectra(self):
        # all leading minors with mutually disjoint simple spectra
        rng = np.random.default_rng(10)
        for _ in range(20):
            B = random_matrix(rng, 4, unit_norm=False)
            spectra = [np.linalg.eigvals(B[:m, :m]) for m in range(1, 5)]
            flat = np.concatenate(spectra)
            gaps = [
                abs(flat[a] - flat[b])
                for a in range(flat.size)
                for b in range(a + 1, flat.size)
            ]
            if min(gaps) < 1e-2:
                continue
            flag, rank = strongly_regular(B)
            assert flag and rank == 6

    def test_invariant_along_flows(self):
        rng = np.random.default_rng(11)
        B = random_matrix(rng, 3)
        flag, _ = strongly_regular(B)
        lam = GZGroupElement.from_pairs(3, [(2, 2, 0.7 - 0.2j), (1, 1, 0.4j)])
        flag_after, _ = strongly_regular(gz_flow(B, lam))
        assert flag == flag_after


class TestStratumSignature:
    def test_nested_zero(self):
        sig = stratum_signature([[0, 1], [0, 0, 1]])
        assert len(sig.roots) == 1
        assert abs(sig.roots[0]) < 1e-12
        assert sig.multiplicities == ((1, 2),)

    def test_three_simple(self):
        sig = stratum_signature([poly_from_roots([1]), poly_from_roots([2, 3])])
        assert len(sig.roots) == 3
        assert sig.multiplicities == ((1, 0), (0, 1), (0, 1))

    def test_shared_root(self):
        sig = stratum_signature([poly_from_roots([1]), poly_from_roots([1, 5])])
        by_root = {round(r.real): m for r, m in zip(sig.roots, sig.multiplicities)}
        assert by_root[1] == (1, 1)
        assert by_root[5] == (0, 1)

    def test_coordinates_input(self):
        B = np.diag([1.0, 2.0])
        sig = stratum_signature(gz_map(B, basis="charpoly"))
        assert len(sig.roots) == 2
        by_root = {round(r.real): m for r, m in zip(sig.roots, sig.multiplicities)}
        assert by_root[1] == (1, 1)
        assert by_root[2] == (0, 1)

    def test_non_monic_rejected(self):
        with pytest.raises(ValidationError):
            stratum_signature([[0, 2]])

    def test_chained_cluster_owns_its_roots(self):
        # at tol 0.27 (scaled: 0.999) the roots 0, 0.9, 1.8, 2.7 chain into one
        # cluster with mean 1.35; the root 0 lies nearer -1.1 than that mean
        polys = [poly_from_roots([-1.1]), poly_from_roots([0, 0.9, 1.8, 2.7])]
        sig = stratum_signature(polys, tol=0.27)
        assert len(sig.roots) == 2
        assert sig.multiplicities == ((1, 0), (0, 4))
        data = fiber_orbit_data(polys, mode="rational-maps", tol=0.27)
        assert (data.t, data.s, data.count) == (0, 2, 1)


class TestFiberOrbitData:
    def test_simple_spectrum(self):
        data = fiber_orbit_data(
            [poly_from_roots([1]), poly_from_roots([2, 3])], mode="matrices"
        )
        assert (data.t, data.s, data.count) == (0, 3, 1)
        assert data.shape == "(C*)^3 x C^0"

    def test_nilpotent_2x2(self):
        data = fiber_orbit_data([[0, 1], [0, 0, 1]], mode="matrices")
        assert (data.t, data.count) == (1, 2)

    def test_zero_fiber_full(self):
        for n in (2, 3, 4):
            polys = [np.append(np.zeros(m), 1.0) for m in range(1, n + 1)]
            data = fiber_orbit_data(polys, mode="matrices", tol=1e-3)
            assert data.t == n - 1
            assert data.count == 2 ** (n - 1)

    def test_modes_agree(self):
        polys = [poly_from_roots([0]), poly_from_roots([0, 2])]
        a = fiber_orbit_data(polys, mode="matrices")
        b = fiber_orbit_data(polys, mode="rational-maps")
        assert (a.t, a.s, a.count) == (b.t, b.s, b.count)

    def test_degree_mismatch(self):
        with pytest.raises(ValidationError):
            fiber_orbit_data([[0, 1], [0, 1]], mode="matrices")

    def test_exhaustive_2x2_nilpotent_fiber(self):
        # fiber chi_1 = z, chi_2 = z^2 is {[[0,b],[a,0]] : ab = 0}; the single
        # flow scales a and b oppositely, so the two punctured axes are the
        # two maximal orbits and the origin is a fixed point
        data = fiber_orbit_data([[0, 1], [0, 0, 1]], mode="matrices")
        assert data.count == 2

        def point(a, b):
            return np.array([[0, b], [a, 0]], dtype=complex)

        branch_a = [point(a, 0) for a in (1.0, 2.0 - 1j, -0.3)]
        branch_b = [point(0, b) for b in (1.0, 0.5 + 0.5j, -2.0)]
        for p in branch_a + branch_b:
            flag, rank = strongly_regular(p)
            assert flag and rank == 1
        flag, rank = strongly_regular(point(0, 0))
        assert not flag and rank == 0
        # the flow acts transitively on each branch and never crosses
        for src, dst in [(branch_b[0], branch_b[1]), (branch_b[1], branch_b[2])]:
            z = np.log(dst[0, 1] / src[0, 1])
            moved = gz_flow(src, [(1, 1, z)])
            assert np.max(np.abs(moved - dst)) < 1e-12
        moved = gz_flow(branch_a[0], [(1, 1, 3.0 + 1j)])
        assert abs(moved[0, 1]) < 1e-15 and abs(moved[1, 0]) > 0

    def test_fiber_shape_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            polys = [
                poly_from_roots(rng.integers(-2, 3, size=m) + 0j)
                for m in range(1, n + 1)
            ]
            data = fiber_orbit_data(polys, mode="matrices", tol=1e-3)
            total = n * (n + 1) // 2
            assert data.s <= total
            assert data.t <= data.s


class TestZeroFiberCount:
    def test_all_nonzero(self):
        assert sr_orbit_count_zero_fiber([1, 2, 3]) == 4

    def test_gap(self):
        assert sr_orbit_count_zero_fiber([1, 0, 1]) == 1

    def test_single_adjacent_pair(self):
        assert sr_orbit_count_zero_fiber([2, 2, 0, 1]) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sr_orbit_count_zero_fiber([1, -1])


# ---------------------------------------------------------------- oracles
# The per-(m, i) constructions that one power chain per minor and whole-array
# root counting replaced, kept as oracles.


def loop_tr_power(B):
    """tr(B_m**i) for every (m, i), one power and one trace at a time."""
    n = B.shape[0]
    values = np.empty(n * (n + 1) // 2, dtype=complex)
    pos = 0
    for m in range(1, n + 1):
        minor = B[:m, :m]
        power = np.eye(m, dtype=complex)
        for _ in range(m):
            power = power @ minor
            values[pos] = np.trace(power)
            pos += 1
    return values


def loop_strongly_regular(B):
    """(flag, rank) from one generator at a time, ranked by the library's rule.

    Each generator is [P / ||P||_F, B / ||B||_F] for the padded minor power P, so each
    has norm at most 2, the bound the rank is cut against.
    """
    n = B.shape[0]
    unit = B / (np.linalg.norm(B) or 1.0)
    fields = []
    for m in range(1, n):
        minor = B[:m, :m] / (np.abs(B[:m, :m]).max() or 1.0)
        for i in range(1, m + 1):
            P = np.zeros((n, n), dtype=complex)
            P[:m, :m] = np.linalg.matrix_power(minor, i - 1)
            P /= np.linalg.norm(P) or 1.0
            fields.append((P @ unit - unit @ P).ravel())
    if not fields:
        return True, 0
    rank = _rank(np.array(fields), 2.0)
    return rank == n * (n - 1) // 2, rank


def loop_clustered_roots(polys, tol):
    """Roots through companion_of, one Python complex at a time."""
    all_roots, owners = [], []
    for j, p in enumerate(polys):
        d = len(np.trim_zeros(p, "b")) - 1
        if d >= 1:
            C = np.zeros((d, d), dtype=complex)
            for k in range(d - 1):
                C[k + 1, k] = 1.0
            C[:, d - 1] = -(p / p[d])[:d]
            for r in np.linalg.eigvals(C):
                all_roots.append(complex(r))
                owners.append(j)
    scale = 1.0 + max((abs(r) for r in all_roots), default=0.0)
    eff_tol = (CLUSTER_TOL if tol is None else tol) * scale
    if not all_roots:
        return [], [], eff_tol
    reps, member = _clusters(all_roots, eff_tol)
    counts = np.zeros((len(reps), len(polys)), dtype=int)
    np.add.at(counts, (member, owners), 1)
    return reps, counts, eff_tol


def loop_stratum_signature(polys, tol):
    reps, counts, eff_tol = loop_clustered_roots(_checked_monic(polys), tol)
    return StratumSignature(
        roots=tuple(r for r, _ in reps),
        multiplicities=tuple(tuple(int(x) for x in c) for c in counts),
        cluster_tol=eff_tol,
    )


def loop_fiber_orbit_data(polys, mode, tol):
    expected = list(range(1, len(polys) + 1)) if mode == "matrices" else None
    polys = _checked_monic(polys, expected_degrees=expected)
    n = len(polys)
    total = sum(max(len(np.trim_zeros(p, "b")) - 1, 0) for p in polys)
    reps, counts, _ = loop_clustered_roots(polys, tol)
    t_parts, s_parts = [], []
    for c in counts:
        vanishes = [c[j] > 0 for j in range(n)]
        s_parts.append(sum(vanishes))
        t_parts.append(sum(1 for j in range(n - 1) if vanishes[j] and vanishes[j + 1]))
    t = int(sum(t_parts))
    s = int(sum(s_parts))
    return FiberOrbitData(
        t=t, s=s, count=2 ** t, shape=f"(C*)^{s} x C^{total - s}",
        roots=tuple(r for r, _ in reps),
        t_per_root=tuple(int(x) for x in t_parts),
        s_per_root=tuple(int(x) for x in s_parts),
    )


def circular(rng, n):
    """Entries of variance 1/n, as the benchmark's query-mix draws them."""
    return (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))) / np.sqrt(2 * n / 3)


class TestPowerChainOracles:
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(n=st.integers(1, 12), exponent=st.integers(-3, 3), seed=st.integers(0, 2**32 - 1))
    def test_gz_map_equals_the_per_power_loop(self, n, exponent, seed):
        B = 10.0 ** exponent * circular(np.random.default_rng(seed), n)
        assert np.array_equal(gz_map(B).values, loop_tr_power(B))
        want = np.concatenate([charpoly(B[:m, :m])[:m] for m in range(1, n + 1)])
        assert np.array_equal(gz_map(B, basis="charpoly").values, want)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_strongly_regular_equals_the_per_generator_loop(self, n):
        rng = np.random.default_rng([n, 40])
        for _ in range(4):
            B = circular(rng, n)
            split = B.copy()  # b (+) B': the first basis vector split off
            split[0, 1:] = split[1:, 0] = 0.0
            for M in (B, split):
                assert strongly_regular(M) == loop_strongly_regular(M)
        assert strongly_regular(np.zeros((n, n))) == loop_strongly_regular(np.zeros((n, n)))
        diagonal = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
        assert strongly_regular(diagonal) == loop_strongly_regular(diagonal)

    def test_split_matrix_is_not_strongly_regular(self):
        B = circular(np.random.default_rng(5), 12)
        B[0, 1:] = B[1:, 0] = 0.0
        assert strongly_regular(B) == (False, 55)


def chained_polys(tol, walk, shares, degrees, lead=1.0):
    """Polys of the given degrees, leading coefficient ``lead``, whose roots chain
    about tol apart and are shared with the previous poly where ``shares`` says so."""
    pool, z = [], 0j
    for step, angle, jump in walk:
        if jump:
            z = complex(3 * np.cos(7 * angle), 3 * np.sin(3 * angle))
        else:
            z = z + step * tol * np.exp(1j * angle)
        pool.append(z)
    pool = iter(pool * (1 + sum(degrees)))
    flags = iter(shares * (1 + sum(degrees)))
    polys, prev = [], []
    for d in degrees:
        rs = [prev.pop() if prev and next(flags) else next(pool) for _ in range(d)]
        polys.append(lead * poly_from_roots(rs) if d else np.array([2.0 + 0j]))
        prev = list(rs)
    return polys


WALKS = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 6.3), st.booleans()),
    min_size=1, max_size=12,
)


class TestRootCountOracles:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(tol=st.sampled_from([None, 1e-3, 0.27]), walk=WALKS,
           shares=st.lists(st.booleans(), min_size=1, max_size=8), n=st.integers(1, 6),
           lead=st.sampled_from([1.0, 1.0 + 5e-10, 1.0 - 3e-10j]))
    def test_matrices_mode_equals_the_loops(self, tol, walk, shares, n, lead):
        # a leading coefficient within 1e-9 of 1 passes as monic; roots are normalised by it
        polys = chained_polys(tol or 1e-8, walk, shares, range(1, n + 1), lead)
        data = fiber_orbit_data(polys, mode="matrices", tol=tol)
        assert data == loop_fiber_orbit_data(polys, "matrices", tol)
        assert all(type(x) is int for x in data.t_per_root + data.s_per_root)
        sig = stratum_signature(polys, tol=tol)
        assert sig == loop_stratum_signature(polys, tol)
        assert all(type(x) is int for mult in sig.multiplicities for x in mult)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(tol=st.sampled_from([None, 0.27]), walk=WALKS,
           shares=st.lists(st.booleans(), min_size=1, max_size=8),
           degrees=st.lists(st.integers(0, 3), min_size=1, max_size=5))
    def test_rational_maps_mode_equals_the_loops(self, tol, walk, shares, degrees):
        # degree-0 polynomials have no roots; all of degree 0 leave no counts
        polys = chained_polys(tol or 1e-8, walk, shares, degrees)
        data = fiber_orbit_data(polys, mode="rational-maps", tol=tol)
        assert data == loop_fiber_orbit_data(polys, "rational-maps", tol)
        assert stratum_signature(polys, tol=tol) == loop_stratum_signature(polys, tol)

    def test_only_constants_leave_no_roots(self):
        polys = [np.array([2.0 + 0j]), np.array([1.0 + 0j])]
        data = fiber_orbit_data(polys, mode="rational-maps")
        assert data == loop_fiber_orbit_data(polys, "rational-maps", None)
        assert (data.t, data.s, data.roots, data.t_per_root) == (0, 0, (), ())
        assert stratum_signature(polys).multiplicities == ()
