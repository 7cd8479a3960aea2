import hashlib
import itertools
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from gzflows import cli, ratmodel
from gzflows.errors import ValidationError
from gzflows.matpoly import _blocks, companion_of, numerical_rank, poly_from_roots
from gzflows.matpoly import roots as matpoly_roots
from gzflows.ratmodel import (
    _OPEN_STRATUM_TOL,
    _chart_pairing,
    _kron,
    MatricialData,
    ak_act,
    chart_as_poisson_chart,
    chart_bracket,
    enumerate_sr,
    fixture_from_polar,
    gk_act,
    isotropy_nullity,
    md_strongly_regular,
    md_symplectic,
    md_tangent_violations,
    md_validate,
    open_stratum_chart,
    polar,
    relinked_shift,
    shift_matrix,
    sigma_of,
)
from gzflows.verify import fd_gradient
from oracles import (chart_symplectic_form, embedded_gk_act, isotropy_system, pairing_residual,
                     per_point_classify, per_point_validate, poisson_bracket)


def scalar_pair_fixture(z1, z2, u, w, gamma1=1.0, gamma2=1.0):
    """k = (1, 1) data: scalars with B_plus_1 - B_minus_2 = u w."""
    return MatricialData(
        k=(1, 1),
        b_minus=[np.array([[z1]], dtype=complex), np.array([[z2]], dtype=complex)],
        b_plus=[np.array([[z1]], dtype=complex), np.array([[z2]], dtype=complex)],
        g=[np.array([[gamma1]], dtype=complex), np.array([[gamma2]], dtype=complex)],
        u={0: np.array([u], dtype=complex)},
        w={0: np.array([w], dtype=complex)},
    )


def separated_roots(rng, count, spread=2.0):
    while True:
        roots = rng.uniform(-spread, spread, count) + 1j * rng.uniform(-spread, spread, count)
        gaps = [
            abs(roots[a] - roots[b])
            for a in range(count)
            for b in range(a + 1, count)
        ]
        if not gaps or min(gaps) > 0.3:
            return roots


class TestMdValidate:
    def test_n1_scalar(self):
        beta, gamma = 0.7 - 0.2j, 1.5 + 1j
        F = MatricialData(
            k=(1,),
            b_minus=[np.array([[beta]])],
            b_plus=[np.array([[beta]])],
            g=[np.array([[gamma]])],
        )
        md_validate(F)

    def test_k11_rank_one_constraint(self):
        z1, u, w = 0.5, 2.0, -0.25
        F = scalar_pair_fixture(z1, z1 - u * w, u, w)
        md_validate(F)
        bad = scalar_pair_fixture(z1, z1 - u * w + 0.1, u, w)
        with pytest.raises(ValidationError) as err:
            md_validate(bad)
        assert any("u w^T" in v for v in err.value.violations)

    def test_constructive_k12(self):
        rng = np.random.default_rng(0)
        roots = separated_roots(rng, 3)
        F = fixture_from_polar(
            [poly_from_roots(roots[:1]), poly_from_roots(roots[1:])], rng=rng
        )
        md_validate(F)

    def test_subdiagonal_perturbation_rejected(self):
        rng = np.random.default_rng(1)
        roots = separated_roots(rng, 3)
        F = fixture_from_polar(
            [poly_from_roots(roots[:1]), poly_from_roots(roots[1:])], rng=rng
        )
        F.b_plus[1][1, 0] += 1e-3
        with pytest.raises(ValidationError) as err:
            md_validate(F)
        assert any("shape" in v for v in err.value.violations)

    def test_each_bullet_reported(self):
        rng = np.random.default_rng(2)
        roots = separated_roots(rng, 3)
        base = fixture_from_polar(
            [poly_from_roots(roots[:1]), poly_from_roots(roots[1:])], rng=rng
        )
        # off-pattern entry
        F = base.copy()
        F.b_minus[1][1, 0] += 0.05  # the a-row is row 1 here, so hit a zero slot
        F.b_plus[1][0, 0] += 0.05
        with pytest.raises(ValidationError) as err:
            md_validate(F)
        assert any("shape" in v for v in err.value.violations)
        # X-block mismatch
        F = base.copy()
        F.b_minus[1][0, 0] += 0.05
        with pytest.raises(ValidationError) as err:
            md_validate(F)
        assert any("matching" in v for v in err.value.violations)
        # conjugacy
        F = base.copy()
        F.g[1] = F.g[1] + 0.3 * np.linalg.norm(F.g[1]) * np.eye(2)
        with pytest.raises(ValidationError) as err:
            md_validate(F)
        assert any("conjugacy" in v for v in err.value.violations)

    def test_well_conditioned_conjugator_with_small_determinant_accepted(self):
        # k = (4, 3) point moved by ak_act: cond(g[1]) is about 1.5e5, far from
        # singular, but |det g[1]| is below 1e-12 * ||g[1]||_F^4
        rng = np.random.default_rng(0)
        while True:
            r = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
            if (np.abs(r[:, None] - r[None, :]) + 9 * np.eye(7)).min() > 0.1:
                break
        polys = [np.poly(rs)[::-1].astype(complex) for rs in (r[:4], r[4:])]
        F = fixture_from_polar(polys, rng=rng)
        params = [0.3 * (rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)) for d in (4, 3)]
        md_validate(ak_act(F, params))

    def test_missing_uw_is_structural(self):
        F = scalar_pair_fixture(0.5, 0.5, 1.0, 0.0)
        F.u = {}
        F.w = {}
        with pytest.raises(ValueError):
            md_validate(F)

    def test_nested_lists_validate_as_their_arrays(self):
        # a point whose blocks and vectors were nested lists raised AttributeError
        rng = np.random.default_rng(30)
        F = fixture_from_polar([poly_from_roots(rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d))
                                for d in (1, 2, 2, 3)], rng=rng)
        bad = F.copy()
        bad.b_plus[1][0, 1] += 0.5
        bad.b_minus[3][2, 0] += 1e-3

        def as_lists(P):
            return MatricialData(k=P.k, b_minus=[M.tolist() for M in P.b_minus],
                                 b_plus=[M.tolist() for M in P.b_plus], g=[M.tolist() for M in P.g],
                                 u={j: v.tolist() for j, v in P.u.items()}, w={j: v.tolist() for j, v in P.w.items()})

        assert outcome(lambda: md_validate(as_lists(F))) == outcome(lambda: md_validate(F)) == ("valid",)
        assert outcome(lambda: md_validate(bad))[0] == "ValidationError"
        assert outcome(lambda: md_validate(as_lists(bad))) == outcome(lambda: md_validate(bad))
        listed = as_lists(F)
        listed.b_plus[2][1][0] = float("nan")
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            md_validate(listed)

    def test_consumers_take_a_validated_point_without_rechecking(self, monkeypatch):
        F = enumerate_sr((2, 3, 3))[1]
        params = [np.array([0.1, 0.2j]), np.zeros(3), np.array([0.3])]

        def refuse(*args, **kwargs):
            raise AssertionError("md_validate called again")

        monkeypatch.setattr(ratmodel, "md_validate", refuse)
        sigma_of(F)
        md_strongly_regular(F)
        isotropy_nullity(F)
        pairing_residual(F)
        polar(ak_act(F, params))


class TestGkAct:
    def fixture(self, rng):
        roots = separated_roots(rng, 6)
        return fixture_from_polar(
            [
                poly_from_roots(roots[:1]),
                poly_from_roots(roots[1:3]),
                poly_from_roots(roots[3:]),
            ],
            rng=rng,
        )

    def test_identity(self):
        rng = np.random.default_rng(3)
        F = self.fixture(rng)
        same = gk_act(F, [np.eye(1), np.eye(2)])
        assert np.max(np.abs(same.as_vector() - F.as_vector())) < 1e-12

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(4)
        F = self.fixture(rng)
        hs = [
            np.array([[1.3 - 0.4j]]),
            np.array([[1.0, 0.3j], [0.1, 0.8]], dtype=complex),
        ]
        back = gk_act(gk_act(F, hs), [np.linalg.inv(h) for h in hs])
        assert np.max(np.abs(back.as_vector() - F.as_vector())) < 1e-10

    def test_polar_invariant(self):
        rng = np.random.default_rng(5)
        F = self.fixture(rng)
        hs = [
            np.array([[0.7 + 0.2j]]),
            np.eye(2) + 0.3 * (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))),
        ]
        moved = gk_act(F, hs)
        for p, q in zip(polar(F), polar(moved)):
            assert np.max(np.abs(p - q)) < 1e-9

    def test_non_invertible_rejected(self):
        rng = np.random.default_rng(6)
        F = self.fixture(rng)
        with pytest.raises(ValidationError):
            gk_act(F, [np.zeros((1, 1)), np.eye(2)])

    def test_small_multiple_of_identity_accepted(self):
        F = enumerate_sr((3, 3))[0]
        moved = gk_act(F, [1e-5 * np.eye(3)])
        assert np.allclose(moved.u[0], 1e-5 * F.u[0])

    def test_tied_sizes_rescale_uw(self):
        F = scalar_pair_fixture(0.5, 0.5 - 2.0 * 0.25, 2.0, 0.25)
        moved = gk_act(F, [np.array([[3.0]])])
        assert abs(moved.u[0][0] - 6.0) < 1e-12
        assert abs(moved.w[0][0] - 0.25 / 3.0) < 1e-12

    @pytest.mark.parametrize("point", ["untied", "tied", "list blocks", "integer blocks"])
    def test_block_moves_match_the_embedded_factors(self, point):
        rng = np.random.default_rng(8)
        near_one = lambda m: np.eye(m) + 0.3 * (rng.uniform(-1, 1, (m, m)) + 1j * rng.uniform(-1, 1, (m, m)))  # noqa: E731
        if point == "tied":
            F = enumerate_sr((3, 3))[0]
        elif point == "integer blocks":
            F = enumerate_sr((2, 3))[-1]
            F = MatricialData(k=F.k, b_minus=[M.real.astype(int) for M in F.b_minus],
                              b_plus=[M.real.astype(int) for M in F.b_plus],
                              g=[M.real.astype(int) for M in F.g])
        else:
            F = self.fixture(rng)
        if point == "list blocks":
            F = MatricialData(k=F.k, b_minus=[M.tolist() for M in F.b_minus],
                              b_plus=[M.tolist() for M in F.b_plus], g=[M.tolist() for M in F.g])
        hs = [near_one(F.junction_size(j)) for j in range(F.n - 1)]
        moved, want = gk_act(F, hs), embedded_gk_act(F, hs)
        pairs = [pair for name in ("b_minus", "b_plus", "g")
                 for pair in zip(getattr(moved, name), getattr(want, name))]
        pairs += [(moved.u[j], want.u[j]) for j in want.u] + [(moved.w[j], want.w[j]) for j in want.w]
        for got, ref in pairs:
            got, ref = np.asarray(got, dtype=complex), np.asarray(ref, dtype=complex)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestAkAct:
    def fixture(self, rng):
        roots = separated_roots(rng, 3)
        return fixture_from_polar(
            [poly_from_roots(roots[:1]), poly_from_roots(roots[1:])], rng=rng
        )

    def test_zero_parameters(self):
        rng = np.random.default_rng(7)
        F = self.fixture(rng)
        same = ak_act(F, [np.zeros(1), np.zeros(2)])
        assert np.max(np.abs(same.as_vector() - F.as_vector())) < 1e-14

    def test_abelian_group_law(self):
        rng = np.random.default_rng(8)
        F = self.fixture(rng)
        lam = [np.array([0.3 - 0.2j]), np.array([0.1j, 0.25])]
        mu = [np.array([-0.1]), np.array([0.2, -0.3j])]
        both = ak_act(ak_act(F, lam), mu)
        joint = ak_act(F, [a + b for a, b in zip(lam, mu)])
        assert np.max(np.abs(both.as_vector() - joint.as_vector())) < 1e-10

    def test_only_g_changes_and_revalidates(self):
        rng = np.random.default_rng(9)
        F = self.fixture(rng)
        moved = ak_act(F, [np.array([0.4]), np.array([0.2, -0.1j])])
        md_validate(moved)
        for a, b in zip(F.b_minus + F.b_plus, moved.b_minus + moved.b_plus):
            assert np.array_equal(a, b)
        assert not np.array_equal(F.g[0], moved.g[0])

    def test_polar_unchanged(self):
        rng = np.random.default_rng(10)
        F = self.fixture(rng)
        moved = ak_act(F, [np.array([1.0j]), np.array([0.5, 0.5])])
        for p, q in zip(polar(F), polar(moved)):
            assert np.array_equal(p, q)

    def test_degree_limit(self):
        rng = np.random.default_rng(11)
        F = self.fixture(rng)
        with pytest.raises(ValueError):
            ak_act(F, [np.array([0.1, 0.2]), np.zeros(2)])


class TestPolar:
    def test_nilpotent_blocks(self):
        for F in enumerate_sr((1, 2)):
            for ki, q in zip(F.k, polar(F)):
                want = np.append(np.zeros(ki), 1.0)
                assert np.allclose(q, want, atol=1e-12)

    def test_n1_linear(self):
        beta = 1.2 - 0.7j
        F = MatricialData(
            k=(1,),
            b_minus=[np.array([[beta]])],
            b_plus=[np.array([[beta]])],
            g=[np.array([[2.0]])],
        )
        q = polar(F)[0]
        assert np.allclose(q, [-beta, 1.0])

    def test_determinant_oracle(self):
        rng = np.random.default_rng(12)
        roots = separated_roots(rng, 4)
        polys = [poly_from_roots(roots[:2]), poly_from_roots(roots[2:])]
        F = fixture_from_polar(polys, rng=rng)
        for got, want in zip(polar(F), polys):
            assert np.max(np.abs(got - want)) < 1e-9


class TestSigma:
    def test_k11_positive(self):
        F = scalar_pair_fixture(0.0, 0.0, 1.0, 0.0)
        assert sigma_of(F).values == (1,)

    def test_k11_negative(self):
        F = scalar_pair_fixture(0.0, 0.0, 0.0, 1.0)
        assert sigma_of(F).values == (-1,)

    def test_k11_degenerate(self):
        F = scalar_pair_fixture(0.0, 0.0, 0.0, 0.0)
        assert sigma_of(F).values == (0,)
        assert not md_strongly_regular(F)

    def test_nonzero_fiber_rejected(self):
        F = scalar_pair_fixture(0.5, 0.5, 1.0, 0.0)
        with pytest.raises(ValidationError):
            sigma_of(F)

    def test_near_threshold_warns(self):
        F = scalar_pair_fixture(0.0, 0.0, 3e-10, 0.0)
        with pytest.warns(UserWarning, match="threshold"):
            sigma_of(F)

    @pytest.mark.parametrize("k, label", [((1, 3, 2), "B_minus[3]"), ((1, 2, 3), "B_plus[2]")])
    def test_non_canonical_junction_names_the_smaller_side(self, k, label):
        # the unipotent factor at junction 2 moves the smaller side off the plain shift
        F = gk_act(enumerate_sr(k)[0], [np.eye(1), np.array([[1.0, 1.0], [0.0, 1.0]])])
        with pytest.raises(ValidationError, match=re.escape(f"{label} is not the plain shift")):
            sigma_of(F)

    def test_invariant_under_ak(self):
        for F in enumerate_sr((2, 2)):
            before = sigma_of(F).values
            moved = ak_act(F, [np.array([0.3, -0.2j]), np.array([0.1, 0.4])])
            assert sigma_of(moved).values == before


class TestEnumerate:
    def test_k11_representatives(self):
        reps = enumerate_sr((1, 1))
        assert len(reps) == 2
        pairs = sorted((abs(F.u[0][0]), abs(F.w[0][0])) for F in reps)
        assert pairs == [(0.0, 1.0), (1.0, 0.0)]

    def test_n1_single(self):
        reps = enumerate_sr((3,))
        assert len(reps) == 1
        assert sigma_of(reps[0]).values == ()
        assert md_strongly_regular(reps[0])

    def test_k111_distinct_sigma(self):
        reps = enumerate_sr((1, 1, 1))
        sigmas = {sigma_of(F).values for F in reps}
        assert len(reps) == 4 and len(sigmas) == 4

    @pytest.mark.parametrize(
        "k", [(1, 1), (1, 2), (2, 2), (2, 1), (1, 2, 3), (3, 1, 2), (3, 3, 3), (1, 2, 3, 3, 2)]
    )
    def test_all_validated_and_regular(self, k):
        reps = enumerate_sr(k)
        assert len(reps) == 2 ** (len(k) - 1)
        sigmas = set()
        for F in reps:
            md_validate(F)
            sigma = sigma_of(F).values
            sigmas.add(sigma)
            assert 0 not in sigma
            assert md_strongly_regular(F)
            assert isotropy_nullity(F) == 0
        assert len(sigmas) == len(reps)

    def test_zero_degree_rejected(self):
        with pytest.raises(ValidationError):
            enumerate_sr((1, 0, 1))

    @pytest.mark.parametrize("k", [(1, 1), (2, 2, 2), (1, 2, 3, 3, 2), (3, 1, 3)])
    def test_no_two_blocks_share_an_array(self, k):
        # each size's shift is built once: every block must still be its own writable array
        blocks = [M for F in enumerate_sr(k) for M in (*F.b_minus, *F.b_plus, *F.g, *F.u.values(), *F.w.values())]
        assert all(M.flags.writeable and M.dtype == complex for M in blocks)
        assert not any(np.shares_memory(a, b) for j, a in enumerate(blocks) for b in blocks[:j])
        assert shift_matrix(3) is not shift_matrix(3) and shift_matrix(3).flags.writeable


class TestStrongRegularity:
    def test_continuous_isotropy_detected(self):
        F = scalar_pair_fixture(0.0, 0.0, 0.0, 0.0)
        assert isotropy_nullity(F) >= 1

    def test_relinked_shift_is_regular_nilpotent(self):
        for k, m in ((2, 1), (3, 1), (3, 2), (5, 2)):
            E = relinked_shift(k, m)
            assert np.max(np.abs(np.linalg.matrix_power(E, k))) < 1e-12
            assert np.linalg.matrix_rank(E) == k - 1


def zero_tangent(F):
    """The zero tangent at F: a MatricialData over F.k with F's layout, every entry 0."""
    return MatricialData(k=F.k, b_minus=[np.zeros_like(M) for M in F.b_minus],
                         b_plus=[np.zeros_like(M) for M in F.b_plus], g=[np.zeros_like(M) for M in F.g],
                         u={j: np.zeros_like(v) for j, v in F.u.items()},
                         w={j: np.zeros_like(v) for j, v in F.w.items()})


class TestSymplecticForm:
    def test_antisymmetry_on_equal_tangents(self):
        F = scalar_pair_fixture(0.3, 0.3 - 0.1, 0.5, 0.2)
        t = zero_tangent(F)
        t.g[0][0, 0] = 1.0
        t.b_minus[0][0, 0] = 0.7
        t.b_plus[0][0, 0] = 0.7
        t.b_minus[1][0, 0] = 0.7
        t.b_plus[1][0, 0] = 0.7
        t.u[0][0] = 0.0
        t.w[0][0] = 0.0
        assert md_symplectic(F, t, t, check=False) == 0

    def test_n1_closed_form(self):
        beta, gamma = 0.4 - 0.1j, 1.3 + 0.6j
        F = MatricialData(
            k=(1,),
            b_minus=[np.array([[beta]])],
            b_plus=[np.array([[beta]])],
            g=[np.array([[gamma]])],
        )
        d_beta = (0.3 + 0.2j, -0.5j)
        d_gamma = (1.1, 0.7 - 0.4j)
        tangents = []
        for db, dg in zip(d_beta, d_gamma):
            t = MatricialData(k=(1,), b_minus=[np.array([[db]])], b_plus=[np.array([[db]])], g=[np.array([[dg]])])
            tangents.append(t)
        got = md_symplectic(F, tangents[0], tangents[1])
        want = (d_gamma[0] / gamma) * d_beta[1] - (d_gamma[1] / gamma) * d_beta[0]
        assert abs(got - want) < 1e-12

    def test_k11_uw_term(self):
        F = scalar_pair_fixture(0.0, 0.0, 1.0, 0.0)
        t1 = zero_tangent(F)
        t2 = zero_tangent(F)
        # keep the rank-one matching: dB_plus - dB_minus = du w + u dw
        t1.u[0][0] = 0.6
        t2.w[0][0] = 0.9
        # the rank-one matching moves both sides of block 2 together
        t2.b_minus[1][0, 0] = -F.u[0][0] * 0.9
        t2.b_plus[1][0, 0] = -F.u[0][0] * 0.9
        got = md_symplectic(F, t1, t2)
        want = -(t1.w[0][0] * t2.u[0][0] - t2.w[0][0] * t1.u[0][0])
        assert abs(got - want) < 1e-12

    def test_tangent_whose_scale_overflows_raises(self):
        # a tangent entry of 1e308 used to make the threshold inf and hide this violation
        F = enumerate_sr((1, 2))[0]
        t = zero_tangent(F)
        t.b_minus[1][1, 0] = 1.0
        assert md_tangent_violations(F, t) == ["tangent conjugacy violated at block 2"]
        t.g[0][0, 0] = 1e308
        with pytest.raises(ValueError, match="overflows"):
            md_tangent_violations(F, t)
        with pytest.raises(ValueError, match="overflows"):
            md_symplectic(F, t, t)

    def point_23(self):
        polys = [poly_from_roots([0.5, -1.0]), poly_from_roots([1.5j, -0.5, 1.0 + 1.0j])]
        return fixture_from_polar(polys, rng=np.random.default_rng(7))

    def gauged(self, F, i):
        """A tangent that moves block i alone along its gauge direction: dg = -g Y and
        dB_plus = [Y, B_plus] keep g B_plus g^-1, so only the shape and matching bullets
        can see it."""
        t = zero_tangent(F)
        Y = 1.0 + (0.1 + 0.2j) * np.arange(F.k[i] ** 2).reshape(F.k[i], F.k[i])
        t.b_plus[i] = Y @ F.b_plus[i] - F.b_plus[i] @ Y
        t.g[i] = -F.g[i] @ Y
        return t

    @pytest.mark.parametrize("point", ["k12", "k23"])
    def test_tangent_moving_structural_entries_has_the_shape_text(self, point):
        # the last B_plus lies at no junction, and [Y, B_plus] moves its fixed column
        F = enumerate_sr((1, 2))[0] if point == "k12" else self.point_23()
        assert md_tangent_violations(F, self.gauged(F, 1)) == [
            "tangent shape: dB_plus[2] moves structural entries"]

    @pytest.mark.parametrize("point", ["k12", "k23"])
    def test_tangent_off_an_untied_junction_has_the_matching_text(self, point):
        # B_plus[1] moves, the X-block of B_minus[2] does not
        if point == "k12":
            F = enumerate_sr((1, 2))[0]
            t = zero_tangent(F)
            t.b_plus[0][0, 0] = t.b_minus[0][0, 0] = 1.0  # a scalar block conjugates to itself
        else:
            F = self.point_23()
            t = self.gauged(F, 0)
        assert md_tangent_violations(F, t) == ["tangent matching violated at junction 1"]

    def test_constraint_violating_tangent_rejected(self):
        F = scalar_pair_fixture(0.0, 0.0, 1.0, 0.0)
        t = zero_tangent(F)
        t.w[0][0] = 1.0  # u dw = 1 but no matching update on the B blocks
        with pytest.raises(ValidationError):
            md_symplectic(F, t, t)


def model_from_chart(poles, residues):
    """Single-level model point from pole/residue data via Lagrange data."""
    B = companion_of(poly_from_roots(poles))
    k = len(poles)
    g = np.zeros((k, k), dtype=complex)
    for j in range(k):
        term = residues[j] * np.eye(k, dtype=complex)
        for l in range(k):
            if l != j:
                term = term @ (B - poles[l] * np.eye(k)) / (poles[j] - poles[l])
        g += term
    return MatricialData(k=(k,), b_minus=[B], b_plus=[B.copy()], g=[g])


class TestChartAgreement:
    def test_model_matches_chart_form_n1(self):
        # the model form on a single level equals sum d(rho)/rho ^ d(pole)
        rng = np.random.default_rng(13)
        k = 3
        poles = separated_roots(rng, k)
        residues = rng.uniform(0.5, 1.5, k) + 1j * rng.uniform(-1, 1, k)
        chart = open_stratum_chart([poles], [residues])
        x0 = chart.flat()
        delta = 1e-5

        def model(x):
            return model_from_chart(x[:k], x[k:])

        F0 = model(x0)
        tangents = []
        for a in range(2 * k):
            xp = x0.copy()
            xm = x0.copy()
            xp[a] += delta
            xm[a] -= delta
            Fp, Fm = model(xp), model(xm)
            tangents.append(MatricialData(
                k=(k,),
                b_minus=[(Fp.b_minus[0] - Fm.b_minus[0]) / (2 * delta)],
                b_plus=[(Fp.b_plus[0] - Fm.b_plus[0]) / (2 * delta)],
                g=[(Fp.g[0] - Fm.g[0]) / (2 * delta)],
            ))
        for a in range(2 * k):
            for b in range(2 * k):
                e_a = np.zeros(2 * k)
                e_b = np.zeros(2 * k)
                e_a[a] = 1.0
                e_b[b] = 1.0
                want = chart_symplectic_form(chart, e_a, e_b)
                got = md_symplectic(F0, tangents[a], tangents[b], check=False)
                assert abs(got - want) < 1e-8 * (1 + abs(want))


class TestPoleSeparationIdentity:
    def test_zero_fiber_fixture_satisfies_identity(self):
        # on the nilpotent fiber both poles are 0 and u w = 0 exactly
        for F in enumerate_sr((1, 1)):
            z1 = np.mean(np.real(np.linalg.eigvals(F.b_minus[0]))) + 0j
            z2 = np.mean(np.real(np.linalg.eigvals(F.b_minus[1]))) + 0j
            uw = F.u[0][0] * F.w[0][0]
            assert z2 - z1 == uw == 0

    def test_generic_pair_matches_up_to_orientation(self):
        # with the stored convention B_plus_1 - B_minus_2 = u w^T the pole
        # gap is -u w; the separation |z2 - z1| = |u w| is orientation free
        rng = np.random.default_rng(14)
        z1, z2 = separated_roots(rng, 2)
        F = fixture_from_polar([poly_from_roots([z1]), poly_from_roots([z2])], rng=rng)
        uw = F.u[0][0] * F.w[0][0]
        assert abs((z2 - z1) + uw) < 1e-9
        assert abs(abs(z2 - z1) - abs(uw)) < 1e-9


class TestPairingIdentity:
    @pytest.mark.parametrize("k", [(1, 1), (1, 2), (2, 2), (2, 1), (1, 2, 3)])
    def test_canonical_data(self, k):
        for F in enumerate_sr(k):
            assert pairing_residual(F) < 1e-12

    def test_generic_fiber_rejected(self):
        F = scalar_pair_fixture(0.5, 0.5, 1.0, 0.0)
        with pytest.raises(ValidationError):
            pairing_residual(F)


class TestChartBracket:
    def random_chart(self, rng, n=3):
        sizes = list(range(1, n + 1))
        poles = []
        flat = separated_roots(rng, sum(sizes))
        pos = 0
        for s in sizes:
            poles.append(flat[pos : pos + s])
            pos += s
        residues = [
            rng.uniform(0.5, 1.5, s) + 1j * rng.uniform(-1, 1, s) for s in sizes
        ]
        return open_stratum_chart(poles, residues)

    def test_kostant_wallach_relations(self):
        rng = np.random.default_rng(15)
        chart = self.random_chart(rng)
        N = chart.size
        x = chart.flat()
        for l in range(N):
            for m in range(N):
                r_l = lambda y, l=l: y[..., l]
                s_m = lambda y, m=m: 1.0 / y[..., N + m]
                val = chart_bracket(chart, r_l, s_m)
                want = (1.0 / x[N + m]) if l == m else 0.0
                assert abs(val - want) < 1e-6 * (1 + abs(want))
                assert abs(chart_bracket(chart, r_l, lambda y, m=m: y[..., m])) < 1e-9
                assert abs(chart_bracket(
                    chart, lambda y, l=l: 1.0 / y[..., N + l], s_m
                )) < 1e-6

    def test_antisymmetry_and_leibniz(self):
        # step 1e-5: wide enough to clear the roundoff floor on the product
        # function, with no truncation cost on these quadratics
        rng = np.random.default_rng(16)
        chart = self.random_chart(rng, n=2)
        N = chart.size
        f = lambda y: y[..., 0] ** 2 + y[..., N] * y[..., 1]
        g = lambda y: y[..., N + 1] ** 2 - 3.0 * y[..., 2]
        h = lambda y: y[..., 0] * y[..., N + 2]
        x = chart.flat()

        def bracket(a, b):
            # chart_bracket with its gradients taken at step 1e-5
            return complex(_chart_pairing(x[N:], fd_gradient(a, x, step=1e-5), fd_gradient(b, x, step=1e-5)))

        ab = bracket(f, g) + bracket(g, f)
        assert abs(ab) < 1e-10
        fg_h = bracket(lambda y: f(y) * g(y), h)
        want = f(x) * bracket(g, h) + g(x) * bracket(f, h)
        assert abs(fg_h - want) < 1e-10

    def test_fd_cross_check(self):
        rng = np.random.default_rng(17)
        chart = self.random_chart(rng)
        N = chart.size
        x = chart.flat()
        cross = chart_as_poisson_chart(chart)
        for l in (0, N - 1):
            for m in (0, N // 2):
                f = lambda y, l=l: y[..., l]
                g = lambda y, m=m: 1.0 / y[..., N + m]
                direct = chart_bracket(chart, f, g)
                inverted = poisson_bracket(cross, f, g, x)
                assert abs(direct - inverted) < 1e-7

    @pytest.mark.parametrize("N", range(1, 8))
    def test_stacked_pairing_is_each_pairs_bits(self, N):
        # N = 1 is the case where a broadcast rho would take another multiply kernel
        rng = np.random.default_rng(N)
        c = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rho, df, dg = c(N), c(N, 2 * N), c(N, 2 * N)
        stacked = _chart_pairing(rho, df[:, None], dg[None, :])
        for l in range(N):
            for m in range(N):
                one = np.sum(rho * (df[l, N:] * dg[m, :N] - df[l, :N] * dg[m, N:]))
                assert stacked[l, m] == one

    @pytest.mark.parametrize("N", [1, 3, 6])
    def test_stacked_pairing_is_each_samples_bits(self, N):
        rng = np.random.default_rng(10 + N)
        c = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)  # noqa: E731
        rho, df, dg = c(4, N), c(4, N, 2 * N), c(4, N, 2 * N)
        stacked = _chart_pairing(rho[:, None, None, :], df[:, :, None], dg[:, None, :])
        assert stacked.shape == (4, N, N)
        for k in range(4):
            one = _chart_pairing(rho[k], df[k][:, None], dg[k][None, :])
            assert np.array_equal(stacked[k].view(np.uint64), one.view(np.uint64))

    def test_array_reciprocals_have_the_scalar_bits(self):
        # the cross-check tensor takes 1.0 / rho and -1.0 / rho as arrays, where it once
        # took them one scalar rho[l] at a time
        rng = np.random.default_rng(41)
        size = 20000
        rho = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 10.0 ** rng.uniform(-5, 5, size)
        rho[:4] = [1.0, -0.0 + 2j, 3.0 - 0.0j, 1e-300 + 1e300j]
        for numerator in (1.0, -1.0):
            want = np.array([numerator / r for r in rho])
            assert np.array_equal((numerator / rho).view(np.uint64), want.view(np.uint64))

    def test_stacked_tensor_is_each_points_tensor(self):
        # the omega of one point entry by entry, as the tensor was once built
        def one_point(x, N):
            rho = x[N:]
            omega = np.zeros((2 * N, 2 * N), dtype=complex)
            for l in range(N):
                omega[N + l, l] = 1.0 / rho[l]
                omega[l, N + l] = -1.0 / rho[l]
            return -np.linalg.inv(omega)

        rng = np.random.default_rng(19)
        for n in (1, 2, 3, 5):
            charts = [self.random_chart(rng, n) for _ in range(3)]
            N = charts[0].size
            x = np.array([chart.flat() for chart in charts])
            stacked = chart_as_poisson_chart(charts[0]).tensor_at(x)
            assert stacked.shape == (3, 2 * N, 2 * N)
            for k in range(3):
                want = one_point(x[k], N)
                assert np.array_equal(stacked[k].view(np.uint64), want.view(np.uint64))
                single = chart_as_poisson_chart(charts[k]).tensor_at(x[k])
                assert np.array_equal(single.view(np.uint64), want.view(np.uint64))

    def test_coincident_poles_rejected(self):
        with pytest.raises(ValidationError):
            open_stratum_chart([[0.5, 0.5 + 1e-14]], [[1.0, 1.0]])

    def test_zero_residue_rejected(self):
        with pytest.raises(ValidationError):
            open_stratum_chart([[0.5]], [[0.0]])

    @pytest.mark.parametrize("poles, residues", [
        pytest.param([[np.nan]], [[1.0]], id="nan-pole"),
        pytest.param([[0.0, np.inf]], [[1.0, 2.0]], id="infinite-pole"),
        pytest.param([[0.5], [1.0]], [[1.0], [complex(np.nan, 1.0)]], id="nan-residue"),
        pytest.param([[0.5]], [[-np.inf]], id="infinite-residue"),
    ])
    def test_non_finite_poles_and_residues_rejected(self, poles, residues):
        # every comparison with NaN is false: these were accepted, and chart_bracket then
        # failed with "non-finite values in finite-difference gradient"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^poles and residues must be finite$"):
                open_stratum_chart(poles, residues)

    def test_pole_gap_exactly_at_the_threshold_is_coincident(self):
        # poles 0 and t, scale 1 + t: the gap t is exactly _OPEN_STRATUM_TOL * scale
        t = _OPEN_STRATUM_TOL * (1.0 + _OPEN_STRATUM_TOL)
        assert t == _OPEN_STRATUM_TOL * (1.0 + t)
        with pytest.raises(ValidationError, match="coincident"):
            open_stratum_chart([[0.0], [t]], [[1.0], [1.0]])
        open_stratum_chart([[0.0], [np.nextafter(t, 1.0)]], [[1.0], [1.0]])


# sha256 of the bytes of fixture_from_polar(...).as_vector() over junctions
# k_j > k_(j+1), k_j < k_(j+1), k_j = k_(j+1) and zero degrees, recorded
# before the junction rule and the adjugate solve were shared
FIXTURE_BITS = {
    ((3, 2), 0): "0545b4a90f8e0dc10dbf36574839a373e7b1f02940c58a880b53512e348d974c",
    ((3, 2), 1): "0827ccac3d51117959d24f5924fb27c5731bdde9e9b9a9fe2079fe5364c5dc1d",
    ((3, 2), 2): "96df80a60ca5a2a9c751e595210b295921cca46da7e43323a904d2089bb62fe1",
    ((2, 3), 0): "a7fb560867d593333321034d69b785c7cd404a8edf520667ebbbb8b07ae2258e",
    ((2, 3), 1): "e577619d030172bbc47af1af81fff19d21785e022b8cdaa0d186722144fd1774",
    ((2, 3), 2): "d4823d071465b9ec3b5f0d0ec0b26caf5c2e0ef916bc0c24c46836d4e6442510",
    ((2, 2), 0): "81640da079aff626802f165ec3befd762ba2c6742dbc39209d2435dd1e25aef5",
    ((2, 2), 1): "0b27757d294accf855ea1f8359111b5f0739275ec3d86877983418203ebf2661",
    ((2, 2), 2): "268e9caf19c140416852834186ca26adbc8c72d0d9750c717a9962cfe1d80d5c",
    ((0, 2), 0): "368f9b0d25aa97831e3ed52a1731890440bdaea9d6c26dfa79cf9457845c4811",
    ((0, 2), 1): "cb8a1d7f99f5b1e64f44aa68b93243b739db2649628692f3f275cf41b2974861",
    ((0, 2), 2): "11543bcf13b065f17fa15721c2612e8aaeb1376c8b40c18c886be6b0057d3c94",
    ((3, 0), 0): "75155b6c16e741941095c02b15181717355700331f4cab9fa219c35b1e65085f",
    ((3, 0), 1): "e4f5c14d2afb002a1e8dad647ffcaf5615c5cabf8b0cb6cadb246e787e3dc0d3",
    ((3, 0), 2): "ad7377fbaf78ea84394d1f52ee88f5f2e9927a441faccad380690d727d5bbb85",
    ((2, 0, 3), 0): "4e883609dac649bf9b65f5a461c03f5ad4975f3f87738f56405ffb5696a47584",
    ((2, 0, 3), 1): "dc8b3e43ac87cfebdb7a6f8e02a77dc4b3cafd18cef1239de9d81c1f5abc1239",
    ((2, 0, 3), 2): "bdbae7f62d9453a3002143df37eaff7bd0ba0308c8833c8eef11c677abcaade0",
    ((1, 3, 3, 2), 0): "d198d5e9f7e0ae94df9c77c8dfc00c4b580c11e66e8a5ac8c95efd658b76f007",
    ((1, 3, 3, 2), 1): "2ee60805b3ada3652207b3fa5d2732809e95f6cf1f8e8f854adedb4f1bf3be24",
    ((1, 3, 3, 2), 2): "2f641abb1ecb0c50650aa5b7e610048cce410bbed274a11f2a585dd01bdad84a",
    ((3, 1, 2, 2), 0): "4884d6803b4f98c18ef1d59f7ca4424cc49f049f56a21112a4b3e81a1aef976d",
    ((3, 1, 2, 2), 1): "95bd1c3ee7d4bd09bfc3d2a5d3192ee9607d41e391ece663189bd74c1c56fb7d",
    ((3, 1, 2, 2), 2): "a2422a8e03d38d3f27a38754bf85c3d59c5c0f04b7f05da95fb12c7d4f6c78f1",
    ((0, 2, 2, 1), 0): "5e1bb2c828a1ff999d2b551496141c56f40c9455a3f0e060623a245dc80f26e8",
    ((0, 2, 2, 1), 1): "53dbe980c6a962e40fd32d44239b7dbefabbdde656fe1235286b4a974026e025",
    ((0, 2, 2, 1), 2): "15f81781934106652ca9901ec508d080d254e82266f55ccd0f090e94abdcdf32",
}


class TestFixtureFromPolar:
    @pytest.mark.parametrize(
        "degrees",
        [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2), (1, 2, 3), (2, 2, 1), (1, 0, 1)],
    )
    def test_polar_roundtrip(self, degrees):
        rng = np.random.default_rng(sum(degrees) + 31 * len(degrees))
        roots = separated_roots(rng, sum(degrees))
        polys = []
        pos = 0
        for d in degrees:
            polys.append(poly_from_roots(roots[pos : pos + d]))
            pos += d
        F = fixture_from_polar(polys, rng=rng)
        md_validate(F)
        for got, want in zip(polar(F), polys):
            assert np.max(np.abs(got - want)) < 1e-8

    @pytest.mark.parametrize("degrees", [(0, 0, 2, 1), (1, 0, 0, 2), (0, 0), (2, 0, 0, 0, 1)])
    def test_adjacent_zero_degrees(self, degrees):
        # two empty blocks tie: the junction between them holds an empty (u, w) pair
        rng = np.random.default_rng(len(degrees))
        roots = separated_roots(rng, sum(degrees))
        polys = [poly_from_roots(roots[sum(degrees[:i]) : sum(degrees[: i + 1])])
                 for i in range(len(degrees))]
        F = fixture_from_polar(polys, rng=rng)
        md_validate(F)
        assert sorted(F.u) == [j for j in range(len(degrees) - 1) if degrees[j] == degrees[j + 1]]
        for got, want in zip(polar(F), polys):
            assert np.max(np.abs(got - want)) < 1e-8

    @pytest.mark.parametrize("scale", [100.0, 1000.0])
    def test_large_roots(self, scale):
        # Krylov columns grow like the roots' powers; the leftover of the junction solve
        # grows with the target's coefficients: neither refuses a point at this scale
        rng = np.random.default_rng(0)
        roots = [scale * (rng.normal(size=d) + 1j * rng.normal(size=d)) for d in (2, 3)]
        F = fixture_from_polar([poly_from_roots(r) for r in roots], rng=0)
        for got, want in zip(polar(F), roots):
            assert np.max(np.abs(np.sort_complex(matpoly_roots(got)) - np.sort_complex(want))) < 1e-9 * scale

    def test_near_monic_leading_coefficient(self):
        # a leading coefficient within the monic tolerance builds, as the monic polynomial
        p = poly_from_roots([1.0, 2.0])
        p[-1] = 1 + 5e-10
        F = fixture_from_polar([p, poly_from_roots([3.0, 4.0, 5.0])], rng=0)
        assert F.k == (2, 3)
        assert np.max(np.abs(polar(F)[0] - p / p[-1])) < 1e-8

    @pytest.mark.parametrize("k, seed", list(FIXTURE_BITS), ids=str)
    def test_same_bits_at_a_fixed_seed(self, k, seed):
        rng = np.random.default_rng(seed)
        polys = [poly_from_roots(rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)) for d in k]
        F = fixture_from_polar(polys, rng=rng)
        assert hashlib.sha256(F.as_vector().tobytes()).hexdigest() == FIXTURE_BITS[(k, seed)]


class TestKron:
    """ratmodel._kron has the bits of np.kron on matrices."""

    @staticmethod
    def assert_same(a, b):
        want = np.kron(a, b)
        got = _kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(200))
    def test_random_factors(self, seed):
        rng = np.random.default_rng(seed)
        shapes = rng.integers(0, 5, size=4)
        a, b = (
            (rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))) * 10.0 ** rng.integers(-150, 150)
            for p, q in (shapes[:2], shapes[2:])
        )
        a[rng.random(a.shape) < 0.3] = -0.0
        b[rng.random(b.shape) < 0.3] = complex(0.0, -0.0)
        self.assert_same(a, b)
        self.assert_same(a, b.T)

    @pytest.mark.parametrize("k, m", [(3, 2), (4, 4), (2, 0), (0, 0), (5, 1)])
    def test_embedding_and_identity_factors(self, k, m):
        rng = np.random.default_rng(k + 7 * m)
        P = np.eye(k, m, dtype=complex)
        B = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        v = rng.normal(size=m) - 1j * rng.normal(size=m)
        self.assert_same(P, P)
        self.assert_same(P, (P.T @ B).T)
        self.assert_same(B @ P, P)
        self.assert_same(np.eye(m), v[None, :])
        self.assert_same(v[None, :], np.eye(m))


def multidegrees():
    """Every k with 2 <= n <= 4 levels of degree 1 to 3: 117 multidegrees."""
    return [k for n in range(2, 5) for k in itertools.product((1, 2, 3), repeat=n)]


def moved_representatives(k, seed):
    """enumerate_sr(k), each point moved by ak_act: canonical points whose g have inexact entries."""
    rng = np.random.default_rng(seed)
    return [
        ak_act(F, [0.3 * (rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)) for d in k])
        for F in enumerate_sr(k)
    ]


def planted_stack():
    """Five inexact points over k = (2, 3, 3): one fixture moved five ways by ak_act."""
    rng = np.random.default_rng(2024)
    k = (2, 3, 3)
    polys = [poly_from_roots(rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)) for d in k]
    F = fixture_from_polar(polys, rng=rng)
    return [ak_act(F, [0.2 * (rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)) for d in k])
            for _ in range(5)]


def plant(F):
    """F with a broken fixed one, a stray entry and a moved X-block (four violations)."""
    F.b_plus[0][1, 0] += 0.25
    F.b_minus[0][1, 0] += 0.125
    F.b_minus[0][0, 0] -= 0.0625
    return F


# md_validate's report on the planted point, taken from the point alone before the
# model checks took stacks
PLANTED_VIOLATIONS = [
    "shape: B_minus[1] subdiagonal entry (2,1) != 1",
    "shape: B_minus[1] has nonzero entries outside the displayed form",
    "matching: X-block of B_minus[2] differs from B_plus[1]",
    "conjugacy: g[1] B_plus[1] g[1]^-1 != B_minus[1] (residual 4.545e-01)",
]
# the scales of planted_stack(), taken from each point alone the same way
PLANTED_SCALES = ["0x1.52ab785391263p+5", "0x1.01223f9f9f9ccp+4", "0x1.5de838837f3ffp+4",
                  "0x1.6318ebebdc6c3p+9", "0x1.6e0347e1d51b5p+6"]


class TestStackedModelChecks:
    """Validation and classification of a stack of points with one k, against each point alone."""

    @pytest.mark.parametrize("k", multidegrees(), ids=str)
    def test_isotropy_systems_have_the_bits_of_one_point(self, k):
        points = moved_representatives(k, sum(k) + 10 * len(k))
        systems = ratmodel._isotropy_matrix(ratmodel._stack(points))
        nullities = ratmodel._nullities(points)
        classes = ratmodel._classified(points, isotropy=True, stacklevel=2)
        for F, system, nullity, (sigma, regular) in zip(points, systems, nullities, classes):
            alone, unknowns = isotropy_system(F)
            assert np.array_equal(system, alone)
            assert nullity == isotropy_nullity(F) == unknowns - numerical_rank(alone)
            assert sigma == sigma_of(F) and regular == md_strongly_regular(F)
            assert regular == (nullity == 0)

    def test_scales_have_the_bits_of_one_point(self):
        points = planted_stack()
        scales = ratmodel._validated_scales(points, ratmodel.VALIDATE_TOL)
        assert [s.hex() for s in scales.tolist()] == PLANTED_SCALES
        assert [F.scale().hex() for F in points] == PLANTED_SCALES

    def test_a_stack_raises_the_first_refused_points_own_report(self):
        points = planted_stack()
        plant(points[2])
        # a stack is checked as one unit: a later point's structural fault comes first
        points[3].g[1] = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ValueError, match=re.escape("g[2] has shape (2, 2), expected (3, 3)")):
            ratmodel._validated_scales(points, ratmodel.VALIDATE_TOL)
        with pytest.raises(ValidationError) as caught:
            ratmodel._validated_scales(points[2:3], ratmodel.VALIDATE_TOL)
        assert caught.value.violations == PLANTED_VIOLATIONS
        with pytest.raises(ValidationError) as caught:
            md_validate(points[2])
        assert caught.value.violations == PLANTED_VIOLATIONS

    def test_a_structural_fault_raises_its_own_value_error(self):
        points = planted_stack()
        points[1].b_plus[2] = np.full((3, 3), np.nan, dtype=complex)
        plant(points[2])
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            ratmodel._validated_scales(points, ratmodel.VALIDATE_TOL)
        points[1].b_plus[2] = np.full((3, 3), 1e300, dtype=complex)
        with pytest.raises(ValueError, match="scale overflows"):
            ratmodel._validated_scales(points, ratmodel.VALIDATE_TOL)

    def test_an_exactly_singular_g_in_a_stack_reports_as_alone(self):
        points = enumerate_sr((2, 3, 3))
        points[1].g[1] = np.zeros((3, 3), dtype=complex)
        for batch in (points, points[1:2]):
            with pytest.raises(ValidationError) as caught:
                ratmodel._validated_scales(batch, ratmodel.VALIDATE_TOL)
            assert caught.value.violations == ["conjugacy: g[2] is numerically singular"]

    def test_conjugacy_faults_come_in_level_order(self):
        # the levels of size 3 share one pass and size 2 comes first; the report keeps
        # the order of the levels, as the per-level check gave it for the point alone
        points = enumerate_sr((3, 2, 3))
        F = points[1]
        F.g[0] = F.g[0] + 0.25 * np.eye(3)[::-1]
        F.g[1] = F.g[1] + 0.5 * np.array([[0, 1], [0, 0]])
        F.g[2] = np.zeros((3, 3), dtype=complex)
        for batch in (points, [F]):
            with pytest.raises(ValidationError) as caught:
                ratmodel._validated_scales(batch, ratmodel.VALIDATE_TOL)
            assert caught.value.violations == [
                "conjugacy: g[1] B_plus[1] g[1]^-1 != B_minus[1] (residual 5.497e-01)",
                "conjugacy: g[2] B_plus[2] g[2]^-1 != B_minus[2] (residual 7.500e-01)",
                "conjugacy: g[3] is numerically singular",
            ]

    def test_warnings_and_the_refusal_come_point_by_point(self, monkeypatch):
        points = [
            scalar_pair_fixture(0.0, 0.0, 1.0, 0.0),
            scalar_pair_fixture(0.0, 0.0, 3e-10, 0.0),
            scalar_pair_fixture(0.0, 0.0, 0.0, 3e-10),
            scalar_pair_fixture(0.5, 0.5, 1.0, 0.0),
            scalar_pair_fixture(0.0, 0.0, 1.0, 1.0),
        ]
        # the isotropy of point 2 would be continuous, but a stack with a refused point
        # takes no nullities: no disagreement is reported
        monkeypatch.setattr(ratmodel, "_nullities", lambda batch: np.array([0, 5, 0, 0, 0][: len(batch)]))
        with pytest.warns(UserWarning) as record, pytest.raises(ValidationError, match="block 1 is not nilpotent"):
            ratmodel._classified(points, isotropy=True, stacklevel=2)
        assert [str(w.message) for w in record] == [
            "junction 1: entry magnitude 3.000e-10 is near the nonzero threshold 2.000e-10",
            "junction 1: entry magnitude 3.000e-10 is near the nonzero threshold 2.000e-10",
        ]

    @pytest.mark.parametrize("name", ["sigma_of", "md_strongly_regular", "md_classify"])
    def test_warnings_name_the_caller_of_the_public_function(self, monkeypatch, name):
        F = scalar_pair_fixture(0.0, 0.0, 3e-10, 0.0)
        # a near-threshold entry, and an isotropy that disagrees with the sign map
        monkeypatch.setattr(ratmodel, "_nullities", lambda batch: np.array([5] * len(batch)))
        classify = {"sigma_of": sigma_of, "md_strongly_regular": md_strongly_regular,
                    "md_classify": lambda F: ratmodel._classified([F], isotropy=True, stacklevel=2)}[name]
        with pytest.warns(UserWarning) as record:
            classify(F)
        assert len(record) == (1 if name == "sigma_of" else 2)
        assert {w.filename for w in record} == {__file__}

    def test_blocks_bound_the_memory_of_a_stacked_classification(self):
        points = enumerate_sr((3,) * 8)
        equations, unknowns = ratmodel._isotropy_shape((3,) * 8)
        first = _blocks(len(points), equations * unknowns)[0]
        assert len(points) == 128 and first < len(points)

        def peak(batch):
            tracemalloc.start()
            try:
                ratmodel._classified(batch, isotropy=True, stacklevel=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(points) <= 1.5 * peak(points[:first])


# multidegrees for the oracle check: ties, unequal sizes either way, repeated sizes
ORACLE_DEGREES = [(1, 1), (2, 2), (1, 2), (2, 3), (4, 3), (3, 2, 3), (2, 3, 3), (1, 3, 2),
                  (3, 3, 3), (1, 2, 3, 3, 2)]


def outcome(check):
    """What check() gives: ("valid",), or the type, text and violations of what it raises."""
    try:
        check()
    except ValidationError as exc:
        return ("ValidationError", str(exc), exc.violations)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return ("valid",)


def nudged(F, rng):
    """F with one to three entries of its matrices and vectors moved by 1e-12 to 1, so that
    some bullets fail, or with one g made singular."""
    F = F.copy()
    arrays = [*F.b_minus, *F.b_plus, *F.g, *F.u.values(), *F.w.values()]
    if rng.random() < 0.15:
        i = rng.integers(F.n)
        F.g[i] = np.outer(F.g[i][:, 0], rng.uniform(-1, 1, F.k[i])) * rng.integers(2)
        return F
    for _ in range(rng.integers(1, 4)):
        A = arrays[rng.integers(len(arrays))].reshape(-1)
        A[rng.integers(A.size)] += 10.0 ** rng.uniform(-12, 0) * np.exp(2j * np.pi * rng.random())
    return F


def broken(F, rng):
    """F with one structural fault: a non-finite or huge entry, a wrong shape or a lost pair."""
    F = F.copy()
    i = rng.integers(F.n)
    kind = rng.integers(5 if F.u else 4)
    if kind == 0:
        F.b_plus[i][rng.integers(F.k[i]), rng.integers(F.k[i])] = (np.nan, np.inf)[rng.integers(2)]
    elif kind == 1:
        F.g[i][0, 0] = 1e200
    elif kind == 2:
        F.b_minus[i] = np.zeros((F.k[i] + 1, F.k[i] + 1), dtype=complex)
    elif kind == 3:
        F.g = F.g[:-1]
    else:
        j = sorted(F.u)[rng.integers(len(F.u))]
        (F.u, F.w)[rng.integers(2)][j] = np.array([np.nan] * F.k[j]) if rng.integers(2) else np.zeros(F.k[j] + 1)
    return F


class TestValidationOracle:
    """md_validate against the per-point, per-matrix check of tests/oracles.py."""

    def test_reports_texts_and_refusals_match_the_per_point_check(self):
        rng = np.random.default_rng(2006)
        seen = set()
        for k in ORACLE_DEGREES:
            points = moved_representatives(k, 7 * len(k) + sum(k))
            polys = [poly_from_roots(rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)) for d in k]
            points.append(fixture_from_polar(polys, rng=rng))
            tol = (ratmodel.VALIDATE_TOL, 1e-4)[rng.integers(2)]
            batch = [nudged(F, rng) for F in points for _ in range(3)]
            expected = [outcome(lambda: per_point_validate(F, tol)) for F in batch]
            for F, want in zip(batch, expected):
                assert outcome(lambda: md_validate(F, tol)) == want
            # a stack of well-formed points raises the first refused point's own report
            first = next((want for want in expected if want != ("valid",)), ("valid",))
            assert outcome(lambda: ratmodel._validated_scales(batch, tol)) == first
            for F in points:
                faulty = broken(F, rng)
                assert outcome(lambda: md_validate(faulty)) == outcome(lambda: per_point_validate(faulty))
            seen.update(want[0] for want in expected)
        # valid and refused points are both compared
        assert seen == {"valid", "ValidationError"}


# multidegrees for the classifier's oracle: one level, ties, unequal sizes either way, repeats
CLASSIFY_DEGREES = [(1,), (1, 1), (2, 2), (1, 2), (2, 1), (2, 3), (3, 2, 3), (1, 3, 2), (2, 3, 3),
                    (1, 2, 3, 3, 2)]


def pairing_spots(F, j):
    """(array, index) of junction j's two pairing entries in F, the trailing-row entry (or w)
    first, then the leading-column entry (or u)."""
    m = F.junction_size(j)
    if F.k[j] == F.k[j + 1]:
        return (F.w[j], m - 1), (F.u[j], 0)
    big = ratmodel._by_size(F.k, j, F.b_plus[j], F.b_minus[j + 1])[0]
    return (big, (m, m - 1)), (big, (0, -1))


def refused_at(F, kind, site):
    """A copy of F planted with one refusal: a level off the zero fiber, a junction whose
    smaller side (B_plus at a tie) leaves the plain shift, or one with both entries set."""
    F = F.copy()
    k = F.k
    if kind == "level":
        F.b_minus[site][0, 0] += 0.5
    elif kind == "shift":
        anchor = F.b_plus[site] if k[site] == k[site + 1] else \
            ratmodel._by_size(k, site, F.b_plus[site], F.b_minus[site + 1])[1]
        anchor[F.junction_size(site) - 1, 0] += 0.5
    else:
        for A, at in pairing_spots(F, site):
            A[at] = 1.0
    return F


def near_threshold(F, j, factors):
    """A copy of F whose pairing entries at junction j are factors times its nonzero threshold."""
    F = F.copy()
    tol = ratmodel.NONZERO_RTOL * F.scale()
    for (A, at), factor in zip(pairing_spots(F, j), factors):
        A[at] = factor * tol
    return F


# (trailing, leading) entries over the threshold: sign 0 with two warnings, -1 with one, +1 with
# none (30 is past the warning decade), and +1 with one; at (2, 2) both are nonzero, a refusal
NEAR_FACTORS = [(0.5, 0.5), (3.0, 0.0), (0.0, 30.0), (0.05, 5.0)]


def classified_outcome(classify, points, isotropy):
    """(warning texts in order, the refusal's type and text or None, each point's sign word
    and flag or None) of classify(points, isotropy)."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        try:
            got = [(sigma.values, regular) for sigma, regular in classify(points, isotropy)]
            refusal = None
        except (ValidationError, ValueError) as exc:
            got, refusal = None, (type(exc).__name__, str(exc))
    return [str(w.message) for w in record], refusal, got


def stacked_classify(points, isotropy):
    return ratmodel._classified(points, isotropy=isotropy, stacklevel=2)


class TestClassifierOracle:
    """The sign classifier against the per-point, per-junction loop of tests/oracles.py."""

    def cases(self, k):
        """Single points and stacks over k: the first and last representatives as they are,
        with each refusal planted at each level and junction, with near-threshold entries at
        each junction, and refused at junction 1 with near-threshold entries after it; then
        every representative as one stack, the near-threshold points as one stack, and that
        stack with a refused point in its middle."""
        reps = enumerate_sr(k)
        n = len(k)
        near, refused = [], []
        for F in (reps[0], reps[-1]):
            refused += [refused_at(F, "level", i) for i in range(n)]
            refused += [refused_at(F, kind, j) for j in range(n - 1) for kind in ("shift", "both")]
            refused += [near_threshold(F, j, (2.0, 2.0)) for j in range(n - 1)]
            refused += [near_threshold(refused_at(F, "both", 0), j, (0.5, 0.5)) for j in range(1, n - 1)]
            near += [near_threshold(F, j, factors) for j in range(n - 1) for factors in NEAR_FACTORS]
        half = len(near) // 2
        stacks = [reps, near, near[:half] + refused[-1:] + near[half:]] if near else [reps]
        return [[F] for F in (reps[0], reps[-1], *near, *refused)] + stacks

    def test_signs_flags_warnings_and_refusals_match_the_per_point_loop(self):
        texts = set()
        for k in CLASSIFY_DEGREES:
            for points in self.cases(k):
                for isotropy in (True, False):
                    want = classified_outcome(per_point_classify, points, isotropy)
                    assert classified_outcome(stacked_classify, points, isotropy) == want, (k, isotropy)
                    texts.update(want[0] + ([want[1][1]] if want[1] else []))
        # each refusal, the near-threshold warnings and the isotropy cross-check are compared
        for part in ("is not nilpotent", "is not the plain shift", "both pairing entries", "is near", "disagrees"):
            assert any(part in text for text in texts), part

    def test_a_refused_point_warns_for_none_of_its_junctions(self):
        # the one difference from the per-point loop: there, junction 1 warned before junction 2 refused
        F = near_threshold(refused_at(enumerate_sr((2, 2, 2))[0], "both", 1), 0, (0.5, 0.0))
        want = ("ValidationError", "junction 2 has both pairing entries nonzero; data is not valid zero-fiber input")
        loop = classified_outcome(per_point_classify, [F], True)
        assert loop[1] == want and len(loop[0]) == 1
        assert classified_outcome(stacked_classify, [F], True) == ([], want, None)


class TestModelPointIntake:
    """Each function that takes a raw point, or a tangent, refuses a malformed one with the
    intake's ValueError (these escaped as IndexError, KeyError or LinAlgError), and each
    that inverts g refuses a singular one as md_validate reports it."""

    @pytest.mark.parametrize("fault, text", [
        ("wrong-size", "B_minus[2] has shape (1, 1), expected (2, 2)"),
        ("few-blocks", "g must have 2 blocks"),
        ("no-uw", "(u, w) pairs must sit exactly at the junctions of equal sizes (1)"),
    ])
    @pytest.mark.parametrize("name", ["md_tangent_violations", "md_symplectic", "md_symplectic-unchecked"])
    def test_a_malformed_tangent_is_refused(self, name, fault, text):
        F = enumerate_sr((2, 2))[0]
        t = zero_tangent(F)
        if fault == "wrong-size":
            t.b_minus[1] = np.zeros((1, 1), dtype=complex)
        elif fault == "few-blocks":
            t.g = t.g[:1]
        else:
            t.u, t.w = {}, {}
        call = {"md_tangent_violations": lambda: md_tangent_violations(F, t),
                "md_symplectic": lambda: md_symplectic(F, zero_tangent(F), t),
                "md_symplectic-unchecked": lambda: md_symplectic(F, t, zero_tangent(F), check=False)}[name]
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            call()

    @pytest.mark.parametrize("fault, text", [
        ("short-g", "g must have 3 blocks"),
        ("no-uw", "(u, w) pairs must sit exactly at the junctions of equal sizes (1)"),
        ("nan", "matrix entries must be finite"),
    ])
    @pytest.mark.parametrize("name", ["sigma_of", "md_strongly_regular", "isotropy_nullity", "scale"])
    def test_a_malformed_point_is_refused(self, name, fault, text):
        F = enumerate_sr((2, 2, 3))[0]
        if fault == "short-g":
            F.g = F.g[:2]
        elif fault == "no-uw":
            F.u, F.w = {}, {}
        else:
            F.g[1][0, 0] = np.nan
        call = {"sigma_of": sigma_of, "md_strongly_regular": md_strongly_regular,
                "isotropy_nullity": isotropy_nullity, "scale": MatricialData.scale}[name]
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            call(F)

    @pytest.mark.parametrize("name", ["isotropy_nullity", "md_tangent_violations", "md_symplectic",
                                      "md_symplectic-unchecked", "md_strongly_regular"])
    def test_a_singular_g_is_refused_as_md_validate_reports_it(self, name):
        # each raised numpy's LinAlgError, "Singular matrix", which names no block
        F = enumerate_sr((2, 2))[0]
        F.g[0] = np.zeros_like(F.g[0])
        text = "conjugacy: g[1] is numerically singular"
        with pytest.raises(ValidationError) as caught:
            md_validate(F)
        assert caught.value.violations == [text]
        call = {"isotropy_nullity": lambda: isotropy_nullity(F),
                "md_tangent_violations": lambda: md_tangent_violations(F, zero_tangent(F)),
                "md_symplectic": lambda: md_symplectic(F, zero_tangent(F), zero_tangent(F)),
                "md_symplectic-unchecked": lambda: md_symplectic(F, zero_tangent(F), zero_tangent(F), check=False),
                "md_strongly_regular": lambda: md_strongly_regular(F)}[name]
        with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
            call()

    def test_enumerate_orbits_takes_no_singular_g_check(self, monkeypatch):
        # its representatives have invertible g by construction: the check would be paid for nothing
        monkeypatch.setattr(ratmodel, "_refuse_singular_g", lambda D: pytest.fail("checked g"))
        assert cli.run(["enumerate-orbits", "--input", '{"k": [2, 2, 3]}', "--output", os.devnull]) == 0
