import numpy as np
import pytest

from gzflows import ratmodel
from gzflows.errors import ValidationError
from gzflows.matpoly import companion_of, poly_from_roots
from gzflows.ratmodel import (
    MatricialData,
    MdTangent,
    ak_act,
    chart_as_poisson_chart,
    chart_bracket,
    chart_symplectic_form,
    enumerate_sr,
    fixture_from_polar,
    gk_act,
    isotropy_nullity,
    md_strongly_regular,
    md_symplectic,
    md_validate,
    open_stratum_chart,
    pairing_residual,
    polar,
    relinked_shift,
    sigma_of,
)
from gzflows.verify import poisson_bracket


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


class TestStrongRegularity:
    def test_continuous_isotropy_detected(self):
        F = scalar_pair_fixture(0.0, 0.0, 0.0, 0.0)
        assert isotropy_nullity(F) >= 1

    def test_relinked_shift_is_regular_nilpotent(self):
        for k, m in ((2, 1), (3, 1), (3, 2), (5, 2)):
            E = relinked_shift(k, m)
            assert np.max(np.abs(np.linalg.matrix_power(E, k))) < 1e-12
            assert np.linalg.matrix_rank(E) == k - 1


class TestSymplecticForm:
    def zero_tangent(self, F):
        return MdTangent(
            d_b_minus=[np.zeros_like(M) for M in F.b_minus],
            d_b_plus=[np.zeros_like(M) for M in F.b_plus],
            d_g=[np.zeros_like(M) for M in F.g],
            d_u={j: np.zeros_like(v) for j, v in F.u.items()},
            d_w={j: np.zeros_like(v) for j, v in F.w.items()},
        )

    def test_antisymmetry_on_equal_tangents(self):
        F = scalar_pair_fixture(0.3, 0.3 - 0.1, 0.5, 0.2)
        t = self.zero_tangent(F)
        t.d_g[0][0, 0] = 1.0
        t.d_b_minus[0][0, 0] = 0.7
        t.d_b_plus[0][0, 0] = 0.7
        t.d_b_minus[1][0, 0] = 0.7
        t.d_b_plus[1][0, 0] = 0.7
        t.d_u[0][0] = 0.0
        t.d_w[0][0] = 0.0
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
            t = MdTangent(
                d_b_minus=[np.array([[db]])],
                d_b_plus=[np.array([[db]])],
                d_g=[np.array([[dg]])],
            )
            tangents.append(t)
        got = md_symplectic(F, tangents[0], tangents[1])
        want = (d_gamma[0] / gamma) * d_beta[1] - (d_gamma[1] / gamma) * d_beta[0]
        assert abs(got - want) < 1e-12

    def test_k11_uw_term(self):
        F = scalar_pair_fixture(0.0, 0.0, 1.0, 0.0)
        t1 = self.zero_tangent(F)
        t2 = self.zero_tangent(F)
        # keep the rank-one matching: dB_plus - dB_minus = du w + u dw
        t1.d_u[0][0] = 0.6
        t2.d_w[0][0] = 0.9
        # the rank-one matching moves both sides of block 2 together
        t2.d_b_minus[1][0, 0] = -F.u[0][0] * 0.9
        t2.d_b_plus[1][0, 0] = -F.u[0][0] * 0.9
        got = md_symplectic(F, t1, t2)
        want = -(t1.d_w[0][0] * t2.d_u[0][0] - t2.d_w[0][0] * t1.d_u[0][0])
        assert abs(got - want) < 1e-12

    def test_constraint_violating_tangent_rejected(self):
        F = scalar_pair_fixture(0.0, 0.0, 1.0, 0.0)
        t = self.zero_tangent(F)
        t.d_w[0][0] = 1.0  # u dw = 1 but no matching update on the B blocks
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
            tangents.append(MdTangent(
                d_b_minus=[(Fp.b_minus[0] - Fm.b_minus[0]) / (2 * delta)],
                d_b_plus=[(Fp.b_plus[0] - Fm.b_plus[0]) / (2 * delta)],
                d_g=[(Fp.g[0] - Fm.g[0]) / (2 * delta)],
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
                r_l = lambda y, l=l: y[l]
                s_m = lambda y, m=m: 1.0 / y[N + m]
                val = chart_bracket(chart, r_l, s_m)
                want = (1.0 / x[N + m]) if l == m else 0.0
                assert abs(val - want) < 1e-6 * (1 + abs(want))
                assert abs(chart_bracket(chart, r_l, lambda y, m=m: y[m])) < 1e-9
                assert abs(chart_bracket(
                    chart, lambda y, l=l: 1.0 / y[N + l], s_m
                )) < 1e-6

    def test_antisymmetry_and_leibniz(self):
        # step 1e-5: wide enough to clear the roundoff floor on the product
        # function, with no truncation cost on these quadratics
        rng = np.random.default_rng(16)
        chart = self.random_chart(rng, n=2)
        N = chart.size
        f = lambda y: y[0] ** 2 + y[N] * y[1]
        g = lambda y: y[N + 1] ** 2 - 3.0 * y[2]
        h = lambda y: y[0] * y[N + 2]
        ab = chart_bracket(chart, f, g, step=1e-5) + chart_bracket(chart, g, f, step=1e-5)
        assert abs(ab) < 1e-10
        fg_h = chart_bracket(chart, lambda y: f(y) * g(y), h, step=1e-5)
        x = chart.flat()
        want = (f(x) * chart_bracket(chart, g, h, step=1e-5)
                + g(x) * chart_bracket(chart, f, h, step=1e-5))
        assert abs(fg_h - want) < 1e-10

    def test_fd_cross_check(self):
        rng = np.random.default_rng(17)
        chart = self.random_chart(rng)
        N = chart.size
        x = chart.flat()
        cross = chart_as_poisson_chart(chart)
        for l in (0, N - 1):
            for m in (0, N // 2):
                f = lambda y, l=l: y[l]
                g = lambda y, m=m: 1.0 / y[N + m]
                direct = chart_bracket(chart, f, g)
                inverted = poisson_bracket(cross, f, g, x)
                assert abs(direct - inverted) < 1e-7

    def test_coincident_poles_rejected(self):
        with pytest.raises(ValidationError):
            open_stratum_chart([[0.5, 0.5 + 1e-14]], [[1.0, 1.0]])

    def test_zero_residue_rejected(self):
        with pytest.raises(ValidationError):
            open_stratum_chart([[0.5]], [[0.0]])


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
