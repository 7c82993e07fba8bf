import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kten import geometry as geo
from kten.errors import EqualMasses, NonUnitNormal, ZeroRelativeVelocity


def rng():
    return np.random.default_rng(2024)


def random_unit(r, d):
    u = r.normal(size=d)
    return u / np.linalg.norm(u)


class TestRestitutionParams:
    def test_beta_definition(self):
        p = geo.RestitutionParams(alpha=0.5)
        assert p.beta == 0.75

    def test_kappa_is_beta(self):
        for alpha in (0.1, 0.5, 0.6, 0.93):
            p = geo.RestitutionParams(alpha=alpha)
            assert p.kappa == p.beta

    def test_from_beta_roundtrip(self):
        p = geo.RestitutionParams.from_beta(0.8)
        assert p.alpha == pytest.approx(0.6, abs=1e-15)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7])
    def test_alpha_range(self, bad):
        with pytest.raises(ValueError):
            geo.RestitutionParams(alpha=bad)

    @pytest.mark.parametrize("bad", [0.5, 1.0, 0.2])
    def test_beta_range(self, bad):
        with pytest.raises(ValueError):
            geo.RestitutionParams.from_beta(bad)


class TestInelasticSigma:
    def test_head_on_theta_zero_is_identity(self):
        # sigma along the relative velocity leaves both velocities fixed
        v, vs = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        p = geo.RestitutionParams.from_beta(0.77)
        vp, vsp, deg = geo.inelastic_post_sigma(v, vs, np.array([1.0, 0.0]), p)
        assert np.allclose(vp, v) and np.allclose(vsp, vs)
        assert not deg

    def test_head_on_reversal_beta_075(self):
        # direct substitution: center 0, (1-beta)/2 rel = (1/8)(2,0),
        # (beta/2)|rel| sigma = (3/4)(-1,0) -> v' = (-1/2, 0)
        v, vs = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        p = geo.RestitutionParams(alpha=0.5)          # beta = 3/4
        vp, vsp, _ = geo.inelastic_post_sigma(v, vs, np.array([-1.0, 0.0]), p)
        assert np.allclose(vp, [-0.5, 0.0], atol=1e-15)
        assert np.allclose(vsp, [0.5, 0.0], atol=1e-15)
        # |v' - v*'| = |1 - 2 beta| |v - v*|
        assert np.linalg.norm(vp - vsp) == pytest.approx(1.0, abs=1e-14)

    def test_momentum_sum_preserved(self):
        r = rng()
        p = geo.RestitutionParams.from_beta(0.63)
        v, vs = r.normal(size=(64, 3)), r.normal(size=(64, 3))
        sig = r.normal(size=(64, 3))
        sig /= np.linalg.norm(sig, axis=1, keepdims=True)
        vp, vsp, _ = geo.inelastic_post_sigma(v, vs, sig, p)
        assert np.abs((vp + vsp) - (v + vs)).max() < 1e-14

    def test_degenerate_pair_flagged_identity(self):
        v = np.array([0.2, -0.1, 0.4])
        p = geo.RestitutionParams.from_beta(0.8)
        vp, vsp, deg = geo.inelastic_post_sigma(v, v, np.array([0.0, 0.0, 1.0]), p)
        assert deg
        assert np.array_equal(vp, v) and np.array_equal(vsp, v)

    def test_non_unit_sigma_rejected(self):
        p = geo.RestitutionParams.from_beta(0.8)
        with pytest.raises(NonUnitNormal):
            geo.inelastic_post_sigma(np.ones(3), np.zeros(3),
                                     np.array([1.0, 1.0, 0.0]), p)


class TestInelasticNormal:
    def test_tangential_normal_is_noop(self):
        v, vs = np.array([1.0, 0.0, 0.0]), np.zeros(3)
        p = geo.RestitutionParams.from_beta(0.9)
        vp, vsp, _ = geo.inelastic_post_n(v, vs, np.array([0.0, 1.0, 0.0]), p)
        assert np.array_equal(vp, v) and np.array_equal(vsp, vs)

    def test_axis_collision_alpha_half(self):
        v, vs = np.array([1.0, 0.0, 0.0]), np.zeros(3)
        n = np.array([1.0, 0.0, 0.0])
        p = geo.RestitutionParams(alpha=0.5)
        vp, vsp, _ = geo.inelastic_post_n(v, vs, n, p)
        assert np.allclose(vp, [0.25, 0.0, 0.0], atol=1e-15)
        assert np.allclose(vsp, [0.75, 0.0, 0.0], atol=1e-15)
        assert np.dot(vp - vsp, n) == pytest.approx(-0.5, abs=1e-15)

    def test_normal_restitution_identity(self):
        r = rng()
        p = geo.RestitutionParams.from_beta(0.71)
        for _ in range(50):
            v, vs = r.normal(size=3), r.normal(size=3)
            n = random_unit(r, 3)
            vp, vsp, _ = geo.inelastic_post_n(v, vs, n, p)
            res = np.dot(vp - vsp, n) + p.alpha * np.dot(v - vs, n)
            assert abs(res) < 1e-12
            # tangential relative velocity unchanged
            tv_pre = (v - vs) - np.dot(v - vs, n) * n
            tv_post = (vp - vsp) - np.dot(vp - vsp, n) * n
            assert np.abs(tv_pre - tv_post).max() < 1e-12


class TestMixture:
    def test_equal_mass_kappa_is_one(self):
        # the elastic plane through u' needs no equal-mass branch in the kernels
        for m in (1e-300, 1e-100, 1e-8, 0.3, 1.0, 7.0, 1e8, 1e100, 3e299):
            assert geo.MassPair(m, m).kappa == 1.0
        with pytest.raises(ValueError, match="overflows"):
            geo.MassPair(1e308, 1e308)

    def test_equal_masses_reduce_to_elastic_rule(self):
        r = rng()
        m = geo.MassPair(2.0, 2.0)
        v, vs = r.normal(size=3), r.normal(size=3)
        sig = random_unit(r, 3)
        vp, vsp, _ = geo.mixture_post_sigma(v, vs, sig, m)
        rel = np.linalg.norm(v - vs)
        assert np.allclose(vp, 0.5 * (v + vs) + 0.5 * rel * sig, atol=1e-14)

    def test_relative_speed_preserved(self):
        r = rng()
        m = geo.MassPair(1.0, 3.7)
        v, vs = r.normal(size=(128, 3)), r.normal(size=(128, 3))
        sig = r.normal(size=(128, 3))
        sig /= np.linalg.norm(sig, axis=1, keepdims=True)
        vp, vsp, _ = geo.mixture_post_sigma(v, vs, sig, m)
        pre = np.linalg.norm(v - vs, axis=1)
        post = np.linalg.norm(vp - vsp, axis=1)
        assert np.abs(post / pre - 1.0).max() < 1e-12

    def test_worked_example_masses_1_3(self):
        # substitution oracle: com = (1/4, 0), v' = com + (3/4)|rel| sigma
        m = geo.MassPair(1.0, 3.0)
        v, vs = np.array([1.0, 0.0]), np.zeros(2)
        vp, vsp, _ = geo.mixture_post_sigma(v, vs, np.array([0.0, 1.0]), m)
        assert np.allclose(vp, [0.25, 0.75], atol=1e-15)
        assert np.allclose(vsp, [0.25, -0.25], atol=1e-15)
        assert np.allclose(m.m_i * vp + m.m_j * vsp, m.m_i * v + m.m_j * vs,
                           atol=1e-15)
        e_pre = m.m_i * v @ v + m.m_j * vs @ vs
        e_post = m.m_i * vp @ vp + m.m_j * vsp @ vsp
        assert e_post == pytest.approx(e_pre, rel=1e-14)

    def test_energy_momentum_conservation_sweep(self):
        r = rng()
        m = geo.MassPair(0.5, 1.9)
        v, vs = r.normal(size=(512, 2)), r.normal(size=(512, 2))
        sig = r.normal(size=(512, 2))
        sig /= np.linalg.norm(sig, axis=1, keepdims=True)
        vp, vsp, _ = geo.mixture_post_sigma(v, vs, sig, m)
        mom = m.m_i * vp + m.m_j * vsp - m.m_i * v - m.m_j * vs
        assert np.abs(mom).max() < 1e-13
        e_pre = m.m_i * np.sum(v ** 2, 1) + m.m_j * np.sum(vs ** 2, 1)
        e_post = m.m_i * np.sum(vp ** 2, 1) + m.m_j * np.sum(vsp ** 2, 1)
        assert np.abs(e_post / e_pre - 1.0).max() < 1e-12


class TestAuxPoints:
    def test_beta_one_limit(self):
        r = rng()
        v, vs = r.normal(size=3), r.normal(size=3)
        p = geo.RestitutionParams.from_beta(1.0 - 1e-12)
        vp, vsp, _ = geo.inelastic_post_sigma(v, vs, random_unit(r, 3), p)
        ap = geo.aux_points_inelastic(v, vs, vp, p)
        assert np.abs(ap.P - vp).max() < 1e-9
        assert np.abs(ap.Q - vs).max() < 1e-9

    def test_orthogonality_residuals_on_generated_triples(self):
        r = rng()
        p = geo.RestitutionParams.from_beta(0.8)
        for _ in range(100):
            v, vs = r.normal(size=3), r.normal(size=3)
            vp, vsp, _ = geo.inelastic_post_sigma(v, vs, random_unit(r, 3), p)
            ap = geo.aux_points_inelastic(v, vs, vp, p)
            scale = max(np.linalg.norm(v - vs), 1.0) ** 2
            assert abs(ap.residual_P) < 1e-10 * scale
            assert abs(ap.residual_Q) < 1e-10 * scale

    def test_degenerate_theta_zero_still_returns_Q(self):
        v, vs = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        p = geo.RestitutionParams.from_beta(0.7)
        ap = geo.aux_points_inelastic(v, vs, v, p)    # v' = v
        assert np.allclose(ap.Q, (1 - p.beta) * v + p.beta * vs)

    @pytest.mark.parametrize("masses,kind", [((1.0, 2.0), "PQ"), ((2.0, 1.0), "RS")])
    def test_mixture_orthogonality(self, masses, kind):
        r = rng()
        m = geo.MassPair(*masses)
        for _ in range(100):
            v, vs = r.normal(size=3), r.normal(size=3)
            vp, vsp, _ = geo.mixture_post_sigma(v, vs, random_unit(r, 3), m)
            ap = geo.aux_points_mixture(v, vs, vp, vsp, m)
            assert ap.kind == kind
            scale = max(np.linalg.norm(v - vs), 1.0) ** 2
            for name, res in ap.residuals.items():
                assert abs(res) < 1e-10 * scale, name

    def test_mass_limit_from_below(self):
        r = rng()
        m = geo.MassPair(1.0, 1.0 + 1e-9)
        v, vs = r.normal(size=3), r.normal(size=3)
        vp, vsp, _ = geo.mixture_post_sigma(v, vs, random_unit(r, 3), m)
        ap = geo.aux_points_mixture(v, vs, vp, vsp, m)
        assert np.abs(ap.points["P"] - v).max() < 1e-8
        assert np.abs(ap.points["Q"] - vsp).max() < 1e-8

    def test_equal_masses_rejected(self):
        m = geo.MassPair(1.0, 1.0)
        with pytest.raises(EqualMasses):
            geo.aux_points_mixture(np.ones(3), np.zeros(3), np.ones(3),
                                   np.zeros(3), m)


class TestHalfAngle:
    def test_theta_zero(self):
        v, vs = np.array([1.0, 0.0, 0.0]), np.zeros(3)
        p = geo.RestitutionParams.from_beta(0.8)
        ch, sh = geo.half_angle(v, vs, v, p)
        assert sh == pytest.approx(0.0, abs=1e-15)
        assert ch == pytest.approx(1.0, abs=1e-15)

    def test_theta_pi(self):
        # v' - v = -beta (v - v*): full reversal along the axis
        v, vs = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        p = geo.RestitutionParams.from_beta(0.8)
        vp = v - p.beta * (v - vs)
        ch, sh = geo.half_angle(v, vs, vp, p)
        assert sh == pytest.approx(1.0, abs=1e-14)
        assert ch == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("params", [geo.RestitutionParams.from_beta(0.7),
                                        geo.MassPair(1.0, 2.0),
                                        geo.MassPair(3.0, 1.0)])
    def test_double_angle_consistency(self, params):
        r = rng()
        for _ in range(50):
            v, vs = r.normal(size=3), r.normal(size=3)
            sig = random_unit(r, 3)
            cos_theta = np.dot((v - vs) / np.linalg.norm(v - vs), sig)
            if isinstance(params, geo.RestitutionParams):
                vp, _, _ = geo.inelastic_post_sigma(v, vs, sig, params)
            else:
                vp, _, _ = geo.mixture_post_sigma(v, vs, sig, params)
            ch, sh = geo.half_angle(v, vs, vp, params)
            assert ch ** 2 + sh ** 2 == pytest.approx(1.0, abs=1e-10)
            assert cos_theta == pytest.approx(1.0 - 2.0 * sh ** 2, abs=1e-10)

    def test_zero_relative_velocity_raises(self):
        p = geo.RestitutionParams.from_beta(0.8)
        with pytest.raises(ZeroRelativeVelocity):
            geo.half_angle(np.ones(3), np.ones(3), np.zeros(3), p)


class TestParameterizationAgreement:
    def test_sigma_and_normal_produce_identical_outputs(self):
        r = rng()
        p = geo.RestitutionParams.from_beta(0.66)
        m = geo.MassPair(1.0, 2.4)
        for _ in range(50):
            v, vs = r.normal(size=3), r.normal(size=3)
            sig = random_unit(r, 3)
            vp, vsp, _ = geo.inelastic_post_sigma(v, vs, sig, p)
            n = geo.normal_from_collision(v, vp)
            vp2, vsp2, _ = geo.inelastic_post_n(v, vs, n, p)
            assert np.abs(vp2 - vp).max() < 1e-10
            assert np.abs(vsp2 - vsp).max() < 1e-10
            wp, wsp, _ = geo.mixture_post_sigma(v, vs, sig, m)
            nm = geo.normal_from_collision(v, wp)
            wp2, wsp2, _ = geo.mixture_post_n(v, vs, nm, m)
            assert np.abs(wp2 - wp).max() < 1e-10
            assert np.abs(wsp2 - wsp).max() < 1e-10


class TestSigmaFlipAsymmetry:
    def test_flip_does_not_swap_inelastic(self):
        r = rng()
        p = geo.RestitutionParams.from_beta(0.8)
        v, vs = r.normal(size=3), r.normal(size=3)
        sig = random_unit(r, 3)
        vp, vsp, _ = geo.inelastic_post_sigma(v, vs, sig, p)
        fp, fsp, _ = geo.inelastic_post_sigma(v, vs, -sig, p)
        assert np.abs(fp - vsp).max() > 1e-6 or np.abs(fsp - vp).max() > 1e-6

    def test_flip_does_not_swap_unequal_masses(self):
        r = rng()
        m = geo.MassPair(1.0, 2.0)
        v, vs = r.normal(size=3), r.normal(size=3)
        sig = random_unit(r, 3)
        vp, vsp, _ = geo.mixture_post_sigma(v, vs, sig, m)
        fp, fsp, _ = geo.mixture_post_sigma(v, vs, -sig, m)
        assert np.abs(fp - vsp).max() > 1e-6 or np.abs(fsp - vp).max() > 1e-6

    def test_flip_does_swap_for_equal_masses(self):
        # the contrast case: elastic identical particles are sigma-symmetric
        r = rng()
        m = geo.MassPair(1.0, 1.0)
        v, vs = r.normal(size=3), r.normal(size=3)
        sig = random_unit(r, 3)
        vp, vsp, _ = geo.mixture_post_sigma(v, vs, sig, m)
        fp, fsp, _ = geo.mixture_post_sigma(v, vs, -sig, m)
        assert np.abs(fp - vsp).max() < 1e-14
        assert np.abs(fsp - vp).max() < 1e-14


class TestEnergyInequality:
    def test_inelastic_relative_speed_contraction(self):
        # |v'-v*'|^2 = |v-v*|^2 [(1-b)^2 + b^2 + 2b(1-b) cos theta]
        r = rng()
        p = geo.RestitutionParams.from_beta(0.8)
        v, vs = r.normal(size=(256, 3)), r.normal(size=(256, 3))
        sig = r.normal(size=(256, 3))
        sig /= np.linalg.norm(sig, axis=1, keepdims=True)
        vp, vsp, _ = geo.inelastic_post_sigma(v, vs, sig, p)
        rel = v - vs
        rn = np.linalg.norm(rel, axis=1)
        cos_t = np.sum(rel * sig, axis=1) / rn
        b = p.beta
        predicted = rn ** 2 * ((1 - b) ** 2 + b ** 2 + 2 * b * (1 - b) * cos_t)
        post = np.sum((vp - vsp) ** 2, axis=1)
        assert np.abs(post / predicted - 1.0).max() < 1e-10
        assert np.all(post <= rn ** 2 * (1.0 + 1e-12))


class TestVerifyIdentities:
    @pytest.mark.parametrize("d", [2, 3])
    def test_passes_within_tolerances(self, d):
        rep = geo.verify_identities(seed=5, n=4000, d=d)
        assert rep["pass"] is True
        assert (rep["samples"], rep["d"]) == (4000, d)
        assert rep["momentum_residual"] < 1e-12
        assert rep["mixture_energy_residual"] < 1e-10
        assert rep["relative_speed_growth"] < 0.0
        assert rep["sigma_flip_swap_gap"] > 1e-6

    def test_deterministic_in_seed(self):
        assert geo.verify_identities(3, 1000, 3) == geo.verify_identities(3, 1000, 3)
        assert geo.verify_identities(3, 1000, 3) != geo.verify_identities(4, 1000, 3)

    def test_energy_leak_fails(self, monkeypatch):
        exact = geo.mixture_post_sigma

        def leaky(v, v_star, sigma, m):
            vp, vsp, deg = exact(v, v_star, sigma, m)
            return geo.PostCollision(0.999 * vp, vsp, deg)

        monkeypatch.setattr(geo, "mixture_post_sigma", leaky)
        rep = geo.verify_identities(5, 1000, 3)
        assert rep["pass"] is False
        assert rep["mixture_energy_residual"] > 1e-6
        assert rep["momentum_residual"] < 1e-12

    @pytest.mark.parametrize("seed", [3, 6, 10])
    def test_d2_near_grazing_seeds_pass(self, seed):
        # near-grazing rows (|v - v'| about 1e-5) once put the restitution
        # residual of these seeds at 7e-11 to 1.4e-10, past 1e-11 max|v - v*|
        rep = geo.verify_identities(seed, 100000, 2)
        assert rep["pass"] is True
        assert rep["restitution_residual"] < 1e-14

    @pytest.mark.parametrize("rule", ["inelastic_post_n", "inelastic_post_sigma"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_wrong_restitution_factor_fails(self, monkeypatch, rule, d):
        exact = getattr(geo, rule)

        def off(v, v_star, u, p):
            return exact(v, v_star, u, geo.RestitutionParams.from_beta(p.beta * (1 + 1e-6)))

        monkeypatch.setattr(geo, rule, off)
        rep = geo.verify_identities(5, 4000, d)
        assert rep["pass"] is False
        assert rep["sigma_n_agreement"] > 1e-7
        if rule == "inelastic_post_n":
            assert rep["restitution_residual"] > 1e-7


# verify_identities(13, n, d) as the whole-array code reported it, before the
# identities ran on row blocks: the momentum, restitution, sigma-n, relative
# speed, mixture momentum and mixture energy values and the swap gap. n = 1
# and n = 4095, 4096, 4097 around the 4096-row block. The restitution values
# were re-recorded when the residual moved onto the n-rule's outputs
_REPORT_KEYS = ("momentum_residual", "restitution_residual", "sigma_n_agreement",
                "relative_speed_growth", "mixture_momentum_residual",
                "mixture_energy_residual", "sigma_flip_swap_gap")
_WHOLE_ARRAY_REPORTS = [
    (1, 2, (0.0, 6.661338147750939e-16, 2.220446049250313e-16, -1.5172775742408013, 0.0,
            0.0, 1.645819555688375)),
    (4095, 2, (4.440892098500626e-16, 2.220446049250313e-15, 9.431344594190705e-14,
               -3.3641902352776754e-07, 1.7763568394002505e-15, 1.7763568394002505e-14,
               0.005034059891357168)),
    (4096, 2, (4.440892098500626e-16, 2.220446049250313e-15, 1.3296030942910875e-12,
               -7.640602373015781e-09, 1.7763568394002505e-15, 1.4210854715202004e-14,
               0.023591339613064668)),
    (4097, 2, (4.440892098500626e-16, 2.6645352591003757e-15, 4.8183679268731794e-14,
               -1.656595514099024e-07, 1.7763568394002505e-15, 1.4210854715202004e-14,
               0.014129710288854192)),
    (100000, 2, (8.881784197001252e-16, 3.552713678800501e-15, 1.1779355268970448e-11,
                 -3.818056981685913e-12, 1.7763568394002505e-15, 2.842170943040401e-14,
                 0.000837680494367064)),
    (1, 3, (1.1102230246251565e-16, 2.220446049250313e-16, 4.440892098500626e-16,
            -1.0688791360516858, 2.220446049250313e-16, 5.329070518200751e-15,
            1.8004874731738896)),
    (4095, 3, (4.440892098500626e-16, 2.220446049250313e-15, 1.887379141862766e-14,
               -0.00012614911016883834, 1.7763568394002505e-15, 1.4210854715202004e-14,
               0.03288355931759558)),
    (4096, 3, (4.440892098500626e-16, 2.220446049250313e-15, 1.021405182655144e-14,
               -0.00022194117602047925, 1.7763568394002505e-15, 1.7763568394002505e-14,
               0.06265944582170056)),
    (4097, 3, (4.440892098500626e-16, 2.6645352591003757e-15, 6.439293542825908e-15,
               -0.00020945689577533955, 1.7763568394002505e-15, 1.7763568394002505e-14,
               0.0804422000858667)),
    (100000, 3, (8.881784197001252e-16, 4.440892098500626e-15, 2.566696855055284e-13,
                 -1.3664660034606868e-06, 1.7763568394002505e-15, 2.842170943040401e-14,
                 0.0256324165526352)),
]


class TestVerifyIdentitiesBlocks:
    def test_pins_straddle_the_block(self):
        assert geo._IDENTITY_BLOCK == 4096

    @pytest.mark.parametrize("n, d, values", _WHOLE_ARRAY_REPORTS,
                             ids=[f"n{n}-d{d}" for n, d, _ in _WHOLE_ARRAY_REPORTS])
    def test_report_matches_whole_array_code(self, n, d, values):
        rep = geo.verify_identities(13, n, d)
        assert rep == {"samples": n, "d": d, **dict(zip(_REPORT_KEYS, values)),
                       "pass": True}

    @pytest.mark.parametrize("block", [7, 1000])
    @pytest.mark.parametrize("n, d", [(4097, 2), (20000, 3)])
    def test_report_does_not_depend_on_block_size(self, monkeypatch, n, d, block):
        default = geo.verify_identities(13, n, d)
        monkeypatch.setattr(geo, "_IDENTITY_BLOCK", block)
        assert geo.verify_identities(13, n, d) == default

    def test_working_set_is_bounded(self):
        # the draws are 3 x 2.3 MiB; the whole-array code peaked at 37.6 MiB
        tracemalloc.start()
        try:
            geo.verify_identities(13, 100000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2 ** 20


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64).tobytes()


class TestIdentityRowSumsKeepTheirBits:
    # _block_residuals sums rows with utils.row_dot in place of np.linalg.norm
    # and np.sum, and draws v, v* and sigma as one (3, n, d) array; none of it
    # may move a bit of the report

    @pytest.mark.parametrize("d", [2, 3])
    def test_row_norm_and_row_dot_match_numpy(self, d):
        rng = np.random.default_rng(d)
        a, b = rng.normal(size=(2, 3000, d))
        for x in (a, b):
            x[:1000] *= 1e-150
            x[1000:2000] *= 1e150
        assert _bits(geo._row_norm(a)) == _bits(np.linalg.norm(a, axis=1))
        assert _bits(geo.utils.row_dot(a, b)) == _bits(np.sum(a * b, axis=1))
        assert _bits(geo.utils.row_dot(a, a)) == _bits(np.sum(a ** 2, axis=1))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [*range(1, 11), 13])
    def test_one_draw_equals_three(self, seed, d):
        n = 100000
        one = geo.utils.substream(seed, 0xEC).standard_normal((3, n, d))
        rng = geo.utils.substream(seed, 0xEC)
        three = [rng.normal(size=(n, d)) for _ in range(3)]
        assert _bits(one) == _bits(np.stack(three))


class TestImpactNormalCore:
    # inelastic_post_n and mixture_post_n wrap impact_normal_shifts, which the
    # simulator's commit wave also calls; the wrappers must keep the bits of
    # the expressions they had before it, written out here with np.sum

    @staticmethod
    def pairs(d):
        r = np.random.default_rng(90 + d)
        v, vs, n = r.normal(size=(3, 3000, d))
        n /= np.linalg.norm(n, axis=1)[:, None]
        for x in (v, vs):
            x[:1000] *= 1e-150
            x[1000:2000] *= 1e150
        vs[5] = v[5]                                # a pair at rest, flagged
        return v, vs, n

    @pytest.mark.parametrize("d", [2, 3])
    def test_inelastic_rule_keeps_its_bits(self, d):
        v, vs, n = self.pairs(d)
        p = geo.RestitutionParams(0.3)
        rel = v - vs
        shift = p.beta * np.sum(rel * n, axis=1)[:, None] * n
        vp, vsp, deg = geo.inelastic_post_n(v, vs, n, p)
        assert _bits(vp) == _bits(v - shift) and _bits(vsp) == _bits(vs + shift)
        assert np.array_equal(deg, np.sum(rel * rel, axis=1) == 0.0) and deg.sum() == 1

    @pytest.mark.parametrize("d", [2, 3])
    def test_mixture_rule_keeps_its_bits(self, d):
        v, vs, n = self.pairs(d)
        m = geo.MassPair(1.0, 2.5)
        rel = v - vs
        dot = np.sum(rel * n, axis=1)[:, None]
        vp, vsp, deg = geo.mixture_post_n(v, vs, n, m)
        assert _bits(vp) == _bits(v - (2.0 * m.m_j / m.total) * dot * n)
        assert _bits(vsp) == _bits(vs + (2.0 * m.m_i / m.total) * dot * n)
        assert np.array_equal(deg, np.sum(rel * rel, axis=1) == 0.0) and deg.sum() == 1

    @pytest.mark.parametrize("params", [geo.RestitutionParams(0.3), geo.MassPair(1.0, 2.5)])
    def test_core_returns_the_normal_component(self, params):
        v, vs, n = self.pairs(3)
        rel = v - vs
        shift, shift_star, dot = geo.impact_normal_shifts(rel, n, params)
        assert _bits(dot) == _bits(np.sum(rel * n, axis=1))
        post = (geo.inelastic_post_n if isinstance(params, geo.RestitutionParams)
                else geo.mixture_post_n)
        vp, vsp, _ = post(v, vs, n, params)
        assert _bits(v - shift) == _bits(vp) and _bits(vs + shift_star) == _bits(vsp)
        with pytest.raises(NonUnitNormal):
            geo.impact_normal_shifts(rel, 2.0 * n, params)
        with pytest.raises(TypeError):
            geo.impact_normal_shifts(rel, n, 0.5)


class TestCollisionFrame:
    def test_frame_roundtrip(self):
        r = rng()
        v, vs = r.normal(size=3), r.normal(size=3)
        sig = random_unit(r, 3)
        fr = geo.make_collision_frame(v, vs, sig)
        assert -1.0 <= fr.cos_theta <= 1.0

    def test_inconsistent_cos_theta_rejected(self):
        with pytest.raises(ValueError):
            geo.CollisionFrame(v=np.array([1.0, 0.0]), v_star=np.zeros(2),
                               sigma=np.array([1.0, 0.0]), cos_theta=0.0)


# -- property tests --------------------------------------------------------------
# Derandomized, so every run checks the same examples. Tolerances are relative
# to the velocity scale: the rules are exact identities up to rounding.

PROPERTIES = settings(derandomize=True, database=None, deadline=None,
                      max_examples=300)
COORD = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def _draw_unit(draw, d):
    u = np.array(draw(st.lists(COORD, min_size=d, max_size=d)))
    size = np.linalg.norm(u)
    assume(size > 1e-3)
    return u / size


@st.composite
def collision_inputs(draw):
    """(v, v*, sigma) with d in {2, 3} and |v - v*| from 0 through 1e-12 to 10."""
    d = draw(st.sampled_from([2, 3]))
    v = np.array(draw(st.lists(COORD, min_size=d, max_size=d)))
    gap = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(1e-6, 10.0)))
    v_star = v - gap * _draw_unit(draw, d)
    return v, v_star, _draw_unit(draw, d)


def _normal_of(v, v_star, sigma):
    """The impact normal n = (khat - sigma)/|khat - sigma| of a sigma collision;
    None when |v - v*| = 0, and grazing sigma ~ khat is assumed away."""
    rel = v - v_star
    if not rel.any():
        return None
    diff = rel / np.linalg.norm(rel) - sigma
    assume(np.linalg.norm(diff) > 1e-4)
    return diff / np.linalg.norm(diff)


ALPHAS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
MASS_PAIRS = st.tuples(st.floats(0.1, 10.0), st.floats(-2.0, 2.0)).map(
    lambda t: geo.MassPair(t[0], t[0] * 10.0 ** t[1]))       # ratio 1e-2 .. 1e2


class TestProperties:
    @PROPERTIES
    @given(collision_inputs(), ALPHAS)
    def test_inelastic_identities(self, pair, alpha):
        v, vs, sigma = pair
        p = geo.RestitutionParams(alpha)
        scale = 1.0 + np.abs(v).max() + np.abs(vs).max()
        vp, vsp, deg = geo.inelastic_post_sigma(v, vs, sigma, p)
        assert np.allclose(vp + vsp, v + vs, rtol=0.0, atol=1e-14 * scale)
        n = _normal_of(v, vs, sigma)
        if n is None:
            assert deg and np.array_equal(vp, v) and np.array_equal(vsp, vs)
            vpn, vspn, degn = geo.inelastic_post_n(v, vs, sigma, p)
            assert degn and np.array_equal(vpn, v) and np.array_equal(vspn, vs)
            return
        assert not deg
        c = float(np.dot(v - vs, n))
        assert c >= 0.0
        # restitution: the normal relative velocity reverses with factor alpha
        assert abs(np.dot(vp - vsp, n) + alpha * c) < 1e-12 * scale
        # energy: the loss is 2 beta (1 - beta) <v - v*, n>^2
        loss = (v @ v + vs @ vs) - (vp @ vp + vsp @ vsp)
        assert abs(loss - 2.0 * p.beta * (1.0 - p.beta) * c * c) < 1e-12 * scale ** 2
        # the impact-normal form gives the same collision
        vpn, vspn, degn = geo.inelastic_post_n(v, vs, n, p)
        assert not degn
        assert np.allclose(vpn, vp, rtol=0.0, atol=1e-12 * scale)
        assert np.allclose(vspn, vsp, rtol=0.0, atol=1e-12 * scale)

    @PROPERTIES
    @given(collision_inputs(), MASS_PAIRS)
    def test_mixture_identities(self, pair, m):
        v, vs, sigma = pair
        scale = 1.0 + np.abs(v).max() + np.abs(vs).max()
        vp, vsp, deg = geo.mixture_post_sigma(v, vs, sigma, m)
        momentum = m.m_i * (vp - v) + m.m_j * (vsp - vs)
        assert np.abs(momentum).max() < 1e-13 * m.total * scale
        energy = (m.m_i * (vp @ vp - v @ v) + m.m_j * (vsp @ vsp - vs @ vs))
        assert abs(energy) < 1e-13 * m.total * scale ** 2
        n = _normal_of(v, vs, sigma)
        if n is None:
            assert deg
            assert np.allclose(vp, v, rtol=0.0, atol=1e-15 * scale)
            vpn, vspn, degn = geo.mixture_post_n(v, vs, sigma, m)
            assert degn and np.array_equal(vpn, v) and np.array_equal(vspn, vs)
            return
        assert not deg
        rel = v - vs
        # elastic: the relative speed is kept and its normal part reverses
        assert abs(np.linalg.norm(vp - vsp) - np.linalg.norm(rel)) < 1e-13 * scale
        assert abs(np.dot(vp - vsp, n) + np.dot(rel, n)) < 1e-12 * scale
        vpn, vspn, degn = geo.mixture_post_n(v, vs, n, m)
        assert not degn
        assert np.allclose(vpn, vp, rtol=0.0, atol=1e-12 * scale)
        assert np.allclose(vspn, vsp, rtol=0.0, atol=1e-12 * scale)
