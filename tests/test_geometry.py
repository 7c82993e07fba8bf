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
