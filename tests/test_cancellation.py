import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from kten import cancellation as C
from kten.density import DensityField
from kten.errors import ConvergenceFailure, DivergentIntegral, ValidationError
from kten.kernels import KernelSpec


def noncutoff_kernel(d, gamma, s):
    return KernelSpec(gamma=gamma, d=d, s=s, model="inelastic",
                      moderately_soft=(gamma < 0))


K3 = noncutoff_kernel(3, -1.0, 0.5)
B3 = K3.assembled_b


class TestSolveAngle:
    def test_bisection_oracle_lambda_half(self):
        a = C.solve_angle(math.pi / 2, 0.5)
        # plain bisection, written here independently
        lo, hi = 0.0, math.pi / 2
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid + math.asin(0.5 * math.sin(mid)) > math.pi / 2:
                hi = mid
            else:
                lo = mid
        assert a == pytest.approx(0.5 * (lo + hi), abs=1e-12)
        assert abs(a + math.asin(0.5 * math.sin(a)) - math.pi / 2) < 1e-13

    def test_elastic_limit_is_half_split(self):
        for w in (0.3, 1.5, 2.8, 3.1):
            assert C.solve_angle(w, 1.0 - 1e-9) == pytest.approx(w / 2.0, rel=1e-6)

    def test_endpoint_w_pi(self):
        a = C.solve_angle(math.pi, 0.7)
        assert a == pytest.approx(math.pi, abs=1e-9)
        assert math.pi - a == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_w(self):
        w = np.linspace(1e-3, math.pi - 1e-3, 1000)
        a = C.solve_angle(w, 0.62)
        assert np.all(np.diff(a) > 0)

    @pytest.mark.parametrize("lam", [1e-3, 0.2, 1.0 / 3.0, 0.62, 0.905, 0.999])
    def test_closed_form_matches_a_scalar_bisection(self, lam):
        def bisect(w):
            # a + arcsin(lam sin a) - w is increasing on (max(0, w - pi/2), w)
            lo, hi = max(0.0, w - math.pi / 2), w
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    return mid
                if mid + math.asin(lam * math.sin(mid)) > w:
                    hi = mid
                else:
                    lo = mid

        w = np.concatenate([np.geomspace(1e-9, math.pi, 60),
                            math.pi - np.geomspace(1e-9, 0.1, 10)])
        a = C.solve_angle(w, lam)
        expected = np.array([bisect(x) for x in w])
        np.testing.assert_allclose(a, expected, rtol=1e-12, atol=0.0)

    def test_residual_failure_names_the_angle(self, monkeypatch):
        monkeypatch.setattr(C, "_angle_equation", lambda a, lam: a + 1e-6)
        with pytest.raises(ConvergenceFailure, match="residual") as err:
            C.solve_angle(1.0, 0.5)
        assert "w = 1.000000" in str(err.value)
        assert "bracket" not in str(err.value)

    def test_array_with_one_bad_angle_raises_before_solving(self, monkeypatch):
        def never(a, lam):
            raise AssertionError("solved")

        monkeypatch.setattr(C, "_angle_equation", never)
        for bad in (0.0, -0.1, math.pi + 1e-9, math.nan):
            w = np.array([0.5, 1.0, bad, 2.0])
            with pytest.raises(ValueError, match=r"w must lie in \(0, pi\]"):
                C.solve_angle(w, 0.5)

    def test_scalar_and_array_agree(self):
        w = np.array([0.3, 1.5, 2.8])
        assert [C.solve_angle(float(x), 0.4) for x in w] == list(C.solve_angle(w, 0.4))
        assert isinstance(C.solve_angle(1.0, 0.4), float)


class TestAsymmetry:
    @pytest.mark.parametrize("beta", [0.5 + 1e-9, 0.55, 0.6, 0.8, 0.95, 1.0 - 1e-6])
    def test_inelastic_lam_is_beta_over_two_minus_beta(self, beta):
        assert C.inelastic_lam(beta) == beta / (2.0 - beta)

    @pytest.mark.parametrize("x", [1.0 + 1e-6, 1.5, 2.0, 3.0, 4.0, 9.0])
    def test_mixture_lam_is_one_over_the_mass_ratio_either_way(self, x):
        assert C.mixture_lam(1.0, x) == 1.0 / x
        assert C.mixture_lam(x, 1.0) == 1.0 / x

    @pytest.mark.parametrize("lam", [0.0, -0.5, 1.0 + 1e-12, 1.5, math.nan])
    def test_lam_outside_the_unit_interval_is_rejected(self, lam):
        with pytest.raises(ValueError, match=f"got {lam}"):
            C.SFunctionSpec(kernel=K3, lam=lam)

    def test_gamma_at_or_below_minus_d_is_rejected(self):
        with pytest.raises(ValueError, match="^'gamma' must be finite and > -d = -3"):
            C.SFunctionSpec(kernel=KernelSpec(gamma=-3.5, d=3, s=0.5, model="inelastic"),
                            lam=1.0)

    def test_cutoff_kernel_is_rejected(self):
        with pytest.raises(ValidationError, match="needs a noncutoff kernel"):
            C.SFunctionSpec(kernel=KernelSpec(gamma=1.0, d=3, h=lambda t: 1.0), lam=1.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_gamma_not_finite_is_rejected(self, gamma):
        # a NaN gamma passed the gamma <= -d check
        with pytest.raises(ValueError, match=f"^'gamma' must be finite.* got {gamma}"):
            C.SFunctionSpec(kernel=noncutoff_kernel(3, gamma, 0.5), lam=1.0)


def test_spec_is_frozen_so_s1_cannot_go_stale():
    spec = C.SFunctionSpec(kernel=K3, lam=0.5)
    s1 = spec.s1
    for name, value in (("lam", 0.9), ("lam", 7.0), ("gamma", 0.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, value)
    assert spec.lam == 0.5
    assert spec.s1 == s1 == C.SFunctionSpec(kernel=K3, lam=0.5).s1
    assert spec.s1 != C.SFunctionSpec(kernel=K3, lam=0.9).s1


@pytest.mark.parametrize("name,make", [
    ("_s1", lambda: C.SFunctionSpec(kernel=K3, lam=0.5, _s1=1.0)),
    ("_angular_mass", lambda: KernelSpec(gamma=1.0, d=3, h=lambda t: 1.0,
                                         _angular_mass=5.0)),
])
def test_private_caches_are_not_constructor_arguments(name, make):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        make()


class TestSValue:
    def test_elastic_formula_against_quad_oracle(self):
        el = C.SFunctionSpec(kernel=K3, lam=1.0)

        def integrand(w):
            return float(B3.from_angle(w)) * math.sin(w) \
                * (math.cos(w / 2.0) ** (-2.0) - 1.0)

        oracle, _ = quad(integrand, 0, math.pi, limit=200)
        oracle *= 2.0 * math.pi
        assert el.s1 == pytest.approx(oracle, rel=1e-8)
        assert C.S_value(1.0, el) == el.s1

    def test_inelastic_against_independent_quad_oracle(self):
        beta = 0.6
        lam = beta / (2.0 - beta)
        sp = C.SFunctionSpec(kernel=K3, lam=C.inelastic_lam(beta))

        def integrand(w):
            a = brentq(lambda x: x + math.asin(min(1.0, lam * math.sin(x))) - w,
                       max(0.0, w - math.pi / 2), w, xtol=1e-15)
            A = w - a
            br = (0.5 * beta * math.cos(a)
                  + (1 - 0.5 * beta) * math.cos(A)) ** (-2.0) - 1.0
            return float(B3.from_angle(w)) * math.sin(w) * br

        oracle, _ = quad(integrand, 1e-9, math.pi - 1e-9, limit=400)
        oracle *= 2.0 * math.pi
        assert sp.s1 == pytest.approx(oracle, rel=1e-9)

    def test_elastic_limits_all_families(self):
        el = C.SFunctionSpec(kernel=K3, lam=1.0)
        for lam in (C.inelastic_lam(1.0 - 1e-6), C.mixture_lam(1.0, 1.0 + 1e-6),
                    C.mixture_lam(1.0 + 1e-6, 1.0)):
            sp = C.SFunctionSpec(kernel=K3, lam=lam)
            assert abs(sp.s1 / el.s1 - 1.0) < 1e-3

    def test_power_law_factorization(self):
        sp = C.SFunctionSpec(kernel=K3, lam=C.inelastic_lam(0.8))
        assert C.S_value(2.0, sp) == pytest.approx(0.5 * C.S_value(1.0, sp),
                                                   rel=1e-15)

    def test_positive_across_parameters(self):
        for beta in np.linspace(0.55, 0.95, 5):
            sp = C.SFunctionSpec(kernel=K3, lam=C.inelastic_lam(float(beta)))
            assert sp.s1 > 0.0
        k2 = noncutoff_kernel(2, -0.5, 0.5)
        for lam_m in (2.0, 5.0):
            sp = C.SFunctionSpec(kernel=k2, lam=C.mixture_lam(1.0, lam_m))
            assert sp.s1 > 0.0

    def test_divergent_profile_detected(self):
        # b ~ w^{-(d-1)-2s}: at s = 0.99 the integrand ~ w^{-0.98} is too
        # singular for the mesh, so its two refinements disagree
        sp = C.SFunctionSpec(kernel=noncutoff_kernel(3, -1.0, 0.99), lam=1.0)
        with pytest.raises(DivergentIntegral):
            _ = sp.s1

    def test_rel_speed_must_be_positive(self):
        sp = C.SFunctionSpec(kernel=K3, lam=1.0)
        with pytest.raises(ValueError):
            C.S_value(0.0, sp)


class TestBracketProperties:
    @pytest.mark.parametrize("case,kw", [
        ("inelastic", dict(lam=C.inelastic_lam(0.75))),
        ("mixture_light_on_heavy", dict(lam=C.mixture_lam(1.0, 3.0))),
        ("mixture_heavy_on_light", dict(lam=C.mixture_lam(3.0, 1.0))),
        ("elastic", dict(lam=1.0)),
    ])
    def test_bracket_positive_on_dense_grid(self, case, kw):
        sp = C.SFunctionSpec(kernel=K3, **kw)
        w = np.linspace(1e-6, math.pi - 1e-9, 2000)
        assert np.all(C._bracket(sp, w) > 0.0)

    def test_near_zero_quadratic_bound(self):
        # bracket / sin^2(w/2) stays bounded on (0, 0.1]
        sp = C.SFunctionSpec(kernel=K3, lam=C.inelastic_lam(0.8))
        w = np.linspace(1e-8, 0.1, 500)
        ratio = C._bracket(sp, w) / np.sin(0.5 * w) ** 2
        bound = 2.0 * max(1.0, 3.0 + (-1.0)) * 2.0
        assert np.all(ratio > 0.0)
        assert ratio.max() < bound

    def test_mixing_weights(self):
        # _bracket weighs cos a by lam/(1 + lam): beta/2 for the inelastic
        # model, the lighter mass's share m/(m_i + m_j) for two masses
        def c_a(lam):
            return lam / (1.0 + lam)

        assert c_a(C.inelastic_lam(0.8)) == pytest.approx(0.4)
        assert c_a(C.mixture_lam(1.0, 3.0)) == pytest.approx(0.25)
        assert c_a(C.mixture_lam(3.0, 1.0)) == pytest.approx(0.25)


class TestQnsApply:
    def test_zero_level_gives_zero(self):
        sp = C.SFunctionSpec(kernel=K3, lam=C.inelastic_lam(0.8))
        f = DensityField.gaussian(3)
        assert C.Q_ns_apply(f, 0.0, np.zeros(3), sp) == 0.0

    def test_positive_and_finite_at_random_points(self):
        sp = C.SFunctionSpec(kernel=K3, lam=C.inelastic_lam(0.8))
        f = DensityField.gaussian(3)
        rng = np.random.default_rng(17)
        for _ in range(20):
            v = rng.normal(size=3) * 2.0
            val = C.Q_ns_apply(f, float(f(v)), v, sp)
            assert math.isfinite(val) and val > 0.0

    def test_value_against_coulomb_closed_form(self):
        # gamma = -1, unit Gaussian: the radial moment is erf(|v|/sqrt2)/|v|
        from scipy.special import erf
        sp = C.SFunctionSpec(kernel=K3, lam=C.inelastic_lam(0.8))
        f = DensityField.gaussian(3)
        v = np.array([1.3, 0.0, 0.0])
        expected = float(f(v)) * sp.s1 * erf(1.3 / math.sqrt(2.0)) / 1.3
        got = C.Q_ns_apply(f, float(f(v)), v, sp)
        assert got == pytest.approx(expected, rel=1e-8)

    def test_translation_covariance(self):
        sp = C.SFunctionSpec(kernel=K3, lam=C.inelastic_lam(0.8))
        shift = np.array([0.7, -1.1, 0.4])
        f0 = DensityField.gaussian(3)
        f1 = DensityField.gaussian(3, center=shift)
        v = np.array([0.4, 0.2, -0.6])
        a = C.Q_ns_apply(f0, 1.0, v, sp)
        b = C.Q_ns_apply(f1, 1.0, v + shift, sp)
        assert b == pytest.approx(a, rel=1e-9)
