import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from kten import kernels as K
from kten import utils
from kten.cli import dispatch
from kten.density import DensityField
from kten.errors import (CoincidentPoints, EqualMasses, HistoryGap,
                         InsufficientGrid, QuadratureTruncationWarning, SingularAtZeroSpeed)
from kten.geometry import MassPair, RestitutionParams

GAUSS3 = DensityField.gaussian(3)
# the unit Gaussian declaring a scale of 0.1: the plane reach it implies
# stops well inside the bulk of f
UNDERSTATED3 = dataclasses.replace(GAUSS3, scale=0.1)
SOFT3 = K.KernelSpec(gamma=-1.0, d=3, s=0.5, model="inelastic", moderately_soft=True)
SOFT3_MIX = K.KernelSpec(gamma=-1.0, d=3, s=0.5, model="mixture", moderately_soft=True)
BETA08 = RestitutionParams.from_beta(0.8)
CUTOFF3 = K.KernelSpec(gamma=1.0, d=3, h=lambda t: 1.0, model="inelastic")


def brute_force_plane_integral(u, u_prime, f, spec, kappa, half_width=9.0, n=751):
    """Independent oracle: dense trapezoid integration over the Carleman plane."""
    u, u_prime = np.asarray(u, float), np.asarray(u_prime, float)
    l = np.linalg.norm(u - u_prime)
    nhat = (u - u_prime) / l
    base = u_prime - (1.0 / kappa - 1.0) * l * nhat
    # explicit tangent pair, not shared with the implementation
    t1 = np.cross(nhat, [0.0, 0.0, 1.0])
    if np.linalg.norm(t1) < 1e-8:
        t1 = np.cross(nhat, [0.0, 1.0, 0.0])
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(nhat, t1)
    g = np.linspace(-half_width, half_width, n)
    X, Y = np.meshgrid(g, g, indexing="ij")
    pts = base + X[..., None] * t1 + Y[..., None] * t2
    k = np.sqrt(X ** 2 + Y ** 2)
    cos_t = 1.0 - 2.0 * l * l / (l * l + (kappa * k) ** 2)
    w = k ** (spec.gamma + 2.0 * spec.s + 1.0) * spec.btilde(cos_t)
    integrand = w * f(pts)
    plane = np.trapezoid(np.trapezoid(integrand, g, axis=1), g)
    return kappa ** (2.0 * spec.s) * l ** (-(3 + 2.0 * spec.s)) * plane


class TestEvalB:
    def test_power_law_in_speed(self):
        spec = K.KernelSpec(gamma=-1.0, d=3, s=0.5, model="inelastic",
                            moderately_soft=True)
        v1 = K.eval_B(1.0, 0.3, spec)
        v2 = K.eval_B(2.0, 0.3, spec)
        assert v2 == pytest.approx(0.5 * v1, rel=1e-14)

    def test_right_angle_matches_assembled_normalization(self):
        spec = K.KernelSpec(gamma=0.0, d=3, s=0.5, model="elastic")
        # at theta = pi/2: sin = cos = 1/sqrt2; 2^{d-1} b = 2^{(d-1+2s)/2} 2^{-(g+2s+1)/2}
        expected = 2.0 ** (-(3 - 1)) * (1 / math.sqrt(2)) ** (-(2 + 1.0)) \
            * (1 / math.sqrt(2)) ** (0.0 + 1.0 + 1.0)
        assert K.eval_B(5.0, 0.0, spec) == pytest.approx(expected, rel=1e-12)

    def test_grazing_singularity_order(self):
        # b(cos t) t^{d-1+2s} tends to a finite positive limit as t -> 0
        spec = K.KernelSpec(gamma=-1.0, d=3, s=0.5, model="inelastic",
                            moderately_soft=True)
        b = spec.assembled_b
        vals = [float(b.from_angle(t)) * t ** (3 - 1 + 1.0)
                for t in (1e-3, 1e-5, 1e-7)]
        assert vals[0] > 0
        assert vals[2] == pytest.approx(vals[1], rel=1e-3)
        assert vals[1] == pytest.approx(2.0 ** (1 + 2 * spec.s), rel=1e-2)

    def test_zero_speed_negative_gamma_raises(self):
        with pytest.raises(SingularAtZeroSpeed):
            K.eval_B(0.0, 0.5, SOFT3)

    def test_moderately_soft_validation(self):
        with pytest.raises(ValueError):
            K.KernelSpec(gamma=0.5, d=3, s=0.5, model="inelastic",
                         moderately_soft=True)
        with pytest.raises(ValueError):
            K.KernelSpec(gamma=-1.0, d=3, s=0.1, model="inelastic",
                         moderately_soft=True)   # gamma + 2s < 0

    def test_cutoff_hard_potentials_validation(self):
        with pytest.raises(ValueError):
            K.KernelSpec(gamma=1.5, d=3, h=lambda t: 1.0, model="mixture")
        spec = K.KernelSpec(gamma=1.0, d=3, h=lambda t: 1.0, model="mixture")
        assert spec.angular_mass == pytest.approx(2.0 * math.pi, rel=1e-9)


class TestCarlemanKernels:
    def test_zero_density_gives_zero(self):
        zero = DensityField(d=3,
                            evaluator=lambda v: np.zeros(v.shape[:-1]),
                            mass=0.0, energy=0.0, center=np.zeros(3), scale=1.0)
        val = K.K_f_inelastic(np.ones(3), np.zeros(3), zero, SOFT3, BETA08)
        assert val == 0.0

    def test_coincident_points_rejected(self):
        with pytest.raises(CoincidentPoints):
            K.K_f_inelastic(np.ones(3), np.ones(3), GAUSS3, SOFT3, BETA08)

    def test_against_brute_force_oracle(self):
        u_prime = np.array([0.3, -0.2, 0.1])
        u = np.array([1.0, 0.7, -0.4])
        oracle = brute_force_plane_integral(u, u_prime, GAUSS3, SOFT3, BETA08.beta)
        val = K.K_f_inelastic(u, u_prime, GAUSS3, SOFT3, BETA08)
        assert val == pytest.approx(oracle, rel=1e-5)

    def test_d2_against_brute_force_line_integral(self):
        # at d = 2 the partner set is a line; dense trapezoid oracle
        f2 = DensityField.gaussian(2)
        spec2 = K.KernelSpec(gamma=-1.0, d=2, s=0.5, model="inelastic",
                             moderately_soft=True)
        u, up = np.array([0.9, 0.4]), np.array([0.1, -0.2])
        beta = BETA08.beta
        l = np.linalg.norm(u - up)
        nhat = (u - up) / l
        base = up - (1.0 / beta - 1.0) * l * nhat
        t = np.array([-nhat[1], nhat[0]])
        g = np.linspace(-10.0, 10.0, 200001)
        k = np.abs(g)
        cos_t = 1.0 - 2.0 * l * l / (l * l + (beta * k) ** 2)
        integ = k ** (spec2.gamma + 2.0 * spec2.s + 1.0) \
            * spec2.btilde(cos_t) * f2(base + g[:, None] * t)
        oracle = beta ** (2 * spec2.s) * l ** (-(2 + 2 * spec2.s)) \
            * np.trapezoid(integ, g)
        val = K.K_f_inelastic(u, up, f2, spec2, BETA08)
        assert val == pytest.approx(oracle, rel=1e-7)

    def test_small_separation_power_law(self):
        # K_f(u' + r a, u') ~ r^{-(d+2s)} times a slowly varying plane integral
        vals = []
        for r in (1e-2, 1e-3):
            vals.append(K.K_f_inelastic(np.array([r, 0, 0]), np.zeros(3),
                                        GAUSS3, SOFT3, BETA08))
        slope = math.log(vals[1] / vals[0]) / math.log(0.1)
        assert slope == pytest.approx(-(3 + 2 * 0.5), abs=1e-3)

    def test_plain_dominated_by_symmetrized(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = rng.normal(size=3)
            up = rng.normal(size=3)
            if np.linalg.norm(u - up) < 1e-3:
                continue
            plain = K.K_f_inelastic(u, up, GAUSS3, SOFT3, BETA08,
                                    n_radial=24, n_angular=12)
            sym = K.K_f_inelastic(u, up, GAUSS3, SOFT3, BETA08,
                                  symmetrized=True, n_radial=24, n_angular=12)
            assert 0.0 <= plain <= sym * (1.0 + 1e-12)

    def test_truncation_warning_on_undersized_plane(self):
        u_prime = np.zeros(3)
        u = np.array([1.0, 0.0, 0.0])
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            K.K_f_inelastic(u, u_prime, GAUSS3, SOFT3, BETA08)
            assert rec == []
            K.K_f_inelastic(u, u_prime, UNDERSTATED3, SOFT3, BETA08)
        assert [w.category for w in rec] == [QuadratureTruncationWarning]

    def test_disk_volume_checked_on_every_evaluation(self, monkeypatch):
        k, wk = utils.gauss_legendre(0.0, 9.0, 64)
        _, wang = utils.circle_rule(3, 48)
        K._check_disk_volume(k, wk, wang, 9.0, 3)
        with pytest.raises(ValueError, match="volume check"):
            K._check_disk_volume(k, wk, wang, 10.0, 3)
        # radial nodes that stop short of the reach fail inside the evaluator
        rule = utils.gauss_legendre
        monkeypatch.setattr(utils, "gauss_legendre", lambda a, b, n: rule(a, 0.9 * b, n))
        with pytest.raises(ValueError, match="volume check"):
            K.K_f_inelastic(np.ones(3), np.zeros(3), GAUSS3, SOFT3, BETA08)

    def test_profile_warns_once_on_undersized_plane(self):
        ls = np.array([0.1, 0.5, 2.0])
        others = ls[:, None] * np.array([0.6, 0.0, 0.8])
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            K._kernel_profile(np.zeros(3), others, ls, UNDERSTATED3, SOFT3, 0.8, 40, 24)
        assert [w.category for w in rec] == [QuadratureTruncationWarning]

    def test_cutoff_spec_rejected(self):
        with pytest.raises(ValueError, match="noncutoff"):
            K.K_f_inelastic(np.ones(3), np.zeros(3), GAUSS3, CUTOFF3, BETA08)

    def test_symmetrized_reflection_symmetry(self):
        # exact for densities symmetric about u'; here f is centered at u' = 0
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = rng.normal(size=3)
            a = K.K_f_inelastic(w, np.zeros(3), GAUSS3, SOFT3, BETA08,
                                symmetrized=True)
            b = K.K_f_inelastic(-w, np.zeros(3), GAUSS3, SOFT3, BETA08,
                                symmetrized=True)
            assert a == pytest.approx(b, rel=1e-8)

    def test_mixture_domination(self):
        rng = np.random.default_rng(5)
        for masses in (MassPair(1.0, 2.0), MassPair(2.0, 1.0)):
            for _ in range(100):
                u, up = rng.normal(size=3), rng.normal(size=3)
                if np.linalg.norm(u - up) < 1e-3:
                    continue
                plain = K.K_f_mixture(u, up, GAUSS3, SOFT3_MIX, masses,
                                      n_radial=24, n_angular=12)
                sym = K.K_f_mixture(u, up, GAUSS3, SOFT3_MIX, masses,
                                    symmetrized=True, n_radial=24, n_angular=12)
                assert plain <= sym * (1.0 + 1e-12)

    def test_mixture_equal_masses_rejected(self):
        with pytest.raises(EqualMasses):
            K.K_f_mixture(np.ones(3), np.zeros(3), GAUSS3, SOFT3_MIX,
                          MassPair(1.0, 1.0))

    def test_mixture_equal_mass_limit_light_branch(self):
        # the light-partner kernel anchors the plane at its first argument
        u = np.array([0.4, 0.1, -0.2])
        up = np.array([-0.3, 0.5, 0.2])
        ke = K.K_f_elastic(up, u, GAUSS3, SOFT3_MIX)
        diffs = []
        for ratio in (1.001, 1.0005):
            km = K.K_f_mixture(u, up, GAUSS3, SOFT3_MIX, MassPair(1.0, ratio))
            diffs.append(abs(km / ke - 1.0))
        assert diffs[0] < 1e-3
        # first-order convergence in the mass gap
        assert diffs[1] / diffs[0] == pytest.approx(0.5, abs=0.1)

    def test_mixture_equal_mass_limit_heavy_branch(self):
        u = np.array([0.4, 0.1, -0.2])
        up = np.array([-0.3, 0.5, 0.2])
        ke = K.K_f_elastic(u, up, GAUSS3, SOFT3_MIX)
        diffs = []
        for ratio in (1.001, 1.0005):
            km = K.K_f_mixture(u, up, GAUSS3, SOFT3_MIX, MassPair(ratio, 1.0))
            diffs.append(abs(km / ke - 1.0))
        assert diffs[0] < 1e-3
        assert diffs[1] / diffs[0] == pytest.approx(0.5, abs=0.1)


class TestScalingReport:
    def test_insufficient_grid(self):
        with pytest.raises(InsufficientGrid):
            K.verify_Kf_scaling(GAUSS3, SOFT3, BETA08, np.zeros(3),
                                [0.1, 0.5, 2.0, 4.0, 8.0, 16.0])

    def test_small_r_regimes_at_beta_08(self):
        # the two small-r exponents saturate for any restitution
        r_grid = np.concatenate([np.geomspace(1e-3, 1.0, 8),
                                 np.geomspace(2.0, 30.0, 5)])
        rep = K.verify_Kf_scaling(GAUSS3, SOFT3, BETA08, np.zeros(3), r_grid)
        assert rep.slopes["inner_small"][0] == pytest.approx(1.0, abs=0.1)
        assert rep.slopes["outer_small"][0] == pytest.approx(-1.0, abs=0.1)
        # the large-r bounds hold one-sidedly: measured decay is at least as
        # fast as the bound exponents allow
        assert rep.slopes["inner_large"][0] <= rep.expected["inner_large"] + 0.1
        assert rep.slopes["outer_large"][0] <= rep.expected["outer_large"] + 0.1

    @pytest.mark.parametrize("gamma,s", [(-1.0, 0.5), (-0.6, 0.3)])
    def test_saturable_exponents_two_parameter_pairs(self, gamma, s):
        # moderately soft pairs with gamma = -2s: near the elastic limit the
        # inner-small, outer-small and outer-large exponents all saturate;
        # inner-large stays a one-sided bound for rapidly decaying densities
        spec = K.KernelSpec(gamma=gamma, d=3, s=s, model="inelastic",
                            moderately_soft=True)
        p = RestitutionParams.from_beta(1.0 - 1e-3)
        r_grid = np.concatenate([np.geomspace(1e-3, 1.0, 8),
                                 np.geomspace(2.0, 60.0, 6)])
        rep = K.verify_Kf_scaling(GAUSS3, spec, p, np.zeros(3), r_grid)
        assert rep.slopes["inner_small"][0] == pytest.approx(2 - 2 * s, abs=0.1)
        assert rep.slopes["outer_small"][0] == pytest.approx(-2 * s, abs=0.1)
        assert rep.slopes["outer_large"][0] == pytest.approx(gamma, abs=0.1)
        assert rep.slopes["inner_large"][0] <= gamma + 3.0 + 0.1

    def test_cutoff_spec_rejected(self):
        with pytest.raises(ValueError, match="noncutoff"):
            K.verify_Kf_scaling(GAUSS3, CUTOFF3, BETA08, np.zeros(3),
                                np.concatenate([np.geomspace(1e-2, 1.0, 4),
                                                np.geomspace(2.0, 10.0, 4)]))


class TestPlaneRule:
    @pytest.mark.parametrize("d,expected", [(3, math.pi * 4.0 ** 2), (2, 8.0)])
    def test_disk_volume_check(self, d, expected):
        # the radial and circle rules _kernel_profile combines
        k, wk = utils.gauss_legendre(0.0, 4.0, 64)
        _, wang = utils.circle_rule(d, 48)
        total = float(np.sum(wk * k ** (d - 2)) * np.sum(wang))
        assert total == pytest.approx(expected, rel=1e-10)

    def test_nodes_lie_on_the_plane(self):
        # every point f is handed lies on its own pair's plane, through
        # center - (1/kappa - 1)(other - center) with normal other - center
        center = np.array([0.3, -0.4, 1.0])
        ls = np.array([0.2, 0.7, 1.5])
        dirs = np.array([[1.0, 2.0, -0.5], [0.0, 0.0, 1.0], [-0.6, 0.8, 0.0]])
        others = center + ls[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]
        seen = []

        def record(v):
            seen.append(np.array(v))
            return GAUSS3.evaluator(v)

        kappa = 0.8
        K._kernel_profile(center, others, ls, dataclasses.replace(GAUSS3, evaluator=record),
                          SOFT3, kappa, 40, 24)
        (pts,) = seen
        assert pts.shape == (3, 40, 24, 3)
        bases = center - (1.0 / kappa - 1.0) * (others - center)
        normals = (others - center) / ls[:, None]
        res = np.einsum("lkmd,ld->lkm", pts - bases[:, None, None, :], normals)
        assert np.abs(res).max() < 1e-12


class TestQsApply:
    def test_constant_test_function_gives_zero(self):
        psi = K.TestFunction(fn=lambda x: np.full(np.asarray(x).shape[:-1], 3.0),
                             sup_norm=3.0, grad_norm=0.0, hess_norm=0.0)
        res = K.Q_s_apply(GAUSS3, psi, np.array([0.5, 0.0, 0.0]), SOFT3, BETA08)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_linearity(self):
        psi1 = K.gaussian_bump(np.array([0.5, 0.0, 0.0]), 0.8)
        psi2 = K.gaussian_bump(np.array([-0.3, 0.4, 0.0]), 1.1)
        v = np.array([0.2, 0.1, -0.3])
        q1 = K.Q_s_apply(GAUSS3, psi1, v, SOFT3, BETA08).value
        q2 = K.Q_s_apply(GAUSS3, psi2, v, SOFT3, BETA08).value
        combo = K.TestFunction(fn=lambda x: 2.0 * psi1(x) - 0.7 * psi2(x))
        q12 = K.Q_s_apply(GAUSS3, combo, v, SOFT3, BETA08).value
        assert q12 == pytest.approx(2.0 * q1 - 0.7 * q2, rel=1e-9)

    def test_bound_ratio_reported_and_finite(self):
        psi = K.gaussian_bump(np.zeros(3), 1.0)
        ratios = []
        for speed in (0.0, 2.0, 5.0, 10.0):
            v = np.array([speed, 0.0, 0.0])
            res = K.Q_s_apply(GAUSS3, psi, v, SOFT3, BETA08)
            assert math.isfinite(res.value)
            assert res.bound is not None and res.bound > 0
            ratios.append(res.bound_ratio)
        assert max(ratios) < 50.0     # measured constant, reported not asserted a priori

    def test_remainder_guard_raises(self):
        from kten.errors import NonFiniteResult
        psi = K.gaussian_bump(np.zeros(3), 1.0)
        with pytest.raises(NonFiniteResult):
            K.Q_s_apply(GAUSS3, psi, np.array([0.5, 0.0, 0.0]), SOFT3, BETA08,
                        remainder_tol=0.0)

    def test_split_radius_independence(self):
        # the principal-value split is a bookkeeping choice; the value must
        # not depend on where the inner/outer boundary sits
        psi = K.gaussian_bump(np.array([0.4, 0.0, 0.0]), 0.9)
        v = np.array([0.3, -0.2, 0.1])
        vals = [K.Q_s_apply(GAUSS3, psi, v, SOFT3, BETA08, r_split=rs,
                            inner_panels=14, outer_panels=16,
                            gl_per_panel=8).value
                for rs in (0.06, 0.12, 0.2)]
        assert vals[1] == pytest.approx(vals[0], rel=2e-3)
        assert vals[2] == pytest.approx(vals[0], rel=2e-3)

    def test_cutoff_spec_rejected(self):
        with pytest.raises(ValueError, match="noncutoff"):
            K.Q_s_apply(GAUSS3, K.gaussian_bump(np.zeros(3), 1.0),
                        np.array([0.5, 0.0, 0.0]), CUTOFF3, BETA08)


def test_truncation_warning_quiet_on_shipped_configs(tmp_path):
    # the kernel-scaling defaults and the benchmark's Q_s_apply call must
    # resolve every plane integral inside the default reach
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureTruncationWarning)
        assert dispatch(["kernel-scaling", "--output-dir", str(tmp_path), "--quiet"]) == 0
        res = K.Q_s_apply(GAUSS3, K.gaussian_bump(np.array([0.1, -0.3, 0.2]), 1.0),
                          np.array([0.3, 0.4, 0.0]), SOFT3, BETA08)
    assert math.isfinite(res.value)


def _f8_digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


# sha256 of the benchmark's two library operations on fixed inputs, recorded
# before the plane points, radial shells and test bump were summed column by
# column (x86-64, numpy 2.4). A change here is a change of computed numbers.
GOLDEN_DIRECTION = np.array([1.0, 2.0, 2.0]) / 3.0
QS_APPLY_DIGEST = "9a1836ebe1fa2cfb7c8cda74dce2bc710c640cb8423c728ca7cc338d6816a73a"
LOSS_RATES_DIGEST = "e1566050b4a3070bf1107d18cda1138693e58ee0b9a0f053c5182ead5fc32a15"


def test_Q_s_apply_golden_digest():
    res = K.Q_s_apply(GAUSS3, K.gaussian_bump([0.1, -0.2, 0.3], 1.0),
                      0.5 * GOLDEN_DIRECTION, SOFT3, BETA08)
    assert _f8_digest([res.value, res.inner_symmetric, res.inner_correction,
                       res.outer]) == QS_APPLY_DIGEST


def test_cutoff_loss_rate_golden_digest():
    # speeds beyond 2 sigma take radial_moment's shells around the density
    # center, the others its shells around v
    rates = [K.cutoff_loss_rate(GAUSS3, s * GOLDEN_DIRECTION, CUTOFF3)
             for s in np.linspace(0.0, 5.0, 20)]
    assert _f8_digest(rates) == LOSS_RATES_DIGEST


class TestCutoffLossRate:
    def test_gamma_zero_is_constant_in_v(self):
        spec = K.KernelSpec(gamma=0.0, d=3, h=lambda t: 1.0, model="mixture")
        vals = [K.cutoff_loss_rate(GAUSS3, np.array([s, 0.0, 0.0]), spec)
                for s in (0.3, 1.7, 9.0)]
        expected = spec.angular_mass * GAUSS3.mass
        for v in vals:
            assert v == pytest.approx(expected, rel=1e-9)

    def test_narrow_source_grows_linearly_for_gamma_one(self):
        spec = K.KernelSpec(gamma=1.0, d=3, h=lambda t: 1.0, model="mixture")
        narrow = DensityField.gaussian(3, sigma=0.05)
        for speed in (20.0, 50.0):
            val = K.cutoff_loss_rate(narrow, np.array([0.0, 0.0, speed]), spec)
            assert val / (spec.angular_mass * speed) == pytest.approx(1.0, rel=1e-3)

    def test_envelope_ratio_bounded(self):
        spec = K.KernelSpec(gamma=1.0, d=3, h=lambda t: 1.0, model="mixture")
        speeds = np.linspace(0.1, 50.0, 25)
        ratios = [K.cutoff_loss_rate(GAUSS3, np.array([s, 0.0, 0.0]), spec)
                  / (1.0 + s ** spec.gamma) for s in speeds]
        assert max(ratios) / min(ratios) < 10.0
        assert max(ratios) < 4.0 * spec.angular_mass

    def test_noncutoff_spec_rejected(self):
        with pytest.raises(ValueError):
            K.cutoff_loss_rate(GAUSS3, np.zeros(3), SOFT3)


class TestDuhamel:
    def test_equal_endpoints(self):
        assert K.duhamel_factor([0.0, 1.0], [2.0, 2.0], 0.5, 0.5) == 1.0

    def test_constant_rate_closed_form(self):
        times = np.linspace(0.0, 3.0, 31)
        rates = np.full(31, 1.7)
        got = K.duhamel_factor(times, rates, 0.4, 2.2)
        assert got == pytest.approx(math.exp(-1.7 * 1.8), rel=1e-12)

    def test_species_rates_are_summed(self):
        times = np.linspace(0.0, 1.0, 11)
        rates = np.stack([np.full(11, 1.0), np.full(11, 0.5)], axis=1)
        got = K.duhamel_factor(times, rates, 0.0, 1.0)
        assert got == pytest.approx(math.exp(-1.5), rel=1e-12)

    def test_history_gap(self):
        with pytest.raises(HistoryGap):
            K.duhamel_factor([0.0, 1.0], [1.0, 1.0], 0.5, 2.0)

    def test_lower_bound_respected(self):
        # rates capped by C (1 + R^gamma) imply G >= exp(-C dt (1 + R^gamma))
        times = np.linspace(0.0, 2.0, 41)
        C, R, gamma = 1.3, 4.0, 1.0
        rng = np.random.default_rng(0)
        rates = C * (1.0 + R ** gamma) * rng.random(41)
        got = K.duhamel_factor(times, rates, 0.2, 1.9)
        floor = K.duhamel_lower_bound(C, 0.2, 1.9, R, gamma)
        assert got >= floor
