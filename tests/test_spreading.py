import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from kten import geometry, kernels, utils
from kten import spreading as S
from kten.errors import DegenerateGeometry, EpsOutOfRange, GuardViolated, ValidationError
from kten.utils import fit_loglog


def euler_product_oracle(tol=1e-9):
    """prod_{j>=1} (1 - 2^-j) by partial products with an explicit tail bound.

    log of the tail beyond J is bounded by sum_{j>J} 2^-j / (1 - 2^-j), so the
    partial product is within tol once 2^-J is small enough.
    """
    prod = 1.0
    j = 1
    while True:
        prod *= 1.0 - 0.5 ** j
        tail = 2.0 ** (-j) / (1.0 - 2.0 ** (-j))
        if prod * tail < tol:
            return prod
        j += 1


class TestExponentFormula:
    def test_elastic_limit_exact(self):
        assert S.growth_exponent(None) == 2.0                  # mixture
        assert S.growth_exponent(1.0 - 1e-15) == pytest.approx(2.0, abs=1e-12)

    def test_sticky_limit_value(self):
        # log 2 / (log sqrt 5 - log 2) evaluated independently
        expected = math.log(2.0) / (math.log(math.sqrt(5.0)) - math.log(2.0))
        assert expected == pytest.approx(6.2126, abs=1e-4)
        assert S.growth_exponent(0.5 + 1e-12) == pytest.approx(expected, rel=1e-9)

    def test_strictly_decreasing_with_range(self):
        betas = np.linspace(0.5 + 1e-6, 1.0 - 1e-6, 100)
        p = np.array([S.growth_exponent(b) for b in betas])
        assert np.all(np.diff(p) < 0)
        assert np.all(p > 2.0)
        assert np.all(p < math.log(2.0) / (math.log(math.sqrt(5.0)) - math.log(2.0)))


class TestSpreadingStep:
    def cfg(self, **kw):
        return S.SpreadingConfig(**kw)

    def test_exponent_q(self):
        assert self.cfg().q == 5.0            # d + 2(gamma + 2s + 1) at (3,-1,0.5)

    def test_zero_level_stays_zero(self):
        cfg = self.cfg()
        st = S.SpreadingState(n=0, T=0.0, R=1.0, eps=0.5, log_l=-1e308)
        nxt = S.spreading_step(st, cfg, 1.0)
        assert nxt.l == 0.0

    def test_update_arithmetic_oracle(self):
        # l1 = K min(t, R^-gamma eps^2s) eps^q R^{d+gamma} l0^2, straight from
        # the displayed update with q = d + 2(gamma+2s+1) = 5
        cfg = self.cfg(K=1.0, l0=0.1)
        st = S.SpreadingState(n=0, T=0.0, R=1.0, eps=0.25, log_l=math.log(0.1))
        nxt = S.spreading_step(st, cfg, t=10.0)
        expected = 1.0 * min(10.0, 1.0 * 0.25 ** 1.0) * 0.25 ** 5 * 1.0 * 0.1 ** 2
        assert nxt.l == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.25 ** 6 * 0.01, rel=1e-12)

    def test_guard_radius_times_eps(self):
        cfg = self.cfg()
        st = S.SpreadingState(n=4, T=0.4, R=3.0, eps=0.5, log_l=math.log(0.1))
        with pytest.raises(GuardViolated) as err:
            S.spreading_step(st, cfg, 0.1)
        assert "R eps" in str(err.value)
        assert err.value.n == 4

    def test_guard_level(self):
        cfg = self.cfg()
        st = S.SpreadingState(n=1, T=0.0, R=1.0, eps=0.9999, log_l=math.log(0.999))
        # eps^q R^{d+gamma} l ~ 0.999 > 1/2
        with pytest.raises(GuardViolated):
            S.spreading_step(st, cfg, 0.1)


class TestRunIteration:
    def test_defaults_run_30_steps_without_violation(self):
        trace, env = S.run_iteration(S.SpreadingConfig(), 30)
        assert len(trace) == 31
        assert trace[30].n == 30

    def test_radius_prefactor_limit(self):
        cfg = S.SpreadingConfig()
        trace, _ = S.run_iteration(cfg, 50)
        oracle = euler_product_oracle(tol=1e-9)
        assert oracle == pytest.approx(0.2887880951, abs=1e-9)
        assert abs(trace[50].R / cfg.rho ** 50 - 0.288788) < 1e-4

    def test_envelope_p_values(self):
        trace, env = S.run_iteration(S.SpreadingConfig(beta=0.8), 20)
        assert env.p == pytest.approx(math.log(2.0) / math.log(math.sqrt(1.64)),
                                      rel=1e-12)
        _, envm = S.run_iteration(S.SpreadingConfig(beta=None, masses=(1.0, 2.0)), 20)
        assert envm.p == 2.0

    def test_envelope_dominates_trace(self):
        for cfg in (S.SpreadingConfig(), S.SpreadingConfig(beta=0.6, l0=0.5),
                    S.SpreadingConfig(beta=None, masses=(1.0, 2.0), K=1e-2)):
            trace, env = S.run_iteration(cfg, 25)
            for st in trace:
                assert math.log(env.a) - env.b * st.R ** env.p <= st.log_l + 1e-9

    def test_envelope_that_overflows_is_a_guard_violation(self):
        # R grows like sqrt(2)^n, and st.R ** p raised a bare OverflowError
        cfg = S.SpreadingConfig(beta=None, masses=(1.0, 2.0))
        with pytest.raises(GuardViolated, match="no finite b fits the envelope to "
                                                "n = 1030") as err:
            S.run_iteration(cfg, 1030)
        assert err.value.n == 1030
        _, env = S.run_iteration(cfg, 1000)
        assert math.isfinite(env.b)

    def test_window_that_underflows_is_a_guard_violation(self):
        # the step takes log t, and t = T0 2^-(n+2) reaches 0 at n = 77 for
        # T0 = 1e-300; log(0) raised a bare ValueError
        with pytest.raises(GuardViolated, match="not > 0 at n = 77") as err:
            S.run_iteration(S.SpreadingConfig(T0=1e-300), 100)
        assert err.value.n == 77

    def test_nmax_validation(self):
        with pytest.raises(ValueError):
            S.run_iteration(S.SpreadingConfig(), 1)

    @pytest.mark.parametrize("masses", [(1.0,), (1.0, 2.0, 3.0)])
    def test_mixture_needs_two_masses(self, masses):
        with pytest.raises(ValueError, match="two values"):
            S.SpreadingConfig(beta=None, masses=masses)


class TestParameterWindows:
    """Each window has one check, so every caller refuses with one message."""

    @pytest.mark.parametrize("call", [
        lambda: geometry.RestitutionParams.from_beta(0.3),
        lambda: S.SpreadingConfig(beta=0.3),
        lambda: S.region_estimate_mc(1.0, 0.1, 0.3, 3, 1000),
        lambda: S.region_integral(1.0, 0.1, 0.3, 3),
    ], ids=["from_beta", "SpreadingConfig", "region_estimate_mc", "region_integral"])
    def test_beta(self, call):
        with pytest.raises(ValidationError, match=r"^'beta' must lie in \(1/2, 1\), got 0\.3$"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: kernels.KernelSpec(gamma=-1.0, d=4, s=0.5),
        lambda: S.SpreadingConfig(d=4),
        lambda: S.region_estimate_mc(1.0, 0.1, 0.8, 4, 1000),
        lambda: S.region_integral(1.0, 0.1, 0.8, 4),
        lambda: geometry.verify_identities(1, 10, 4),
        lambda: utils.sphere_rule(4),
        lambda: utils.circle_rule(4, 8),
    ], ids=["KernelSpec", "SpreadingConfig", "region_estimate_mc", "region_integral",
            "verify_identities", "sphere_rule", "circle_rule"])
    def test_dimension(self, call):
        with pytest.raises(ValidationError, match=r"^'d' must be 2 or 3, got 4$"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: kernels.KernelSpec(gamma=-1.0, s=0.2, moderately_soft=True),
        lambda: S.SpreadingConfig(gamma=-1.0, s=0.2),
    ], ids=["KernelSpec", "SpreadingConfig"])
    def test_moderately_soft(self, call):
        with pytest.raises(ValidationError, match=r"^'gamma' and 's' must satisfy gamma < 0 "
                                                  r"<= gamma \+ 2s <= 2 \(moderately soft\), "
                                                  r"got \(-1\.0, 0\.2\)$"):
            call()


class TestRegionEstimate:
    @pytest.mark.parametrize("R", [-1.0, 0.0, math.inf, math.nan])
    def test_radius_not_positive_and_finite_is_refused(self, R):
        # R = -1 gave negative estimates and stderrs, R = 0 zeros
        with pytest.raises(ValidationError, match="^'R' must be > 0 and finite"):
            S.region_estimate_mc(R, 0.1, 0.8, 3, 1000)

    def test_eps_beyond_reachability_gives_zero_with_warning(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            est, se = S.region_estimate_mc(1.0, -0.05, 0.8, 3, 20000, seed=4)
        assert est == 0.0
        assert any(issubclass(w.category, DegenerateGeometry) for w in rec)

    def test_eps_above_threshold_rejected(self):
        with pytest.raises(EpsOutOfRange):
            S.region_estimate_mc(1.0, 0.5, 0.8, 3, 1000)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(0)
        axes = rng.normal(size=(2, 3))
        vals = []
        for k, ax in enumerate(axes):
            est, se = S.region_estimate_mc(1.0, 0.1, 0.8, 3, 200000,
                                           seed=100 + k, axis=ax)
            vals.append((est, se))
        gap = abs(vals[0][0] - vals[1][0])
        assert gap < 3.0 * math.hypot(vals[0][1], vals[1][1])

    def test_thread_count_does_not_change_bits(self):
        a = S.region_estimate_mc(1.0, 0.1, 0.8, 3, 300000, seed=9, threads=1)
        b = S.region_estimate_mc(1.0, 0.1, 0.8, 3, 300000, seed=9, threads=4)
        c = S.region_estimate_mc(1.0, 0.1, 0.8, 3, 300000, seed=9, threads=8)
        assert a == b == c

    def test_working_set_is_bounded(self):
        # 1e6 samples in 131072-sample chunks, one chunk at a time: the
        # normals are reduced and freed before the radii are drawn (9.0 MiB
        # when a chunk held them beside the radii)
        grid = np.geomspace(0.01, 0.2, 8)
        tracemalloc.start()
        try:
            S.region_estimate_mc(1.0, grid, 0.8, 3, 10 ** 6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 2 ** 20

    def test_r_scaling_exact_dilation(self):
        # I(R, eps) = R^{2d-1} I(1, eps): both sides by independent MC
        v1, s1 = S.region_estimate_mc(1.0, 0.05, 0.8, 3, 10 ** 6, seed=7)
        v2, s2 = S.region_estimate_mc(2.0, 0.05, 0.8, 3, 10 ** 6, seed=8)
        assert v2 / v1 == pytest.approx(2.0 ** 5, rel=0.1)

    def test_region_lower_bound_direction(self):
        # the region integral dominates C eps^d, so its fitted exponent over
        # a small-eps window cannot exceed d. The bound is not tight: the
        # placement radius sqrt(1+beta^2)(1-eps)R stays strictly inside the
        # truly reachable set, so the integral decays slower than eps^d
        eps = np.geomspace(0.01, 0.2, 6)
        vals = [S.region_estimate_mc(1.0, float(e), 0.8, 3, 4 * 10 ** 5,
                                     seed=21)[0] for e in eps]
        slope, _, _, _ = fit_loglog(eps, vals)
        assert slope <= 3.0 + 0.2
        assert slope > 0.5

    def test_d2_supported(self):
        est, se = S.region_estimate_mc(1.0, 0.1, 0.8, 2, 100000, seed=3)
        assert est > 0.0

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("d", [2, 3])
    def test_grid_equals_one_call_per_eps(self, threads, d):
        grid = np.geomspace(0.01, 0.2, 5)
        together = S.region_estimate_mc(1.3, grid, 0.8, d, 300000, seed=5,
                                        threads=threads)
        apart = [S.region_estimate_mc(1.3, float(e), 0.8, d, 300000, seed=5,
                                      threads=threads) for e in grid]
        assert together == apart

    def test_out_of_range_eps_in_grid_raises_before_drawing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew samples before checking eps")

        monkeypatch.setattr(S.utils, "substream", no_draws)
        with pytest.raises(EpsOutOfRange, match="got 0.5"):
            S.region_estimate_mc(1.0, [0.01, 0.1, 0.5, 0.05], 0.8, 3, 1000)

    def test_degenerate_eps_in_grid_warns(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            res = S.region_estimate_mc(1.0, [0.1, -0.05], 0.8, 3, 20000, seed=4)
        assert res[0][0] > 0.0 and res[1] == (0.0, 0.0)
        assert sum(issubclass(w.category, DegenerateGeometry) for w in rec) == 1

    def test_eps_must_be_scalar_or_1d(self):
        with pytest.raises(ValueError, match="1-d grid"):
            S.region_estimate_mc(1.0, [[0.1]], 0.8, 3, 1000)


def region_reference(R, eps_grid, beta, d, samples, seed, axis=None):
    """The region estimate on full vectors: for each eps, the partner plane
    through pt = v/beta - (1/beta - 1) u with normal u - v, built from the
    same draws (normal g normalised, radius R U^(1/d)) chunk by chunk."""
    if axis is None:
        axis = np.eye(d)[0]
    axis = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    rho = math.sqrt(1.0 + beta * beta)
    totals = np.zeros((len(eps_grid), 2))
    for idx in range(-(-samples // S._REGION_CHUNK)):
        rng = S.utils.substream(seed, idx)
        n = min(S._REGION_CHUNK, samples - idx * S._REGION_CHUNK)
        g = rng.normal(size=(n, d))
        g /= np.sqrt(np.sum(g * g, axis=1))[:, None]
        u = g * (R * rng.random(n) ** (1.0 / d))[:, None]
        for k, e in enumerate(eps_grid):
            v = rho * (1.0 - e) * R * axis
            pt = v / beta - (1.0 / beta - 1.0) * u
            nvec = u - v
            nn = np.sqrt(np.sum(nvec * nvec, axis=1))
            nn[nn == 0.0] = np.inf
            dist = np.abs(np.sum(pt * nvec, axis=1)) / nn
            sect = np.maximum(R * R - dist * dist, 0.0)
            area = math.pi * sect if d == 3 else 2.0 * np.sqrt(sect)
            totals[k] += np.sum(area), np.sum(area * area)
    vol = S.utils.ball_volume(d, R)
    mean = totals[:, 0] / samples
    var = np.maximum(totals[:, 1] / samples - mean * mean, 0.0)
    return vol * mean, vol * np.sqrt(var / samples)


class FakeDraws:
    """Every sample at u = R * axis (axis = first unit vector)."""

    def __init__(self, *args):
        pass

    def normal(self, size):
        g = np.zeros(size)
        g[:, 0] = 2.5
        return g

    def random(self, n):
        return np.ones(n)


class TestRegionOnTwoScalars:
    # the CLI grid and both ends of the eps range at beta = 0.8
    GRIDS = {"cli": np.geomspace(0.01, 0.2, 8),
             "ends": np.array([-0.005, 0.0, 0.21, 0.2185, 0.21895])}

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("axis", [None, (1.0, -2.0, 0.5)])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_the_vector_formula(self, d, axis, grid):
        eps = self.GRIDS[grid]
        ax = None if axis is None else axis[:d]
        got = np.array(S.region_estimate_mc(1.0, eps, 0.8, d, 200000, seed=31, axis=ax))
        est, se = region_reference(1.0, eps, 0.8, d, 200000, 31, axis=ax)
        assert np.all(est > 0.0)
        np.testing.assert_allclose(got[:, 0], est, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got[:, 1], se, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_sample_at_the_probe_counts_as_a_plane_through_the_origin(self, d, monkeypatch):
        # the largest eps below 1 - 1/rho puts v at exactly R * axis, on the
        # samples: u - v = 0, so the distance counts as 0 and the section is
        # the whole disk, with no RuntimeWarning
        monkeypatch.setattr(S.utils, "substream", FakeDraws)
        rho = math.sqrt(1.0 + 0.8 ** 2)
        eps = float(np.nextafter(1.0 - 1.0 / rho, 0.0))
        assert rho * (1.0 - eps) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = S.region_estimate_mc(1.0, eps, 0.8, d, 1000)
        est, _ = region_reference(1.0, [eps], 0.8, d, 1000, 0)
        disk = math.pi if d == 3 else 2.0
        assert got[0] == pytest.approx(S.utils.ball_volume(d) * disk, rel=1e-12)
        assert got[0] == pytest.approx(est[0], rel=1e-12)

    def test_squared_distance_rounding_below_zero_gives_the_whole_disk(self, monkeypatch):
        # at R = 3, |u|^2 - 2c u.a + c^2 rounds below 0 for u = R * axis and
        # c one ulp above R; the sample must count as the whole disk R^2
        monkeypatch.setattr(S.utils, "substream", FakeDraws)
        rho = math.sqrt(1.0 + 0.8 ** 2)
        eps = 1.0 - 1.0 / rho
        for _ in range(3):
            eps = float(np.nextafter(eps, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = S.region_estimate_mc(3.0, eps, 0.8, 3, 1000)
        assert got[0] == pytest.approx(S.utils.ball_volume(3, 3.0) * math.pi * 9.0,
                                       rel=1e-12)


def origin_frame_integral(R, eps, beta, d):
    """I(R, eps) from its definition in the frame of the origin, by scipy's
    adaptive rules: for |u| = r and u.a = r mu, the plane through
    v/beta - (1/beta - 1) u with normal u - v meets B_R on the mu interval
    where R^2 |u - v|^2 - <pt, u - v>^2, a quadratic in mu, is >= 0; the
    section is integrated over mu (d = 3) or the polar angle (d = 2) there,
    and the shells over r from the r where that interval opens."""
    c = math.sqrt(1.0 + beta * beta) * (1.0 - eps) * R
    g, k = c * (2.0 / beta - 1.0), 1.0 / beta - 1.0

    def dist2(r, mu):
        sect = g * r * mu - c * c / beta - k * r * r
        return sect * sect / (r * r - 2.0 * c * r * mu + c * c)

    def section_range(r):
        a0, a1 = -c * c / beta - k * r * r, g * r
        lo, hi = np.sort(np.roots([a1 * a1, 2.0 * (a0 * a1 + R * R * c * r),
                                   a0 * a0 - R * R * (r * r + c * c)]).real)
        return max(lo, -1.0), min(hi, 1.0)

    def shell(r):
        lo, hi = section_range(r)
        if d == 3:
            area = quad(lambda mu: math.pi * (R * R - dist2(r, mu)), lo, hi,
                        epsabs=0.0, epsrel=1e-12, limit=200)[0]
            return 2.0 * math.pi * r * r * area
        area = quad(lambda phi: 2.0 * math.sqrt(max(R * R - dist2(r, math.cos(phi)), 0.0)),
                    math.acos(hi), math.acos(lo), epsabs=0.0, epsrel=1e-12, limit=200)[0]
        return 2.0 * r * area

    r_open = math.sqrt(c * c - R * R * beta / (2.0 - beta))
    return quad(shell, r_open, R, epsabs=0.0, epsrel=1e-12, limit=200)[0]


def eps_limit(beta):
    return 1.0 - 1.0 / math.sqrt(1.0 + beta * beta)


def eps_reach(beta):
    """The eps below which the probe lies beyond the reachable radius
    sqrt(2 / (2 - beta)) R and every plane misses the ball."""
    return 1.0 - math.sqrt(2.0 / (2.0 - beta) / (1.0 + beta * beta))


@pytest.fixture
def refined_rule(monkeypatch):
    """_region_quadrature at 128 nodes per panel, on panels that halve
    towards each end down to 1e-9."""
    monkeypatch.setattr(S, "_REGION_GRADING", 2.0)
    monkeypatch.setattr(S, "_REGION_FLOOR", 1e-9)

    def rule(R, eps, beta, d):
        return S._region_quadrature(R, math.sqrt(1.0 + beta * beta) * (1.0 - eps) * R,
                                    beta, d, 128)
    return rule


class TestRegionIntegral:
    # (beta, d, R, eps grid, axis, seed): eps <= 0 down to near the reachable
    # radius, and eps within 5e-4 of 1 - 1/rho; seeds fixed before the runs
    MC_CASES = [
        (0.8, 3, 1.0, [-0.005, 0.0, 0.01, 0.05, 0.2, 0.219], None, 2101),
        (0.8, 2, 1.0, [-0.005, 0.0, 0.01, 0.05, 0.2, 0.219], None, 2102),
        (0.6, 3, 2.0, [-0.02, 0.0, 0.03, 0.1, 0.142], (1.0, -2.0, 0.5), 2103),
        (0.95, 2, 0.5, [-0.0003, 0.0, 0.05, 0.2, 0.2745], (0.3, 1.0), 2104),
    ]
    # the eps near 1 - 1/rho: 1e-4, 1e-7 and one ulp below it
    NEAR_LIMIT = [lambda lim: lim - 1e-4, lambda lim: lim - 1e-7,
                  lambda lim: float(np.nextafter(lim, 0.0))]

    @pytest.mark.parametrize("beta, d, R, eps, axis, seed", MC_CASES,
                             ids=[f"beta{c[0]}-d{c[1]}" for c in MC_CASES])
    def test_monte_carlo_agrees_within_4_standard_errors(self, beta, d, R, eps, axis,
                                                         seed):
        mc = np.array(S.region_estimate_mc(R, eps, beta, d, 400000, seed=seed, axis=axis))
        quad_values = np.array(S.region_integral(R, eps, beta, d))[:, 0]
        assert np.all(mc[:, 1] > 0.0)
        assert np.all(np.abs(mc[:, 0] - quad_values) <= 4.0 * mc[:, 1])

    def test_cli_monte_carlo_agrees_within_3_standard_errors(self):
        # the region CLI's former output: 5a's grid, 1e6 samples, the default seed
        grid = np.geomspace(0.01, 0.2, 8)
        mc = np.array(S.region_estimate_mc(1.0, grid, 0.8, 3, 10 ** 6))
        quad_values = np.array(S.region_integral(1.0, grid, 0.8, 3))[:, 0]
        assert np.all(np.abs(mc[:, 0] - quad_values) <= 3.0 * mc[:, 1])

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("beta, R, eps", [(0.8, 1.0, 0.05), (0.8, 1.0, 0.2),
                                              (0.6, 2.0, 0.0), (0.95, 0.5, 0.1),
                                              (0.8, 1.0, -0.005)])
    def test_origin_frame_definition_agrees(self, beta, R, eps, d):
        # an independent derivation: the definition in the origin's frame,
        # integrated adaptively
        value, _ = S.region_integral(R, eps, beta, d)
        assert value == pytest.approx(origin_frame_integral(R, eps, beta, d), rel=1e-11)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("beta", [0.51, 0.8, 0.999, 1.0 - 1e-6])
    def test_within_1e_12_of_a_refined_rule(self, refined_rule, beta, d):
        lim = eps_limit(beta)
        eps = [0.5 * eps_reach(beta), 0.0, 0.01, 0.05, 0.5 * lim] \
            + [f(lim) for f in self.NEAR_LIMIT]
        for R in (1.0, 2.5):
            got = S.region_integral(R, eps, beta, d)
            for e, (value, err) in zip(eps, got):
                reference = refined_rule(R, e, beta, d)
                assert value > 0.0
                assert abs(value - reference) <= 1e-12 * reference, (R, e)
                # quad_error, the coarse rule's gap, overstates the error up to rounding
                assert abs(value - reference) <= err + 1e-13 * reference, (R, e)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.2, 0.2190, eps_limit(0.8) - 1e-7])
    def test_converges_in_the_node_count(self, refined_rule, eps, d):
        reference = refined_rule(1.0, eps, 0.8, d)
        c = math.sqrt(1.64) * (1.0 - eps)
        errors = [abs(S._region_quadrature(1.0, c, 0.8, d, n) - reference) / reference
                  for n in (4, 8, 16, 32)]
        assert errors[0] > errors[1] > 1e-12
        assert errors[2] <= 1e-12 and errors[3] <= 1e-13

    @pytest.mark.parametrize("d", [2, 3])
    def test_r_scaling(self, d):
        eps = [0.0, 0.05, 0.2, 0.219]
        unit = np.array(S.region_integral(1.0, eps, 0.8, d))[:, 0]
        for R in (0.5, 2.0, 3.7):
            scaled = np.array(S.region_integral(R, eps, 0.8, d))[:, 0]
            np.testing.assert_allclose(scaled, R ** (2 * d - 1) * unit, rtol=5e-14, atol=0.0)

    @pytest.mark.parametrize("d, slope, local_range", [(3, 1.999, (1.499, 2.216)),
                                                       (2, 1.633, (1.205, 1.882))])
    def test_local_exponents_on_the_5a_grid_lie_below_d(self, d, slope, local_range):
        # I >= C eps^d needs I / eps^d not to increase: every local exponent
        # is at most d. The quadrature gives them exactly; the fitted slope is
        # the README's figure
        grid = np.geomspace(0.01, 0.2, 8)
        values = np.array(S.region_integral(1.0, grid, 0.8, d))[:, 0]
        local = np.diff(np.log(values)) / np.diff(np.log(grid))
        assert np.all(local < d)
        assert np.all(np.diff(local[:-1]) > 0.0)
        assert (local.min(), local.max()) == pytest.approx(local_range, abs=1e-3)
        assert fit_loglog(grid, values)[0] == pytest.approx(slope, abs=5e-4)

    @pytest.mark.parametrize("d", [2, 3])
    def test_eps_beyond_reachability_gives_zero_with_one_warning(self, d):
        beyond = eps_reach(0.8) * (1.0 + 1e-9)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            got = S.region_integral(1.0, [0.1, beyond, -0.05], 0.8, d)
            inside = S.region_integral(1.0, eps_reach(0.8) * (1.0 - 1e-6), 0.8, d)
        assert got[0][0] > 0.0 and got[1:] == [(0.0, 0.0)] * 2
        assert inside[0] > 0.0
        assert sum(issubclass(w.category, DegenerateGeometry) for w in rec) == 2

    def test_eps_at_the_limit_is_refused_before_any_quadrature(self, monkeypatch):
        def no_rule(*args):
            raise AssertionError("integrated before checking eps")

        monkeypatch.setattr(S, "_region_quadrature", no_rule)
        with pytest.raises(EpsOutOfRange, match="got 0.5"):
            S.region_integral(1.0, [0.01, 0.1, 0.5], 0.8, 3)
        with pytest.raises(EpsOutOfRange):
            S.region_integral(1.0, eps_limit(0.8), 0.8, 2)

    @pytest.mark.parametrize("R", [-1.0, 0.0, math.inf, math.nan])
    def test_radius_not_positive_and_finite_is_refused(self, R):
        with pytest.raises(ValidationError, match="^'R' must be > 0 and finite"):
            S.region_integral(R, 0.1, 0.8, 3)

    def test_grid_equals_one_call_per_eps_and_values_are_floats(self):
        grid = np.geomspace(0.01, 0.2, 5)
        together = S.region_integral(1.3, grid, 0.8, 2)
        assert together == [S.region_integral(1.3, float(e), 0.8, 2) for e in grid]
        assert all(type(x) is float for pair in together for x in pair)
        with pytest.raises(ValueError, match="1-d grid"):
            S.region_integral(1.0, [[0.1]], 0.8, 3)


class TestEnvelopeEval:
    def test_at_origin(self):
        env = S.Envelope(a=0.3, b=1.0, p=2.0)
        assert S.envelope_eval_speed(env, 0.0) == pytest.approx(0.3)

    def test_unit_gaussian_point(self):
        env = S.Envelope(a=1.0, b=1.0, p=2.0)
        assert S.envelope_eval_speed(env, 1.0) == pytest.approx(math.exp(-1.0))

    def test_strictly_decreasing_in_speed(self):
        env = S.Envelope(a=1.0, b=0.5, p=2.8)
        speeds = np.linspace(0.0, 5.0, 50)
        vals = S.envelope_eval_speed(env, speeds)
        assert np.all(np.diff(vals) < 0)

    def test_batch_eval(self):
        env = S.Envelope(a=1.0, b=1.0, p=2.0)
        got = S.envelope_eval_speed(env, [1.0, 2.0])
        assert got == pytest.approx([math.exp(-1.0), math.exp(-4.0)])


class TestPlateauBump:
    def test_plateau_and_support(self):
        bump = S.plateau_bump(R=1.0, eps=0.25, rho=math.sqrt(2.0))
        r_in = math.sqrt(2.0) * 0.75
        r_out = math.sqrt(2.0) * 0.875
        assert bump(np.array([r_in * 0.99, 0.0, 0.0])) == 1.0
        assert bump(np.array([r_out * 1.01, 0.0, 0.0])) == 0.0
        mid = bump(np.array([0.5 * (r_in + r_out), 0.0, 0.0]))
        assert 0.0 < mid < 1.0
        assert bump.grad_norm > 0 and bump.hess_norm > 0
