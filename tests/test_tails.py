import numpy as np
import pytest

from kten import tails as T
from kten.errors import EmptySeries, InsufficientData
from kten.spreading import Envelope
from kten.utils import substream


def gaussian_sample(n, sigma=1.0, seed=31):
    rng = substream(seed, 0)
    return T.sample_stretched_exponential(n, 2.0, 0.5 / sigma ** 2, 3, rng)


def test_upper_bound_equals_the_chi2_quantile():
    # check_envelope's Poisson bound, as the chi-square quantile it replaced
    from scipy.special import gammaincinv
    from scipy.stats import chi2
    c = np.arange(200001)
    assert np.array_equal(gammaincinv(c + 1, 0.99), 0.5 * chi2.ppf(0.99, 2 * (c + 1)))


class TestHistogram:
    def test_mass_identity(self):
        v = gaussian_sample(50000)
        h = T.tail_histogram(v, weight=2e-5)
        inside = 2e-5 * np.sum(h.counts)
        assert abs(h.total_mass - inside) < 1e-9

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            T.TailHistogram(bin_edges=np.array([0.0, 1.0, 1.0]),
                            counts=np.array([1, 1]),
                            densities=np.array([1.0, 1.0]), weight=1.0, d=3)


class TestFitTailExponent:
    def test_gaussian_recovery(self):
        rng = substream(41, 0)
        v = T.sample_stretched_exponential(10 ** 6, 2.0, 0.5, 3, rng)
        h = T.tail_histogram(v, weight=1e-6)
        fit = T.fit_tail_exponent(h, T.default_fit_window(v))
        assert fit.p_hat == pytest.approx(2.0, abs=0.05)
        assert fit.b_hat == pytest.approx(0.5, rel=0.05)
        assert fit.r_squared > 0.999

    def test_quartic_recovery(self):
        rng = substream(42, 0)
        v = T.sample_stretched_exponential(10 ** 6, 4.0, 1.0, 3, rng)
        speeds = np.linalg.norm(v, axis=1)
        # a wide core bin keeps the peak-density estimate out of shot noise
        q = float(np.quantile(speeds, 0.9999))
        edges = np.concatenate([[0.0, 0.35], np.linspace(0.35, q, 36)[1:]])
        h = T.tail_histogram(v, weight=1e-6, edges=edges)
        lo, hi = np.quantile(speeds, [0.75, 0.999])
        fit = T.fit_tail_exponent(h, (float(lo), float(hi)))
        assert fit.p_hat == pytest.approx(4.0, abs=0.1)
        assert fit.b_hat == pytest.approx(1.0, rel=0.05)

    def test_zero_count_bin_raises(self):
        v = gaussian_sample(2000)
        h = T.tail_histogram(v, weight=1.0 / 2000)
        # far window has starved bins at this sample size
        with pytest.raises(InsufficientData):
            T.fit_tail_exponent(h, (3.0, 5.0))

    def test_too_few_bins_raises(self):
        v = gaussian_sample(100000)
        h = T.tail_histogram(v, weight=1e-5, n_bins=10)
        with pytest.raises(InsufficientData):
            T.fit_tail_exponent(h, (2.0, 2.5))

    def test_scale_equivariance(self):
        rng = substream(43, 0)
        v = T.sample_stretched_exponential(4 * 10 ** 5, 2.0, 0.5, 3, rng)
        h = T.tail_histogram(v, weight=1e-6)
        win = T.default_fit_window(v)
        fit = T.fit_tail_exponent(h, win)
        c = 2.5
        hs = T.tail_histogram(v * c, weight=1e-6, edges=h.bin_edges * c)
        fits = T.fit_tail_exponent(hs, (win[0] * c, win[1] * c))
        assert fits.p_hat == pytest.approx(fit.p_hat, abs=0.02)
        assert fits.b_hat == pytest.approx(fit.b_hat * c ** -fits.p_hat, rel=1e-6)


class TestCheckEnvelope:
    def setup_method(self):
        self.v = gaussian_sample(10 ** 6)
        self.h = T.tail_histogram(self.v, weight=1e-6)
        self.peak = float(np.max(self.h.densities))

    def test_vacuous_envelope_never_violated(self):
        env = Envelope(a=1e-300, b=0.5, p=2.0)
        rep = T.check_envelope(self.h, env)
        assert rep.violations == []
        assert rep.dominated

    def test_matched_b_small_a_dominated(self):
        env = Envelope(a=self.peak * 1e-3, b=0.5, p=2.0)
        rep = T.check_envelope(self.h, env)
        assert rep.violations == []

    def test_slow_decay_envelope_violated_in_outer_bins(self):
        # p = 1 decays slower than the Gaussian data: the envelope crosses
        # above the density and the outermost resolved bins must flag
        env = Envelope(a=self.peak * 0.5, b=1.0, p=1.0)
        rep = T.check_envelope(self.h, env)
        assert rep.violations
        resolved = [k for k in range(len(self.h.counts)) if self.h.counts[k] > 0]
        outer_third = resolved[2 * len(resolved) // 3:]
        assert set(rep.violations) <= set(resolved)
        assert max(rep.violations) in outer_third

    def test_empty_bins_are_unresolved_not_violations(self):
        edges = np.linspace(0.0, 12.0, 40)      # far bins certainly empty
        h = T.tail_histogram(self.v, weight=1e-6, edges=edges)
        env = Envelope(a=self.peak, b=1e-3, p=2.0)   # large envelope everywhere
        rep = T.check_envelope(h, env)
        assert rep.unresolved
        assert not set(rep.unresolved) & set(rep.violations)

    def test_monotone_in_a(self):
        for scale in (1.0, 0.3, 0.01):
            env_hi = Envelope(a=self.peak * scale, b=0.4, p=2.0)
            env_lo = Envelope(a=self.peak * scale * 0.1, b=0.4, p=2.0)
            v_hi = set(T.check_envelope(self.h, env_hi).violations)
            v_lo = set(T.check_envelope(self.h, env_lo).violations)
            assert v_lo <= v_hi


class TestUniformityScan:
    def make_series(self, times, n=200000):
        out = []
        for k, t in enumerate(times):
            v = gaussian_sample(n, seed=100 + k)
            out.append((t, T.tail_histogram(v, weight=1.0 / n)))
        return out

    def test_single_snapshot(self):
        series = self.make_series([1.0])
        env = Envelope(a=1e-12, b=0.5, p=2.0)
        rep = T.uniformity_scan(series, env, t0=0.5)
        assert len(rep.reports) == 1
        assert rep.uniform

    def test_uniform_domination(self):
        series = self.make_series([0.5, 1.0, 2.0, 4.0])
        env = Envelope(a=1e-9, b=0.5, p=2.0)
        rep = T.uniformity_scan(series, env, t0=0.1)
        assert rep.uniform and rep.first_failing_t is None

    @staticmethod
    def synthetic_hist(counts, weight=1e-5):
        counts = np.asarray(counts)
        edges = np.linspace(0.0, len(counts) * 0.1, len(counts) + 1)
        vols = np.diff([4.0 / 3.0 * np.pi * r ** 3 for r in edges])
        return T.TailHistogram(bin_edges=edges, counts=counts,
                               densities=weight * counts / vols,
                               weight=weight, d=3)

    def test_flags_earliest_failure(self):
        # aggregation logic: one doctored time with confidently-low bins
        rich = self.synthetic_hist(np.full(30, 5000))
        poor_counts = np.full(30, 5000)
        poor_counts[20:] = 1                    # populated but far below env
        poor = self.synthetic_hist(poor_counts)
        env = Envelope(a=self.synthetic_hist(np.full(30, 5000)).densities[25] * 0.5,
                       b=1e-6, p=2.0)
        series = [(1.0, rich), (2.0, poor), (3.0, rich)]
        rep = T.uniformity_scan(series, env, t0=0.0)
        assert not rep.uniform
        assert rep.first_failing_t == 2.0
        assert rep.reports[0].dominated and rep.reports[2].dominated

    def test_empty_series_raises(self):
        series = self.make_series([1.0])
        with pytest.raises(EmptySeries):
            T.uniformity_scan(series, Envelope(a=1.0, b=1.0, p=2.0), t0=5.0)
