"""Empirical tail analysis of particle ensembles.

Speed histograms are isotropized: counts over |v| shells divided by shell
volume estimate the phase-space density f(|v|). Tail fitting recovers the
stretched-exponential form a exp(-b r^p) by regressing log(-log(f/a)) on
log r; envelope checking tests pointwise domination with a Poisson
confidence guard so shot noise cannot manufacture violations. Desk-scale
data resolve only a bounded speed range; every report says which range that
was and treats everything beyond it as unresolved, never as a violation.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import utils
from .errors import EmptySeries, InsufficientData, ValidationError
from .spreading import Envelope, envelope_eval_speed

_FIT_MIN_BINS = 8         # bins a tail-fit window must hold
_FIT_MIN_COUNT = 10       # counts each of those bins must hold
_CONFIDENCE = 0.99        # level of the Poisson upper bound in check_envelope


@dataclass
class TailHistogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    densities: np.ndarray       # weight * count / shell volume
    weight: float
    d: int

    def __post_init__(self):
        self.bin_edges = np.asarray(self.bin_edges, dtype=float)
        self.counts = np.asarray(self.counts)
        self.densities = np.asarray(self.densities, dtype=float)
        if np.any(np.diff(self.bin_edges) <= 0):
            raise ValidationError("bin edges must be strictly increasing")

    @property
    def centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def shell_volumes(self):
        vols = np.array([utils.ball_volume(self.d, r) for r in self.bin_edges])
        return np.diff(vols)

    @property
    def total_mass(self):
        return float(np.sum(self.densities * self.shell_volumes))


def tail_histogram(velocities, weight, edges=None, n_bins=50):
    """Isotropized speed histogram of a velocity array.

    Default edges span [0, 5 sigma] where sigma is the per-component scale
    sqrt(<|v|^2>/d). Particles beyond the last edge are excluded from the
    histogram (and from its mass identity).
    """
    v = np.asarray(velocities, dtype=float)
    d = v.shape[1]
    speeds = np.sqrt(utils.row_dot(v, v))
    if edges is None:
        sigma = math.sqrt(float(np.mean(speeds ** 2)) / d)
        edges = np.linspace(0.0, 5.0 * sigma, n_bins + 1)
    edges = np.asarray(edges, dtype=float)
    counts, _ = np.histogram(speeds, bins=edges)
    vols = np.diff([utils.ball_volume(d, r) for r in edges])
    densities = weight * counts / vols
    return TailHistogram(bin_edges=edges, counts=counts, densities=densities,
                         weight=weight, d=d)


def speed_scale(velocities):
    v = np.asarray(velocities, dtype=float)
    return math.sqrt(float(np.mean(utils.row_dot(v, v))) / v.shape[1])


def default_fit_window(velocities):
    """[2 sigma, 4 sigma]: below it the bulk dominates, above it counts starve."""
    s = speed_scale(velocities)
    return 2.0 * s, 4.0 * s


@dataclass
class TailFit:
    p_hat: float
    b_hat: float
    a_hat: float
    r_squared: float


def fit_tail_exponent(hist: TailHistogram, window):
    """Fit a exp(-b r^p) on the bins inside `window`.

    a_hat is the peak density of the whole histogram; the regression is
    log(-log(f/a_hat)) against log r, whose slope is p and intercept log b.
    Raises InsufficientData unless the window holds at least _FIT_MIN_BINS
    (8) bins, every one with at least _FIT_MIN_COUNT (10) counts.
    """
    lo, hi = window
    centers = hist.centers
    sel = (centers >= lo) & (centers <= hi)
    if int(np.sum(sel)) < _FIT_MIN_BINS:
        raise InsufficientData(
            f"window [{lo:.3g}, {hi:.3g}] holds {int(np.sum(sel))} bins, "
            f"need {_FIT_MIN_BINS}")
    if np.any(hist.counts[sel] < _FIT_MIN_COUNT):
        raise InsufficientData(
            f"window contains bins with fewer than {_FIT_MIN_COUNT} counts")
    a_hat = float(np.max(hist.densities))
    dens = hist.densities[sel]
    if np.any(dens >= a_hat):
        raise InsufficientData("window overlaps the density peak; move it outward")
    y = np.log(-np.log(dens / a_hat))
    x = np.log(centers[sel])
    slope, intercept, r2, _ = utils.fit_linear(x, y)
    return TailFit(p_hat=float(slope), b_hat=float(math.exp(intercept)),
                   a_hat=a_hat, r_squared=float(r2))


@dataclass
class DominationReport:
    violations: list            # bin indices with confident envelope violation
    unresolved: list            # zero-count bin indices (never violations)
    resolved_range: tuple       # (min, max) center speed of populated bins

    @property
    def dominated(self):
        return len(self.violations) == 0


def check_envelope(hist: TailHistogram, env: Envelope):
    """Check pointwise density >= envelope at bin centers.

    A populated bin is a violation only when even its upper Poisson
    confidence bound at level _CONFIDENCE (0.99) falls below the envelope, so shot
    noise cannot create spurious violations. Empty bins are unresolved. The
    bound on a count c is gammaincinv(c + 1, 0.99) = 0.5 chi2.ppf(0.99, 2c + 2).
    """
    from scipy.special import gammaincinv
    centers = hist.centers
    populated = hist.counts > 0
    upper_count = gammaincinv(hist.counts + 1, _CONFIDENCE)
    upper_density = hist.weight * upper_count / hist.shell_volumes
    below = upper_density < envelope_eval_speed(env, centers)
    violations = np.flatnonzero(populated & below).tolist()
    unresolved = np.flatnonzero(~populated).tolist()
    resolved = (float(centers[populated].min()), float(centers[populated].max())) \
        if populated.any() else (math.nan, math.nan)
    return DominationReport(violations=violations, unresolved=unresolved,
                            resolved_range=resolved)


@dataclass
class UniformityReport:
    reports: list
    uniform: bool
    first_failing_t: float | None


def uniformity_scan(hist_series, env: Envelope, t0):
    """Apply check_envelope across a time series of histograms.

    `hist_series` is a sequence of (t, TailHistogram); only t > t0 enters.
    The scan is uniform when one fixed envelope is dominated at every time.
    """
    selected = [(t, h) for t, h in hist_series if t > t0]
    if not selected:
        raise EmptySeries(f"no snapshots after t0 = {t0}")
    reports = []
    first_failing = None
    for t, h in sorted(selected, key=lambda th: th[0]):
        rep = check_envelope(h, env)
        reports.append(rep)
        if not rep.dominated and first_failing is None:
            first_failing = t
    return UniformityReport(reports=reports,
                            uniform=first_failing is None,
                            first_failing_t=first_failing)


def report(snapshots, env: Envelope, t0):
    """Tail fit of every snapshot and one uniformity scan per species.

    `snapshots` yields (species, t, weight, velocities) and is read once, so
    only histograms outlive a snapshot. Each species lists its times in
    order, every one with its fit or the InsufficientData message; those
    after t0 add the violations, unresolved bin count and resolved range
    of the scan.
    """
    series, entries = {}, {}
    for sp, t, weight, v in snapshots:
        h = tail_histogram(v, weight)
        try:
            fit = fit_tail_exponent(h, default_fit_window(v))
            fit_map = {"p_hat": fit.p_hat, "b_hat": fit.b_hat,
                       "a_hat": fit.a_hat, "r_squared": fit.r_squared}
        except InsufficientData as exc:
            fit_map = {"error": str(exc)}
        series.setdefault(sp, []).append((t, h))
        entries.setdefault(sp, []).append({"t": t, "fit": fit_map})
    species = []
    for sp in sorted(series):
        scan = uniformity_scan(series[sp], env, t0)
        times = sorted(entries[sp], key=lambda e: e["t"])
        # the scan keeps t > t0 in time order, so its reports pair by position
        for entry, rep in zip([e for e in times if e["t"] > t0], scan.reports):
            entry.update(violations=rep.violations, unresolved_bins=len(rep.unresolved),
                         resolved_range=list(rep.resolved_range))
        species.append({"species": sp, "uniform": scan.uniform,
                        "first_failing_t": scan.first_failing_t, "times": times})
    return {"t0": t0, "species": species,
            "note": "domination is tested on the resolved speed range only"}


def sample_stretched_exponential(n, p, b, d, rng):
    """Exact sampler of the velocity density proportional to exp(-b |v|^p).

    Speeds come from r = U^{1/p} with U ~ Gamma(d/p, 1/b); directions are
    uniform. Used as the independent oracle for the tail fitter.
    """
    u = rng.gamma(shape=d / p, scale=1.0 / b, size=n)
    r = u ** (1.0 / p)
    g = rng.normal(size=(n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * r[:, None]
