"""Constructive lower-bound machinery.

Three pieces: the collision-geometry region integral (how much (u, v*) mass
inside a ball can produce a fixed post-collision velocity just beyond it),
by quadrature and by an independent Monte Carlo estimate; the doubling-step
update that turns a lower bound on B_R into one on B_{rho(1-eps)R} at a
squared level; and the iteration that runs the step to exhaustion and fits
the resulting stretched-exponential envelope a exp(-b |v|^p).

The growth factor rho is sqrt(1+beta^2) for the inelastic model and sqrt(2)
for the mixture, giving the tail exponent p = log 2 / log rho: exactly 2 in
the elastic/mixture case and up to log 2/(log sqrt 5 - log 2) ~ 6.2126 as
beta drops to 1/2.
"""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import utils
from .errors import DegenerateGeometry, EpsOutOfRange, GuardViolated, ValidationError
from .geometry import RestitutionParams
from .kernels import KernelSpec, TestFunction

# samples per region Monte Carlo chunk; chunk k draws from substream (seed, k),
# so this size is part of what a seed means
_REGION_CHUNK = 1 << 17
# Gauss-Legendre nodes per panel of the region quadrature: the value takes
# twice as many, and its gap to this rule is the reported quad_error
_REGION_NODES = 16
# length ratio of consecutive region quadrature panels graded towards a
# singularity near an end, and the smallest panel (in tau) that grading makes
_REGION_GRADING = 4.0
_REGION_FLOOR = 1e-6


@dataclass(frozen=True)
class Envelope:
    """Lower-bound envelope a * exp(-b |v|^p).

    Envelopes produced by the iteration always have p >= 2 (the growth
    factor never exceeds sqrt 2); arbitrary positive p is accepted so the
    tail tooling can probe synthetic slower-decay envelopes.
    """

    a: float
    b: float
    p: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.p > 0):      # NaN too
            raise ValidationError(f"'a', 'b' and 'p' must be > 0, got {self}")


def envelope_eval_speed(env: Envelope, speed):
    """a * exp(-b speed^p) for a speed or an array of speeds."""
    speed = np.asarray(speed, dtype=float)
    out = env.a * np.exp(-env.b * speed ** env.p)
    return float(out) if out.ndim == 0 else out


def growth_exponent(beta=None):
    """Tail exponent p = log 2 / log rho; beta=None selects the mixture rho.

    Written as log 2 / (log(rho^2)/2) so the elastic point rho^2 = 2 gives
    exactly 2.0 in floating point.
    """
    rho_sq = 2.0 if beta is None else 1.0 + beta * beta
    return math.log(2.0) / (0.5 * math.log(rho_sq))


@dataclass(frozen=True)
class SpreadingState:
    """Iteration state; the level l decays doubly exponentially, so its log
    is the authoritative field and `l` itself may underflow to 0.0."""

    n: int
    T: float
    R: float
    eps: float
    log_l: float

    @property
    def l(self):
        return math.exp(self.log_l) if self.log_l > -745.0 else 0.0


@dataclass(frozen=True)
class SpreadingConfig:
    """Iteration parameters. Defaults select the inelastic model at
    beta = 0.8; for the mixture iteration pass beta=None and masses=(m_i, m_j).
    """

    d: int = 3
    gamma: float = -1.0
    s: float = 0.5
    beta: float | None = 0.8
    masses: tuple | None = None
    T0: float = 0.5
    l0: float = 0.1
    K: float = 1e-3          # step constant; nonconstructive in the source model

    def __post_init__(self):
        if (self.beta is None) == (self.masses is None):
            raise ValidationError("give exactly one of 'beta' (inelastic) and 'masses' "
                                  "(mixture)")
        if self.beta is not None:
            RestitutionParams.from_beta(self.beta)
        elif len(self.masses) != 2:
            raise ValidationError(f"'masses' must hold two values, got {self.masses}")
        elif not all(m > 0 and math.isfinite(m) for m in self.masses):
            raise ValidationError(f"'masses' must be > 0 and finite, got {self.masses}")
        for name, value in (("T0", self.T0), ("l0", self.l0)):
            if not 0.0 < value < 1.0:
                raise ValidationError(f"{name!r} must lie in (0, 1), got {value}")
        if not (self.K > 0 and math.isfinite(self.K)):
            raise ValidationError(f"'K' must be > 0 and finite, got {self.K}")
        # the iteration's kernel: d, s and the moderately soft window
        KernelSpec(gamma=self.gamma, d=self.d, s=self.s, moderately_soft=True)

    @property
    def rho(self):
        return math.sqrt(1.0 + self.beta ** 2) if self.beta is not None \
            else math.sqrt(2.0)

    @property
    def q(self):
        return self.d + 2.0 * (self.gamma + 2.0 * self.s + 1.0)

    @property
    def p(self):
        return growth_exponent(self.beta)


def initial_state(cfg: SpreadingConfig) -> SpreadingState:
    # T_n = (1 - 2^-n) T0, eps_n = 2^-(n+1), R_0 = 1
    return SpreadingState(n=0, T=0.0, R=1.0, eps=0.5, log_l=math.log(cfg.l0))


def spreading_step(state: SpreadingState, cfg: SpreadingConfig, t: float) -> SpreadingState:
    """One doubling step: new level K min(t, R^-gamma eps^2s) eps^q R^{d+gamma} l^2.

    Guards eps^q R^{d+gamma} l < 1/2 and R eps < 1 must hold before the step;
    their violation is reported with the failing inequality so the caller can
    stop or re-parameterize. The level update runs in log space, so eps and
    t must be > 0: both underflow to 0 after about a thousand steps.
    """
    eps, R = state.eps, state.R
    if not (eps > 0.0 and t > 0.0):
        raise GuardViolated(f"eps = {eps:.3e}, t = {t:.3e}: not > 0 at n = {state.n}",
                            n=state.n)
    log_guard1 = cfg.q * math.log(eps) + (cfg.d + cfg.gamma) * math.log(R) + state.log_l
    if not log_guard1 < math.log(0.5):
        raise GuardViolated(
            f"eps^q R^(d+gamma) l = {math.exp(log_guard1):.3e} >= 1/2 "
            f"at n = {state.n}", n=state.n)
    if not R * eps < 1.0:
        raise GuardViolated(f"R eps = {R * eps:.3e} >= 1 at n = {state.n}", n=state.n)
    log_rate = min(math.log(t), -cfg.gamma * math.log(R) + 2.0 * cfg.s * math.log(eps))
    log_l_next = math.log(cfg.K) + log_rate + cfg.q * math.log(eps) \
        + (cfg.d + cfg.gamma) * math.log(R) + 2.0 * state.log_l
    n1 = state.n + 1
    return SpreadingState(n=n1,
                          T=(1.0 - 0.5 ** n1) * cfg.T0,
                          R=cfg.rho * (1.0 - eps) * R,
                          eps=0.5 ** (n1 + 1),
                          log_l=log_l_next)


def run_iteration(cfg: SpreadingConfig, n_max: int):
    """Run n_max spreading steps and fit the envelope.

    The step at index n uses the window length T_{n+2} - T_{n+1} = T0 2^-(n+2)
    as its time argument. The envelope fixes p from the growth factor, fits b
    on the final three trace points (the required b is monotone along the
    trace, so the late points bind), anchors a at the initial level, and is
    checked to be dominated by the trace at every step. Where no finite b
    fits (R^p overflows or log l reaches -inf, about a thousand steps out),
    it raises GuardViolated.
    """
    if n_max < 2:
        raise ValidationError(f"'n_max' must be >= 2, got {n_max}")
    state = initial_state(cfg)
    trace = [state]
    for n in range(n_max):
        t_window = cfg.T0 * 0.5 ** (n + 2)
        state = spreading_step(state, cfg, t_window)
        trace.append(state)
    p = cfg.p
    log_a = math.log(cfg.l0)
    try:
        b = max((log_a - st.log_l) / st.R ** p for st in trace[-3:])
        if any(log_a - b * st.R ** p > st.log_l + 1e-9 for st in trace):
            b = max((log_a - st.log_l) / st.R ** p for st in trace[1:])
    except OverflowError:
        b = math.inf
    if not math.isfinite(b):
        # R grows like rho^n and log l falls like -2^n: about a thousand steps
        # out, R^p overflows or log l reaches -inf, and no finite b fits
        raise GuardViolated(f"no finite b fits the envelope to n = {n_max}: "
                            f"R = {trace[-1].R:.3e}, log l = {trace[-1].log_l:.3e}",
                            n=n_max)
    return trace, Envelope(a=cfg.l0, b=b, p=p)


def _region_probes(R, eps, beta, d):
    """The checked eps as an array and the probe radius c = rho (1-eps) R at each eps.

    The checks of both region functions: beta, d, R > 0 and finite, eps a
    scalar or 1-d grid with every value below 1 - 1/rho.
    """
    RestitutionParams.from_beta(beta)
    utils.check_dimension(d)
    if not (R > 0.0 and math.isfinite(R)):
        raise ValidationError(f"'R' must be > 0 and finite, got {R}")
    eps_grid = np.asarray(eps, dtype=float)
    if eps_grid.ndim > 1:
        raise ValidationError("'eps' must be a scalar or a 1-d grid")
    rho = math.sqrt(1.0 + beta * beta)
    for e in eps_grid.ravel():
        if e >= 1.0 - 1.0 / rho:
            raise EpsOutOfRange(f"'eps' must be below 1 - 1/sqrt(1+beta^2) = "
                                f"{1.0 - 1.0 / rho:.6f}, got {float(e)}")
    return eps_grid, [rho * (1.0 - e) * R for e in eps_grid.ravel()]


def region_integral(R, eps, beta, d):
    """The region integral I(R, eps) of region_estimate_mc, by quadrature.

    Returns (value, quad_error), or a list of such pairs for a 1-d eps grid,
    with region_estimate_mc's checks, its promises and its zero value (with
    a DegenerateGeometry warning) once every plane misses the ball. value is
    the rule with 2 * _REGION_NODES nodes per panel, and quad_error its gap
    to the rule with _REGION_NODES, which overstates value's own error.

    The integral is taken in coordinates centred on the probe v = c a,
    c = rho (1-eps) R: u = v + n e with n = |u - v| and z = e.a. The partner
    plane passes through v/beta - k u = v - k n e, k = 1/beta - 1, with
    normal e, so its distance from the origin is |c z - k n|. u lies in
    B_R iff z <= z_max(n) = -(c^2 - R^2 + n^2) / (2 c n), and the plane
    meets B_R iff |c z - k n| <= R. Since c > R, z_max < 0 and
    (k n - R) / c > -1, so the domain is z in [(k n - R) / c, z_max(n)],
    open exactly for n between the roots n_lo < n_hi of
    (2/beta - 1) n^2 - 2 R n + c^2 - R^2. The roots are real iff
    c^2 < 2 R^2 / (2 - beta), the reachable radius; past it I = 0. The
    domain has no kink inside (n_lo, n_hi), so one variable change serves
    the whole range:
    - d = 3 (du = 2 pi n^2 dn dz): the integral in z of pi (R^2 - (c z - k n)^2)
      is a cubic, and I = pi^2 (2/beta - 1)^2 / (12 c) times the integral
      of (n - n_lo)^2 (n_hi - n)^2 ((2/beta - 1) n^2 + 4 R n + c^2 - R^2) / n;
    - d = 2 (du = 2 n dn dpsi, psi in [0, pi] with z = cos psi): I = 4 times
      the integral of n sqrt(R^2 - y^2), y = c cos psi - k n, over psi from
      arccos z_max to arccos((k n - R) / c). In eta = pi - psi, running from
      eta_2 to eta_1, R + y = c (cos eta_2 - cos eta) vanishes at eta_2 and
      at -eta_2, which meet as c -> R with k n small; the rule is
      Gauss-Legendre in s with eta = eta_2 cosh s, which takes the square
      root of both.
    In n the rule is Gauss-Legendre in tau with n = n_lo + (n_hi - n_lo) sin^2 tau,
    which smooths the d = 2 onsets like (n - n_lo)^(3/2) at both ends. Two
    singularities lie beyond the ends: the pole of z_max at n = 0, n_lo
    below the range, and the branch point of eta_1 at n = c + R, the far
    side of the ball, above n_hi. Both close in as eps nears 1 - 1/rho (the
    second only as beta nears 1 too), so tau is cut into panels that shrink
    by _REGION_GRADING towards each end, down to that singularity's
    distance in tau or _REGION_FLOOR.
    """
    eps_grid, cs = _region_probes(R, eps, beta, d)
    results = []
    for c in map(float, cs):
        coarse = _region_quadrature(R, c, beta, d, _REGION_NODES)
        value = _region_quadrature(R, c, beta, d, 2 * _REGION_NODES)
        if value == 0.0:
            warnings.warn("every hyperplane misses the ball", DegenerateGeometry)
        results.append((value, abs(value - coarse)))
    return results[0] if eps_grid.ndim == 0 else results


def _region_quadrature(R, c, beta, d, nodes):
    """I at probe radius c by region_integral's rule with `nodes` per panel."""
    slope = 2.0 / beta - 1.0
    k = 1.0 / beta - 1.0
    # c^2 - R^2; c = R within rounding when eps is one ulp below 1 - 1/rho
    gap = max((c - R) * (c + R), 0.0)
    disc = R * R - slope * gap
    if not disc > 0.0:
        return 0.0
    root = math.sqrt(disc)
    n_lo = gap / (R + root)           # (R - root) / slope without cancellation
    span = 2.0 * root / slope         # n_hi - n_lo
    # the distances in tau of the singularities at n = 0 and n = c + R
    lo_scale = max(math.sqrt(n_lo / span), _REGION_FLOOR)
    hi_scale = max(math.sqrt(max(c + R - (R + root) / slope, 0.0) / span), _REGION_FLOOR)
    lower, upper = [], []
    edge = 0.25 * math.pi / _REGION_GRADING
    while edge > min(lo_scale, hi_scale):
        if edge > lo_scale:
            lower.append(edge)
        if edge > hi_scale:
            upper.append(0.5 * math.pi - edge)
        edge /= _REGION_GRADING
    tau, w = utils.panel_rule([0.0, *lower[::-1], 0.25 * math.pi, *upper, 0.5 * math.pi],
                              nodes)
    above = span * np.sin(tau) ** 2       # n - n_lo
    below = span * np.cos(tau) ** 2       # n_hi - n
    n = n_lo + above
    w = w * 2.0 * np.sqrt(above * below)  # dn = 2 span sin(tau) cos(tau) dtau
    if d == 3:
        f = (above * below) ** 2 * ((slope * n + 4.0 * R) * n + gap) / n
        return math.pi ** 2 * slope ** 2 / (12.0 * c) * float(np.dot(f, w))
    # eta_2 = arccos(-z_lo) and eta_1 = arccos(-z_max)
    eta_2 = 2.0 * np.arcsin(np.sqrt((max(c - R, 0.0) + k * n) / (2.0 * c)))
    eta_1 = np.arccos((gap + n * n) / (2.0 * c * n))
    # eta_1 - eta_2 from z_max - z_lo = slope (n - n_lo)(n_hi - n) / (2 c n),
    # which has no cancellation where the range closes
    width = 2.0 * np.arcsin(slope * above * below
                            / (4.0 * c * n * np.sin(0.5 * (eta_1 + eta_2))))
    # eta = eta_2 cosh s for s in [0, acosh(eta_1 / eta_2)]
    ratio = width / eta_2
    s_1 = np.log1p(ratio + np.sqrt(ratio * (ratio + 2.0)))
    x, w_x = utils.legendre_rule(nodes)
    s = 0.5 * s_1[:, None] * (x + 1.0)
    r_plus = 2.0 * c * np.sin(eta_2[:, None] * np.cosh(0.5 * s) ** 2) \
        * np.sin(eta_2[:, None] * np.sinh(0.5 * s) ** 2)
    r_minus = R + k * n[:, None] + c * np.cos(eta_2[:, None] * np.cosh(s))
    inner = np.sqrt(r_plus * r_minus) * np.sinh(s) @ w_x * (0.5 * s_1 * eta_2)
    return 4.0 * float(np.dot(n * inner, w))


def region_estimate_mc(R, eps, beta, d, samples, seed=utils.DEFAULT_SEED,
                       threads=1, axis=None):
    """Monte Carlo region integral of the collision geometry.

    Places the post-collision velocity at |v| = sqrt(1+beta^2)(1-eps) R on
    `axis` (rotation invariance makes the choice free), samples u uniformly
    in B_R(0) and accumulates the exact slab-ball section area of the partner
    hyperplane: a (d-1)-disk of radius sqrt(R^2 - dist^2) where dist is the
    plane's distance from the origin. Returns (estimate, standard error).

    With v = c * axis, c = rho (1-eps) R, the partner plane passes through
    pt = v/beta - (1/beta - 1) u with normal u - v, so a sample enters only
    through the two scalars u.axis and |u|^2:
        <pt, u - v> = c (2/beta - 1) u.axis - c^2/beta - (1/beta - 1) |u|^2,
        |u - v|^2   = |u|^2 - 2 c u.axis + c^2.
    Each chunk of draws is reduced to these two vectors once, and every eps
    costs a few length-n operations on them. A plane through v (|u - v|^2
    rounds to 0 or below) counts as passing through the origin.

    eps may also be a 1-d grid; then the result is a list with one
    (estimate, standard error) pair per eps, each equal to the scalar call.
    The samples do not depend on eps, so a grid shares one draw per chunk
    (estimates at one seed always shared their samples); every eps is
    checked before anything is drawn.

    Working set: each thread holds one chunk of up to _REGION_CHUNK samples
    at a time. A chunk's (n, d) normals live only until they are reduced to
    u.a; after that it holds six length-n float vectors (u.a, the radii,
    |u|^2, its scaled copy and two scratch buffers), 6 MiB for a full chunk,
    whatever the length of the eps grid.

    What the estimate I(R, eps) promises:
    - scaling in R: I(R, eps) = R^(2d-1) I(1, eps);
    - the spreading lemma's lower bound: I >= C eps^d for eps in
      (0, 1 - 1/rho), rho = sqrt(1+beta^2), with C > 0 depending on beta and
      d. It is a bound, not a scaling law: over eps in [0.01, 0.2] at
      beta = 0.8, d = 3 the integral decays like ~eps^2;
    - the probe sits strictly inside the reachable set (sup |v'| exceeds
      rho R, e.g. 1.29099 R against 1.28062 R at beta = 0.8), so I(0) > 0.

    eps may be <= 0. Once v lies beyond the maximal reachable radius (eps
    below about -0.0081 at beta = 0.8) every plane misses the ball and the
    estimate is 0, flagged with a DegenerateGeometry warning. eps at or
    above 1 - 1/sqrt(1+beta^2) puts v inside B_R where the spreading regime
    does not apply, and raises. R must be positive and finite.

    region_integral computes the same integral by quadrature; this estimate
    is its independent check.
    """
    eps_grid, cs = _region_probes(R, eps, beta, d)
    if axis is None:
        axis = np.zeros(d)
        axis[0] = 1.0
    else:
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)

    n_chunks = (samples + _REGION_CHUNK - 1) // _REGION_CHUNK
    sizes = [min(_REGION_CHUNK, samples - i * _REGION_CHUNK) for i in range(n_chunks)]

    def one_chunk(idx):
        rng = utils.substream(seed, idx)
        n = sizes[idx]
        g = rng.normal(size=(n, d))
        # u = radius * g / |g| enters only through u.a and |u|^2; g is reduced
        # to u.a / radius and freed before radius is drawn
        ua = utils.row_dot(g, axis)
        ua /= np.sqrt(utils.row_dot(g, g))
        del g
        radius = R * rng.random(n) ** (1.0 / d)
        ua *= radius
        uu = radius * radius
        soft_uu = (1.0 / beta - 1.0) * uu
        # two scratch buffers per chunk: threads run chunks side by side
        nn = np.empty(n)
        sect = np.empty(n)
        sums = []
        for c in cs:
            # |u - v|^2 = |u|^2 - 2c u.a + c^2
            np.multiply(ua, -2.0 * c, out=nn)
            nn += uu
            nn += c * c
            # <pt, u - v> with pt = v / beta - (1/beta - 1) u
            np.multiply(ua, c * (2.0 / beta - 1.0), out=sect)
            sect -= c * c / beta
            sect -= soft_uu
            sect *= sect
            if not nn.min() > 0.0:
                # a plane through v: its distance from the origin counts as 0
                np.copyto(nn, np.inf, where=nn <= 0.0)
            # R^2 - dist^2, the squared radius of the plane's section of B_R
            sect /= nn
            np.subtract(R * R, sect, out=sect)
            np.maximum(sect, 0.0, out=sect)
            if d == 3:
                sect *= math.pi
            else:
                np.sqrt(sect, out=sect)
                sect *= 2.0
            np.multiply(sect, sect, out=nn)
            sums.append((float(np.sum(sect)), float(np.sum(nn))))
        return sums, n

    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one_chunk, range(n_chunks)))
    else:
        parts = [one_chunk(i) for i in range(n_chunks)]
    n = sum(p[1] for p in parts)
    vol = utils.ball_volume(d, R)
    results = []
    for k in range(len(cs)):
        # fixed chunk-order reduction keeps the float result thread-count independent
        total = sum(p[0][k][0] for p in parts)
        total_sq = sum(p[0][k][1] for p in parts)
        mean = total / n
        var = max(total_sq / n - mean * mean, 0.0)
        estimate = vol * mean
        stderr = vol * math.sqrt(var / n)
        if estimate == 0.0:
            warnings.warn("every sampled hyperplane missed the ball",
                          DegenerateGeometry)
        results.append((estimate, stderr))
    return results[0] if eps_grid.ndim == 0 else results


def plateau_bump(R, eps, rho):
    """Smooth test function: 1 on |u| <= rho R (1-eps), 0 beyond rho R (1-eps/2).

    Transition profile exp(1 - 1/(1-x^2)), infinitely smooth at both ends.
    Norm attributes are sampled estimates of the 1-d profile scaled by the
    transition width; adequate for bound diagnostics.
    """
    r_in = rho * R * (1.0 - eps)
    r_out = rho * R * (1.0 - 0.5 * eps)
    width = r_out - r_in

    def profile(x):
        x = np.clip(x, 0.0, 1.0 - 1e-12)
        return np.exp(1.0 - 1.0 / (1.0 - x * x))

    def f(u):
        u = np.asarray(u, dtype=float)
        speed = np.linalg.norm(u, axis=-1)
        t = np.clip((speed - r_in) / width, 0.0, 1.0)
        out = np.where(speed <= r_in, 1.0, np.where(speed >= r_out, 0.0, profile(t)))
        return float(out) if out.ndim == 0 else out

    xs = np.linspace(0.0, 1.0 - 1e-9, 4001)
    prof = profile(xs)
    g1 = np.max(np.abs(np.gradient(prof, xs)))
    g2 = np.max(np.abs(np.gradient(np.gradient(prof, xs), xs)))
    return TestFunction(fn=f, sup_norm=1.0, grad_norm=float(g1) / width,
                        hess_norm=float(g2) / width ** 2)
