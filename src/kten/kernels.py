"""Collision-kernel evaluation.

Implements the factorized kernel B = |v-v*|^gamma b(cos theta), the
Carleman-form hyperplane kernels of the inelastic and two-mass models with
their symmetrized dominants, scaling-law verification, the regularized
application of the singular operator part to C^2 test functions, the cutoff
loss rate and the Duhamel attenuation factor.

Geometry used throughout: the kernel value at a pair (center, other) with
contraction factor kappa (beta for the inelastic model, 2 m_j/(m_i+m_j) for
the mixture) is

    kappa^{2s} / l^{d+2s} * integral over the hyperplane through
    base = center - (1/kappa - 1)(other - center), normal (other - center),
    of w(x)^{gamma+2s+1} * f(x),

with l = |other - center|, in-plane radius k, and weight distance w(x) = k
for the plain kernel or |x - center| = sqrt(k^2 + (1/kappa - 1)^2 l^2) for
the symmetrized one.
The perpendicular foot of `center` on the plane is exactly `base`, which is
why the plain weight never exceeds the symmetrized one.

One evaluator, `_kernel_profile`, integrates the planes of the pairs
(center, center + l a) over directions a and lengths l (K_f_* are its
one-pair case), with radial reach |f.center - center| +
TRUNCATION_SIGMAS * f.scale + |1/kappa - 1| * max l. One direction's planes
are parallel, and the density sums f over all their rings in one call
(`DensityField.ring_sums`: a closed form at d = 3, the two points of each
ring at d = 2). The circle rule of `utils.circle_rule` goes with them for the
disk-volume check and for a field that integrates its rings by quadrature.
`_kernel_profile` weights the rings by the radial rule, checks the rule's
disk volume and warns, once per call, when the outer ring is not negligible.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import utils
from .density import TRUNCATION_SIGMAS, DensityField
from .errors import (CoincidentPoints, EqualMasses, HistoryGap, InsufficientGrid,
                     NonFiniteResult, QuadratureTruncationWarning, SingularAtZeroSpeed,
                     ValidationError)
from .geometry import MassPair, RestitutionParams

# The constant of the assembled b(cos theta) differs between the inelastic
# convention (2^{d-2}) and the elastic/mixture one (2^{d-1}); both coexist
# here, keyed by model.
_MODELS = ("inelastic", "mixture", "elastic")

# radial x angular nodes of the plane rule in verify_Kf_scaling and Q_s_apply
_PLANE_NODES = (40, 24)
# radial x angular nodes of the plane rule of one K_f_* value
_CARLEMAN_NODES = (64, 48)
# Q_s_apply's rule: the split radius r_split over 1 + |v|, the log panels inside
# and outside it, Gauss-Legendre nodes per panel, and the largest share of the
# whole that the innermost panel may carry before the value counts as divergent
_QS_SPLIT = 0.1
_QS_INNER_PANELS = 10
_QS_OUTER_PANELS = 12
_QS_GL_PER_PANEL = 6
_QS_REMAINDER_TOL = 0.05


def _b_norm_constant(model, d):
    return 2.0 ** (-(d - 2)) if model == "inelastic" else 2.0 ** (-(d - 1))


@dataclass(frozen=True)
class KernelSpec:
    """Kernel parameters: speed exponent and angular law.

    Noncutoff kernels carry the singularity order s (their smooth profile is
    the constant 1). A cutoff kernel is the uniform half-sphere law h == 1 on
    [0, pi/2]; passing that profile as `h` marks one, any other raises.
    """

    gamma: float
    d: int = 3
    s: float | None = None
    h: Callable = None
    model: str = "elastic"
    moderately_soft: bool = False

    def __post_init__(self):
        utils.check_dimension(self.d)
        if not math.isfinite(self.gamma):
            raise ValidationError(f"'gamma' must be finite, got {self.gamma}")
        if self.model not in _MODELS:
            raise ValidationError(f"'model' must be one of {_MODELS}, got {self.model!r}")
        if self.h is not None and self.s is not None:
            raise ValidationError("give either a noncutoff s or a cutoff h, not both")
        if self.h is None:
            if self.s is None or not 0.0 < self.s < 1.0:
                raise ValidationError(f"'s' must lie in (0, 1), got {self.s}")
            if self.moderately_soft and not (self.gamma < 0.0
                                             and 0.0 <= self.gamma + 2.0 * self.s <= 2.0):
                raise ValidationError(f"'gamma' and 's' must satisfy gamma < 0 <= gamma + 2s "
                                      f"<= 2 (moderately soft), got ({self.gamma}, {self.s})")
        else:
            if not 0.0 <= self.gamma <= 1.0:
                raise ValidationError(f"'gamma' must lie in [0, 1] (cutoff), got {self.gamma}")
            if any(self.h(k * math.pi / 8.0) != 1.0 for k in range(5)):
                raise ValidationError("cutoff profile h must be h == 1 (uniform)")

    @property
    def cutoff(self):
        return self.h is not None

    @property
    def angular_mass(self):
        """Measure of the half-sphere, the cutoff law's total mass; None if noncutoff."""
        return 0.5 * utils.sphere_area(self.d) if self.cutoff else None

    @property
    def assembled_b(self):
        """Full angular kernel b(cos theta) of a noncutoff spec.

        2^c b = (sin t/2)^{-(d-1)-2s} (cos t/2)^{gamma+2s+1}
        with c = d-2 for the inelastic convention and d-1 otherwise. The
        returned object is callable on cos(theta) and exposes `from_angle`
        for angles too small for cos(theta) to resolve.
        """
        if self.cutoff:
            raise ValidationError("assembled_b applies to noncutoff specs")
        return AssembledB(self)


class AssembledB:
    def __init__(self, spec):
        self.spec = spec

    def _from_halves(self, sin_half, cos_half):
        s = self.spec
        expo = s.d - 1 + 2.0 * s.s
        scale = _b_norm_constant(s.model, s.d)
        return scale * sin_half ** (-expo) * cos_half ** (s.gamma + 2.0 * s.s + 1.0)

    def __call__(self, cos_theta):
        c = np.asarray(cos_theta, dtype=float)
        sin_half = np.sqrt(np.maximum(0.5 * (1.0 - c), 0.0))
        cos_half = np.sqrt(np.maximum(0.5 * (1.0 + c), 0.0))
        return self._from_halves(sin_half, cos_half)

    def from_angle(self, theta):
        """Evaluate at the angle itself; stable down to theta ~ 1e-300."""
        t = np.asarray(theta, dtype=float)
        return self._from_halves(np.sin(0.5 * t), np.cos(0.5 * t))


def eval_B(rel_speed, cos_theta, spec: KernelSpec):
    """Kernel value B = rel_speed^gamma * b(cos theta), with b == 1 if cutoff.

    Raises SingularAtZeroSpeed for gamma < 0 at zero speed.
    """
    rel_speed = np.asarray(rel_speed, dtype=float)
    if np.any(rel_speed == 0.0) and spec.gamma < 0.0:
        raise SingularAtZeroSpeed("rel_speed = 0 with gamma < 0")
    ang = np.ones_like(cos_theta, dtype=float) if spec.cutoff else spec.assembled_b(cos_theta)
    return rel_speed ** spec.gamma * ang


def _check_disk_volume(k, wk, wang, R, d):
    # the rule must integrate the unit density over the radius-R disk exactly
    total = float(np.sum(wk * k ** (d - 2)) * np.sum(wang))
    disk = utils.ball_volume(d - 1, R) if d > 2 else 2.0 * R
    if abs(total / disk - 1.0) > 1e-8:
        raise ValueError("plane quadrature fails the unit-density volume check")


def _carleman_value(center, other, f, spec, kappa, symmetrized):
    center = np.asarray(center, dtype=float)
    other = np.asarray(other, dtype=float)
    l = float(np.linalg.norm(other - center))
    if l == 0.0:
        raise CoincidentPoints("kernel undefined at coincident points")
    plain, sym = _kernel_profile(center, ((other - center) / l)[None], np.array([l]), f,
                                 spec, kappa, *_CARLEMAN_NODES)
    return float(sym[0, 0] if symmetrized else plain[0, 0])


def K_f_inelastic(u, u_prime, f: DensityField, spec: KernelSpec,
                  p: RestitutionParams, symmetrized=False):
    """Inelastic Carleman kernel K_f(u, u'); symmetrized=True gives K-bar.

    The hyperplane passes through P = (1/beta) u' - (1/beta - 1) u with
    normal u - u'; the plain weight is the node distance to P, the
    symmetrized weight the distance to u'.
    """
    return _carleman_value(u_prime, u, f, spec, p.kappa, symmetrized)


def K_f_elastic(u, u_prime, f: DensityField, spec: KernelSpec, symmetrized=False):
    """Equal-mass elastic kernel: the kappa -> 1 degeneration (plane through u')."""
    return _carleman_value(u_prime, u, f, spec, 1.0, symmetrized)


def K_f_mixture(u, u_prime, f_j: DensityField, spec: KernelSpec, m: MassPair,
                symmetrized=False):
    """Two-mass Carleman kernel; the mass ordering picks the base point.

    For m_i < m_j the anchor is the first argument and the plane passes
    through P between u and u'; for m_i > m_j the anchor is the second
    argument and the plane passes through R on the extension. Both carry the
    prefactor (2 m_j/(m_i+m_j))^{2s}.
    """
    if m.m_i == m.m_j:
        raise EqualMasses("use K_f_elastic for equal masses")
    if m.m_i < m.m_j:
        center, other = u, u_prime
    else:
        center, other = u_prime, u
    return _carleman_value(center, other, f_j, spec, m.kappa, symmetrized)


@dataclass
class ScalingReport:
    """Measured ball integrals of the kernel around u' and their log-log slopes."""

    r: np.ndarray
    inner_second_moment: np.ndarray
    outer_integral: np.ndarray
    slopes: dict                   # regime -> (slope, ci95)
    expected: dict                 # regime -> exponent from the scaling bounds


@np.errstate(over="ignore", invalid="ignore")     # a result that is not finite raises
def verify_Kf_scaling(f: DensityField, spec: KernelSpec, params, u_prime, r_grid):
    """Measure the four ball-integral scaling regimes of the Carleman kernel.

    Computes I_in(r) = integral over B_r(u') of |u-u'|^2 Kbar and
    I_out(r) = integral outside B_r(u') of K, on a shared radial grid with
    nested spherical quadrature around u' (4 x 8 directions, 8 at d = 2;
    42 log panels of 10 Gauss-Legendre nodes in |u - u'|), and fits log-log
    slopes per regime.
    The expected exponents are 2-2s and gamma+3 (inner), -2s and gamma
    (outer); the bounds are upper bounds, so measured slopes can only be
    asserted to saturate them where the configuration allows (see tests).
    An integral that is not finite (the kernel overflows) raises NonFiniteResult.
    """
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    small = r_grid[r_grid <= 1.0]
    large = r_grid[r_grid > 1.0]
    for name, pts in (("(0,1]", small), ("(1,inf)", large)):
        if 0 < pts.size < 4:
            raise InsufficientGrid(f"need >= 4 r points in {name}, got {pts.size}")
    if r_grid.size < 4:
        raise InsufficientGrid("need at least 4 r points")
    u_prime = np.asarray(u_prime, dtype=float)
    kappa = params.kappa
    d, gamma, s = spec.d, spec.gamma, spec.s

    l_min = float(r_grid[0]) / 20.0
    l_max = float(r_grid[-1]) * 4.0
    l_nodes, l_weights = utils.panel_rule(utils.log_edges(l_min, l_max, 42), 10)
    dirs, wd = utils.sphere_rule(d, 4, 8)

    k_plain, k_sym = _kernel_profile(u_prime, dirs, l_nodes, f, spec, kappa, *_PLANE_NODES)
    # angular averages of K and K-bar times |S^{d-1}|; sum adds the rows in turn
    kern, kern_bar = sum(wd[:, None] * k_plain), sum(wd[:, None] * k_sym)

    inner_density = l_weights * l_nodes ** (d + 1) * kern_bar
    outer_density = l_weights * l_nodes ** (d - 1) * kern
    inner = np.array([float(np.sum(inner_density[l_nodes <= r])) for r in r_grid])
    outer = np.array([float(np.sum(outer_density[l_nodes > r])) for r in r_grid])
    # analytic tail beyond l_max assuming the plane integral has leveled off
    j_tail = kern[-1] * l_nodes[-1] ** (d + 2.0 * s)
    outer += j_tail * l_max ** (-2.0 * s) / (2.0 * s)
    if not (np.all(np.isfinite(inner)) and np.all(np.isfinite(outer))):
        raise NonFiniteResult(f"ball integrals are not finite on r in [{r_grid[0]:g}, "
                              f"{r_grid[-1]:g}]: the kernel overflows near u'")

    slopes = {}
    for tag, rr, vals in (("inner_small", small, inner[r_grid <= 1.0]),
                          ("outer_small", small, outer[r_grid <= 1.0]),
                          ("inner_large", large, inner[r_grid > 1.0]),
                          ("outer_large", large, outer[r_grid > 1.0])):
        if rr.size >= 4 and np.all(vals > 0):
            sl, _, _, ci = utils.fit_loglog(rr, vals)
            slopes[tag] = (sl, ci)
    expected = {"inner_small": 2.0 - 2.0 * s, "outer_small": -2.0 * s,
                "inner_large": gamma + 3.0, "outer_large": gamma}
    return ScalingReport(r=r_grid, inner_second_moment=inner, outer_integral=outer,
                         slopes=slopes, expected=expected)


def _kernel_profile(center, directions, ls, f, spec, kappa, n_radial, n_angular):
    """Plain and symmetrized kernel values (D, L) at (center, center + ls[l] directions[i]).

    Unit `directions`, ascending `ls`; the rings are summed one direction at a time.
    """
    if spec.cutoff:
        raise ValidationError("hyperplane kernels are defined for noncutoff specs")
    d, gamma, s = spec.d, spec.gamma, spec.s
    stretch = 1.0 / kappa - 1.0
    shifts = -stretch * ls
    reach = float(np.linalg.norm(f.center - center)) + TRUNCATION_SIGMAS * f.scale \
        + abs(stretch) * float(ls[-1])
    k, wk = utils.gauss_legendre(0.0, reach, n_radial)
    circle = utils.circle_rule(d, n_angular)
    _check_disk_volume(k, wk, circle[1], reach, d)
    expo = gamma + 2.0 * s + 1.0
    radial = wk * k ** (d - 2)
    w_plain = radial * k ** expo
    w_sym = radial * (k ** 2 + (abs(stretch) * ls)[:, None] ** 2) ** (0.5 * expo)   # (L, nk)
    pref = kappa ** (2.0 * s) * ls ** (-(d + 2.0 * s))
    plain, sym = np.empty((2, len(directions), ls.size))
    worst = 0.0
    for i, nhat in enumerate(directions):
        ang_sum = f.ring_sums(center, nhat, shifts, k, circle)           # (L, nk)
        for out, w in ((plain, w_plain), (sym, w_sym)):
            plane = np.sum(w * ang_sum, axis=1)
            # the outermost ring, scaled to the whole radial range, must carry
            # a negligible share of every ray's plane integral
            edge = w[..., -1] * ang_sum[:, -1] * k.size
            seen = plane > 0.0
            worst = max(worst, float(np.max(edge[seen] / plane[seen], initial=0.0)))
            out[i] = pref * plane
    if worst > 1e-8:
        warnings.warn(f"outermost plane ring carries relative weight {worst:.2e}; "
                      "R_trunc may be too small", QuadratureTruncationWarning)
    return plain, sym


@dataclass
class TestFunction:
    """C^2 test function with (optionally) known norms for diagnostics."""

    fn: Callable
    sup_norm: float | None = None
    grad_norm: float | None = None
    hess_norm: float | None = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def gaussian_bump(center, width, amplitude=1.0):
    """Gaussian bump with analytically known sup/gradient/Hessian norms."""
    c = np.asarray(center, dtype=float)

    def f(x):
        diff = x - c
        r2 = utils.row_dot(diff, diff)
        return amplitude * np.exp(-0.5 * r2 / width ** 2)

    return TestFunction(fn=f, sup_norm=amplitude,
                        grad_norm=amplitude / (width * math.sqrt(math.e)),
                        hess_norm=amplitude / width ** 2)


@dataclass
class QsResult:
    value: float
    inner_symmetric: float
    inner_correction: float
    outer: float
    bound: float | None
    bound_ratio: float | None


def Q_s_apply(f: DensityField, psi, v, spec: KernelSpec, params):
    """Principal-value application of the singular operator part to psi at v.

    Splits at |u - v| = r_split. Inside, antipodal direction pairs are summed
    exactly against the symmetrized kernel (the odd singular contribution
    cancels within each pair) and the plain-minus-symmetrized correction is
    integrated directly (it is O(l^{gamma+1-d}), integrable). Outside, the
    plain kernel is integrated directly; directions come from a 6 x 8 rule
    (16 on the circle at d = 2). Raises NonFiniteResult when the
    innermost shells keep growing, which signals a non-integrable s.
    """
    v = np.asarray(v, dtype=float)
    d, gamma, s = spec.d, spec.gamma, spec.s
    kappa = params.kappa
    r_split = _QS_SPLIT * (1.0 + float(np.linalg.norm(v)))
    psi_v = float(psi(v))

    dirs, wd = utils.sphere_rule(3, 6, 8) if d == 3 else utils.sphere_rule(2, n_azimuth=16)
    pairs = _antipodal_pairs(dirs)

    inner_edges = utils.log_edges(r_split * 1e-5, r_split, _QS_INNER_PANELS)
    li, wi = utils.panel_rule(inner_edges, _QS_GL_PER_PANEL)
    l_out_max = _outer_reach(f, v, kappa, r_split)
    louter, wouter = utils.panel_rule(utils.log_edges(r_split, l_out_max, _QS_OUTER_PANELS),
                                      _QS_GL_PER_PANEL)

    kp_in, ks_in = _kernel_profile(v, dirs, li, f, spec, kappa, *_PLANE_NODES)
    kp_out, _ = _kernel_profile(v, dirs, louter, f, spec, kappa, *_PLANE_NODES)
    inner_sym = 0.0
    inner_corr = 0.0
    outer = 0.0
    shell_track = np.zeros(li.size)
    for ia, ib in pairs:
        # exact pair sum: the odd part of the symmetrized kernel term cancels
        # between a direction and its antipode, leaving an O(l^{2}) integrand
        pair_sym = np.zeros(li.size)
        for idx in (ia, ib):
            ax = dirs[idx]
            dpsi = psi(v + li[:, None] * ax[None, :]) - psi_v
            pair_sym += wd[idx] * wi * li ** (d - 1) * ks_in[idx] * dpsi
            inner_corr += float(np.sum(wd[idx] * wi * li ** (d - 1)
                                       * (kp_in[idx] - ks_in[idx]) * dpsi))
            uo = v + louter[:, None] * ax[None, :]
            outer += float(np.sum(wd[idx] * wouter * louter ** (d - 1)
                                  * kp_out[idx] * (psi(uo) - psi_v)))
        inner_sym += float(np.sum(pair_sym))
        shell_track += pair_sym

    # remainder check: the innermost panel of the paired symmetric sum must be
    # negligible against the whole, otherwise the principal value diverges
    per_panel = np.add.reduceat(np.abs(shell_track), np.arange(0, li.size, _QS_GL_PER_PANEL))
    total = abs(inner_sym) + abs(inner_corr) + abs(outer)
    if total > 0 and per_panel[0] > _QS_REMAINDER_TOL * total:
        raise NonFiniteResult("inner shells do not converge; singularity too strong")

    value = inner_sym + inner_corr + outer
    bound = bound_ratio = None
    if getattr(psi, "sup_norm", None) is not None and psi.grad_norm and psi.hess_norm:
        mx = max(psi.hess_norm, psi.grad_norm)
        bound = psi.sup_norm ** (1.0 - s) * mx ** s \
            * (1.0 + float(np.linalg.norm(v))) ** (gamma + 2.0 * s)
        bound_ratio = abs(value) / bound if bound > 0 else math.inf
    return QsResult(value=value, inner_symmetric=inner_sym, inner_correction=inner_corr,
                    outer=outer, bound=bound, bound_ratio=bound_ratio)


def _antipodal_pairs(dirs_sorted):
    used = np.zeros(len(dirs_sorted), dtype=bool)
    pairs = []
    for i, a in enumerate(dirs_sorted):
        if used[i]:
            continue
        diff = np.linalg.norm(dirs_sorted + a, axis=1)
        j = int(np.argmin(np.where(used, np.inf, diff)))
        if diff[j] > 1e-9:
            raise ValueError("direction rule is not antipodally symmetric")
        used[i] = used[j] = True
        pairs.append((i, j))
    return pairs


def _outer_reach(f, v, kappa, r_split):
    reach_f = float(np.linalg.norm(f.center - v)) + TRUNCATION_SIGMAS * f.scale
    stretch = abs(1.0 / kappa - 1.0)
    if stretch < 1e-3:
        plane_reach = 80.0 * (1.0 + reach_f)
    else:
        plane_reach = reach_f / stretch
    return max(4.0 * r_split, min(plane_reach, 200.0 * (1.0 + reach_f)))


def cutoff_loss_rate(f_j: DensityField, v, spec: KernelSpec):
    """Loss rate L(f_j)(v) of the cutoff operator.

    Equals the half-sphere's measure (the angular mass) times the radial moment
    integral f_j(v*) |v - v*|^gamma dv*; bounded above by C (1 + |v|^gamma)
    with C depending on the mass and energy of f_j.
    """
    if not spec.cutoff:
        raise ValidationError("loss rate requires a cutoff spec")
    return spec.angular_mass * f_j.radial_moment(np.asarray(v, dtype=float), spec.gamma)


def duhamel_factor(times, rates, t1, t2):
    """Attenuation exp(-integral of summed loss rates over [t1, t2]).

    `rates` may be (n,) or (n, n_species); species are summed. Linear
    interpolation at the endpoints, trapezoid in between. Equals 1 at t1 == t2.
    """
    times = np.asarray(times, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if rates.ndim == 2:
        rates = rates.sum(axis=1)
    if times.ndim != 1 or times.size != rates.size or times.size < 1:
        raise ValidationError("times and rates must be matching 1-d sequences")
    if t1 > t2:
        raise HistoryGap("t1 must not exceed t2")
    if t1 < times[0] or t2 > times[-1]:
        raise HistoryGap(f"history [{times[0]}, {times[-1]}] does not cover "
                         f"[{t1}, {t2}]")
    if t1 == t2:
        return 1.0
    inside = (times > t1) & (times < t2)
    ts = np.concatenate([[t1], times[inside], [t2]])
    rs = np.concatenate([[np.interp(t1, times, rates)], rates[inside],
                         [np.interp(t2, times, rates)]])
    return float(np.exp(-np.trapezoid(rs, ts)))


def duhamel_lower_bound(C, t1, t2, R, gamma):
    """Closed-form attenuation floor exp(-C (t2-t1)(1 + R^gamma)) for |v| < R."""
    return float(np.exp(-C * (t2 - t1) * (1.0 + R ** gamma)))
