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
    of btilde(cos theta) * w(x)^{gamma+2s+1} * f(x),

with l = |other - center|, cos theta = 1 - 2 l^2/(l^2 + kappa^2 k^2) at
in-plane radius k, and weight distance w(x) = k for the plain kernel or
|x - center| = sqrt(k^2 + (1/kappa - 1)^2 l^2) for the symmetrized one.
The perpendicular foot of `center` on the plane is exactly `base`, which is
why the plain weight never exceeds the symmetrized one.

One evaluator, `_kernel_profile`, integrates the planes of a batch of pairs
sharing `center` (K_f_* are its one-pair case), with radial reach
|f.center - center| + TRUNCATION_SIGMAS * f.scale + |1/kappa - 1| * max l. It
checks the rule's disk volume and warns when the outer ring is not negligible.
"""

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import utils
from .density import TRUNCATION_SIGMAS, DensityField
from .errors import (CoincidentPoints, EqualMasses, HistoryGap, InsufficientGrid,
                     NonFiniteResult, QuadratureTruncationWarning, SingularAtZeroSpeed)
from .geometry import MassPair, RestitutionParams

# The constant relating the assembled b(cos theta) to the smooth profile
# btilde differs between the inelastic convention (2^{d-2}) and the
# elastic/mixture one (2^{d-1}); both coexist here, keyed by model.
_MODELS = ("inelastic", "mixture", "elastic")


def _b_norm_constant(model, d):
    return 2.0 ** (-(d - 2)) if model == "inelastic" else 2.0 ** (-(d - 1))


def _const_profile(x):
    return np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class KernelSpec:
    """Kernel parameters: speed exponent, angular singularity, profile.

    Noncutoff kernels carry a smooth profile btilde(cos theta) and the
    singularity order s; cutoff kernels carry h(theta) on [0, pi/2] instead.
    """

    gamma: float
    d: int = 3
    s: float | None = None
    btilde: Callable = None
    h: Callable = None
    model: str = "elastic"
    moderately_soft: bool = False
    _angular_mass: float = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError("only d = 2 and d = 3 are supported")
        if self.model not in _MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.h is not None and self.s is not None:
            raise ValueError("give either a noncutoff s/btilde or a cutoff h, not both")
        if self.h is None:
            if self.s is None or not 0.0 < self.s < 1.0:
                raise ValueError("noncutoff spec needs s in (0, 1)")
            if self.btilde is None:
                object.__setattr__(self, "btilde", _const_profile)
            if self.moderately_soft:
                if not (self.gamma < 0.0 and 0.0 <= self.gamma + 2.0 * self.s <= 2.0):
                    raise ValueError("moderately soft requires gamma < 0 and "
                                     "gamma + 2s in [0, 2]")
        else:
            if not 0.0 <= self.gamma <= 1.0:
                raise ValueError("cutoff spec requires hard potentials gamma in [0, 1]")
        object.__setattr__(self, "_angular_mass", self._check_angular_integrable())

    @property
    def cutoff(self):
        return self.h is not None

    def _check_angular_integrable(self):
        from scipy.integrate import quad
        if self.cutoff:
            val, _ = quad(lambda t: self.h(t) * math.sin(t) ** (self.d - 2),
                          0.0, math.pi / 2)
        else:
            val, _ = quad(lambda t: float(self.btilde(math.cos(t))) * math.sin(t) ** (self.d - 2),
                          0.0, math.pi)
        val *= utils.sphere_area(self.d - 1)
        if not np.isfinite(val):
            raise ValueError("angular profile is not integrable")
        return float(val)

    @property
    def angular_mass(self):
        """Sphere integral of the smooth profile (btilde or h)."""
        return self._angular_mass

    @property
    def assembled_b(self):
        """Full angular kernel b(cos theta) built from btilde.

        2^c b = (sin t/2)^{-(d-1)-2s} (cos t/2)^{gamma+2s+1} btilde(cos t)
        with c = d-2 for the inelastic convention and d-1 otherwise. The
        returned object is callable on cos(theta) and exposes `from_angle`
        for angles too small for cos(theta) to resolve.
        """
        if self.cutoff:
            raise ValueError("assembled_b applies to noncutoff specs")
        return AssembledB(self)


class AssembledB:
    def __init__(self, spec):
        self.spec = spec

    def _from_halves(self, sin_half, cos_half, cos_theta):
        s = self.spec
        expo = s.d - 1 + 2.0 * s.s
        scale = _b_norm_constant(s.model, s.d)
        return scale * sin_half ** (-expo) * cos_half ** (s.gamma + 2.0 * s.s + 1.0) \
            * s.btilde(cos_theta)

    def __call__(self, cos_theta):
        c = np.asarray(cos_theta, dtype=float)
        sin_half = np.sqrt(np.maximum(0.5 * (1.0 - c), 0.0))
        cos_half = np.sqrt(np.maximum(0.5 * (1.0 + c), 0.0))
        return self._from_halves(sin_half, cos_half, c)

    def from_angle(self, theta):
        """Evaluate at the angle itself; stable down to theta ~ 1e-300."""
        t = np.asarray(theta, dtype=float)
        sin_half, cos_half = np.sin(0.5 * t), np.cos(0.5 * t)
        return self._from_halves(sin_half, cos_half, 1.0 - 2.0 * sin_half ** 2)


def eval_B(rel_speed, cos_theta, spec: KernelSpec):
    """Kernel value B = rel_speed^gamma * b(cos theta).

    Raises SingularAtZeroSpeed for gamma < 0 at zero speed.
    """
    rel_speed = np.asarray(rel_speed, dtype=float)
    if np.any(rel_speed == 0.0) and spec.gamma < 0.0:
        raise SingularAtZeroSpeed("rel_speed = 0 with gamma < 0")
    cos_theta = np.asarray(cos_theta, dtype=float)
    if spec.cutoff:
        ang = spec.h(np.arccos(np.clip(cos_theta, -1.0, 1.0)))
    else:
        ang = spec.assembled_b(cos_theta)
    return rel_speed ** spec.gamma * ang


def _check_disk_volume(k, wk, wang, R, d):
    # the rule must integrate the unit density over the radius-R disk exactly
    total = float(np.sum(wk * k ** (d - 2)) * np.sum(wang))
    disk = utils.ball_volume(d - 1, R) if d > 2 else 2.0 * R
    if abs(total / disk - 1.0) > 1e-8:
        raise ValueError("plane quadrature fails the unit-density volume check")


def _carleman_value(center, other, f, spec, kappa, symmetrized, n_radial=64, n_angular=48):
    center = np.asarray(center, dtype=float)
    other = np.asarray(other, dtype=float)
    l = float(np.linalg.norm(other - center))
    if l == 0.0:
        raise CoincidentPoints("kernel undefined at coincident points")
    plain, sym = _kernel_profile(center, other[None], np.array([l]), f, spec, kappa,
                                 n_radial, n_angular)
    return float(sym[0] if symmetrized else plain[0])


def K_f_inelastic(u, u_prime, f: DensityField, spec: KernelSpec,
                  p: RestitutionParams, symmetrized=False, **kw):
    """Inelastic Carleman kernel K_f(u, u'); symmetrized=True gives K-bar.

    The hyperplane passes through P = (1/beta) u' - (1/beta - 1) u with
    normal u - u'; the plain weight is the node distance to P, the
    symmetrized weight the distance to u'.
    """
    return _carleman_value(u_prime, u, f, spec, p.kappa, symmetrized, **kw)


def K_f_elastic(u, u_prime, f: DensityField, spec: KernelSpec, symmetrized=False, **kw):
    """Equal-mass elastic kernel: the kappa -> 1 degeneration (plane through u')."""
    return _carleman_value(u_prime, u, f, spec, 1.0, symmetrized, **kw)


def K_f_mixture(u, u_prime, f_j: DensityField, spec: KernelSpec, m: MassPair,
                symmetrized=False, **kw):
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
    return _carleman_value(center, other, f_j, spec, m.kappa, symmetrized, **kw)


@dataclass
class ScalingReport:
    """Measured ball integrals of the kernel around u' and their log-log slopes."""

    r: np.ndarray
    inner_second_moment: np.ndarray
    outer_integral: np.ndarray
    slopes: dict                   # regime -> (slope, ci95)
    expected: dict                 # regime -> exponent from the scaling bounds
    gamma: float
    s: float


def verify_Kf_scaling(f: DensityField, spec: KernelSpec, params, u_prime, r_grid,
                      n_dirs=(4, 8), n_radial_l=14, gl_per_panel=10,
                      plane_nodes=(40, 24)):
    """Measure the four ball-integral scaling regimes of the Carleman kernel.

    Computes I_in(r) = integral over B_r(u') of |u-u'|^2 Kbar and
    I_out(r) = integral outside B_r(u') of K, on a shared radial grid with
    nested spherical quadrature around u', and fits log-log slopes per regime.
    The expected exponents are 2-2s and gamma+3 (inner), -2s and gamma
    (outer); the bounds are upper bounds, so measured slopes can only be
    asserted to saturate them where the configuration allows (see tests).
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
    panels = utils.log_edges(l_min, l_max, n_radial_l * 3)
    l_nodes, l_weights = utils.panel_rule(panels, gl_per_panel)

    if d == 3:
        dirs, wd = utils.sphere_rule(3, n_dirs[0], n_dirs[1])
    else:
        dirs, wd = utils.sphere_rule(2, n_azimuth=max(8, n_dirs[1]))

    n_r, n_a = plane_nodes
    kern = np.zeros(l_nodes.size)       # angular average of K times |S^{d-1}|
    kern_bar = np.zeros(l_nodes.size)
    for a, w in zip(dirs, wd):
        us = u_prime + l_nodes[:, None] * a[None, :]
        k_plain, k_sym = _kernel_profile(u_prime, us, l_nodes, f, spec, kappa, n_r, n_a)
        kern += w * k_plain
        kern_bar += w * k_sym

    inner_density = l_weights * l_nodes ** (d + 1) * kern_bar
    outer_density = l_weights * l_nodes ** (d - 1) * kern
    inner = np.array([float(np.sum(inner_density[l_nodes <= r])) for r in r_grid])
    outer = np.array([float(np.sum(outer_density[l_nodes > r])) for r in r_grid])
    # analytic tail beyond l_max assuming the plane integral has leveled off
    j_tail = kern[-1] * l_nodes[-1] ** (d + 2.0 * s)
    outer += j_tail * l_max ** (-2.0 * s) / (2.0 * s)

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
                         slopes=slopes, expected=expected, gamma=gamma, s=s)


def _kernel_profile(center, others, ls, f, spec, kappa, n_radial, n_angular):
    """Plain and symmetrized kernel values at (center, others[i]), ls ascending."""
    if spec.cutoff:
        raise ValueError("hyperplane kernels are defined for noncutoff specs")
    d, gamma, s = spec.d, spec.gamma, spec.s
    stretch = 1.0 / kappa - 1.0
    nhats = (others - center) / ls[:, None]
    bases = center - stretch * ls[:, None] * nhats
    offsets = abs(stretch) * ls
    reach = float(np.linalg.norm(f.center - center)) + TRUNCATION_SIGMAS * f.scale \
        + abs(stretch) * float(ls[-1])
    k, wk = utils.gauss_legendre(0.0, reach, n_radial)
    ang, wang = utils.circle_rule(d, n_angular)
    _check_disk_volume(k, wk, wang, reach, d)
    tangents = utils.tangent_basis(nhats)                            # (L, d-1, d)
    inplane = np.einsum("me,led->lmd", ang, tangents)                # (L, m, d)
    # bases + k * inplane, built one coordinate at a time so that f reads
    # contiguous columns of its (L, nk, m, d) argument
    pts = np.empty((d, len(ls), k.size, inplane.shape[1]))
    for j in range(d):
        np.multiply(k[None, :, None], inplane[:, None, :, j], out=pts[j])
        pts[j] += bases[:, j, None, None]
    vals = f(np.moveaxis(pts, 0, -1))                                # (L, nk, m)
    cos_theta = 1.0 - 2.0 * ls[:, None] ** 2 / (ls[:, None] ** 2 + (kappa * k[None, :]) ** 2)
    prof = spec.btilde(cos_theta)
    expo = gamma + 2.0 * s + 1.0
    w_plain = k ** expo
    w_sym = (k[None, :] ** 2 + offsets[:, None] ** 2) ** (0.5 * expo)
    radial = wk * k ** (d - 2)
    ang_sum = vals @ wang                                            # (L, nk)
    rings_plain = radial[None, :] * prof * w_plain[None, :] * ang_sum
    rings_sym = radial[None, :] * prof * w_sym * ang_sum
    plane_plain = np.sum(rings_plain, axis=1)
    plane_sym = np.sum(rings_sym, axis=1)
    # the outermost ring, scaled to the whole radial range, must carry a
    # negligible share of every ray's plane integral
    edge = [rings[plane > 0.0, -1] * k.size / plane[plane > 0.0]
            for rings, plane in ((rings_plain, plane_plain), (rings_sym, plane_sym))]
    worst = max((float(np.max(e)) for e in edge if e.size), default=0.0)
    if worst > 1e-8:
        warnings.warn(f"outermost plane ring carries relative weight {worst:.2e}; "
                      "R_trunc may be too small", QuadratureTruncationWarning)
    pref = kappa ** (2.0 * s) * ls ** (-(d + 2.0 * s))
    return pref * plane_plain, pref * plane_sym


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
    r_split: float
    bound: float | None
    bound_ratio: float | None


def Q_s_apply(f: DensityField, psi, v, spec: KernelSpec, params, r_split=None,
              n_dirs=(6, 8), inner_panels=10, outer_panels=12, gl_per_panel=6,
              plane_nodes=(40, 24), remainder_tol=0.05):
    """Principal-value application of the singular operator part to psi at v.

    Splits at |u - v| = r_split. Inside, antipodal direction pairs are summed
    exactly against the symmetrized kernel (the odd singular contribution
    cancels within each pair) and the plain-minus-symmetrized correction is
    integrated directly (it is O(l^{gamma+1-d}), integrable). Outside, the
    plain kernel is integrated directly. Raises NonFiniteResult when the
    innermost shells keep growing, which signals a non-integrable s.
    """
    v = np.asarray(v, dtype=float)
    d, gamma, s = spec.d, spec.gamma, spec.s
    kappa = params.kappa
    if r_split is None:
        r_split = 0.1 * (1.0 + float(np.linalg.norm(v)))
    psi_v = float(psi(v))

    if d == 3:
        dirs, wd = utils.sphere_rule(3, n_dirs[0], n_dirs[1])
    else:
        dirs, wd = utils.sphere_rule(2, n_azimuth=2 * n_dirs[1])
    pairs = _antipodal_pairs(dirs)

    n_r, n_a = plane_nodes
    inner_edges = utils.log_edges(r_split * 1e-5, r_split, inner_panels)
    li, wi = utils.panel_rule(inner_edges, gl_per_panel)
    l_out_max = _outer_reach(f, v, kappa, r_split)
    louter, wouter = utils.panel_rule(utils.log_edges(r_split, l_out_max, outer_panels),
                                      gl_per_panel)

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
            us = v + li[:, None] * ax[None, :]
            kp, ks = _kernel_profile(v, us, li, f, spec, kappa, n_r, n_a)
            dpsi = psi(us) - psi_v
            pair_sym += wd[idx] * wi * li ** (d - 1) * ks * dpsi
            inner_corr += float(np.sum(wd[idx] * wi * li ** (d - 1)
                                       * (kp - ks) * dpsi))
            uo = v + louter[:, None] * ax[None, :]
            kpo, _ = _kernel_profile(v, uo, louter, f, spec, kappa, n_r, n_a)
            outer += float(np.sum(wd[idx] * wouter * louter ** (d - 1)
                                  * kpo * (psi(uo) - psi_v)))
        inner_sym += float(np.sum(pair_sym))
        shell_track += pair_sym

    # remainder check: the innermost panel of the paired symmetric sum must be
    # negligible against the whole, otherwise the principal value diverges
    per_panel = np.add.reduceat(np.abs(shell_track), np.arange(0, li.size, gl_per_panel))
    total = abs(inner_sym) + abs(inner_corr) + abs(outer)
    if total > 0 and per_panel[0] > remainder_tol * total:
        raise NonFiniteResult("inner shells do not converge; singularity too strong")

    value = inner_sym + inner_corr + outer
    bound = bound_ratio = None
    if getattr(psi, "sup_norm", None) is not None and psi.grad_norm and psi.hess_norm:
        mx = max(psi.hess_norm, psi.grad_norm)
        bound = psi.sup_norm ** (1.0 - s) * mx ** s \
            * (1.0 + float(np.linalg.norm(v))) ** (gamma + 2.0 * s)
        bound_ratio = abs(value) / bound if bound > 0 else math.inf
    return QsResult(value=value, inner_symmetric=inner_sym, inner_correction=inner_corr,
                    outer=outer, r_split=r_split, bound=bound, bound_ratio=bound_ratio)


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

    Equals the angular mass of h times the radial moment
    integral f_j(v*) |v - v*|^gamma dv*; bounded above by C (1 + |v|^gamma)
    with C depending on the mass and energy of f_j.
    """
    if not spec.cutoff:
        raise ValueError("loss rate requires a cutoff spec")
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
        raise ValueError("times and rates must be matching 1-d sequences")
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
