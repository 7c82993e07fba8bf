"""Evaluable velocity-space densities and quadrature against them.

A DensityField wraps either an analytic nonnegative f(v) or a particle
ensemble turned into a histogram lookup. Kernel and cancellation code only
needs three things from it: pointwise evaluation on batches of velocities,
ring sums over a family of parallel hyperplanes, and weighted radial moments
around an arbitrary center. Ring sums and moments come by quadrature, except
for `gaussian()` fields, which give them in closed form (ring sums at d = 3).
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import utils
from .errors import ValidationError

TRUNCATION_SIGMAS = 12.0  # quadrature reach in units of the support scale
_SHELL_NODES = 16         # Gauss-Legendre nodes per radial panel of radial_moment


@dataclass
class DensityField:
    d: int
    evaluator: Callable            # (..., d) -> (...), vectorized
    mass: float                    # M0 = integral of f
    energy: float                  # E0 = integral of f |v|^2
    center: np.ndarray             # representative center of mass of f
    scale: float                   # standard-deviation-like support scale
    particles: np.ndarray | None = None     # set for histogram fields
    weight: float | None = None
    _sphere: tuple = field(default=None, init=False, repr=False)
    # gaussian()'s closed forms by name, with the evaluator they integrate
    _closed_forms: dict = field(default=None, repr=False)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if not (np.isfinite(self.mass) and np.isfinite(self.energy)):
            raise ValidationError("M0 and E0 must be finite")
        if self.mass < 0:
            raise ValidationError("mass must be nonnegative")
        if self.scale <= 0:
            raise ValidationError("support scale must be positive")

    def __call__(self, v):
        return self.evaluator(np.asarray(v, dtype=float))

    def sphere_rule(self):
        """The 24 x 48 direction rule of the shell quadrature, built once."""
        if self._sphere is None:
            self._sphere = utils.sphere_rule(self.d, 24, 48)
        return self._sphere

    def _closed_form(self, name):
        """gaussian()'s closed form `name`, or None.

        None also when the evaluator was replaced (dataclasses.replace): the
        closed forms integrate the Gaussian, not whatever evaluates now.
        """
        forms = self._closed_forms
        if forms is None or forms["evaluator"] is not self.evaluator:
            return None
        return forms.get(name)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def gaussian(cls, d, sigma=1.0, mass=1.0, center=None):
        """Isotropic Gaussian with the given total mass.

        Its ring sums (at d = 3; the two-point ring of d = 2 is exact already)
        and its radial moments (gamma > -d) are closed forms.
        """
        c = np.zeros(d) if center is None else np.asarray(center, dtype=float)
        norm = mass / ((2.0 * np.pi * sigma ** 2) ** (d / 2.0))

        def f(v):
            diff = v - c
            if diff.ndim == 1:      # one point: a scalar, which in-place ops reject
                return norm * np.exp(-0.5 * np.sum(diff ** 2) / sigma ** 2)
            # the bits of norm * exp(-0.5 * sum(diff^2, axis=-1) / sigma^2)
            r2 = utils.row_dot(diff, diff)
            r2 *= -0.5
            r2 /= sigma ** 2
            np.exp(r2, out=r2)
            r2 *= norm
            return r2

        def ring_sums(origin, normal, shifts, k):
            # c lies h_l = h0 - shifts[l] from plane l and its foot q from every
            # base, so on the ring |x - c|^2 = h_l^2 + k^2 + q^2 - 2 k q cos(phi):
            # the circle integral is 2 pi norm exp(-(h_l^2 + k^2 + q^2) / 2 sigma^2)
            # I0(k q / sigma^2), taken through i0e(z) = exp(-z) I0(z), which cannot overflow
            from scipy.special import i0e
            diff = c - origin
            h0 = utils.row_dot(diff, normal)
            foot = diff - h0 * normal
            q = np.sqrt(utils.row_dot(foot, foot))
            h = (h0 - shifts)[:, None]
            return 2.0 * np.pi * norm * np.exp(-0.5 * (h ** 2 + (k - q) ** 2) / sigma ** 2) \
                * i0e(k * q / sigma ** 2)

        def radial_moment(v, gamma):
            # mass E|X - v|^gamma for X ~ N(c, sigma^2 I): a Kummer function of |v - c|
            from scipy.special import gammaln, hyp1f1
            x = 0.5 * float(np.dot(v - c, v - c)) / sigma ** 2
            ratio = np.exp(gammaln(0.5 * (d + gamma)) - gammaln(0.5 * d))
            return float(mass * (2.0 * sigma ** 2) ** (0.5 * gamma) * ratio
                         * hyp1f1(-0.5 * gamma, 0.5 * d, -x))

        forms = {"evaluator": f, "radial_moment": radial_moment}
        if d == 3:
            forms["ring_sums"] = ring_sums
        energy = mass * (d * sigma ** 2 + float(np.dot(c, c)))
        return cls(d=d, evaluator=f, mass=mass, energy=energy, center=c, scale=sigma,
                   _closed_forms=forms)

    @classmethod
    def from_callable(cls, fn, d, scale, center=None):
        """Wrap an arbitrary nonnegative density; moments by shell quadrature."""
        c = np.zeros(d) if center is None else np.asarray(center, dtype=float)
        probe = cls(d=d, evaluator=fn, mass=1.0, energy=1.0, center=c, scale=scale)
        probe.mass = float(probe.radial_moment(c, 0.0))
        # second moment about the origin, |v|^gamma shells centered there
        probe.energy = float(probe.radial_moment(np.zeros(d), 2.0))
        _spot_check_nonnegative(probe)
        return probe

    @classmethod
    def from_particles(cls, velocities, weight, bins=32, pad=1.25):
        """Histogram density from a particle ensemble (equal particle weight)."""
        v = np.asarray(velocities, dtype=float)
        n, d = v.shape
        lim = max(pad * float(np.max(np.abs(v))), 1e-9) if n else 1.0
        edges = np.linspace(-lim, lim, bins + 1)
        counts = utils.grid_counts(v, edges)
        cell = float(np.prod([edges[1] - edges[0]] * d))
        dens = weight * counts / cell

        def f(pts):
            # a point reads the bin that grid_counts would count it in
            single = np.ndim(pts) == 1
            pts = np.atleast_2d(pts)
            inside = ((pts >= edges[0]) & (pts <= edges[-1])).all(axis=-1)
            idx = tuple(utils.grid_bin(np.where(inside, pts[..., k], edges[0]), edges)
                        for k in range(d))
            out = dens[idx]
            out[~inside] = 0.0
            return float(out[0]) if single else out

        mean = v.mean(axis=0) if n else np.zeros(d)
        scale = float(np.sqrt(np.mean(np.sum((v - mean) ** 2, axis=1)) / d)) if n else 1.0
        return cls(d=d, evaluator=f, mass=weight * n,
                   energy=weight * float(np.sum(v ** 2)), center=mean,
                   scale=max(scale, 1e-12), particles=v, weight=weight)

    # -- quadrature -----------------------------------------------------------

    def ring_sums(self, origin, normal, shifts, k, circle):
        """Sums of f over the rings of radius k[i] around origin + shifts[l] normal, (L, nk).

        Every ring lies in a plane normal to the unit vector `normal`. `circle`
        is the (points, weights) rule of `utils.circle_rule`, whose weights sum
        to the measure of S^{d-2}; each sum approximates the integral of f over
        the ring's unit sphere.
        """
        exact = self._closed_form("ring_sums")
        if exact is not None:
            return exact(origin, normal, shifts, k)
        ang, wang = circle
        inplane = np.einsum("me,ed->md", ang, utils.tangent_basis(normal))   # (m, d)
        bases = origin + shifts[:, None] * normal
        # bases + k * inplane, built one coordinate at a time so that f reads
        # contiguous columns of its (L, nk, m, d) argument
        pts = np.empty((self.d, len(bases), k.size, len(inplane)))
        for j in range(self.d):
            np.multiply(k[None, :, None], inplane[None, None, :, j], out=pts[j])
            pts[j] += bases[:, j, None, None]
        return self(np.moveaxis(pts, 0, -1)) @ wang

    def _shell_points(self, origin, rho):
        """origin + rho[i] * dirs[j] as an (n_rho, n_dirs, d) coordinate-major view.

        Built one coordinate at a time, so each column the evaluator reads is
        contiguous; the values are those of the broadcast expression.
        """
        dirs, _ = self.sphere_rule()
        pts = np.empty((self.d, rho.size, len(dirs)))
        for j in range(self.d):
            np.multiply(rho[:, None], dirs[None, :, j], out=pts[j])
            pts[j] += origin[j]
        return np.moveaxis(pts, 0, -1)

    def radial_moment(self, v, gamma):
        """integral of f(v*) |v* - v|^gamma dv*, by shells centered at v.

        A `gaussian()` field gives it in closed form for gamma > -d. For
        histogram fields built from particles this is the exact weighted
        particle sum instead (zero-distance particles are skipped: the
        singular set has measure zero and the event is flagged nowhere).
        """
        v = np.asarray(v, dtype=float)
        exact = self._closed_form("radial_moment")
        if exact is not None and gamma > -self.d:
            return exact(v, gamma)
        if self.particles is not None:
            diff = self.particles - v
            dist = np.sqrt(utils.row_dot(diff, diff))
            if gamma < 0:
                dist = dist[dist > 0]
            return float(self.weight * np.sum(dist ** gamma))
        offset = float(np.linalg.norm(v - self.center))
        reach = offset + TRUNCATION_SIGMAS * self.scale
        # graded panels near rho = 0 absorb the |v*-v|^gamma weight for
        # gamma < 0; a refined band around rho = |v - center| resolves the
        # bulk of f when v sits far from it
        a0 = min(0.5 * self.scale, 0.01 * reach)
        inner = reach * 1e-9
        edges = [utils.log_edges(inner, a0, 8)]
        lo = max(a0, offset - (TRUNCATION_SIGMAS - 2.0) * self.scale)
        hi = min(reach, offset + (TRUNCATION_SIGMAS - 2.0) * self.scale)
        if lo > a0:
            edges.append(np.linspace(a0, lo, 7)[1:])
        if hi > lo:
            edges.append(np.linspace(max(lo, a0), hi, 21)[1:])
        if hi < reach:
            edges.append(np.linspace(hi, reach, 7)[1:])
        grid = np.concatenate(edges)
        rho, w_rho = utils.panel_rule(grid, _SHELL_NODES)
        vals = self.evaluator(self._shell_points(v, rho))
        _, w_ang = self.sphere_rule()
        radial_w = w_rho * rho ** (gamma + self.d - 1)
        total = float(np.einsum("i,j,ij->", radial_w, w_ang, vals))
        if gamma > -self.d:
            # the ball rho < inner, where f is f(v): |S^{d-1}| f(v) inner^(gamma+d)/(gamma+d)
            total += float(self.evaluator(v[None, :])[0]) * utils.sphere_area(self.d) \
                * inner ** (gamma + self.d) / (gamma + self.d)
        return total


def _spot_check_nonnegative(f: DensityField):
    rng = utils.substream(7, 1)
    pts = f.center + f.scale * rng.normal(size=(64, f.d)) * 3.0
    if np.any(f(pts) < 0):
        raise ValidationError("density evaluator returned negative values")
