"""Evaluable velocity-space densities and quadrature against them.

A DensityField wraps either an analytic nonnegative f(v) or a particle
ensemble turned into a histogram lookup. Kernel and cancellation code only
needs two things from it: pointwise evaluation on batches of velocities and
weighted radial moments around an arbitrary center.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import utils

TRUNCATION_SIGMAS = 12.0  # quadrature reach in units of the support scale
_SHELL_NODES = 8          # Gauss-Legendre nodes per radial panel of radial_moment


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
    _sphere: tuple = field(default=None, repr=False)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if not (np.isfinite(self.mass) and np.isfinite(self.energy)):
            raise ValueError("M0 and E0 must be finite")
        if self.mass < 0:
            raise ValueError("mass must be nonnegative")
        if self.scale <= 0:
            raise ValueError("support scale must be positive")

    def __call__(self, v):
        return self.evaluator(np.asarray(v, dtype=float))

    def sphere_rule(self, n_polar=24, n_azimuth=48):
        if self._sphere is None:
            self._sphere = utils.sphere_rule(self.d, n_polar, n_azimuth)
        return self._sphere

    # -- constructors ---------------------------------------------------------

    @classmethod
    def gaussian(cls, d, sigma=1.0, mass=1.0, center=None):
        """Isotropic Gaussian with the given total mass."""
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

        energy = mass * (d * sigma ** 2 + float(np.dot(c, c)))
        return cls(d=d, evaluator=f, mass=mass, energy=energy, center=c, scale=sigma)

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

        For histogram fields built from particles this is the exact weighted
        particle sum instead (zero-distance particles are skipped: the
        singular set has measure zero and the event is flagged nowhere).
        """
        v = np.asarray(v, dtype=float)
        if self.particles is not None:
            diff = self.particles - v
            dist = np.sqrt(utils.row_dot(diff, diff))
            if gamma < 0:
                dist = dist[dist > 0]
            return float(self.weight * np.sum(dist ** gamma))
        offset = float(np.linalg.norm(v - self.center))
        if gamma >= 0.0 and offset > 2.0 * self.scale:
            # nonsingular weight: shells around the density center resolve f
            # regardless of how far v sits
            edges = np.concatenate([
                utils.log_edges(self.scale * 1e-9, 0.5 * self.scale, 6),
                np.linspace(0.5 * self.scale, TRUNCATION_SIGMAS * self.scale, 25)[1:],
            ])
            rho, w_rho = utils.panel_rule(edges, _SHELL_NODES)
            pts = self._shell_points(self.center, rho)
            diff = pts - v
            vals = self.evaluator(pts) * np.sqrt(utils.row_dot(diff, diff)) ** gamma
            _, w_ang = self.sphere_rule()
            return float(np.einsum("i,j,ij->", w_rho * rho ** (self.d - 1),
                                   w_ang, vals))
        reach = offset + TRUNCATION_SIGMAS * self.scale
        # graded panels near rho = 0 absorb the |v*-v|^gamma weight for
        # gamma < 0; a refined band around rho = |v - center| resolves the
        # bulk of f when v sits far from it
        a0 = min(0.5 * self.scale, 0.01 * reach)
        edges = [utils.log_edges(reach * 1e-9, a0, 8)]
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
        return float(np.einsum("i,j,ij->", radial_w, w_ang, vals))


def _spot_check_nonnegative(f: DensityField, n=64):
    rng = utils.substream(7, 1)
    pts = f.center + f.scale * rng.normal(size=(n, f.d)) * 3.0
    if np.any(f(pts) < 0):
        raise ValueError("density evaluator returned negative values")
