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

TRUNCATION_SIGMAS = 12.0  # default quadrature reach in units of the support scale


@dataclass
class DensityField:
    kind: str                      # "analytic" | "histogram"
    d: int
    evaluator: Callable            # (..., d) -> (...), vectorized
    mass: float                    # M0 = integral of f
    energy: float                  # E0 = integral of f |v|^2
    center: np.ndarray             # representative center of mass of f
    scale: float                   # standard-deviation-like support scale
    particles: np.ndarray | None = None
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
            r2 = np.sum((v - c) ** 2, axis=-1)
            return norm * np.exp(-0.5 * r2 / sigma ** 2)

        energy = mass * (d * sigma ** 2 + float(np.dot(c, c)))
        return cls(kind="analytic", d=d, evaluator=f, mass=mass,
                   energy=energy, center=c, scale=sigma)

    @classmethod
    def from_callable(cls, fn, d, scale, center=None, n_radial=96):
        """Wrap an arbitrary nonnegative density; moments by shell quadrature."""
        c = np.zeros(d) if center is None else np.asarray(center, dtype=float)
        probe = cls(kind="analytic", d=d, evaluator=fn, mass=1.0, energy=1.0,
                    center=c, scale=scale)
        probe.mass = float(probe.radial_moment(c, 0.0, n_radial=n_radial))
        # second moment about the origin, |v|^gamma shells centered there
        probe.energy = float(probe.radial_moment(np.zeros(d), 2.0, n_radial=n_radial))
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
        widths = [edges[1] - edges[0]] * d
        cell = float(np.prod(widths))
        dens = weight * counts / cell

        def f(pts):
            pts = np.atleast_2d(pts)
            idx = []
            inside = np.ones(pts.shape[0], dtype=bool)
            for k in range(d):
                i = np.floor((pts[:, k] + lim) / widths[k]).astype(int)
                inside &= (i >= 0) & (i < bins)
                idx.append(np.clip(i, 0, bins - 1))
            out = dens[tuple(idx)]
            out[~inside] = 0.0
            return out if out.size > 1 else float(out[0])

        mean = v.mean(axis=0) if n else np.zeros(d)
        scale = float(np.sqrt(np.mean(np.sum((v - mean) ** 2, axis=1)) / d)) if n else 1.0
        return cls(kind="histogram", d=d, evaluator=f, mass=weight * n,
                   energy=weight * float(np.sum(v ** 2)), center=mean,
                   scale=max(scale, 1e-12), particles=v, weight=weight)

    # -- quadrature -----------------------------------------------------------

    def radial_moment(self, v, gamma, n_radial=96, n_sigmas=TRUNCATION_SIGMAS):
        """integral of f(v*) |v* - v|^gamma dv*, by shells centered at v.

        For histogram fields built from particles this is the exact weighted
        particle sum instead (zero-distance particles are skipped: the
        singular set has measure zero and the event is flagged nowhere).
        """
        v = np.asarray(v, dtype=float)
        if self.kind == "histogram" and self.particles is not None:
            dist = np.linalg.norm(self.particles - v, axis=1)
            if gamma < 0:
                dist = dist[dist > 0]
            return float(self.weight * np.sum(dist ** gamma))
        offset = float(np.linalg.norm(v - self.center))
        if gamma >= 0.0 and offset > 2.0 * self.scale:
            # nonsingular weight: shells around the density center resolve f
            # regardless of how far v sits
            edges = np.concatenate([
                utils.log_edges(self.scale * 1e-9, 0.5 * self.scale, 6),
                np.linspace(0.5 * self.scale, n_sigmas * self.scale, 25)[1:],
            ])
            rho, w_rho = utils.panel_rule(edges, max(8, n_radial // 12))
            dirs, w_ang = self.sphere_rule()
            pts = self.center + rho[:, None, None] * dirs[None, :, :]
            vals = self.evaluator(pts) * np.linalg.norm(pts - v, axis=-1) ** gamma
            return float(np.einsum("i,j,ij->", w_rho * rho ** (self.d - 1),
                                   w_ang, vals))
        reach = offset + n_sigmas * self.scale
        # graded panels near rho = 0 absorb the |v*-v|^gamma weight for
        # gamma < 0; a refined band around rho = |v - center| resolves the
        # bulk of f when v sits far from it
        a0 = min(0.5 * self.scale, 0.01 * reach)
        edges = [utils.log_edges(reach * 1e-9, a0, 8)]
        lo = max(a0, offset - (n_sigmas - 2.0) * self.scale)
        hi = min(reach, offset + (n_sigmas - 2.0) * self.scale)
        if lo > a0:
            edges.append(np.linspace(a0, lo, 7)[1:])
        if hi > lo:
            edges.append(np.linspace(max(lo, a0), hi, 21)[1:])
        if hi < reach:
            edges.append(np.linspace(hi, reach, 7)[1:])
        grid = np.concatenate(edges)
        rho, w_rho = utils.panel_rule(grid, max(8, n_radial // 12))
        dirs, w_ang = self.sphere_rule()
        pts = v + rho[:, None, None] * dirs[None, :, :]
        vals = self.evaluator(pts)
        radial_w = w_rho * rho ** (gamma + self.d - 1)
        return float(np.einsum("i,j,ij->", radial_w, w_ang, vals))


def _spot_check_nonnegative(f: DensityField, n=64):
    rng = utils.substream(7, 1)
    pts = f.center + f.scale * rng.normal(size=(n, f.d)) * 3.0
    if np.any(f(pts) < 0):
        raise ValueError("density evaluator returned negative values")
