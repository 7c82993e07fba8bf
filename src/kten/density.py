"""The isotropic Gaussian velocity density, the f of the lower-bound operators.

Kernel and cancellation code needs three things from a density: pointwise
evaluation on batches of velocities, ring sums over a family of parallel
hyperplanes, and weighted radial moments around an arbitrary center. A
Gaussian gives all three without quadrature: its ring sums are a scaled
Bessel function at d = 3 and the two points of each ring at d = 2, and its
radial moments are a Kummer function for gamma > -d.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import utils
from .errors import ValidationError

TRUNCATION_SIGMAS = 12.0  # plane-rule reach in units of the support scale


@dataclass
class DensityField:
    """mass times the normal density N(center, scale^2 I) on R^d; see gaussian()."""

    d: int
    scale: float                # sigma
    mass: float
    center: np.ndarray | None   # the origin when None

    def __post_init__(self):
        utils.check_dimension(self.d)
        c = np.zeros(self.d) if self.center is None else np.asarray(self.center, dtype=float)
        if c.shape != (self.d,) or not np.all(np.isfinite(c)):
            raise ValidationError(f"'center' must be {self.d} finite numbers for d = {self.d}, "
                                  f"got {self.center!r}")
        self.center = c
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValidationError(f"'sigma' must be > 0 and finite, got {self.scale}")
        if not (self.mass >= 0 and math.isfinite(self.mass)):
            raise ValidationError(f"'mass' must be >= 0 and finite, got {self.mass}")

    @classmethod
    def gaussian(cls, d, sigma=1.0, mass=1.0, center=None):
        """Isotropic Gaussian of standard deviation sigma and total mass `mass`."""
        return cls(d=d, scale=sigma, mass=mass, center=center)

    @property
    def energy(self):
        """E0 = integral of f |v|^2."""
        return self.mass * (self.d * self.scale ** 2 + float(np.dot(self.center, self.center)))

    def _norm(self):
        return self.mass / ((2.0 * np.pi * self.scale ** 2) ** (self.d / 2.0))

    def __call__(self, v):
        diff = np.asarray(v, dtype=float) - self.center
        norm, sigma = self._norm(), self.scale
        if diff.ndim == 1:      # one point: a scalar, which in-place ops reject
            return norm * np.exp(-0.5 * np.sum(diff ** 2) / sigma ** 2)
        # the bits of norm * exp(-0.5 * sum(diff^2, axis=-1) / sigma^2)
        r2 = utils.row_dot(diff, diff)
        r2 *= -0.5
        r2 /= sigma ** 2
        np.exp(r2, out=r2)
        r2 *= norm
        return r2

    def ring_sums(self, origin, normal, shifts, k, circle):
        """Sums of f over the rings of radius k[i] around origin + shifts[l] normal, (L, nk).

        Every ring lies in a plane normal to the unit vector `normal`, and each
        sum is the integral of f over the ring's unit sphere S^{d-2}. `circle`
        is the ring rule of `utils.circle_rule`; a Gaussian needs none (a
        closed form at d = 3, the exact two-point ring at d = 2), but a field
        that integrates by quadrature takes it.
        """
        if self.d == 2:
            # the ring is the two points base +- k t, t the line's direction
            t = utils.tangent_basis(normal)[0]
            bases = (origin + shifts[:, None] * normal)[:, None, :]
            kt = k[:, None] * t
            return self(bases + kt) + self(bases - kt)
        # c lies h_l = h0 - shifts[l] from plane l and its foot q from every
        # base, so on the ring |x - c|^2 = h_l^2 + k^2 + q^2 - 2 k q cos(phi):
        # the circle integral is 2 pi norm exp(-(h_l^2 + k^2 + q^2) / 2 sigma^2)
        # I0(k q / sigma^2), taken through i0e(z) = exp(-z) I0(z), which cannot overflow
        from scipy.special import i0e
        sigma = self.scale
        diff = self.center - origin
        h0 = utils.row_dot(diff, normal)
        foot = diff - h0 * normal
        q = np.sqrt(utils.row_dot(foot, foot))
        h = (h0 - shifts)[:, None]
        return 2.0 * np.pi * self._norm() \
            * np.exp(-0.5 * (h ** 2 + (k - q) ** 2) / sigma ** 2) * i0e(k * q / sigma ** 2)

    def radial_moment(self, v, gamma):
        """integral of f(v*) |v* - v|^gamma dv*, finite for gamma > -d only.

        mass E|X - v|^gamma for X ~ N(center, sigma^2 I): a Kummer function of |v - center|.
        """
        if not gamma > -self.d:
            raise ValidationError(f"'gamma' must be > -d = {-self.d} for a finite radial "
                                  f"moment, got {gamma}")
        from scipy.special import gammaln, hyp1f1
        d, sigma = self.d, self.scale
        diff = np.asarray(v, dtype=float) - self.center
        x = 0.5 * float(np.dot(diff, diff)) / sigma ** 2
        ratio = np.exp(gammaln(0.5 * (d + gamma)) - gammaln(0.5 * d))
        return float(self.mass * (2.0 * sigma ** 2) ** (0.5 * gamma) * ratio
                     * hyp1f1(-0.5 * gamma, 0.5 * d, -x))
