"""A density known only through its evaluator, integrated by quadrature: the
oracle for the closed forms of `kten.density.DensityField`, with what
`kten.kernels` reads from a field (`center`, `scale`, `ring_sums`, `radial_moment`).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from kten import utils
from kten.density import TRUNCATION_SIGMAS

SHELL_RULE = (24, 48)   # polar x azimuthal directions of the shells
SHELL_NODES = 16        # Gauss-Legendre nodes per radial panel of the shells


@dataclass
class QuadratureField:
    evaluator: Callable     # (..., d) -> (...), vectorized
    d: int
    center: np.ndarray      # representative center of f
    scale: float            # standard-deviation-like support scale

    def ring_sums(self, origin, normal, shifts, k, circle):
        """DensityField.ring_sums by the circle rule `circle` on every ring."""
        ang, wang = circle
        inplane = np.einsum("me,ed->md", ang, utils.tangent_basis(normal))   # (m, d)
        bases = origin + shifts[:, None] * normal
        # bases + k * inplane, built one coordinate at a time so that f reads
        # contiguous columns of its (L, nk, m, d) argument
        pts = np.empty((self.d, len(bases), k.size, len(inplane)))
        for j in range(self.d):
            np.multiply(k[None, :, None], inplane[None, None, :, j], out=pts[j])
            pts[j] += bases[:, j, None, None]
        return self.evaluator(np.moveaxis(pts, 0, -1)) @ wang

    def shell_points(self, origin, rho):
        """origin + rho[i] * dirs[j] as an (n_rho, n_dirs, d) coordinate-major view."""
        dirs, _ = utils.sphere_rule(self.d, *SHELL_RULE)
        pts = np.empty((self.d, rho.size, len(dirs)))
        for j in range(self.d):
            np.multiply(rho[:, None], dirs[None, :, j], out=pts[j])
            pts[j] += origin[j]
        return np.moveaxis(pts, 0, -1)

    def radial_moment(self, v, gamma):
        """DensityField.radial_moment on shells centered at v, for gamma > -d."""
        v = np.asarray(v, dtype=float)
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
        rho, w_rho = utils.panel_rule(np.concatenate(edges), SHELL_NODES)
        vals = self.evaluator(self.shell_points(v, rho))
        _, w_ang = utils.sphere_rule(self.d, *SHELL_RULE)
        total = float(np.einsum("i,j,ij->", w_rho * rho ** (gamma + self.d - 1), w_ang, vals))
        # the ball rho < inner, where f is f(v): |S^{d-1}| f(v) inner^(gamma+d)/(gamma+d)
        return total + float(self.evaluator(v[None, :])[0]) * utils.sphere_area(self.d) \
            * inner ** (gamma + self.d) / (gamma + self.d)


def quadrature(f, scale=None):
    """The field f (a DensityField) on the quadrature path, optionally declaring another scale."""
    return QuadratureField(f, f.d, f.center, f.scale if scale is None else scale)
