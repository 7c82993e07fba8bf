"""Cancellation-lemma functions: the nonsingular collision part.

The nonsingular part of each collision operator factorizes as
g(v) * integral f(v*) S(|v - v*|) dv*, with

    S(r) = |S^{d-2}| r^gamma * integral_0^pi b(cos w) sin^{d-2} w
           [ (c_a cos a + c_A cos A)^{-d-gamma} - 1 ] dw,

where w = a + A, sin A = lambda sin a, and a single asymmetry parameter
lambda in (0, 1] covers every model:

    inelastic            lambda = beta/(2-beta)          (inelastic_lam)
    two masses           lambda = lighter/heavier mass   (mixture_lam)
    elastic              lambda = 1  (a = A = w/2)

with convex weights c_a = lambda/(1+lambda), c_A = 1/(1+lambda). S is built
from a noncutoff kernels.KernelSpec, which gives d, gamma and b, and lambda.
The bracket is positive on (0, pi) and O(sin^2(w/2)) near zero, which makes
the integral finite for every noncutoff profile with s < 1. The w-integral S1
is speed independent and cached per spec; S(r) = r^gamma * S1.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import utils
from .density import DensityField
from .errors import ConvergenceFailure, DivergentIntegral, ValidationError
from .kernels import KernelSpec


def inelastic_lam(beta):
    """The asymmetry of the inelastic model, beta in (1/2, 1)."""
    return beta / (2.0 - beta)


def mixture_lam(m_i, m_j):
    """The asymmetry of a two-mass collision: the lighter mass over the heavier."""
    return min(m_i, m_j) / max(m_i, m_j)


def _angle_equation(a, lam):
    return a + np.arcsin(np.clip(lam * np.sin(a), -1.0, 1.0))


def solve_angle(w, lam):
    """The unique a in (0, w) with a + arcsin(lambda sin a) = w, for each w.

    sin(w - a) = lambda sin a gives tan a = sin w / (lambda + cos w), so
    a = atan2(sin w, lambda + cos w) in closed form for lambda in (0, 1); the
    denominator is taken as (lambda - 1) + 2 cos^2(w/2), which keeps its
    accuracy where lambda + cos w cancels (lambda near 1, w near pi). `w` is
    a scalar (a float comes back) or an array. A residual above
    1e-13 max(1, w) raises ConvergenceFailure.
    """
    w = np.asarray(w, dtype=float)
    if not np.all((0.0 < w) & (w <= math.pi)):
        raise ValidationError("w must lie in (0, pi]")
    if not 0.0 < lam < 1.0:
        raise ValidationError("lambda must lie in (0, 1)")
    a = np.arctan2(np.sin(w), (lam - 1.0) + 2.0 * np.cos(0.5 * w) ** 2)
    res = np.abs(_angle_equation(a, lam) - w)
    if np.any(res > 1e-13 * np.maximum(1.0, w)):
        worst = np.argmax(res)
        raise ConvergenceFailure(
            f"angle solve residual {res.max():.2e} at w = {w.flat[worst]:.6f}, "
            f"lambda = {lam}")
    return float(a) if a.ndim == 0 else a


@dataclass(frozen=True)
class SFunctionSpec:
    """Parameters of one cancellation function S.

    `kernel` is a noncutoff kernels.KernelSpec: S reads its d, gamma and full
    angular kernel (KernelSpec.assembled_b). `lam` in (0, 1] is the
    asymmetry of the collision (inelastic_lam, mixture_lam); lam = 1 is the
    elastic split.
    """

    kernel: KernelSpec
    lam: float
    # the cache is no part of the value: equality and the hash ignore it
    _s1: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        k = self.kernel
        if k.cutoff:
            raise ValidationError("the cancellation function needs a noncutoff kernel")
        if not k.gamma > -k.d:      # KernelSpec has refused a gamma that is not finite
            raise ValidationError(f"'gamma' must be finite and > -d = {-k.d}, "
                                  f"got {k.gamma}")
        if not 0.0 < self.lam <= 1.0:
            raise ValidationError(f"lambda must lie in (0, 1], got {self.lam}")

    @property
    def s1(self):
        if self._s1 is None:        # frozen: the cache is the one field set later
            object.__setattr__(self, "_s1", _angular_integral(self))
        return self._s1


def _bracket(spec: SFunctionSpec, w):
    """(c_a cos a + c_A cos A)^{-d-gamma} - 1, evaluated stably near w = 0."""
    lam = spec.lam
    c_a = lam / (1.0 + lam)
    c_A = 1.0 - c_a
    w = np.asarray(w, dtype=float)
    if lam == 1.0:
        a = A = 0.5 * w
    else:
        a = solve_angle(w, lam)
        A = w - a
    # base - 1 without cancellation: cos x - 1 = -2 sin^2(x/2)
    delta = -2.0 * (c_a * np.sin(0.5 * a) ** 2 + c_A * np.sin(0.5 * A) ** 2)
    return np.expm1(-(spec.kernel.d + spec.kernel.gamma) * np.log1p(delta))


def _angular_mesh(n_panels, eps=1e-9):
    left = utils.log_edges(eps, math.pi / 2.0, n_panels)
    right = math.pi - utils.log_edges(eps, math.pi / 2.0, n_panels)[::-1]
    return np.concatenate([left, right[1:]])


def _s1_on_mesh(spec, edges, gl_nodes):
    d = spec.kernel.d
    w, wt = utils.panel_rule(edges, gl_nodes)
    bw = spec.kernel.assembled_b.from_angle(w)      # stable where cos(w) rounds to 1
    vals = bw * np.sin(w) ** (d - 2) * _bracket(spec, w)
    return float(utils.sphere_area(d - 1) * np.sum(wt * vals))


def _angular_integral(spec: SFunctionSpec):
    """The w-integral S1, with a refinement tail test.

    Endpoints contribute nothing (the bracket vanishes at 0 and the measure
    at pi), so the graded interior mesh (24 panels per half of (0, pi), 24
    nodes each) excludes them. A profile with a non-integrable angular
    singularity (s >= 1 strength) shows up as a change on the mesh with both
    counts doubled, and raises DivergentIntegral.
    """
    coarse = _s1_on_mesh(spec, _angular_mesh(24, eps=1e-6), 24)
    fine = _s1_on_mesh(spec, _angular_mesh(48, eps=1e-9), 48)
    if not np.isfinite(fine) or abs(fine - coarse) > 1e-5 * max(abs(fine), 1e-300):
        raise DivergentIntegral(
            f"angular integral fails refinement test: {coarse} vs {fine}")
    return fine


def S_value(rel_speed, spec: SFunctionSpec):
    """S(|v - v*|) = rel_speed^gamma * S1(spec); strictly positive."""
    rel_speed = np.asarray(rel_speed, dtype=float)
    if np.any(rel_speed <= 0.0):
        raise ValidationError("rel_speed must be positive")
    out = rel_speed ** spec.kernel.gamma * spec.s1
    return float(out) if out.ndim == 0 else out


def Q_ns_apply(f: DensityField, g_at_v, v, spec: SFunctionSpec):
    """Nonsingular part g(v) * integral f(v*) S(|v - v*|) dv*.

    Uses the factorization S = r^gamma S1, so the velocity integral reduces
    to the radial moment of f around v. Nonnegative for nonnegative inputs.
    """
    if g_at_v == 0.0:
        return 0.0
    moment = f.radial_moment(np.asarray(v, dtype=float), spec.kernel.gamma)
    return float(g_at_v * spec.s1 * moment)

