"""Cancellation-lemma functions: the nonsingular collision part.

The nonsingular part of each collision operator factorizes as
g(v) * integral f(v*) S(|v - v*|) dv*, with

    S(r) = |S^{d-2}| r^gamma * integral_0^pi b(cos w) sin^{d-2} w
           [ (c_a cos a + c_A cos A)^{-d-gamma} - 1 ] dw,

where w = a + A, sin A = lambda sin a, and a single asymmetry parameter
lambda in (0, 1] covers every model:

    inelastic            lambda = beta/(2-beta)
    light on heavy       lambda = m_i/m_j   (m_i < m_j)
    heavy on light       lambda = m_j/m_i   (m_i > m_j)
    elastic              lambda = 1  (a = A = w/2)

with convex weights c_a = lambda/(1+lambda), c_A = 1/(1+lambda). The bracket
is positive on (0, pi) and O(sin^2(w/2)) near zero, which makes the integral
finite for every noncutoff profile with s < 1. The w-integral S1 is speed
independent and cached per spec; S(r) = r^gamma * S1.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import utils
from .density import DensityField
from .errors import ConvergenceFailure, DivergentIntegral

_MODELS = ("inelastic", "mixture_light_on_heavy", "mixture_heavy_on_light", "elastic")


@dataclass(frozen=True)
class AngleFrame:
    """Solved angle triple w = a + A with sin A = lambda sin a."""

    w: float
    a: float
    A: float
    lam: float

    def __post_init__(self):
        if abs(self.w - (self.a + self.A)) > 1e-12:
            raise ValueError("w must equal a + A")
        if abs(math.sin(self.A) - self.lam * math.sin(self.a)) > 1e-12:
            raise ValueError("sin A must equal lambda sin a")


def _angle_equation(a, lam):
    return a + np.arcsin(np.clip(lam * np.sin(a), -1.0, 1.0))


def solve_angle(w, lam, tol=1e-13, max_iter=200):
    """Unique a in (0, w) with a + arcsin(lambda sin a) = w.

    The map is strictly increasing for lambda in (0, 1), so bisection on
    (max(0, w - pi/2), w) always converges; a couple of Newton steps polish
    the root to ~1e-15 residual.
    """
    if not 0.0 < w <= math.pi:
        raise ValueError("w must lie in (0, pi]")
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    a = _solve_angle_vec(np.array([w]), lam, tol, max_iter)[0]
    A = w - a
    return AngleFrame(w=w, a=float(a), A=float(A), lam=lam)


def _solve_angle_vec(w, lam, tol=1e-13, max_iter=200):
    w = np.asarray(w, dtype=float)
    lo = np.maximum(0.0, w - math.pi / 2.0)
    hi = w.copy()
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        high = _angle_equation(mid, lam) > w
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    a = 0.5 * (lo + hi)
    for _ in range(3):
        s = lam * np.sin(a)
        deriv = 1.0 + lam * np.cos(a) / np.sqrt(np.maximum(1.0 - s * s, 1e-300))
        a = a - (_angle_equation(a, lam) - w) / deriv
        a = np.clip(a, lo, hi)
    res = np.abs(_angle_equation(a, lam) - w)
    if np.any(res > tol * np.maximum(1.0, w)):
        raise ConvergenceFailure(
            f"angle solve residual {res.max():.2e} on bracket "
            f"[{lo[np.argmax(res)]:.6f}, {hi[np.argmax(res)]:.6f}]")
    return a


@dataclass
class SFunctionSpec:
    """Parameters of one cancellation function S.

    `b` is the full angular kernel of cos(w); kernels.KernelSpec.assembled_b
    builds one from a smooth noncutoff profile. The convex bracket weights
    (c_a, c_A) are derived from the model and asymmetry and validated against
    their defining expressions.
    """

    model: str
    d: int
    gamma: float
    b: Callable
    beta: float | None = None
    masses: tuple | None = None
    _s1: float | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.gamma <= -self.d:
            raise ValueError("gamma must exceed -d")
        if self.model == "inelastic":
            if self.beta is None or not 0.5 < self.beta < 1.0:
                raise ValueError("inelastic model needs beta in (1/2, 1)")
        elif self.model.startswith("mixture"):
            if self.masses is None:
                raise ValueError("mixture model needs masses=(m_i, m_j)")
            m_i, m_j = self.masses
            if m_i <= 0 or m_j <= 0:
                raise ValueError("masses must be positive")
            if self.model == "mixture_light_on_heavy" and not m_i < m_j:
                raise ValueError("light-on-heavy requires m_i < m_j")
            if self.model == "mixture_heavy_on_light" and not m_i > m_j:
                raise ValueError("heavy-on-light requires m_i > m_j")

    @property
    def lam(self):
        if self.model == "inelastic":
            return self.beta / (2.0 - self.beta)
        if self.model == "mixture_light_on_heavy":
            return self.masses[0] / self.masses[1]
        if self.model == "mixture_heavy_on_light":
            return self.masses[1] / self.masses[0]
        return 1.0

    @property
    def mixing_weight(self):
        """(c_a, c_A); c_a + c_A = 1."""
        lam = self.lam
        c_a = lam / (1.0 + lam)
        if self.model == "inelastic":
            # beta/2 and 1 - beta/2 by construction
            assert abs(c_a - self.beta / 2.0) < 1e-12
        return c_a, 1.0 - c_a

    @property
    def s1(self):
        if self._s1 is None:
            self._s1 = _angular_integral(self)
        return self._s1


def _bracket(spec: SFunctionSpec, w):
    """(c_a cos a + c_A cos A)^{-d-gamma} - 1, evaluated stably near w = 0."""
    c_a, c_A = spec.mixing_weight
    lam = spec.lam
    if spec.model == "elastic":
        a = A = 0.5 * np.asarray(w, dtype=float)
    else:
        a = _solve_angle_vec(np.asarray(w, dtype=float), lam)
        A = w - a
    # base - 1 without cancellation: cos x - 1 = -2 sin^2(x/2)
    delta = -2.0 * (c_a * np.sin(0.5 * a) ** 2 + c_A * np.sin(0.5 * A) ** 2)
    return np.expm1(-(spec.d + spec.gamma) * np.log1p(delta))


def _angular_mesh(n_panels, eps=1e-9):
    left = utils.log_edges(eps, math.pi / 2.0, n_panels)
    right = math.pi - utils.log_edges(eps, math.pi / 2.0, n_panels)[::-1]
    return np.concatenate([left, right[1:]])


def _s1_on_mesh(spec, edges, gl_nodes):
    w, wt = utils.panel_rule(edges, gl_nodes)
    if hasattr(spec.b, "from_angle"):
        bw = spec.b.from_angle(w)       # stable where cos(w) rounds to 1
    else:
        bw = spec.b(np.cos(w))
    vals = bw * np.sin(w) ** (spec.d - 2) * _bracket(spec, w)
    return float(utils.sphere_area(spec.d - 1) * np.sum(wt * vals))


def _angular_integral(spec: SFunctionSpec, n_panels=24, gl_nodes=24):
    """The w-integral S1, with a refinement tail test.

    Endpoints contribute nothing (the bracket vanishes at 0 and the measure
    at pi), so the graded interior mesh excludes them. A profile with a
    non-integrable angular singularity (s >= 1 strength) shows up as mesh
    dependence and raises DivergentIntegral.
    """
    coarse = _s1_on_mesh(spec, _angular_mesh(n_panels, eps=1e-6), gl_nodes)
    fine = _s1_on_mesh(spec, _angular_mesh(2 * n_panels, eps=1e-9), 2 * gl_nodes)
    if not np.isfinite(fine) or abs(fine - coarse) > 1e-5 * max(abs(fine), 1e-300):
        raise DivergentIntegral(
            f"angular integral fails refinement test: {coarse} vs {fine}")
    return fine


def S_value(rel_speed, spec: SFunctionSpec):
    """S(|v - v*|) = rel_speed^gamma * S1(spec); strictly positive."""
    rel_speed = np.asarray(rel_speed, dtype=float)
    if np.any(rel_speed <= 0.0):
        raise ValueError("rel_speed must be positive")
    out = rel_speed ** spec.gamma * spec.s1
    return float(out) if out.ndim == 0 else out


def Q_ns_apply(f: DensityField, g_at_v, v, spec: SFunctionSpec):
    """Nonsingular part g(v) * integral f(v*) S(|v - v*|) dv*.

    Uses the factorization S = r^gamma S1, so the velocity integral reduces
    to the radial moment of f around v. Nonnegative for nonnegative inputs.
    """
    if g_at_v == 0.0:
        return 0.0
    moment = f.radial_moment(np.asarray(v, dtype=float), spec.gamma)
    return float(g_at_v * spec.s1 * moment)


def elastic_reference(d, gamma, b):
    """The elastic cancellation function spec (a = A = w/2 closed split)."""
    return SFunctionSpec(model="elastic", d=d, gamma=gamma, b=b)
