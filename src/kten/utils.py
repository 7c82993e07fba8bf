"""Shared numerics: sphere measures, quadrature rules, RNG streams, log-log fits."""

import functools
import hashlib
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

# Fixed documented default seed for every randomized entry point; wall-clock
# seeding is never used so that runs are reproducible by default.
DEFAULT_SEED = 20101

_PHILOX_KEY_HI = 0x9E3779B97F4A7C15


def substream(seed, *path):
    """Independent counter-based generator keyed by (seed, *path).

    Streams with distinct paths never overlap: path words occupy the high
    words of the Philox counter while generation only advances the low word.
    Up to three path components are supported.
    """
    if len(path) > 3:
        raise ValueError("at most 3 path components")
    counter = np.zeros(4, dtype=np.uint64)
    for i, p in enumerate(path):
        counter[i + 1] = np.uint64(int(p) & 0xFFFFFFFFFFFFFFFF)
    key = np.array([np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(_PHILOX_KEY_HI)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def sphere_area(d):
    """Surface measure of the unit sphere S^{d-1}; S^0 counts as 2."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return 2.0
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def ball_volume(d, radius=1.0):
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * radius ** d


@functools.lru_cache(maxsize=64)
def legendre_rule(n):
    """Gauss-Legendre nodes/weights on [-1, 1], solved once per n; shared, so read-only."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(a, b, n):
    """Gauss-Legendre nodes/weights on [a, b]."""
    x, w = legendre_rule(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def panel_rule(edges, n_per_panel):
    """Composite Gauss-Legendre rule over consecutive panels.

    One reference rule mapped onto every panel at once; the same scalar
    operations as `gauss_legendre` per panel, so the nodes are bit-identical.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = legendre_rule(n_per_panel)
    lo = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - lo)
    return (lo + half * (x + 1.0)).ravel(), (half * w).ravel()


def log_edges(a, b, n_panels):
    """Logarithmically spaced panel edges; requires 0 < a < b."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    return np.exp(np.linspace(math.log(a), math.log(b), n_panels + 1))


def sphere_rule(d, n_polar=16, n_azimuth=32):
    """Quadrature rule on S^{d-1}: directions (m, d) and weights summing to |S^{d-1}|.

    d == 2 uses the (spectrally accurate) uniform circle rule; d == 3 a
    Gauss-Legendre x uniform product rule. Even azimuth counts make the rule
    antipodally symmetric, which the singular-part quadrature relies on.
    """
    if d == 2:
        m = max(4, n_azimuth)
        ang = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return dirs, np.full(m, 2.0 * math.pi / m)
    if d == 3:
        mu, wmu = legendre_rule(n_polar)
        phi = 2.0 * math.pi * (np.arange(n_azimuth) + 0.5) / n_azimuth
        smu = np.sqrt(1.0 - mu ** 2)
        x = np.outer(smu, np.cos(phi)).ravel()
        y = np.outer(smu, np.sin(phi)).ravel()
        z = np.repeat(mu, n_azimuth)
        dirs = np.stack([x, y, z], axis=1)
        w = np.repeat(wmu, n_azimuth) * (2.0 * math.pi / n_azimuth)
        return dirs, w
    raise ValueError("only d = 2 and d = 3 are supported")


def circle_rule(d, n):
    """Rule on S^{d-2} (the angular factor of a hyperplane): points (m, d-1), weights.

    For d == 2 the hyperplane is a line and S^0 carries counting measure 2.
    """
    if d == 2:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 3:
        ang = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return pts, np.full(n, 2.0 * math.pi / n)
    raise ValueError("only d = 2 and d = 3 are supported")


def row_dot(a, b):
    """<a, b> over the last axis.

    Summed column by column in index order, which is the order np.sum takes
    over a 2- or 3-wide last axis, so the bits match it at a fraction of its
    cost.
    """
    out = a[..., 0] * b[..., 0]
    for k in range(1, np.shape(a)[-1]):
        out = out + a[..., k] * b[..., k]
    return out


def grid_counts(x, edges):
    """Counts of the rows of x (n, d) over the uniform grid edges^d.

    The counts of NumPy's d-dimensional histogram with these edges on every
    axis, as integers: a row outside [edges[0], edges[-1]] in any column is
    dropped, and edges[-1] falls in the last bin. Each column is placed the
    way np.histogram places values in uniform bins, by arithmetic corrected
    against the edges, not by searchsorted.
    """
    x = np.asarray(x, dtype=float)
    edges = np.asarray(edges, dtype=float)
    d = x.shape[1]
    bins = len(edges) - 1
    lo, hi = edges[0], edges[-1]
    if x.size and not (lo <= x.min() and x.max() <= hi):     # NaN fails too
        x = x[((x >= lo) & (x <= hi)).all(axis=1)]
    norm = bins / (hi - lo)
    flat = np.zeros(len(x), dtype=np.intp)
    for k in range(d):
        col = x[:, k]
        idx = ((col - lo) * norm).astype(np.intp)
        np.minimum(idx, bins - 1, out=idx)
        # the arithmetic index can be one off within an ulp of an edge
        idx -= col < edges[idx]
        idx += (col >= edges[idx + 1]) & (idx != bins - 1)
        flat = flat * bins + idx
    return np.bincount(flat, minlength=bins ** d).reshape((bins,) * d)


def _row_norms(x):
    # the stacked (1, d) @ (d, 1) products sum like the dot product that
    # np.linalg.norm takes of a single vector; einsum and np.sum can differ
    # from it in the last bit
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def tangent_basis(normal):
    """Deterministic orthonormal basis of the hyperplane orthogonal to `normal`.

    Returns an array of shape (d-1, d) for a normal of shape (d,), and one
    basis per row, shape (L, d-1, d), for normals of shape (L, d). Built from
    a Householder reflection, so nearby normals give nearby bases.
    """
    n = np.asarray(normal, dtype=float)
    single = n.ndim == 1
    n = np.atleast_2d(n)
    d = n.shape[1]
    n = n / _row_norms(n)[:, None]
    v = n.copy()
    v[:, 0] = np.where(n[:, 0] >= 0.0, n[:, 0] - 1.0, n[:, 0] + 1.0)   # n -/+ e1
    nv = _row_norms(v)
    flat = nv < 1e-14                    # n is +-e1: the reflection degenerates
    v = v / np.where(flat, 1.0, nv)[:, None]
    h = np.eye(d) - 2.0 * (v[:, :, None] * v[:, None, :])
    h[flat] = np.eye(d)
    basis = h[:, 1:]
    return basis[0] if single else basis


def fit_linear(x, y):
    """Least squares y = slope x + intercept; returns (slope, intercept, r2, ci95)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    a = np.stack([x, np.ones(n)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(a, y, rcond=None)
    slope, intercept = coef
    pred = a @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    if n > 2:
        sigma2 = ss_res / (n - 2)
        sxx = float(np.sum((x - x.mean()) ** 2))
        ci = 1.96 * math.sqrt(sigma2 / sxx) if sxx > 0 else math.inf
    else:
        ci = math.inf
    return float(slope), float(intercept), float(r2), float(ci)


def fit_loglog(x, y):
    """Least-squares slope of log y vs log x.

    Returns (slope, intercept, r_squared, slope_ci95). Nonpositive data is
    rejected rather than silently dropped.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0) or np.any(x <= 0):
        raise ValueError("log-log fit requires positive data")
    return fit_linear(np.log(x), np.log(y))


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def format_float(x):
    """Shortest round-trip decimal form, used for deterministic CSV/JSON output."""
    return repr(float(x))
