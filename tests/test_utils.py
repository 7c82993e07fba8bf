import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from kten import utils


@pytest.mark.parametrize("n", [6, 8, 10, 24, 48])
def test_panel_rule_equals_per_panel_gauss_legendre(n):
    edges = np.concatenate([[0.0], utils.log_edges(1e-4, 37.0, 13)])
    nodes, weights = utils.panel_rule(edges, n)
    per_panel = [utils.gauss_legendre(lo, hi, n) for lo, hi in zip(edges[:-1], edges[1:])]
    assert np.array_equal(nodes, np.concatenate([x for x, _ in per_panel]))
    assert np.array_equal(weights, np.concatenate([w for _, w in per_panel]))


@pytest.mark.parametrize("n", [6, 10, 40, 64])
def test_cached_legendre_rule_keeps_the_bits(n):
    x, w = leggauss(n)
    cx, cw = utils.legendre_rule(n)
    assert np.array_equal(cx, x) and np.array_equal(cw, w)
    assert utils.legendre_rule(n)[0] is cx             # solved once per n
    assert utils.legendre_rule.cache_info().maxsize is not None
    for arr in (cx, cw):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the rules built on it equal the ones built on a fresh leggauss
    nodes, weights = utils.gauss_legendre(0.5, 3.0, n)
    assert np.array_equal(nodes, 0.5 + 1.25 * (x + 1.0))
    assert np.array_equal(weights, 1.25 * w)
    assert nodes.flags.writeable
    edges = np.array([0.0, 0.1, 1.0, 7.0])
    pn, pw = utils.panel_rule(edges, n)
    half = 0.5 * (edges[1:, None] - edges[:-1, None])
    assert np.array_equal(pn, (edges[:-1, None] + half * (x + 1.0)).ravel())
    assert np.array_equal(pw, (half * w).ravel())
    dirs, wd = utils.sphere_rule(3, n, 8)
    assert np.array_equal(dirs[:, 2], np.repeat(x, 8))
    assert np.array_equal(wd, np.repeat(w, 8) * (2.0 * math.pi / 8))


def _reference_tangent_basis(normal):
    # the one-normal construction, written out with np.linalg.norm
    n = normal / np.linalg.norm(normal)
    e = np.zeros(n.size)
    e[0] = 1.0
    v = n + e if n[0] >= 0.0 else n - e
    v = v / np.linalg.norm(v)
    return (np.eye(n.size) - 2.0 * np.outer(v, v))[1:]


@pytest.mark.parametrize("d", [2, 3])
def test_tangent_basis_batch_equals_single_normals(d):
    rng = np.random.default_rng(d)
    normals = rng.normal(size=(4000, d)) * rng.uniform(1e-3, 1e3, size=(4000, 1))
    normals[:4] = 0.0
    normals[0, 0], normals[1, 0], normals[2, 0], normals[3, 0] = 1.0, -1.0, 2.5, -1e-3
    batch = utils.tangent_basis(normals)
    singles = np.stack([utils.tangent_basis(n) for n in normals])
    assert batch.shape == (4000, d - 1, d)
    assert np.array_equal(batch, singles)
    assert np.array_equal(singles, np.stack([_reference_tangent_basis(n) for n in normals]))
    # +-e1 give the other unit vectors
    assert np.array_equal(batch[0], np.eye(d)[1:])
    assert np.array_equal(batch[1], np.eye(d)[1:])
    unit = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    assert np.max(np.abs(np.einsum("lkd,ld->lk", batch, unit))) < 1e-12
    gram = np.einsum("lkd,ljd->lkj", batch, batch)
    assert np.max(np.abs(gram - np.eye(d - 1))) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_tangent_vectors_are_coordinates_in_the_tangent_basis(d):
    rng = np.random.default_rng(10 + d)
    normals = rng.normal(size=(4000, d))
    normals[:2] = 0.0
    normals[0, 0], normals[1, 0] = 1.0, -1.0
    # within 1e-9 of +-e1, where a reflection onto n - e1 would cancel
    normals[2:1000, 1:] *= 1e-9
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    coords = rng.normal(size=(4000, d - 1))
    got = utils.tangent_vectors(normals, coords)
    basis = utils.tangent_basis(normals)
    want = np.einsum("lk,lkd->ld", coords, basis)
    assert np.max(np.abs(got - want)) < 1e-14
    assert np.array_equal(got[:2, 1:], coords[:2]) and np.all(got[:2, 0] == 0.0)
    assert np.max(np.abs(utils.row_dot(got, normals))) < 1e-14
    assert np.max(np.abs(np.einsum("lkd,ld->lk", basis, normals))) < 1e-15


@pytest.mark.parametrize("d", [2, 3])
def test_row_dot_matches_sum_and_norm(d):
    rng = np.random.default_rng(10 + d)
    a = rng.normal(size=(50000, d)) * rng.uniform(1e-3, 1e3, size=(50000, 1))
    b = rng.normal(size=(50000, d))
    assert np.array_equal(utils.row_dot(a, b), np.sum(a * b, axis=-1))
    assert np.array_equal(np.sqrt(utils.row_dot(a, a)), np.linalg.norm(a, axis=-1))
    assert np.array_equal(utils.row_dot(a, b[0]), np.sum(a * b[0], axis=-1))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("form", ["range", "edges"])
def test_grid_counts_equal_histogramdd(d, form):
    rng = np.random.default_rng(31 + d)
    for bins in (1, 7, 24, 32):
        x = rng.normal(size=(30000, d))
        lim = 1.05 * float(np.max(np.abs(x))) if form == "range" else 2.5
        edges = np.linspace(-lim, lim, bins + 1)
        x[:2000] = rng.choice(edges, size=(2000, d))        # on interior and end edges
        x[2000:2100, 0] = edges[-1]
        x[2100:2200, -1] = edges[0]
        on_edges = rng.choice(edges, size=(200, d))
        x[2200:2300] = np.nextafter(on_edges[:100], np.inf)   # an ulp above edges
        x[2300:2400] = np.nextafter(on_edges[100:], -np.inf)  # and below
        x[2400:2500, 0] = rng.choice([-1.0, 1.0], 100) * 3.0 * lim   # outside
        x[2500:2600, -1] = np.nextafter(edges[-1], np.inf)             # just outside
        x[2600:2610, 0] = np.nan
        ref = (np.histogramdd(x, bins=bins, range=[(-lim, lim)] * d)[0]
               if form == "range" else np.histogramdd(x, bins=[edges] * d)[0])
        counts = utils.grid_counts(x, edges)
        assert counts.shape == (bins,) * d
        assert np.array_equal(counts, ref)
        assert counts.sum() < len(x)                          # rows were dropped


@pytest.mark.parametrize("a,b", [(0.5, 1.5), (0.8, 2.0), (0.05, 1.6), (0.3, 0.2),
                                 (1.0, 3.0)])
def test_incomplete_beta_matches_scipy(a, b):
    from scipy.special import beta, betainc
    for x in (0.0, math.sin(0.005) ** 2, 0.3, 0.5, 0.7, 0.9):
        want = betainc(a, b, x) * beta(a, b)
        assert utils.incomplete_beta(x, a, b) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_incomplete_beta_with_nonpositive_b():
    # betainc needs b > 0; the series does not
    from scipy.integrate import quad
    for a, b, x in ((0.5, -0.5, 0.01), (0.1, -2.0, 0.3), (0.9, 0.0, 0.6)):
        want, _ = quad(lambda y: y ** (a - 1.0) * (1.0 - y) ** (b - 1.0), 0.0, x)
        assert utils.incomplete_beta(x, a, b) == pytest.approx(want, rel=1e-9)
    with pytest.raises(ValueError, match="x in"):
        utils.incomplete_beta(1.0, 0.5, 1.5)


@pytest.mark.parametrize("d", [2, 3])
def test_grid_counts_empty(d):
    edges = np.linspace(-1.0, 1.0, 5)
    counts = utils.grid_counts(np.empty((0, d)), edges)
    assert counts.shape == (4,) * d and not counts.any()
    assert np.array_equal(counts, np.histogramdd(np.empty((0, d)), bins=[edges] * d)[0])


def _layouts(d, seed):
    """The same random values as a single point, (n, d) rows, a C-order
    (L, nk, m, d) array and the coordinate-major view of a (d, L, nk, m) buffer."""
    rng = np.random.default_rng(seed)
    c_order = rng.normal(size=(5, 7, 6, d)) * rng.uniform(1e-3, 1e3, size=(5, 7, 1, 1))
    coord_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(c_order, -1, 0)), 0, -1)
    assert not coord_major.flags.c_contiguous and np.array_equal(coord_major, c_order)
    return {"point": c_order[1, 2, 3].copy(), "rows": c_order.reshape(-1, d).copy(),
            "c_order": c_order, "coord_major": coord_major,
            "fortran_rows": np.asfortranarray(c_order.reshape(-1, d))}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("layout", ["point", "rows", "c_order", "coord_major",
                                    "fortran_rows"])
def test_row_dot_layouts_keep_the_bits(d, layout):
    a = _layouts(d, 40 + d)[layout]
    b = _layouts(d, 50 + d)[layout]
    dot = utils.row_dot(a, b)
    assert dot.shape == a.shape[:-1]
    assert np.array_equal(dot, np.sum(a * b, axis=-1))
    assert np.array_equal(np.sqrt(utils.row_dot(a, a)), np.linalg.norm(a, axis=-1))
    if layout == "point":
        assert np.ndim(dot) == 0
