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
    v = n - e if n[0] >= 0.0 else n + e
    nv = np.linalg.norm(v)
    if nv < 1e-14:
        return np.eye(n.size)[1:]
    v = v / nv
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
    # +-e1 takes the degenerate branch: the other unit vectors
    assert np.array_equal(batch[0], np.eye(d)[1:])
    assert np.array_equal(batch[1], np.eye(d)[1:])
    unit = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    assert np.max(np.abs(np.einsum("lkd,ld->lk", batch, unit))) < 1e-12
    gram = np.einsum("lkd,ljd->lkj", batch, batch)
    assert np.max(np.abs(gram - np.eye(d - 1))) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_row_dot_matches_sum_and_norm(d):
    rng = np.random.default_rng(10 + d)
    a = rng.normal(size=(50000, d)) * rng.uniform(1e-3, 1e3, size=(50000, 1))
    b = rng.normal(size=(50000, d))
    assert np.array_equal(utils.row_dot(a, b), np.sum(a * b, axis=-1))
    assert np.array_equal(np.sqrt(utils.row_dot(a, a)), np.linalg.norm(a, axis=-1))
    assert np.array_equal(utils.row_dot(a, b[0]), np.sum(a * b[0], axis=-1))
