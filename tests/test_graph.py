from __future__ import annotations

import numpy as np
import pytest

from nesim.graph import CommGraph, lambda2, laplacian
from oracles import bfs_connected


def random_graph(rng, n, p_edge=0.4):
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
    return CommGraph(w)


def test_two_node_laplacian():
    g = CommGraph.from_edges(2, [(0, 1, 1.0)])
    assert np.allclose(laplacian(g), [[1, -1], [-1, 1]])


def test_cycle_laplacian_structure():
    g = CommGraph.ring(4)
    L = laplacian(g)
    assert np.allclose(np.diag(L), 2.0)
    assert np.allclose(L[0, [1, 3]], -1.0)
    assert L[0, 2] == 0.0


def test_edgeless_graph_zero_laplacian():
    g = CommGraph(np.zeros((3, 3)))
    assert np.allclose(laplacian(g), 0.0)


@pytest.mark.parametrize("build,expected", [
    (lambda: CommGraph.ring(4), 2.0),
    (lambda: CommGraph(np.ones((4, 4)) - np.eye(4)), 4.0),
    (lambda: CommGraph.from_edges(3, [(0, 1), (1, 2)]), 1.0),
    (lambda: CommGraph.from_edges(4, [(0, 1), (2, 3)]), 0.0),  # two components
])
def test_lambda2_known_graphs(build, expected):
    assert lambda2(build()) == pytest.approx(expected, abs=1e-9)


def test_laplacian_annihilates_ones():
    # exact for integer weights; float weights leave rounding-level residue
    for n in (3, 5, 8):
        g = CommGraph.ring(n)
        assert np.abs(laplacian(g) @ np.ones(n)).max() == 0.0
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 9)))
        assert np.abs(laplacian(g) @ np.ones(g.n)).max() < 1e-13


def test_connected_graph_spectrum():
    rng = np.random.default_rng(2)
    found = 0
    while found < 20:
        g = random_graph(rng, int(rng.integers(2, 9)), p_edge=0.7)
        if not bfs_connected(g):
            continue
        eigs = np.sort(np.linalg.eigvalsh(laplacian(g)))
        assert abs(eigs[0]) < 1e-9
        assert eigs[1] > 0
        found += 1


def test_bfs_agrees_with_spectral_gap():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 9)))
        assert bfs_connected(g) == (lambda2(g) > 1e-9)


def test_graph_validation():
    with pytest.raises(ValueError):
        CommGraph(np.array([[0.0, 1.0], [0.5, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        CommGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative weight
    with pytest.raises(ValueError):
        CommGraph(np.array([[1.0]]))  # too small
