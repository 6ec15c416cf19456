"""Undirected weighted communication graph and its spectral queries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import symmetric_eigenvalues

CONNECTIVITY_EPS = 1e-9


@dataclass(frozen=True)
class CommGraph:
    """Communication topology given by a symmetric nonnegative weight matrix.

    ``weights[i, j] > 0`` means agents i and j exchange estimates; the
    diagonal is zero. Immutable after construction, freely shareable.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        if w.shape[0] < 2:
            raise ValueError("graph needs at least 2 nodes")
        if np.abs(w - w.T).max() > 0:
            raise ValueError("weight matrix must be symmetric")
        if (w < 0).any():
            raise ValueError("edge weights must be nonnegative")
        if np.abs(w.diagonal()).max() > 0:
            raise ValueError("self-loops are not allowed")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def from_edges(cls, n: int, edges) -> "CommGraph":
        """Build from an edge list of ``(i, j)`` (weight 1) or ``(i, j, weight)`` tuples."""
        w = np.zeros((n, n))
        for edge in edges:
            i, j, weight = edge if len(edge) == 3 else (*edge, 1.0)
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad edge ({i}, {j}) for n={n}")
            w[i, j] = w[j, i] = float(weight)
        return cls(w)

    @classmethod
    def ring(cls, n: int) -> "CommGraph":
        """The cycle ``0 - 1 - ... - (n-1) - 0`` with unit weights."""
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def laplacian(g: CommGraph) -> np.ndarray:
    """Weighted graph Laplacian: degree matrix minus weight matrix.

    Symmetric, positive semidefinite, rows sum to zero by construction.
    """
    return np.diag(g.weights.sum(axis=1)) - g.weights


def lambda2(g: CommGraph) -> float:
    """Second-smallest Laplacian eigenvalue (algebraic connectivity)."""
    return float(symmetric_eigenvalues(laplacian(g))[1])
