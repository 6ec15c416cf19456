"""Hypothesis strategies for drawn instances, as scenario-file sections.

Importing this module needs ``hypothesis``: a test module skips itself with
``pytest.importorskip("hypothesis")`` before it imports this one.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from nesim.internal_model import StabilizerPair


def quadratic_games(n: int, h1=(1.0, 5.0), h2=(1.5, 3.0), h3=(0.2, 1.0)):
    """A ``quadratic_aggregative`` game section of ``n`` players.

    Each coefficient is drawn from its closed range ``(lo, hi)``. With ``h2``
    positive the game is strongly monotone: the symmetric part of its
    Jacobian ``2 I + diag(h2) (1 1^T + I)`` is at least
    ``2 + min h2 + (sum h2 - sqrt(n sum h2^2)) / 2``, which the default
    ranges keep above 3 for n <= 5.
    """
    def coefficients(lo, hi):
        return st.lists(st.floats(lo, hi), min_size=n, max_size=n)

    return st.fixed_dictionaries({"kind": st.just("quadratic_aggregative"),
                                  "h1": coefficients(*h1), "h2": coefficients(*h2),
                                  "h3": coefficients(*h3)})


@st.composite
def connected_graphs(draw, n: int, weights=(0.5, 2.0)):
    """A graph section on ``n`` nodes: a random spanning tree plus random extra edges.

    The tree joins each node, in a drawn order, to one drawn node before it;
    the extra edges are a drawn subset of the other pairs. Each edge weight
    is drawn from the closed range ``weights``.
    """
    order = draw(st.permutations(range(n)))
    tree = {tuple(sorted((order[k], order[draw(st.integers(0, k - 1))]))) for k in range(1, n)}
    others = [pair for pair in combinations(range(n), 2) if pair not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    weight = st.floats(*weights)
    return {"n": n, "edges": [[i, j, draw(weight)] for i, j in sorted(tree | set(extra))]}


@st.composite
def stabilizer_pairs(draw, order: int, roots=(-5.0, -0.5), gap=0.25):
    """A `StabilizerPair` of ``order`` (1 to 5) with distinct real roots.

    The roots lie in the closed range ``roots``, each at least ``gap`` from the
    next: drawn as sorted offsets spread over the range's slack. ``M`` is the
    companion matrix of their polynomial and ``N = e_n``, controllable by
    construction. Optionally the pair is conjugated, ``(S M S^-1, S N)``, by
    ``S = I + E`` with ``|E|_2 <= 0.8``, so ``cond(S) <= 1.8 / 0.2 = 9``.
    """
    lo, hi = roots
    slack = hi - lo - gap * (order - 1)
    offsets = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=order, max_size=order)))
    poly = np.poly([lo + gap * k + slack * u for k, u in enumerate(offsets)])
    M, N = np.eye(order, k=1), np.eye(order)[-1]
    M[-1] = -poly[1:][::-1]
    if draw(st.booleans()):
        E = np.reshape(draw(st.lists(st.floats(-1.0, 1.0), min_size=order * order,
                                     max_size=order * order)), (order, order))
        S = np.eye(order) + E * min(1.0, 0.8 / max(np.linalg.norm(E, 2), 1e-300))
        M, N = S @ M @ np.linalg.inv(S), S @ N
    return StabilizerPair(M=M, N=N)
