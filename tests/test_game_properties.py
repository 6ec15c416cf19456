"""Property tests of the sampled custom-game constants (hypothesis)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")  # in the `test` extra
from hypothesis import given, settings, strategies as st

import nesim.game
from nesim.errors import NotStronglyMonotone
from factories import wrap_custom
from nesim.game import QuadraticAggregativeGame, estimate_constants, pseudo_gradient, solve_ne
from oracles import reference_constants
from strategies import quadratic_games


@st.composite
def wrapped_quadratic_games(draw):
    """A strongly monotone quadratic game behind cost callables, on a random box."""
    n = draw(st.integers(2, 4))
    coeffs = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    h1, h3 = (np.array(draw(st.lists(coeffs, min_size=n, max_size=n))) for _ in range(2))
    h2 = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    # h2 in [0, 1] keeps the Jacobian's symmetric part above 1.5 I for n <= 4
    game = QuadraticAggregativeGame(h1=h1, h2=h2, h3=h3)
    center = draw(st.floats(-3.0, 3.0))
    half_width = draw(st.sampled_from([5e-9, 1e-3, 4.0]))  # the first takes the skips
    return wrap_custom(game, box=np.tile([center - half_width, center + half_width], (n, 1)))


@settings(max_examples=20)
@given(game=wrapped_quadratic_games(), seed=st.integers(0, 2 ** 32 - 1),
       n_samples=st.integers(1, 300), chunk_bytes=st.sampled_from([1, 4096, None]))
def test_chunked_constants_match_per_sample_reference(game, seed, n_samples, chunk_bytes):
    chunk_bytes = nesim.game.SAMPLE_CHUNK_BYTES if chunk_bytes is None else chunk_bytes
    want = reference_constants(game, n_samples, seed)
    with mock.patch.object(nesim.game, "SAMPLE_CHUNK_BYTES", chunk_bytes):
        if want.strong_mono <= 0:  # finite-difference noise on the narrowest box
            with pytest.raises(NotStronglyMonotone):
                estimate_constants(game, n_samples=n_samples, seed=seed)
        else:
            assert estimate_constants(game, n_samples=n_samples, seed=seed) == want


@pytest.mark.parametrize("n", range(2, 6))
@settings(max_examples=25)
@given(data=st.data())
def test_equilibrium_of_a_drawn_quadratic_game_zeroes_the_pseudo_gradient(n, data):
    # one linear solve: 3000 draws (750 per n) left at most 6.2e-15
    section = data.draw(quadratic_games(n))
    game = QuadraticAggregativeGame(**{key: np.array(section[key]) for key in ("h1", "h2", "h3")})
    assert np.linalg.norm(pseudo_gradient(game, solve_ne(game))) <= 1e-10
