"""Property tests of the plant hooks' contracts (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")  # in the `test` extra
from hypothesis import given, settings, strategies as st

import factories
from nesim.plant import example_plant

# each plant of the test factories, and the built-in one, from sec5's `g`
PLANTS = {
    "example_plant": example_plant,
    "build_plant": lambda g: factories.build_plant(len(g)),
    "build_plant_off_origin": lambda g: factories.build_plant_off_origin(len(g), 0.1),
    "build_plant_with_offset_zero_map":
        lambda g: factories.build_plant_with_offset_zero_map(len(g), 0.01),
    "build_plant_without_split": factories.build_plant_without_split,
    "build_plant_with_offset_steady_state_poly":
        lambda g: factories.build_plant_with_offset_steady_state(g, "steady_poly", 0.01),
    "build_plant_with_offset_steady_state_zero":
        lambda g: factories.build_plant_with_offset_steady_state(g, "steady_zero", 0.01),
    "build_plant_with_malformed_split":
        lambda g: factories.build_plant_with_malformed_split(g, "one_flat_draw"),
}


@pytest.mark.parametrize("make", PLANTS.values(), ids=PLANTS)
@settings(max_examples=15)
@given(data=st.data())
def test_steady_zero_maps_a_stack_as_its_rows_one_by_one(make, sec5, data):
    # `z_star` reads a whole trace in one call: row k of the result is the call on row k alone
    model = make(sec5.plant.params["g"])
    n, n_v = model.n_agents, sec5.exo.n_v
    floats = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    k = data.draw(st.integers(1, 8), label="K")
    vs = np.array(data.draw(st.lists(st.lists(floats, min_size=n_v, max_size=n_v),
                                     min_size=k, max_size=k), label="vs"))
    s = np.array(data.draw(st.lists(floats, min_size=n, max_size=n), label="s"))
    w = np.array(data.draw(st.lists(st.floats(-0.05, 0.05), min_size=model.n_w,
                                    max_size=model.n_w), label="w"))
    stack = model.steady_zero(s, vs, w)
    assert stack.shape == (k, n, model.n_z)
    assert np.array_equal(stack, np.stack([model.steady_zero(s, v, w) for v in vs]))
