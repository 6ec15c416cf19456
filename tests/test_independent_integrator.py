"""The stepped closed loop against an independent integrator.

`run` steps the lifted operator by RK4; here a high-order adaptive method
(scipy's ``DOP853``) integrates `oracles.composed_rhs`, the derivative
composed per block and agent, from the same draw and start. Both the
integrator and the derivative are independent of `run`'s, so agreement at
RK4's order shows that the trajectory solves the ODE, not only that two
copies of one stepper agree.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from nesim.simulation import assemble, run
from oracles import box_start, composed_rhs

scipy_integrate = pytest.importorskip("scipy.integrate")  # in the `test` extra

# max |y - y_ref| at 2 s and dt 1e-3, measured 1.94e-9 (2-core Xeon, numpy 2.4.6, scipy
# 1.17.1); the bound allows twice that, for other BLAS and CPUs rounding differently
ERROR_BOUND_DT_1E3 = 4e-9


def test_run_converges_to_the_reference_at_order_four(sec5):
    # sec5 at x4 gains, seed 1's draw and start, 2 s; the reference's tolerances sit under
    # RK4's error at dt 5e-4 (1.2e-10): at rtol 1e-12 its own error floors near 1.5e-12
    scenario = dataclasses.replace(sec5.escalated(4.0), t_final=2.0, decimate=1)
    x0, draw = box_start(scenario, 1)
    loop = assemble(scenario, draws=draw[None])
    ref = scipy_integrate.solve_ivp(lambda t, x: composed_rhs(loop, x)[0], (0.0, 2.0), x0,
                                    method="DOP853", rtol=2.5e-14, atol=1e-15)
    assert ref.success
    lay = scenario.layout()
    y_ref = ref.y[lay.x.start:lay.x.start + scenario.n, -1]
    errors = []
    for dt in (2e-3, 1e-3):
        traj = run(dataclasses.replace(scenario, dt=dt), seed=1)
        assert traj.t[-1] == 2.0 and not traj.diverged
        errors.append(np.abs(traj.y[-1] - y_ref).max())
    assert 14.0 <= errors[0] / errors[1] <= 18.0  # RK4's 2^4 = 16
    assert errors[1] <= ERROR_BOUND_DT_1E3
