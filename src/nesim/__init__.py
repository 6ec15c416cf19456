"""Nash equilibrium seeking for dynamic multi-agent systems.

A library and CLI simulator for monotone games played by agents with
lower-triangular nonlinear uncertain dynamics under sinusoidal disturbances:
distributed gradient-play reference generation, linear internal-model
synthesis, backstepping state feedback, and closed-loop verification.
"""

from .controller import ControllerGains, escalate_gains, transform
from .game import (CustomGame, GradientConstants, QuadraticAggregativeGame,
                   estimate_constants, extended_pseudo_gradient, partial_gradient,
                   pseudo_gradient, solve_ne)
from .generator import GeneratorGains, min_gamma2, run_generator
from .graph import CommGraph, is_connected, lambda2, laplacian
from .internal_model import (CompanionPair, InternalModelBank, StabilizerPair,
                             companion_from_coeffs, default_stabilizer,
                             solve_sylvester, synthesize_bank, verify_reproduction)
from .plant import (Exosystem, PlantModel, SteadyState, example_plant, sample_uncertainty,
                    steady_state_chain)
from .simulation import (ClosedLoopTrajectory, Scenario, assemble, metrics, run,
                         write_csv)
from .config import load_scenario

__version__ = "0.1.0"
