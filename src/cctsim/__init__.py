"""Counterfactual concealed telecomputation: exact simulation and verification.

Submodules:

* ``hilbert``  - dense states/operators over mixed-dimension registers
* ``gates``    - constructors for every named protocol gate
* ``protocol`` - exact logical runs, closed-form oracles, verification
* ``zeno``     - stage probabilities and optical-gate Monte Carlo
* ``checks``   - the acceptance checklist driven by tests and the CLI
* ``cli``      - run / sweep / montecarlo / verify front end
"""

from __future__ import annotations

__version__ = "0.1.0"

from .gates import EulerAngles
from .hilbert import Operator, StateVector, apply, fidelity, measure, schmidt_rank, tensor
from .protocol import (
    BellInput,
    GeneralInput,
    Transcript,
    VerificationReport,
    expected_output_bell,
    expected_output_general,
    outcome_statistics,
    run_bell,
    run_general,
    verify_bell,
    verify_general,
)
from .zeno import (
    AbsorberModel,
    CycleConfig,
    MonteCarloReport,
    OutcomeKind,
    TrajectoryOutcome,
    simulate_cct,
    simulate_cqz,
    simulate_qz,
    stage_probabilities_bell,
    stage_probabilities_general,
)

__all__ = [
    "__version__",
    "AbsorberModel",
    "BellInput",
    "CycleConfig",
    "EulerAngles",
    "GeneralInput",
    "MonteCarloReport",
    "Operator",
    "OutcomeKind",
    "StateVector",
    "Transcript",
    "TrajectoryOutcome",
    "VerificationReport",
    "apply",
    "expected_output_bell",
    "expected_output_general",
    "fidelity",
    "measure",
    "outcome_statistics",
    "run_bell",
    "run_general",
    "schmidt_rank",
    "simulate_cct",
    "simulate_cqz",
    "simulate_qz",
    "stage_probabilities_bell",
    "stage_probabilities_general",
    "tensor",
    "verify_bell",
    "verify_general",
]
