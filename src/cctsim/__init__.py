"""Counterfactual concealed telecomputation: exact simulation and verification.

Submodules, each imported on first use (``import cctsim`` loads none):

* ``inputs``   - the input records (Euler angles, general and Bell-type
  inputs) and the integer, count, seed and unit-pair rules (loads no
  other layer)
* ``hilbert``  - dense states/operators over mixed-dimension registers
  (loads inputs)
* ``gates``    - constructors for every named protocol gate (loads hilbert)
* ``protocol`` - exact logical runs, closed-form oracles, verification
  (loads gates and the layers below it)
* ``stages``   - closed-form gate and stage probabilities (loads inputs)
* ``zeno``     - optical-gate and protocol Monte Carlo (loads stages and
  protocol)
* ``checks``   - the acceptance checklist driven by tests and the CLI
* ``cli``      - run / sweep / montecarlo / verify front end (loads
  stages; ``sweep`` loads nothing more, ``run`` loads protocol,
  ``montecarlo`` zeno, ``verify`` checks)

The first six, and every name in ``__all__``, are package attributes too.
"""

from __future__ import annotations

__version__ = "0.1.0"

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

# Each layer imports only layers before it here, and re-exports only their
# names, so the first layer holding a public name is the one that defines it.
_LAYERS = ("inputs", "hilbert", "gates", "protocol", "stages", "zeno")


def __getattr__(name: str):
    """Import a layer, or the layers up to the one defining a public name, on
    first access (PEP 562) and bind the name here, so this runs once per name."""
    if name in _LAYERS:
        # The import statement's own path, which binds the layer here and
        # which ``-X importtime`` reports.
        __import__(f"{__name__}.{name}")
    elif name in __all__:
        for layer in _LAYERS:
            module = __getattr__(layer)
            if hasattr(module, name):
                globals()[name] = getattr(module, name)
                break
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAYERS})
