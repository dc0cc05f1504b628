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

The first six are package attributes too, and so is every name in
``__all__``: reading one loads only its home layer in ``_HOMES``, the
layer that defines it, and what that layer imports.
"""

from __future__ import annotations

__version__ = "0.1.0"

# The layer that defines each public name.
_HOMES = {
    **dict.fromkeys(("BellInput", "EulerAngles", "GeneralInput"), "inputs"),
    **dict.fromkeys(("Operator", "StateVector", "apply", "fidelity", "schmidt_rank", "tensor"), "hilbert"),
    **dict.fromkeys(
        ("Transcript", "VerificationReport", "expected_output_bell", "expected_output_general",
         "outcome_statistics", "run_bell", "run_general", "verify_bell", "verify_general"),
        "protocol",
    ),
    "CycleConfig": "stages",
    **dict.fromkeys(
        ("AbsorberModel", "MonteCarloReport", "OutcomeKind", "TrajectoryOutcome",
         "simulate_cct", "simulate_cqz", "simulate_qz"),
        "zeno",
    ),
}

__all__ = ["__version__", *_HOMES]

_LAYERS = ("inputs", "hilbert", "gates", "protocol", "stages", "zeno")


def __getattr__(name: str):
    """Import a layer, or the layer defining a public name, on first access
    (PEP 562) and bind the name here, so this runs once per name."""
    if name in _LAYERS:
        # The import statement's own path, which binds the layer here and
        # which ``-X importtime`` reports.
        __import__(f"{__name__}.{name}")
    elif name in _HOMES:
        globals()[name] = getattr(__getattr__(_HOMES[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAYERS})
