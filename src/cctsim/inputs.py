"""Input records of the protocols and the rules their fields follow: Bob's
Euler angles, the general and Bell-type inputs on Alice's and Bob's qubits,
and the integer, count, seed and unit-pair rules.

Every layer above reads these records and rules, and a sweep reads nothing
else of the dense protocol, so they live here, the lowest layer: loading it
loads no other cctsim module, and a sweep loads neither ``hilbert``,
``gates`` nor ``protocol``.  ``gates`` re-exports ``EulerAngles`` and
``protocol`` re-exports all three records, as the same objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Normalization / unitarity tolerance.
NORMALIZATION_TOL = 1e-12


def unit_pair_error(c0: complex, c1: complex) -> str | None:
    """None when both amplitudes are finite and |c0|^2 + |c1|^2 is within
    NORMALIZATION_TOL of 1; otherwise the diagnostic, for the caller to
    prefix with the pair's name.

    Written so that NaN fails: every comparison with NaN is False.
    """
    c0, c1 = complex(c0), complex(c1)
    total = abs(c0) ** 2 + abs(c1) ** 2
    finite = all(math.isfinite(part) for part in (c0.real, c0.imag, c1.real, c1.imag))
    if finite and abs(total - 1.0) <= NORMALIZATION_TOL:
        return None
    return f"amplitudes must be finite with |c0|^2 + |c1|^2 = 1, got {total!r}"


def _check_unit_pair(label: str, c0: complex, c1: complex) -> None:
    """Raise unit_pair_error's diagnostic, prefixed with ``label``, as a ValueError."""
    error = unit_pair_error(c0, c1)
    if error:
        raise ValueError(f"{label} {error}")


def _is_integer(value: object) -> bool:
    """True for Python and numpy integers; False for bools and floats, although
    True and 1.0 compare equal to 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_count(value: object) -> bool:
    """The rule for trial and cycle counts: a Python or numpy integer >= 1.
    A bool, a float (even an integral one) and None are not counts."""
    return _is_integer(value) and value >= 1


def _as_seed(value: object) -> int:
    """The rule for campaign seeds: a Python or numpy integer >= 0, returned
    as a Python int, which a report's JSON can hold.  A bool is not a seed,
    although default_rng takes True as 1."""
    if _is_integer(value) and value >= 0:
        return int(value)
    raise ValueError(f"seed must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class EulerAngles:
    """Z-Y-Z decomposition angles (phi, theta, varphi), plain radians.

    The single-qubit unitary parameterized here is
    rotation_z(phi) @ rotation_y(theta) @ rotation_z(varphi); no range
    normalization is applied, but each angle must be finite.
    """

    phi: float
    theta: float
    varphi: float

    def __post_init__(self) -> None:
        for name in ("phi", "theta", "varphi"):
            _check_angle(getattr(self, name), "Euler angle " + name)


def _check_angle(value: float, label: str) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value!r}")


def _check_bit(value: int, what: str) -> None:
    """Reject anything but the integer 0 or 1.  Gate constructors cached on
    such a label use typed caches so that True and 1.0 reach this check."""
    if not _is_integer(value) or value not in (0, 1):
        raise ValueError(f"{what} must be 0 or 1, got {value}")


@dataclass(frozen=True)
class GeneralInput:
    """Product input: (alpha, beta) on A, (gamma, delta) on B, plus Bob's angles."""

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex
    angles: EulerAngles

    def __post_init__(self) -> None:
        _check_unit_pair("target (alpha, beta)", self.alpha, self.beta)
        _check_unit_pair("control (gamma, delta)", self.gamma, self.delta)


@dataclass(frozen=True)
class BellInput:
    """Entangled two-qubit input of class ``ell`` with relative sign +-1.

    ``(c0, c1)`` weight the |0 ell> and |1 1-ell> components, so class 0
    states read c0|00> + sign*c1|11> and class 1 states c0|01> + sign*c1|10>.
    """

    ell: int
    sign: int
    c0: complex
    c1: complex
    angles: EulerAngles

    def __post_init__(self) -> None:
        _check_bit(self.ell, "class index")
        if not _is_integer(self.sign) or self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        _check_unit_pair("(c0, c1)", self.c0, self.c1)
