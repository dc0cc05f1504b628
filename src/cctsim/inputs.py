"""Input records of the protocols: Bob's Euler angles and the general and
Bell-type inputs on Alice's and Bob's qubits.

Every layer above reads these records, and a sweep reads nothing else of the
dense protocol, so they live here, above ``hilbert`` alone: a sweep loads
neither ``gates`` nor ``protocol``.  ``gates`` re-exports ``EulerAngles`` and
``protocol`` re-exports all three, as the same objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hilbert import _check_unit_pair, _is_integer


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
