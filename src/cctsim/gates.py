"""Constructors for every named gate of the concealed telecomputation protocol.

Register conventions match the protocol layer: A is Alice's target qubit,
B is Bob's control qubit, C is the ancilla (a qutrit in the general
protocol, a qubit in the Bell-type variant).  Multi-register constructors
state which slice of the register they act on.

Matrices are assembled as explicit sums of |out><in| blocks over basis
labels rather than compiled from primitive gates, so each constructor can
be audited against its intended basis action line by line.  The
angle-keyed local operations (v11, v13, tilde_v1) write their 2x2 blocks
into fixed index pairs of an identity matrix, which gives the same entries
as the sum of kron(block, projector) terms without building it.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import NORMALIZATION_TOL, Operator


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
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"Euler angle {name} must be finite, got {value!r}")


_I2 = np.eye(2, dtype=np.complex128)
_I3 = np.eye(3, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
# X restricted to the {|0>,|1>} subspace of a qutrit, identity on |2>.
_X01_QUTRIT = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.complex128)
# Entries kept per angle-keyed constructor: a campaign over many distinct
# angles must not hold one operator per angle for the life of the process.
_ANGLE_CACHE_SIZE = 256


def _proj(dim: int, k: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[k, k] = 1.0
    return out


def _ketbra(dim: int, out_label: int, in_label: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[out_label, in_label] = 1.0
    return out


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz(varphi: float) -> np.ndarray:
    phase = cmath.exp(1j * varphi / 2.0)
    return np.array([[phase.conjugate(), 0], [0, phase]], dtype=np.complex128)


@lru_cache(maxsize=None)
def pauli_x() -> Operator:
    return Operator((2,), _X)


@lru_cache(maxsize=_ANGLE_CACHE_SIZE)
def rotation_y(theta: float) -> Operator:
    """Rotation about y: [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""
    return Operator((2,), _ry(theta))


@lru_cache(maxsize=_ANGLE_CACHE_SIZE)
def rotation_z(varphi: float) -> Operator:
    """Rotation about z: diag(e^{-i v/2}, e^{+i v/2})."""
    return Operator((2,), _rz(varphi))


def _euler(angles: EulerAngles) -> np.ndarray:
    return _rz(angles.phi) @ _ry(angles.theta) @ _rz(angles.varphi)


def euler_unitary(angles: EulerAngles) -> Operator:
    """General single-qubit unitary rotation_z(phi) . rotation_y(theta) . rotation_z(varphi)."""
    return Operator((2,), _euler(angles))


def u_m(angles: EulerAngles, m: int) -> Operator:
    """Outcome-dependent unitary: theta is negated when the ancilla read m=1."""
    if m not in (0, 1):
        raise ValueError(f"measurement outcome must be 0 or 1, got {m}")
    signed = EulerAngles(angles.phi, (-1) ** m * angles.theta, angles.varphi)
    return euler_unitary(signed)


def controlled_unitary(u: Operator) -> Operator:
    """Two-qubit controlled gate, target first: I (x) |0><0| + U (x) |1><1|."""
    if u.dims != (2,):
        raise ValueError(f"control block must be a single-qubit operator, got dims {u.dims}")
    if u.unitarity_defect() >= NORMALIZATION_TOL:
        warnings.warn("controlled_unitary called with a non-unitary block", stacklevel=2)
    entries = np.kron(_I2, _proj(2, 0)) + np.kron(u.entries, _proj(2, 1))
    return Operator((2, 2), entries)


def _blocks_on_b(c_dim: int, blocks: dict[int, np.ndarray]) -> np.ndarray:
    """Matrix on B (x) C acting as ``blocks[c]`` on B where C = c, identity elsewhere.

    Writes each 2x2 block into the rows and columns of |0, c> and |1, c>
    (indices c and c_dim + c) of an identity matrix: at every entry, the
    value of sum_c kron(block_c, |c><c|) plus the identity where no block sits.
    """
    entries = np.eye(2 * c_dim, dtype=np.complex128)
    for c, block in blocks.items():
        entries[c::c_dim, c::c_dim] = block
    return entries


@lru_cache(maxsize=_ANGLE_CACHE_SIZE)
def v11(angles: EulerAngles) -> Operator:
    """On B (x) C: apply rotation_z(varphi).X to B when C=1, identity when C is 0 or 2."""
    return Operator((2, 3), _blocks_on_b(3, {1: _rz(angles.varphi) @ _X}))


@lru_cache(maxsize=None)
def v12() -> Operator:
    """On B (x) C: swap C between 1 and 2 when B=1; identity when B=0."""
    entries = (
        np.kron(_proj(2, 0), _I3)
        + np.kron(_proj(2, 1), _proj(3, 0))
        + np.kron(_proj(2, 1), _ketbra(3, 2, 1))
        + np.kron(_proj(2, 1), _ketbra(3, 1, 2))
    )
    return Operator((2, 3), entries)


@lru_cache(maxsize=_ANGLE_CACHE_SIZE)
def v13(angles: EulerAngles) -> Operator:
    """On B (x) C: apply rotation_z(phi).rotation_y(theta) to B when C is 1 or 2."""
    b2 = _rz(angles.phi) @ _ry(angles.theta)
    return Operator((2, 3), _blocks_on_b(3, {1: b2, 2: b2}))


@lru_cache(maxsize=None)
def v14() -> Operator:
    """On B (x) C: flip B when C=2, identity when C is 0 or 1."""
    entries = np.kron(_I2, _proj(3, 0) + _proj(3, 1)) + np.kron(_X, _proj(3, 2))
    return Operator((2, 3), entries)


@lru_cache(maxsize=_ANGLE_CACHE_SIZE)
def v1(angles: EulerAngles) -> Operator:
    """Bob's composite local operation on B (x) C: v14 . v13 . v12 . v11."""
    return Operator((2, 3), v14().entries @ v13(angles).entries @ v12().entries @ v11(angles).entries)


@lru_cache(maxsize=None)
def q1() -> Operator:
    """On A (x) B (x) C: flip A exactly when (B, C) is (1,1) or (1,2)."""
    keep = [(0, 0), (0, 1), (1, 0), (0, 2)]
    flip = [(1, 1), (1, 2)]
    entries = sum(np.kron(_I2, np.kron(_proj(2, b), _proj(3, c))) for b, c in keep)
    entries = entries + sum(np.kron(_X, np.kron(_proj(2, b), _proj(3, c))) for b, c in flip)
    return Operator((2, 2, 3), entries)


@lru_cache(maxsize=None)
def q2() -> Operator:
    """On A (x) B (x) C: flip B exactly when (A, C) is (0,1) or (1,2)."""
    entries = (
        np.kron(_proj(2, 0) + _proj(2, 1), np.kron(_I2, _proj(3, 0)))
        + np.kron(_proj(2, 1), np.kron(_I2, _proj(3, 1)))
        + np.kron(_proj(2, 0), np.kron(_I2, _proj(3, 2)))
        + np.kron(_proj(2, 0), np.kron(_X, _proj(3, 1)))
        + np.kron(_proj(2, 1), np.kron(_X, _proj(3, 2)))
    )
    return Operator((2, 2, 3), entries)


@lru_cache(maxsize=None)
def v2() -> Operator:
    """On B (x) C: relabel the ancilla cyclically (1->0, 2->1, 0->2) when B=1."""
    cycle = _ketbra(3, 0, 1) + _ketbra(3, 1, 2) + _ketbra(3, 2, 0)
    entries = np.kron(_proj(2, 0), _I3) + np.kron(_proj(2, 1), cycle)
    return Operator((2, 3), entries)


@lru_cache(maxsize=None)
def q3(m: int) -> Operator:
    """Outcome correction on A (x) B: identity for m=0, (Z (x) X) Zc (I (x) X) for m=1."""
    if m not in (0, 1):
        raise ValueError(f"measurement outcome must be 0 or 1, got {m}")
    if m == 0:
        return Operator.identity((2, 2))
    zc = np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128)
    entries = np.kron(_Z, _X) @ zc @ np.kron(_I2, _X)
    return Operator((2, 2), entries)


@lru_cache(maxsize=None)
def toffoli() -> Operator:
    """On A (x) B (x) C: flip B exactly when A=1 and C=1 (C values 0 and 2 inert)."""
    entries = np.zeros((12, 12), dtype=np.complex128)
    for a in (0, 1):
        for c in (0, 1, 2):
            b_part = _X if (a == 1 and c == 1) else _I2
            entries += np.kron(_proj(2, a), np.kron(b_part, _proj(3, c)))
    return Operator((2, 2, 3), entries)


@lru_cache(maxsize=None)
def hadamard_on_qutrit() -> Operator:
    """Hadamard on the {|0>,|1>} subspace of the ancilla, identity on |2>.

    The |2> level carries no amplitude at the point this gate is used, so
    any unitary extension is equivalent; this is the minimal one.
    """
    h = 1.0 / math.sqrt(2.0)
    entries = np.array([[h, h, 0], [h, -h, 0], [0, 0, 1]], dtype=np.complex128)
    return Operator((3,), entries)


@lru_cache(maxsize=None)
def cnot() -> Operator:
    """Controlled flip on two qubits, control first: |0><0| (x) I + |1><1| (x) X."""
    entries = np.kron(_proj(2, 0), _I2) + np.kron(_proj(2, 1), _X)
    return Operator((2, 2), entries)


@lru_cache(maxsize=None)
def cnot_qutrit() -> Operator:
    """Controlled flip on B (x) C with a qutrit target: swaps C's 0 and 1 when B=1."""
    entries = np.kron(_proj(2, 0), _I3) + np.kron(_proj(2, 1), _X01_QUTRIT)
    return Operator((2, 3), entries)


def _x_power(exponent: int) -> np.ndarray:
    return _X if exponent % 2 else _I2


@lru_cache(maxsize=_ANGLE_CACHE_SIZE)
def tilde_v1(angles: EulerAngles, ell: int) -> Operator:
    """Bell-variant local operation on B (x) C: X^(1-ell) U X^ell on B when C=1."""
    if ell not in (0, 1):
        raise ValueError(f"class index must be 0 or 1, got {ell}")
    block = _x_power(1 - ell) @ _euler(angles) @ _x_power(ell)
    return Operator((2, 2), _blocks_on_b(2, {1: block}))


@lru_cache(maxsize=None)
def tilde_q1() -> Operator:
    """On A (x) B (x) C (all qubits): flip A exactly when (B, C) = (1, 1)."""
    keep = [(0, 0), (0, 1), (1, 0)]
    entries = sum(np.kron(_I2, np.kron(_proj(2, b), _proj(2, c))) for b, c in keep)
    entries = entries + np.kron(_X, np.kron(_proj(2, 1), _proj(2, 1)))
    return Operator((2, 2, 2), entries)


@lru_cache(maxsize=None)
def tilde_q2(ell: int) -> Operator:
    """On A (x) B (x) C: when C=1 apply X^(1-ell) to B if A=1 and X^ell if A=0."""
    if ell not in (0, 1):
        raise ValueError(f"class index must be 0 or 1, got {ell}")
    entries = (
        np.kron(_proj(2, 0) + _proj(2, 1), np.kron(_I2, _proj(2, 0)))
        + np.kron(_proj(2, 1), np.kron(_x_power(1 - ell), _proj(2, 1)))
        + np.kron(_proj(2, 0), np.kron(_x_power(ell), _proj(2, 1)))
    )
    return Operator((2, 2, 2), entries)
