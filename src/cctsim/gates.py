"""Constructors for every named gate of the concealed telecomputation protocol.

Register conventions match the protocol layer: A is Alice's target qubit,
B is Bob's control qubit, C is the ancilla (a qutrit in the general
protocol, a qubit in the Bell-type variant).  Multi-register constructors
state which slice of the register they act on.

Each matrix is made in one of two ways, so a constructor reads as its
intended action: a basis rule sending each basis ket's labels to its image's
(the fixed flips and relabellings), or controlled 2x2 blocks written into an
identity matrix (controlled_unitary, v11, v13, tilde_v1), which gives the
entries of sum_c kron(block_c, |c><c|) without building that sum.  v1 is a single
product: v13's block written where v14 and v12 move it, times v11.

The angle gates (rotation_y, rotation_z, euler_unitary, u_m, v11, v13, v1,
tilde_v1) hand their freshly built matrices to ``Operator._trusted``: their
dims are literals and their entries are complex128 by construction, so the
public constructor's copy and checks would find nothing to reject.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from functools import lru_cache

import numpy as np

from .hilbert import Operator
from .inputs import NORMALIZATION_TOL, EulerAngles, _check_angle, _check_bit

_I2 = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
# Identities on B (x) C for a qubit and a qutrit ancilla: a copy costs a
# fraction of a new np.eye.
_IDENTITY_ON_BC = {c_dim: np.eye(2 * c_dim, dtype=np.complex128) for c_dim in (2, 3)}
# Entries kept per angle-keyed constructor: a campaign over many distinct
# angles must not hold one operator per angle for the life of the process.
_ANGLE_CACHE_SIZE = 256


def _basis_gate(dims: tuple[int, ...], rule) -> Operator:
    """Operator over ``dims`` sending each basis ket |labels> to |rule(*labels)>."""
    entries = np.zeros((math.prod(dims),) * 2, dtype=np.complex128)
    for col, labels in enumerate(itertools.product(*map(range, dims))):
        entries[np.ravel_multi_index(rule(*labels), dims), col] = 1.0
    return Operator(dims, entries)


# _ry and _rz write their four entries into a new array, which costs about
# half of np.array from a nested list and stores the same values.  Adding
# 0.0 to the sine turns -0.0 into 0.0: the sine is the one place where the
# sign of a zero angle reaches an entry, and each angle cache takes 0.0 and
# -0.0 for one key, so a key then means one set of bytes.
def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0) + 0.0
    entries = np.empty((2, 2), dtype=np.complex128)
    entries[0, 0] = entries[1, 1] = c
    entries[0, 1] = -s
    entries[1, 0] = s
    return entries


def _rz(varphi: float) -> np.ndarray:
    phase = cmath.exp(1j * varphi / 2.0)
    entries = np.zeros((2, 2), dtype=np.complex128)
    entries[0, 0] = phase.conjugate()
    entries[1, 1] = phase
    return entries


@lru_cache(maxsize=None)
def pauli_x() -> Operator:
    return Operator((2,), _X)


@lru_cache(maxsize=_ANGLE_CACHE_SIZE)
def rotation_y(theta: float) -> Operator:
    """Rotation about y: [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""
    _check_angle(theta, "rotation angle theta")
    return Operator._trusted((2,), _ry(theta))


@lru_cache(maxsize=_ANGLE_CACHE_SIZE)
def rotation_z(varphi: float) -> Operator:
    """Rotation about z: diag(e^{-i v/2}, e^{+i v/2})."""
    _check_angle(varphi, "rotation angle varphi")
    return Operator._trusted((2,), _rz(varphi))


def _rz_ry(phi: float, theta: float) -> np.ndarray:
    """Entries of rotation_z(phi) . rotation_y(theta), written without a matmul:
    [[e^{-i phi/2} c, -e^{-i phi/2} s], [e^{i phi/2} s, e^{i phi/2} c]] with
    c, s = cos, sin of theta/2, a zero sine unsigned as in _ry."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0) + 0.0
    phase = cmath.exp(1j * phi / 2.0)
    left = phase.conjugate()
    entries = np.empty((2, 2), dtype=np.complex128)
    entries[0, 0] = left * c
    entries[0, 1] = left * -s
    entries[1, 0] = phase * s
    entries[1, 1] = phase * c
    return entries


@lru_cache(maxsize=_ANGLE_CACHE_SIZE)
def _euler(phi: float, theta: float, varphi: float) -> np.ndarray:
    """Entries of rotation_z(phi) . rotation_y(theta) . rotation_z(varphi),
    read-only and cached: a Bell input's run (``tilde_v1``) and its
    verification (the compact output) need the same product.

    The first product, rotation_z(phi) . rotation_y(theta), is written out
    entry by entry (``_rz_ry``): each of its entries is one phase times one
    real number, the other term of the matmul's sum being an exact zero, so
    each is the same correctly rounded product the matmul forms, on any BLAS;
    only the sign of an exact zero can differ.  The second product, by the
    phases of rotation_z(varphi), sums two complex products and stays one
    ``@``, so its rounding is the BLAS kernel's, as before.
    """
    entries = _rz_ry(phi, theta) @ _rz(varphi)
    entries.setflags(write=False)
    return entries


def euler_unitary(angles: EulerAngles) -> Operator:
    """General single-qubit unitary rotation_z(phi) . rotation_y(theta) . rotation_z(varphi)."""
    return Operator._trusted((2,), _euler(angles.phi, angles.theta, angles.varphi))


def u_m(angles: EulerAngles, m: int) -> Operator:
    """Outcome-dependent unitary: theta is negated when the ancilla read m=1."""
    _check_bit(m, "measurement outcome")
    signed = EulerAngles(angles.phi, (-1) ** m * angles.theta, angles.varphi)
    return euler_unitary(signed)


def controlled_unitary(u: Operator) -> Operator:
    """Two-qubit controlled gate, target first: I (x) |0><0| + U (x) |1><1|."""
    if u.dims != (2,):
        raise ValueError(f"control block must be a single-qubit operator, got dims {u.dims}")
    if u.unitarity_defect() >= NORMALIZATION_TOL:
        warnings.warn("controlled_unitary called with a non-unitary block", stacklevel=2)
    return Operator((2, 2), _blocks_on_b(2, {1: u.entries}))


def _blocks_on_b(c_dim: int, blocks: dict[int, np.ndarray]) -> np.ndarray:
    """Matrix on B (x) C acting as ``blocks[c]`` on B where C = c, identity elsewhere.

    Writes each 2x2 block into the rows and columns of |0, c> and |1, c>
    (indices c and c_dim + c) of an identity matrix: at every entry, the
    value of sum_c kron(block_c, |c><c|) plus the identity where no block sits.
    """
    entries = _IDENTITY_ON_BC[c_dim].copy()
    for c, block in blocks.items():
        entries[c::c_dim, c::c_dim] = block
    return entries


def _v11_entries(angles: EulerAngles) -> np.ndarray:
    # rotation_z(varphi).X is rotation_z(varphi) with its columns swapped.
    return _blocks_on_b(3, {1: _rz(angles.varphi)[:, ::-1]})


@lru_cache(maxsize=_ANGLE_CACHE_SIZE)
def v11(angles: EulerAngles) -> Operator:
    """On B (x) C: apply rotation_z(varphi).X to B when C=1, identity when C is 0 or 2."""
    return Operator._trusted((2, 3), _v11_entries(angles))


@lru_cache(maxsize=None)
def v12() -> Operator:
    """On B (x) C: swap C between 1 and 2 when B=1; identity when B=0."""
    return _basis_gate((2, 3), lambda b, c: (b, 3 - c if b and c else c))


@lru_cache(maxsize=_ANGLE_CACHE_SIZE)
def v13(angles: EulerAngles) -> Operator:
    """On B (x) C: apply rotation_z(phi).rotation_y(theta) to B when C is 1 or 2."""
    b2 = _rz_ry(angles.phi, angles.theta)
    return Operator._trusted((2, 3), _blocks_on_b(3, {1: b2, 2: b2}))


@lru_cache(maxsize=None)
def v14() -> Operator:
    """On B (x) C: flip B when C=2, identity when C is 0 or 1."""
    return _basis_gate((2, 3), lambda b, c: (b ^ (c == 2), c))


@lru_cache(maxsize=_ANGLE_CACHE_SIZE)
def v1(angles: EulerAngles) -> Operator:
    """Bob's composite local operation on B (x) C: v14 . v13 . v12 . v11.

    One 6x6 product W . v11.  W = v14 . v13 . v12 moves v13's block between
    two permutations, so it is that block written at fixed positions, equal in
    value to the three-factor product: rows |b, 1> take it from columns
    |0, 1> and |1, 2>, rows |b, 2> (B flipped) from columns |0, 2> and |1, 1>.
    """
    b2 = _rz_ry(angles.phi, angles.theta)
    w = np.zeros((6, 6), dtype=np.complex128)
    w[0, 0] = w[3, 3] = 1.0
    w[1::3, 1::4] = b2
    w[2::3, 2:5:2] = b2[::-1]
    return Operator._trusted((2, 3), w @ _v11_entries(angles))


@lru_cache(maxsize=None)
def q1() -> Operator:
    """On A (x) B (x) C: flip A exactly when (B, C) is (1,1) or (1,2)."""
    return _basis_gate((2, 2, 3), lambda a, b, c: (a ^ (b == 1 and c > 0), b, c))


@lru_cache(maxsize=None)
def q2() -> Operator:
    """On A (x) B (x) C: flip B exactly when (A, C) is (0,1) or (1,2)."""
    return _basis_gate((2, 2, 3), lambda a, b, c: (a, b ^ (c == a + 1), c))


@lru_cache(maxsize=None)
def v2() -> Operator:
    """On B (x) C: relabel the ancilla cyclically (1->0, 2->1, 0->2) when B=1."""
    return _basis_gate((2, 3), lambda b, c: (b, (c - b) % 3))


@lru_cache(maxsize=None, typed=True)
def q3(m: int) -> Operator:
    """Outcome correction on A (x) B: identity for m=0, (Z (x) X) Zc (I (x) X) for m=1."""
    _check_bit(m, "measurement outcome")
    if m == 0:
        return Operator.identity((2, 2))
    zc = np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128)
    entries = np.kron(_Z, _X) @ zc @ np.kron(_I2, _X)
    return Operator((2, 2), entries)


@lru_cache(maxsize=None)
def toffoli() -> Operator:
    """On A (x) B (x) C: flip B exactly when A=1 and C=1 (C values 0 and 2 inert)."""
    return _basis_gate((2, 2, 3), lambda a, b, c: (a, b ^ (a == 1 and c == 1), c))


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
    return _basis_gate((2, 2), lambda c, t: (c, t ^ c))


@lru_cache(maxsize=None)
def cnot_qutrit() -> Operator:
    """Controlled flip on B (x) C with a qutrit target: swaps C's 0 and 1 when B=1."""
    return _basis_gate((2, 3), lambda b, c: (b, 1 - c if b and c < 2 else c))


@lru_cache(maxsize=_ANGLE_CACHE_SIZE, typed=True)
def tilde_v1(angles: EulerAngles, ell: int) -> Operator:
    """Bell-variant local operation on B (x) C: X^(1-ell) U X^ell on B when C=1.

    X on the left swaps the rows of U, X on the right its columns.
    """
    _check_bit(ell, "class index")
    u = _euler(angles.phi, angles.theta, angles.varphi)
    return Operator._trusted((2, 2), _blocks_on_b(2, {1: u[:, ::-1] if ell else u[::-1]}))


@lru_cache(maxsize=None)
def tilde_q1() -> Operator:
    """On A (x) B (x) C (all qubits): flip A exactly when (B, C) = (1, 1)."""
    return _basis_gate((2, 2, 2), lambda a, b, c: (a ^ (b & c), b, c))


@lru_cache(maxsize=None, typed=True)
def tilde_q2(ell: int) -> Operator:
    """On A (x) B (x) C: when C=1 apply X^(1-ell) to B if A=1 and X^ell if A=0."""
    _check_bit(ell, "class index")
    return _basis_gate((2, 2, 2), lambda a, b, c: (a, b ^ (c & (a ^ ell)), c))
