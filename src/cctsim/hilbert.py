"""Dense linear-algebra core for small mixed-dimension quantum registers.

States and operators carry an ordered tuple of subsystem dimensions.
Amplitude indexing is mixed-radix and big-endian: the leftmost subsystem is
the most significant digit, so the index of |a, b, c> over dims (2, 2, 3)
is a*6 + b*3 + c and printed basis labels read in register order.  The
protocol layer fixes that order as A (Alice's target qubit), B (Bob's
control qubit), C (ancilla) and never permutes it.

All values are immutable after construction and safe to share between
threads.  An Operator also keeps the plans ``apply`` builds for it (one per
register shape and target list); a plan is a pure function of the
operator's entries, so two threads that build the same plan build equal
ones.  Randomness enters only through explicitly passed generators.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .inputs import NORMALIZATION_TOL, _is_integer, is_count

# Fidelity tolerance for comparing states built along independent routes;
# looser than NORMALIZATION_TOL to leave headroom for ~10 chained matrix
# applications.
FIDELITY_TOL = 1e-10
# The largest trial count one numpy multinomial draw takes (an int64).
MAX_TRIALS = 2**63 - 1
# How far an outcome table's probabilities may sum from 1.
_TABLE_SUM_TOL = 1e-9


def _check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """``dims`` as a tuple of Python ints, each a count (``is_count``)."""
    out = tuple(dims)
    if not out or not all(map(is_count, out)):
        raise ValueError(f"subsystem dimensions must be positive integers, got {out!r}")
    return tuple(map(operator.index, out))


def _index(value: object, size: int, what: str, where: str = "{} subsystems") -> int:
    """The rule for a subsystem index, an outcome and a basis label: a Python or numpy
    integer in ``range(size)``, as an int.  Anything else (True, 1.0) raises a ValueError."""
    if value.__class__ is not int and not _is_integer(value):  # an int skips the call
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if not 0 <= value < size:
        raise ValueError(f"{what} {value} out of range for {where.format(size)}")
    return operator.index(value)


def _flat_index(dims: tuple[int, ...], labels: Iterable[int]) -> int:
    """Mixed-radix index of the basis labels ``labels`` over ``dims``."""
    labels = tuple(labels)
    if len(labels) != len(dims):
        raise ValueError(f"expected {len(dims)} basis labels for dims {dims}, got {labels!r}")
    index = 0
    for label, dim in zip(labels, dims):
        index = index * dim + _index(label, dim, "basis label", "dimension {}")
    return index


@dataclass(frozen=True)
class StateVector:
    """Pure state over an ordered register of qudits."""

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        dims = _check_dims(self.dims)
        amps = np.array(self.amps, dtype=np.complex128).reshape(-1)
        expected = math.prod(dims)
        if amps.size != expected:
            raise ValueError(f"expected {expected} amplitudes for dims {dims}, got {amps.size}")
        if not np.isfinite(amps).all():
            raise ValueError(f"amplitudes must be finite, got {amps!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    # Equality and hashing by value: the generated ones compare the arrays
    # inside a tuple, which raises, and cannot hash an ndarray.  Adding 0.0
    # turns -0.0 into 0.0, so states that compare equal hash alike.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.amps, other.amps)

    def __hash__(self) -> int:
        return hash((self.dims, (self.amps + 0.0).tobytes()))

    def __reduce__(self):
        # Through the public constructor, which copies, checks and makes the
        # amplitudes read-only again; an ndarray's pickle drops that flag.
        return StateVector, (self.dims, self.amps)

    @classmethod
    def _trusted(cls, dims: tuple[int, ...], amps: np.ndarray) -> StateVector:
        """State from checked ``dims`` and a freshly built 1-D complex128 array
        of matching size, without revalidating either.

        For arrays this package has just computed; the state takes ownership
        of ``amps`` and makes it read-only.  Public construction validates.
        """
        state = object.__new__(cls)
        amps.setflags(write=False)
        fields = state.__dict__
        fields["dims"] = dims
        fields["amps"] = amps
        return state

    @classmethod
    def basis(cls, dims: Iterable[int], labels: Sequence[int]) -> StateVector:
        """Computational basis ket |labels> over the given dims."""
        return cls.from_terms(dims, {tuple(labels): 1.0})

    @classmethod
    def from_terms(cls, dims: Iterable[int], terms: Mapping[tuple[int, ...], complex]) -> StateVector:
        """State assembled from a {basis labels: amplitude} mapping."""
        dims = _check_dims(dims)
        amps = np.zeros(math.prod(dims), dtype=np.complex128)
        for labels, amp in terms.items():
            amps[_flat_index(dims, labels)] += amp
        return cls(dims, amps)

    def index_of(self, labels: Sequence[int]) -> int:
        return _flat_index(self.dims, labels)

    def amplitude(self, labels: Sequence[int]) -> complex:
        return complex(self.amps[self.index_of(labels)])

    def squared_norm(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def is_normalized(self, tol: float = NORMALIZATION_TOL) -> bool:
        return abs(self.squared_norm() - 1.0) <= tol

    def normalized(self) -> StateVector:
        return StateVector._trusted(self.dims, _unit(self.amps))


def _norm(amps: np.ndarray) -> float:
    """The 2-norm of a complex vector."""
    # np.linalg.norm's own sum for complex vectors, without its dispatch.
    re, im = amps.real, amps.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _unit(amps: np.ndarray) -> np.ndarray:
    """A new array of ``amps`` divided by their norm; raises on a zero, NaN or
    overflowed norm."""
    norm = _norm(amps)
    if not NORMALIZATION_TOL < norm < math.inf:  # NaN fails too
        raise ValueError(f"cannot normalize a state vector of norm {norm!r}")
    return amps / norm


@dataclass(frozen=True)
class Operator:
    """Dense square operator over an ordered register of qudits.

    Row and column indexing follow the same mixed-radix convention as
    StateVector amplitudes.
    """

    dims: tuple[int, ...]
    entries: np.ndarray
    # apply's plans for this operator, keyed by (state dims, targets).
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dims = _check_dims(self.dims)
        entries = np.array(self.entries, dtype=np.complex128)
        size = math.prod(dims)
        if entries.shape != (size, size):
            raise ValueError(f"expected a {size}x{size} matrix for dims {dims}, got {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValueError(f"operator entries must be finite, got {entries!r}")
        entries.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries)

    # Value equality, hashing and pickling as for StateVector; the plans are
    # a cache, left out of all three and rebuilt on first use.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.entries, other.entries)

    def __hash__(self) -> int:
        return hash((self.dims, (self.entries + 0.0).tobytes()))

    def __reduce__(self):
        return Operator, (self.dims, self.entries)

    @classmethod
    def _trusted(cls, dims: tuple[int, ...], entries: np.ndarray) -> Operator:
        """Operator from checked ``dims`` and a freshly built square complex128
        array of matching size, without revalidating either.

        For matrices this package has just computed; the operator takes
        ownership of ``entries``, makes it read-only and starts with no plans.
        ``gates.euler_unitary`` passes an entry of the Euler-product cache,
        which is read-only already: that operator shares the array with the
        cache instead of owning it.  Public construction validates.
        """
        op = object.__new__(cls)
        entries.setflags(write=False)
        fields = op.__dict__
        fields["dims"] = dims
        fields["entries"] = entries
        fields["_plans"] = {}
        return op

    @classmethod
    def identity(cls, dims: Iterable[int]) -> Operator:
        dims = _check_dims(dims)
        return cls(dims, np.eye(math.prod(dims), dtype=np.complex128))

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def unitarity_defect(self) -> float:
        """Max-norm of adjoint*self minus the identity."""
        gram = self.entries.conj().T @ self.entries
        return float(np.max(np.abs(gram - np.eye(self.size))))

    def is_permutation(self) -> bool:
        """True if every entry is exactly 0 or 1 and each row and column holds a single 1."""
        permutation = _signed_permutation(self.entries)
        return permutation is not None and permutation[1] is None

    def __matmul__(self, other: Operator) -> Operator:
        if not isinstance(other, Operator):
            return NotImplemented
        if self.dims != other.dims:
            raise ValueError(f"cannot compose operators over dims {self.dims} and {other.dims}")
        return Operator(self.dims, self.entries @ other.entries)


def tensor(a: StateVector | Operator, b: StateVector | Operator):
    """Kronecker product of two states or two operators; dims concatenate."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector._trusted(a.dims + b.dims, np.kron(a.amps, b.amps))
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(a.dims + b.dims, np.kron(a.entries, b.entries))
    raise TypeError("tensor requires two StateVectors or two Operators")


# The targets tuple that last passed apply's check, by (dims, targets); only
# that object skips it, since by value True and 1.0 would pass as 1.
_CHECKED_TARGETS: dict = {}


def apply(op: Operator, state: StateVector, targets: Sequence[int]) -> StateVector:
    """Apply ``op`` to the listed subsystems of ``state``, identity elsewhere.

    ``targets`` are distinct subsystem indices in the order matching
    ``op.dims``, checked unless this very tuple passed for this register
    before.  The first call for a given register and targets stores a plan
    on ``op``; later calls with the same operator run that plan directly.
    """
    dims = state.dims
    key = (dims, tuple(targets))
    if _CHECKED_TARGETS.get(key) is not key[1]:
        if len({_index(t, len(dims), "target index") for t in key[1]}) != len(key[1]):
            raise ValueError(f"repeated target index in {list(key[1])}")
        _CHECKED_TARGETS[key] = key[1]
    plan = op._plans.get(key)
    if plan is None:
        plan = op._plans[key] = _apply_plan(op, *key)
    # StateVector._trusted, inline: every protocol stage is built here.
    amps = plan(state.amps)
    amps.setflags(write=False)
    out = object.__new__(StateVector)
    fields = out.__dict__
    fields["dims"] = dims
    fields["amps"] = amps
    return out


def _apply_plan(op: Operator, dims: tuple[int, ...], targets: tuple[int, ...]):
    """Function from a register's amplitudes to ``op``'s output amplitudes.

    Both plans read the register index of ``targets``: a signed permutation
    becomes one gather, any other operator multiplies the amplitudes of each
    row of the index by its matrix.  For finite amplitudes the gather gives
    the product's values (a zero may change sign).
    """
    index = _register_index(dims, targets)
    target_dims = tuple(dims[t] for t in targets)
    if op.dims != target_dims:
        raise ValueError(f"operator dims {op.dims} do not match targeted subsystem dims {target_dims}")
    permutation = _signed_permutation(op.entries)
    if permutation is not None:
        cols, negated = permutation
        gather = np.empty(index.size, dtype=index.dtype)
        gather[index] = index[:, cols]
        if negated is None:
            return lambda amps: amps[gather]
        mask = np.empty(index.size, dtype=bool)
        mask[index] = negated

        def signed_gather(amps: np.ndarray) -> np.ndarray:
            out = amps[gather]
            np.negative(out, out=out, where=mask)
            return out

        return signed_gather

    transposed = op.entries.T

    def product(amps: np.ndarray) -> np.ndarray:
        out = np.empty_like(amps)
        out[index] = amps[index] @ transposed
        return out

    return product


@lru_cache(maxsize=256)
def _register_index(dims: tuple[int, ...], targets: tuple[int, ...]) -> np.ndarray:
    """Flat index of every (setting of the other subsystems, target basis state).

    Rows run over the subsystems not in ``targets`` in register order, columns
    over the targets' basis states, mixed-radix in the order listed, for
    targets the caller has checked."""
    others = [i for i in range(len(dims)) if i not in targets]
    block = math.prod(dims[t] for t in targets)
    index = np.arange(math.prod(dims)).reshape(dims).transpose(others + list(targets)).reshape(-1, block)
    index.setflags(write=False)
    return index


def _signed_permutation(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray | None] | None:
    """(source column of each row, mask of rows holding -1, or None if no row
    does) when every row and column holds exactly one nonzero entry and that
    entry is exactly +1 or -1; otherwise None.
    """
    size = entries.shape[0]
    if np.count_nonzero(entries) != size:
        return None
    rows, cols = np.nonzero(entries)
    values = entries[rows, cols]
    if np.any(rows != np.arange(size)) or np.any(np.bincount(cols, minlength=size) != 1):
        return None
    if not np.all((values == 1.0) | (values == -1.0)):
        return None
    negated = values == -1.0
    return cols, (negated if negated.any() else None)


def _by_outcome(state: StateVector, subsystem: int) -> np.ndarray:
    """View of the amplitudes as (before, outcome of ``subsystem``, after)."""
    dims = state.dims
    return state.amps.reshape(math.prod(dims[:subsystem]), dims[subsystem], -1)


def born_probabilities(state: StateVector, subsystem: int) -> np.ndarray:
    """Marginal outcome probabilities for measuring one subsystem."""
    return _marginal(state, _index(subsystem, len(state.dims), "subsystem index"))


def _marginal(state: StateVector, subsystem: int) -> np.ndarray:
    """born_probabilities for a ``subsystem`` known to be an index in range:
    the protocol's literal ancilla index."""
    dims = state.dims
    if subsystem == len(dims) - 1:
        # The ancilla, always last: the same (outcome, rest) strides as the
        # transposed split below, so the same einsum and the same bits.
        flat = state.amps.reshape(-1, dims[-1]).T
    else:
        split = _by_outcome(state, subsystem)
        flat = split.transpose(1, 0, 2).reshape(split.shape[1], -1)
    return np.einsum("ij,ij->i", flat, flat.conj()).real


def collapse(state: StateVector, subsystem: int, outcome: int) -> tuple[StateVector, float]:
    """Project one subsystem onto a basis outcome and renormalize.

    Returns the collapsed full-register state and the Born weight of the
    branch.  Raises if the branch carries (near-)zero weight.
    """
    weight = _branch_weight(outcome, born_probabilities(state, subsystem))
    split = _by_outcome(state, subsystem)
    kept = np.zeros(split.shape, dtype=np.complex128)
    kept[:, outcome] = split[:, outcome]
    return StateVector._trusted(state.dims, kept.reshape(-1) / np.sqrt(weight)), weight


def _check_tol(tol: float) -> None:
    """Refuse a NaN tolerance, which no ``> tol`` test can fail, and a negative
    one, which every residual and coefficient exceeds."""
    if not tol >= 0.0:
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")


def _branch_weight(outcome: int, probs: np.ndarray) -> float:
    """Born weight of ``outcome`` in the marginal ``probs``; raises if the
    outcome is out of range or its weight is (near) zero."""
    weight = float(probs[_index(outcome, probs.size, "outcome", "dimension {}")])
    if weight <= NORMALIZATION_TOL:
        raise ValueError(f"cannot collapse onto outcome {outcome} with Born weight {weight}")
    return weight


def factor_out(state: StateVector, subsystem: int, outcome: int, tol: float = NORMALIZATION_TOL) -> StateVector:
    """Drop a subsystem that is (up to ``tol``) in the basis state ``outcome``."""
    _check_tol(tol)
    probs = born_probabilities(state, subsystem)
    outcome = _index(outcome, probs.size, "outcome", "dimension {}")
    residual = float(probs.sum() - probs[outcome])
    if residual > tol:
        raise ValueError(f"subsystem {subsystem} is not in basis state {outcome}: residual weight {residual}")
    remaining = state.dims[:subsystem] + state.dims[subsystem + 1 :]
    if not remaining:
        raise ValueError("cannot factor out the only subsystem of a register")
    return StateVector._trusted(remaining, _by_outcome(state, subsystem)[:, outcome].flatten()).normalized()


def sample_counts(probs: Sequence[float], trials: int, rng: np.random.Generator) -> list[int]:
    """How many of ``trials`` draws land on each row of a discrete outcome table.

    Every Monte Carlo campaign samples through it, so every trial count is
    checked here: a ``ValueError`` names ``trials`` unless it is a count
    (``is_count``) of at most MAX_TRIALS, the int64 bound of the draw.

    The counts are one ``rng.multinomial`` draw over the table renormalised
    to sum to 1, so a campaign costs O(rows) whatever its trials.  The draw
    stops at the last row of positive probability: numpy gives its last row
    whatever the binomial draws before it leave, which a rounded table can
    make nonzero, so a row of probability 0 is never drawn.  Same-seed counts
    hold for one numpy version, whose ``multinomial`` stream NEP 19 leaves
    free to change.
    """
    if not is_count(trials):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials: must be at most 2**63 - 1, got {trials}")
    probs = np.asarray(probs, dtype=np.float64).ravel()
    # NaN and -inf fail the minimum, +inf the sum.  The minimum goes first:
    # the sum of +inf and -inf would warn.
    total = np.add.reduce(probs) if probs.size > 0 and np.minimum.reduce(probs) >= 0.0 else math.nan
    if not abs(total - 1.0) <= _TABLE_SUM_TOL:
        raise ValueError(f"outcome probabilities must be finite, nonnegative and sum to 1, got {probs!r}")
    drawn = probs.size
    while probs[drawn - 1] == 0.0:
        drawn -= 1
    counts = rng.multinomial(trials, probs[:drawn] / total).tolist()
    return counts + [0] * (probs.size - drawn)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2; 1 iff equal up to global phase."""
    if a.dims != b.dims:
        raise ValueError(f"cannot compare states over dims {a.dims} and {b.dims}")
    return _fidelity(a.amps, b.amps)


def _fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """fidelity of two amplitude arrays of one register."""
    return float(abs(np.vdot(a, b)) ** 2)


def _bipartition_matrix(state: StateVector, left: Iterable[int]) -> np.ndarray:
    n = len(state.dims)
    left = {_index(i, n, "bipartition index") for i in left}
    if not left or len(left) == n:
        raise ValueError("bipartition must be a proper nonempty subset of subsystems")
    return state.amps[_register_index(state.dims, tuple(i for i in range(n) if i not in left))]


def schmidt_coefficients(state: StateVector, left: Iterable[int]) -> np.ndarray:
    """Singular values of the bipartition matrix, descending."""
    return np.linalg.svd(_bipartition_matrix(state, left), compute_uv=False)


def schmidt_rank(state: StateVector, left: Iterable[int], tol: float = FIDELITY_TOL) -> int:
    """Number of Schmidt coefficients above ``tol`` across the bipartition."""
    _check_tol(tol)
    return int(np.sum(schmidt_coefficients(state, left) > tol))
