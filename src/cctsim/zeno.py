"""Counterfactual optical layer: stage probabilities and gate trajectories.

The analytic half evaluates, exactly as printed, the closed-form success
and abortion probabilities of every interferometric gate and protocol
stage (the lambda/nabla/zeta family).  ``stage_rows`` evaluates a
protocol's stage schedule (GENERAL_SCHEDULE, BELL_SCHEDULE) over a whole
sequence of cycle configurations: configs that share M share one log1p
pass per outer cycle count, walked in blocks of at most PASS_BLOCK entries
along both the inner counts and the cycles, so memory stays bounded at any
cycle count, and every row is == to a one-config call.
``stage_probabilities_general/bell`` return a one-config call's values.
Over the cycle-sweep benchmark's calls, a ``cctsim sweep`` call spends about
a quarter of its time in these closed forms (``_chained_factors``,
``dcfo_success``) and two fifths in ``cli._sweep_rows``, which holds them;
the atomic write takes about a fifth, reading the config a seventh and
argparse an eighth (timing wrappers, 2-CPU x86 host, Python 3.11).

The Monte Carlo half simulates the gates trajectory by trajectory under
two explicitly named absorber models:

* ``PER_CYCLE_BORN`` reproduces the closed forms: each cycle an absorption
  event fires with the fixed probability weight * sin^2(theta), with the
  absorber's branch weights frozen until a final collapse;
* ``COHERENT`` evolves the joint absorber-photon amplitudes cycle by cycle
  and samples every event from the current squared amplitude.

The two models differ at finite cycle counts.  For the collapse gate
they agree in the many-cycle limit; for the chained gate they agree only
as M/N -> 0, and along the diagonal M = N they tend to different limits
(presence-branch survival 0.424 coherent against 0.289 per-cycle-Born at
M = N = 160).  Both are reported, neither is declared authoritative.

Counterfactuality bookkeeping: a trajectory counts as Success only if no
absorption event fired, i.e. the photon was never found in the channel.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass
from enum import Enum
from typing import TypeVar

import numpy as np

from . import protocol as _protocol
from .hilbert import StateVector, _as_seed, _check_unit_pair, fidelity, is_count, sample_counts
from .protocol import BellInput, GeneralInput

@dataclass(frozen=True)
class CycleConfig:
    """Cycle counts: M outer, N inner, K concatenated collapse gates."""

    M: int
    N: int
    K: int

    def __post_init__(self) -> None:
        if not (type(self.M) is type(self.N) is type(self.K) is int and min(self.M, self.N, self.K) >= 1):
            for name in ("M", "N", "K"):
                object.__setattr__(self, name, _cycle_count(name, getattr(self, name)))


def _half_turn_reduced(y: float) -> float:
    """y reduced to [0, 1/2], where sin^2(pi y) and cos^2(pi y) take all their values."""
    r = math.fmod(abs(y), 1.0)
    return min(r, 1.0 - r)


def _sin_sq_pi(y: float) -> float:
    """sin^2(pi * y) without cancellation; exact at every quarter turn.

    With r = _half_turn_reduced(y), this is sin(pi r)^2 up to a quarter
    turn and cos(pi (1/2 - r))^2 above it, where 1/2 - r is exact, so
    small values keep full relative precision.
    """
    r = _half_turn_reduced(y)
    if r == 0.25:
        return 0.5
    return math.sin(math.pi * r) ** 2 if r < 0.25 else math.cos(math.pi * (0.5 - r)) ** 2


def _cos_sq_pi(y: float) -> float:
    """cos^2(pi * y), the mirror image of _sin_sq_pi."""
    r = _half_turn_reduced(y)
    if r == 0.25:
        return 0.5
    return math.cos(math.pi * r) ** 2 if r < 0.25 else math.sin(math.pi * (0.5 - r)) ** 2


@functools.lru_cache(maxsize=32)
def _sin_sq_table(outer: int, start: int, stop: int) -> np.ndarray:
    """_sin_sq_pi(i / (2 * outer)) for i = start+1..stop, as one read-only array.

    Each entry depends on i alone, so a block holds the bits of the same
    entries of a whole table.  _log_sums asks for blocks of at most
    PASS_BLOCK entries, so the cache holds at most 32 * 8 * PASS_BLOCK
    bytes (16 MiB) whatever the cycle count.
    """
    r = np.fmod(np.arange(start + 1, stop + 1) / (2 * outer), 1.0)
    r = np.minimum(r, 1.0 - r)
    table = np.where(r < 0.25, np.sin(np.pi * r), np.cos(np.pi * (0.5 - r))) ** 2
    table[r == 0.25] = 0.5
    table.flags.writeable = False
    return table


def _survival_power(x: float, n: int) -> float:
    """(1 - x)^n = exp(n log1p(-x)) for a per-cycle loss x in [0, 1].

    It stays apart from _power: routed through _power, two GOLDEN_SWEEP
    cells at diag=5 (lambda2, zeta0) move in their last digits.
    """
    return math.exp(n * math.log1p(-x)) if x < 1.0 else 0.0


def _power(x: float, n: int) -> float:
    """(1 - x)^n as pow(1 - x, n), corrected by the exact rounding error of 1 - x.

    Unlike exp/log this keeps exact rationals exact ((3/4)^2 is 9/16).
    """
    if x >= 1.0:
        return 0.0
    base = 1.0 - x
    return base**n * math.exp(n * math.log1p(((1.0 - base) - x) / base))


def _cycle_count(name: str, value: int) -> int:
    """``value`` as a Python int, once it is a count by the trial-count rule
    (``hilbert.is_count``); on a numpy count such as uint16, arithmetic
    like 2 * M or N * K would wrap."""
    if type(value) is int and value >= 1 or is_count(value):
        return int(value)
    raise ValueError(f"cycle count {name} must be a positive integer, got {value!r}")


def _check_unit_interval(name: str, value: float) -> None:
    """``value`` must lie in [0, 1]; NaN fails."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _gate_survival(name: str, cycles: int) -> float:
    cycles = _cycle_count(name, cycles)
    return _survival_power(_sin_sq_pi(1.0 / (2 * cycles)), cycles)


def qz_survival(inner: int) -> float:
    """Probability cos^(2N)(pi/2N) that a blocked interferometer emits its photon unchanged."""
    return _gate_survival("N", inner)


def cqz_lambda0(outer: int) -> float:
    """Chained-gate survival cos^(2M)(pi/2M) for an absent blocker."""
    return _gate_survival("M", outer)


def cqz_lambda1(outer: int, inner: int) -> float:
    """Chained-gate survival for a present blocker: the printed M-term product."""
    return _chained_factors(outer, (inner,), ((outer, ((0.0, 1.0),)),))[0][0][1]


def _collapse_success(name: str, inner: int, weight: float) -> float:
    inner = _cycle_count("N", inner)
    _check_unit_interval(name, weight)
    return _survival_power(weight * _sin_sq_pi(1.0 / (2 * inner)), inner) * weight


def cepi_success(inner: int, nabla0: float) -> float:
    """Superposed-absorber collapse success (1 - nabla0 sin^2 theta_N)^N * nabla0."""
    return _collapse_success("nabla0", inner, nabla0)


def dcepi_success(inner: int, nabla1: float) -> float:
    """Dual-rail entangling collapse success; same functional form as cepi_success."""
    return _collapse_success("nabla1", inner, nabla1)


def coherent_qz_success(inner: int, nabla: float) -> float:
    """Success probability of the same gate under the coherent absorber model.

    The branch-resolved calculation gives nabla * cos^(2N) theta_N, which
    converges to the per-cycle-Born value cepi_success(N, nabla) as N grows
    but differs at finite N.
    """
    _cycle_count("N", inner)
    _check_unit_interval("nabla", nabla)
    return nabla * qz_survival(inner)


def _collapse_chain_losses(chain: int, inner: int, nabla: float) -> tuple[float, float]:
    """Per-cycle losses (nabla cos^2 theta_K sin^2 theta_N, nabla sin^2 theta_K) of a
    collapse stage, for counts that _cycle_count has returned."""
    _check_unit_interval("nabla", nabla)
    y = 1.0 / (2 * chain)
    return nabla * _cos_sq_pi(y) * _sin_sq_pi(1.0 / (2 * inner)), nabla * _sin_sq_pi(y)


def dcfo_stage_success(chain: int, inner: int, nabla: float) -> float:
    """Per-stage success (1 - nabla cos^2 theta_K sin^2 theta_N)^N (1 - nabla sin^2 theta_K)."""
    chain, inner = _cycle_count("K", chain), _cycle_count("N", inner)
    first, second = _collapse_chain_losses(chain, inner, nabla)
    return _power(first, inner) * _power(second, 1)


def dcfo_success(chain: int, inner: int, nabla: float) -> float:
    """Success of K concatenated collapse stages: dcfo_stage_success^K."""
    chain, inner = _cycle_count("K", chain), _cycle_count("N", inner)
    first, second = _collapse_chain_losses(chain, inner, nabla)
    return _power(first, inner * chain) * _power(second, chain)


def ddcfo_success(chain: int, inner: int, nabla4: float) -> float:
    """Dual-rail variant; the printed formula coincides with dcfo_success."""
    return dcfo_success(chain, inner, nabla4)


# Most (inner count, stage, cycle) entries one chunk of a chained pass
# holds, and so the most entries of a sin^2 table block (see _log_sums).
PASS_BLOCK = 1 << 16
# numpy's pairwise sum adds a run of at most this many entries in one loop
# and splits a longer run in two; _log_sums splits where it does.
_PAIRWISE_LEAF = 128

# One (outer weight, inner weight) pair per chained stage.
_Weights = tuple[tuple[float, float], ...]
# One chained pass: its outer cycles and the weights of its stages.
_Pass = tuple[int, _Weights]


def _chained_factors(outer: int, inners: Sequence[int], passes: Sequence[_Pass]) -> list[list[tuple[float, float]]]:
    """Outer-discard and inner-absorption survival factors of chained stages.

    Every stage has ``outer`` as its outer count; the stages of one pass
    also share its number of outer cycles.  The result holds, for each
    inner count in ``inners``, one factor pair per stage of every pass in
    turn.  Each pass writes the entries -x of all inner counts into
    (inner counts, stages, cycles) chunks of at most PASS_BLOCK entries and
    takes an in-place log1p and a sum over the cycle axis (see _log_sums),
    so it runs in bounded memory at any cycle count; each sum is bit for bit
    numpy's sum of that stage at that inner count alone.  Validates the
    cycle counts and weights.  The rotation step stays pi/(2*outer) even
    when a pass runs other than ``outer`` outer cycles (a pass of 2M cycles
    keeps the M-cycle step size).
    """
    outer = _cycle_count("M", outer)
    inners = [_cycle_count("N", inner) for inner in inners]
    passes = [(_cycle_count("outer_cycles", cycles), weights) for cycles, weights in passes]
    if not all(0.0 <= w <= 1.0 for _, weights in passes for pair in weights for w in pair):
        for _, weights in passes:
            for outer_weight, inner_weight in weights:
                _check_unit_interval("outer_weight", outer_weight)
                _check_unit_interval("inner_weight", inner_weight)
    s_m = _sin_sq_pi(1.0 / (2 * outer))
    s_n = [_sin_sq_pi(1.0 / (2 * inner)) for inner in inners]
    rows = [[] for _ in inners]
    # A loss of exactly 1 blocks its stage (log1p gives -inf, exp(-inf) is 0.0). Each of its three
    # factors is at most 1, so only N = 1 (sin^2 theta_N = 1) reaches it: only then is errstate entered.
    with np.errstate(divide="ignore") if 1 in inners else contextlib.nullcontext():
        for cycles, weights in passes:
            outer_factors = [_survival_power(outer_weight * s_m, cycles) for outer_weight, _ in weights]
            for row, inner, log_sums in zip(rows, inners, _log_sums(outer, cycles, weights, s_n)):
                row += [(f_out, math.exp(inner * log_sum)) for f_out, log_sum in zip(outer_factors, log_sums)]
    return rows


def _log_sums(outer: int, cycles: int, weights: _Weights, s_n: list[float], start: int = 0) -> list[list[float]]:
    """sum over i = start+1..start+cycles of log1p(-w_in * sin^2(i theta_M) * s),
    one row per s in ``s_n``, one column per stage's inner weight w_in.

    A run of more than PASS_BLOCK // len(weights) cycles (and more than
    numpy's pairwise leaf) is split where numpy's pairwise sum splits it,
    n // 2 rounded down to a multiple of 8, and the two halves' sums are
    added, which is bit for bit numpy's sum over the whole run.  A shorter
    run reads one sin^2 table block and is taken in chunks of at most
    PASS_BLOCK entries (at least one inner count); a chunk of one inner
    count is scaled in place.
    """
    if cycles > max(PASS_BLOCK // len(weights), _PAIRWISE_LEAF):
        half = cycles // 2 - cycles // 2 % 8
        left = _log_sums(outer, half, weights, s_n, start)
        right = _log_sums(outer, cycles - half, weights, s_n, start + half)
        return [[a + b for a, b in zip(x, y)] for x, y in zip(left, right)]
    table = _sin_sq_table(outer, start, start + cycles)
    # -x for x = w_in * sin^2(i theta_M) * sin^2(theta_N), negated through
    # the weight: rounding is symmetric in sign, so each entry is exactly -x.
    negated = np.array([-inner_weight for _, inner_weight in weights])[None, :, None]
    step = max(1, PASS_BLOCK // (len(weights) * cycles))
    sums = []
    for first in range(0, len(s_n), step):
        part = s_n[first : first + step]
        logs = negated * table
        if len(part) == 1:
            logs *= part[0]
        else:
            logs = logs * np.array(part)[:, None, None]
        np.log1p(logs, out=logs)
        sums += logs.sum(-1).tolist()
        # Dropped before the next chunk is built.
        del logs
    return sums


def chained_survival(
    outer: int, inner: int, outer_weight: float, inner_weight: float, outer_cycles: int | None = None
) -> float:
    """Product of both factors of a chained interferometer stage."""
    cycles = outer if outer_cycles is None else outer_cycles
    (((f_out, f_in),),) = _chained_factors(outer, (inner,), ((cycles, ((outer_weight, inner_weight),)),))
    return f_out * f_in


# A stage in the order a run meets it: (name, outer-discard survival,
# inner-absorption survival).
_Stage = tuple[str, float, float]
# One config's values (its Schedule's lambdas, printed weights and abort
# rates, keyed by name) with its stages.
StageRow = tuple[dict[str, float], list[_Stage]]


class Schedule:
    """A protocol's stages in run order, each (name, printed lambda, pass,
    branches), with their layout worked out once.  The pass is the outer
    cycles as a multiple of M (at the M-cycle step) or None for a collapse
    chain (dcfo_success); the branches are the outcomes m the stage acts
    on, each meeting a prefix of the schedule, and m is None in a protocol
    without an outcome.  ``zetas`` names each branch's abort rate: zeta{m},
    or zeta for m None.  ``weights(inp)`` gives the printed weights and each
    stage's ((outer, inner) or a nabla); ``outcomes(inp)`` each branch's
    (probability, success fidelity) from dense runs."""

    def __init__(self, stages: tuple[tuple[str, str, int | None, tuple[int | None, ...]], ...], weights, outcomes):
        self.weights, self.outcomes = weights, outcomes
        names, self.lambdas, multiples, acts_on = zip(*stages)
        # Chained passes in order of first appearance, each (multiple of M,
        # stage positions).
        self.passes: dict[int, list[int]] = {}
        for i, multiple in enumerate(multiples):
            if multiple is not None:
                self.passes.setdefault(multiple, []).append(i)
        self.chains = [i for i, multiple in enumerate(multiples) if multiple is None]
        # Each stage reads its pair among a config's factor pairs: the
        # chained ones in pass order, then (1.0, lambda) per collapse chain.
        order = [i for positions in self.passes.values() for i in positions] + self.chains
        self.lookup = [(name, lam, order.index(i)) for i, (name, lam) in enumerate(zip(names, self.lambdas))]
        ms = dict.fromkeys(m for branches in acts_on for m in branches)
        self.branches = [(m, sum(m in branches for branches in acts_on)) for m in ms]
        if any(m not in branches for m, end in self.branches for branches in acts_on[:end]):
            raise ValueError("each outcome branch must meet a prefix of the schedule")
        self.zetas = tuple("zeta" if m is None else f"zeta{m}" for m in ms)


def _general_weights(inp: GeneralInput) -> tuple[dict[str, float], tuple]:
    # Each squared modulus is capped at 1: an input pair may exceed unit
    # norm by NORMALIZATION_TOL, and a stage weight must not exceed 1.
    a2, b2, g2, d2 = (min(abs(c) ** 2, 1.0) for c in (inp.alpha, inp.beta, inp.gamma, inp.delta))
    half = inp.angles.theta / 2.0
    c2, s2 = math.cos(half) ** 2, math.sin(half) ** 2
    nabla7 = d2 * a2 * c2 + d2 * b2 * s2
    nabla8 = d2 * b2 * c2 + d2 * a2 * s2
    return {"nabla7": nabla7, "nabla8": nabla8}, ((a2 * d2, b2 * d2), d2 * s2, (nabla7, nabla8), (a2 * g2, b2 * g2))


def _general_outcomes(inp: GeneralInput) -> Iterable[tuple[float, float]]:
    p0, transcripts = _protocol.run_general_branches(inp)
    fids = [fidelity(t.psi6m, _protocol.expected_output_general(inp, m)) for m, t in enumerate(transcripts)]
    return zip((p0, 1.0 - p0), fids)


GENERAL_SCHEDULE = Schedule(
    (
        ("toffoli", "lambda2", 1, (0, 1)),
        ("flip-chain", "lambda3", None, (0, 1)),
        ("flip-pair", "lambda4", 1, (0, 1)),
        ("controlled-z", "lambda5", 2, (1,)),
    ),
    _general_weights,
    _general_outcomes,
)


def _bell_weights(inp: BellInput) -> tuple[dict[str, float], tuple]:
    # The blocking weight is |c1|^2 for class 0 and |c0|^2 for class 1 (the
    # component Bob's photon can be absorbed from), capped at 1.  nabla9
    # weighs the chained stage's outer factor in class 1, the inner in class 0.
    nab = min(abs(inp.c1 if inp.ell == 0 else inp.c0) ** 2, 1.0)
    half = inp.angles.theta / 2.0
    nabla9 = nab * math.cos(half) ** 2
    nabla10 = nab * math.sin(half) ** 2
    return {"nabla9": nabla9, "nabla10": nabla10}, (nabla10, (nabla9, nabla10) if inp.ell == 1 else (nabla10, nabla9))


def _bell_outcomes(inp: BellInput) -> Iterable[tuple[float, float]]:
    return [(1.0, fidelity(_protocol.run_bell(inp).psi6m, _protocol.expected_output_bell(inp)))]


BELL_SCHEDULE = Schedule(
    (
        ("flip-chain", "lambda6", None, (None,)),
        ("controlled-z", "lambda7", 1, (None,)),
    ),
    _bell_weights,
    _bell_outcomes,
)


def schedule_of(inp: GeneralInput | BellInput) -> Schedule:
    if not isinstance(inp, (GeneralInput, BellInput)):
        raise TypeError(f"expected a GeneralInput or a BellInput, got {type(inp).__name__}")
    return GENERAL_SCHEDULE if isinstance(inp, GeneralInput) else BELL_SCHEDULE


def stage_rows(cfgs: Sequence[CycleConfig], inp: GeneralInput | BellInput) -> list[StageRow]:
    """Stage probabilities of ``inp``'s protocol at each of ``cfgs``, in order.

    Configs that share M share one _chained_factors call, one pass per outer
    cycle count, and each collapse chain is taken once per distinct (K, N).
    A row's values are keyed by the schedule's lambdas, its printed weights
    and its zetas: a branch's abort rate is 1 minus the running product of
    its stages' lambdas.  Each row is == to a one-config call's and range
    checked: a ValueError names the first value out of [0, 1].  This is the
    one range check of every stage value.
    """
    schedule = schedule_of(inp)
    printed, weights = schedule.weights(inp)
    passes = [(mult, [weights[i] for i in at]) for mult, at in schedule.passes.items()]
    inners: dict[int, dict[int, None]] = {}
    for cfg in cfgs:
        inners.setdefault(cfg.M, {})[cfg.N] = None
    pairs = {}
    for outer, distinct in inners.items():
        factors = _chained_factors(outer, tuple(distinct), [(mult * outer, w) for mult, w in passes])
        pairs.update(zip([(outer, inner) for inner in distinct], factors))
    chains = {}
    for cfg in cfgs:
        if (cfg.K, cfg.N) not in chains:
            chains[cfg.K, cfg.N] = [(1.0, dcfo_success(cfg.K, cfg.N, weights[i])) for i in schedule.chains]
    rows = []
    for cfg in cfgs:
        found = pairs[cfg.M, cfg.N] + chains[cfg.K, cfg.N]
        values, stages, aborts, survival = {}, [], [], 1.0
        for name, lam_name, at in schedule.lookup:
            f_out, f_in = found[at]
            stages.append((name, f_out, f_in))
            values[lam_name] = lam = f_out * f_in
            survival *= lam
            aborts.append(1.0 - survival)
        values.update(printed)
        for zeta, (_, end) in zip(schedule.zetas, schedule.branches):
            values[zeta] = aborts[end - 1]
        if not all(0.0 <= v <= 1.0 for v in values.values()):  # name the first value out of [0, 1]
            for name, value in values.items():
                _check_unit_interval(name, value)
        rows.append((values, stages))
    return rows


def stage_probabilities_general(cfg: CycleConfig, inp: GeneralInput) -> dict[str, float]:
    """The general protocol's values at one config (GENERAL_SCHEDULE): its stage_rows row."""
    if not isinstance(inp, GeneralInput):
        raise TypeError(f"stage_probabilities_general expects a GeneralInput, got {type(inp).__name__}")
    return stage_rows((cfg,), inp)[0][0]


def stage_probabilities_bell(cfg: CycleConfig, inp: BellInput) -> dict[str, float]:
    """The Bell-type protocol's values at one config (BELL_SCHEDULE): its stage_rows row."""
    if not isinstance(inp, BellInput):
        raise TypeError(f"stage_probabilities_bell expects a BellInput, got {type(inp).__name__}")
    return stage_rows((cfg,), inp)[0][0]


class AbsorberModel(Enum):
    """How absorption events are sampled along a trajectory."""

    COHERENT = "coherent"
    PER_CYCLE_BORN = "per_cycle_born"


class OutcomeKind(Enum):
    SUCCESS = "success"
    ABSORBED_BY_ELECTRON = "absorbed_by_electron"
    DISCARDED_AT_DETECTOR = "discarded_at_detector"


@dataclass(frozen=True)
class TrajectoryOutcome:
    """Result of one simulated gate traversal.

    ``final_state`` lives on (absorber, photon polarization) with basis
    order absorber {|0>=absence, |1>=presence} and photon {|0>=H, |1>=V}.
    For Success it is the delivered joint state; for an absorption at the
    exit port it records the state diverted into the absorber.
    ``photon_entered_channel`` is derived from ``kind``: True exactly when
    an absorption event fired, so a Success never touched the channel by
    construction.
    """

    kind: OutcomeKind
    stage: str
    cycle_index: int
    final_state: StateVector | None

    def __post_init__(self) -> None:
        _check_outcome(self.kind, self.final_state)

    @classmethod
    def _trusted(
        cls, kind: OutcomeKind, stage: str, cycle_index: int, final_state: StateVector | None
    ) -> TrajectoryOutcome:
        """Outcome from fields already checked by ``_check_outcome``, without
        the frozen dataclass's per-field setattr and re-check.

        For the rows ``_gate_table`` has just built; public construction validates.
        """
        outcome = object.__new__(cls)
        fields = outcome.__dict__
        fields["kind"] = kind
        fields["stage"] = stage
        fields["cycle_index"] = cycle_index
        fields["final_state"] = final_state
        return outcome

    @property
    def photon_entered_channel(self) -> bool:
        return self.kind is OutcomeKind.ABSORBED_BY_ELECTRON


def _check_outcome(kind: OutcomeKind, final_state: StateVector | None) -> None:
    if kind is OutcomeKind.SUCCESS and (final_state is None or not final_state.is_normalized(1e-9)):
        raise ValueError("Success outcomes must carry a normalized final state")


_POL_INDEX = {"H": 0, "V": 1}


# The (absorber, photon) basis states, indexed [presence][polarization];
# states are immutable, so every outcome that ends in one shares it.
_JOINT_STATES = tuple(tuple(StateVector.basis((2, 2), (row, pol)) for pol in (0, 1)) for row in (0, 1))


def _joint_state(presence: bool, pol_index: int) -> StateVector:
    return _JOINT_STATES[presence][pol_index]


# One row of a gate's outcome table: (probability, *TrajectoryOutcome fields).
_Row = tuple[float, OutcomeKind, str, int, StateVector | None]


def _qz_born_rows(a: complex, b: complex, pol0: int, inner: int) -> Iterator[_Row]:
    weight = abs(a) ** 2
    p_cycle = weight * _sin_sq_pi(1.0 / (2 * inner))
    alive = 1.0
    for index in range(1, inner + 1):
        yield alive * p_cycle, OutcomeKind.ABSORBED_BY_ELECTRON, "qz:channel", index, None
        alive *= 1.0 - p_cycle
    yield alive * weight, OutcomeKind.SUCCESS, "qz:exit", inner, _joint_state(True, pol0)
    yield alive * (1.0 - weight), OutcomeKind.ABSORBED_BY_ELECTRON, "qz:exit", inner, _joint_state(False, 1 - pol0)


def _exit_state(final: np.ndarray) -> tuple[float, StateVector | None]:
    """Probability of an exit branch from its unnormalized (absorber, photon)
    amplitudes, with the normalized state (None when the branch has none)."""
    amps = final.reshape(-1)
    # np.linalg.norm's own sum for complex arrays, without its dispatch.
    norm = math.sqrt(amps.real.dot(amps.real) + amps.imag.dot(amps.imag))
    weight = norm * norm
    return weight, (StateVector._trusted((2, 2), amps / norm) if weight > 0.0 else None)


def _rotation_step(cycles: int) -> tuple[float, float]:
    """cos and sin of the per-cycle rotation pi/(2 cycles); one cycle is an exact quarter turn."""
    if cycles == 1:
        return 0.0, 1.0
    return math.cos(math.pi / (2 * cycles)), math.sin(math.pi / (2 * cycles))


def _qz_coherent_rows(a: complex, b: complex, pol0: int, inner: int) -> Iterator[_Row]:
    # Joint amplitudes indexed (absence/presence, design/channel pol).  They
    # are never renormalized, so each removed component's squared modulus is
    # the unconditional probability of its event.  Only the presence row is
    # ever absorbed: each cycle it keeps cos theta_N of its design amplitude
    # and loses the rotated-out sin theta_N part.  The absence row is never
    # absorbed, so its N rotations make one exact quarter turn onto the
    # channel polarization.
    cos_t, sin_t = _rotation_step(inner)
    design = complex(a)
    for index in range(1, inner + 1):
        yield abs(sin_t * design) ** 2, OutcomeKind.ABSORBED_BY_ELECTRON, "qz:channel", index, None
        design *= cos_t
    # Exit splitter: the presence row leaves in the design polarization as
    # Success, the absence row in the channel polarization.
    for row, amplitude, pol_index, kind in ((1, design, pol0, OutcomeKind.SUCCESS),
                                            (0, b, 1 - pol0, OutcomeKind.ABSORBED_BY_ELECTRON)):
        final = np.zeros((2, 2), dtype=np.complex128)
        final[row, pol_index] = amplitude
        p_exit, state = _exit_state(final)
        yield p_exit, kind, "qz:exit", inner, state


def _cqz_born_rows(a: complex, b: complex, pol0: int, outer: int, inner: int) -> Iterator[_Row]:
    weight = abs(a) ** 2
    s_n = _sin_sq_pi(1.0 / (2 * inner))
    p_detector = (1.0 - weight) * _sin_sq_pi(1.0 / (2 * outer))
    alive = 1.0
    for i in range(1, outer + 1):
        p_absorb = weight * _sin_sq_pi(i / (2 * outer)) * s_n
        absorbed = 0.0
        for _ in range(inner):
            absorbed += alive * p_absorb
            alive *= 1.0 - p_absorb
        yield absorbed, OutcomeKind.ABSORBED_BY_ELECTRON, "cqz:channel", i, None
        yield alive * p_detector, OutcomeKind.DISCARDED_AT_DETECTOR, "cqz:detector", i, None
        alive *= 1.0 - p_detector
    yield alive * weight, OutcomeKind.SUCCESS, "cqz:exit", outer, _joint_state(True, 1 - pol0)
    yield alive * (1.0 - weight), OutcomeKind.SUCCESS, "cqz:exit", outer, _joint_state(False, pol0)


def _cqz_coherent_rows(a: complex, b: complex, pol0: int, outer: int, inner: int) -> Iterator[_Row]:
    # Gate-frame amplitudes of the absence and presence rows in the design
    # and channel polarizations; never renormalized, as in _qz_coherent_rows.
    absence, absence_channel = complex(b), 0j
    presence, presence_channel = complex(a), 0j
    cos_m, sin_m = _rotation_step(outer)
    cos_n, sin_n = _rotation_step(inner)
    for i in range(1, outer + 1):
        absence, absence_channel = (cos_m * absence - sin_m * absence_channel,
                                    sin_m * absence + cos_m * absence_channel)
        presence, presence_channel = (cos_m * presence - sin_m * presence_channel,
                                      sin_m * presence + cos_m * presence_channel)
        # Channel components enter the inner gate; its own channel is the
        # outer design polarization, read by the detector on exit.  As in
        # _qz_coherent_rows, the presence component loses its rotated-out
        # part to absorption each inner cycle, and the absence component
        # makes one exact quarter turn onto the detector.
        absorbed = 0.0
        for _ in range(inner):
            absorbed += abs(sin_n * presence_channel) ** 2
            presence_channel *= cos_n
        yield absorbed, OutcomeKind.ABSORBED_BY_ELECTRON, "cqz:channel", i, None
        yield abs(absence_channel) ** 2, OutcomeKind.DISCARDED_AT_DETECTOR, "cqz:detector", i, None
        absence_channel = 0j
    # Map the gate frame back onto (H, V) and deliver the coherent exit state.
    final = np.zeros((2, 2), dtype=np.complex128)
    final[:, pol0] = absence, presence
    final[:, 1 - pol0] = absence_channel, presence_channel
    p_exit, state = _exit_state(final)
    yield p_exit, OutcomeKind.SUCCESS, "cqz:exit", outer, state


def _gate_table(
    absorber: tuple[complex, complex],
    polarization: str,
    outer: int | None,
    inner: int,
    model: AbsorberModel,
) -> tuple[tuple[TrajectoryOutcome, ...], np.ndarray]:
    """Every observable outcome of one gate traversal, with its probability.

    ``outer`` is None for the single-interferometer gate.  Once a
    trajectory has survived to a given point, the chance of each next
    event is fixed, so the recursion a trajectory follows runs once here,
    with no randomness: per-cycle-Born hazards come from the sin^2
    weights; the coherent amplitude recursion is left unnormalized, so the
    squared modulus of each component it removes is the probability of
    that event.  Absorptions inside one outer cycle of the chained gate
    share that cycle's row.
    Rows of probability 0 are left out; every other row passes the
    TrajectoryOutcome check once and is built through
    ``TrajectoryOutcome._trusted``.
    """
    a, b = complex(absorber[0]), complex(absorber[1])
    _check_unit_pair("absorber", a, b)
    if polarization not in _POL_INDEX:
        raise ValueError(f"polarization must be 'H' or 'V', got {polarization!r}")
    if not isinstance(model, AbsorberModel):
        raise ValueError(f"model must be an AbsorberModel, got {model!r}")
    pol0 = _POL_INDEX[polarization]
    if outer is None:
        inner = _cycle_count("N", inner)
        builder = _qz_born_rows if model is AbsorberModel.PER_CYCLE_BORN else _qz_coherent_rows
        rows = builder(a, b, pol0, inner)
    else:
        outer, inner = _cycle_count("M", outer), _cycle_count("N", inner)
        builder = _cqz_born_rows if model is AbsorberModel.PER_CYCLE_BORN else _cqz_coherent_rows
        rows = builder(a, b, pol0, outer, inner)
    outcomes, probs = [], []
    for p, kind, stage, index, state in rows:
        if p > 0.0:
            _check_outcome(kind, state)
            outcomes.append(TrajectoryOutcome._trusted(kind, stage, index, state))
            probs.append(p)
    return tuple(outcomes), np.array(probs)


_T = TypeVar("_T")


def _sample(table: tuple[tuple[_T, ...], np.ndarray], rng: np.random.Generator, size: int) -> list[tuple[_T, int]]:
    """Each row of a (rows, probabilities) table that ``size`` trials reach,
    with its count, by ``sample_counts``."""
    rows, probs = table
    return [(row, count) for row, count in zip(rows, sample_counts(probs, size, rng)) if count]


def simulate_qz(
    absorber: tuple[complex, complex],
    polarization: str,
    inner: int,
    model: AbsorberModel,
    rng: np.random.Generator,
    size: int,
) -> list[tuple[TrajectoryOutcome, int]]:
    """Traversals of the single-interferometer gate with its exit port.

    ``absorber`` is (presence amplitude, absence amplitude).  The photon
    enters with the gate's design polarization; per cycle it is rotated by
    pi/(2N) and the channel component may be absorbed by the presence
    branch.  At the exit the polarizing splitter measures the photon: the
    design polarization exits as Success (collapsing the absorber onto
    presence); the orthogonal output is non-counterfactual and is diverted
    into the absorber, recorded as an exit absorption with the pre-discard
    state attached.  A pure-absence absorber therefore shows a
    deterministic polarization flip and never yields Success.

    Runs ``size`` traversals, drawn from the gate's outcome table with one
    ``rng.random()`` each, and returns each outcome that occurred with its
    count.
    """
    return _sample(_gate_table(absorber, polarization, None, inner, model), rng, size)


def simulate_cqz(
    absorber: tuple[complex, complex],
    polarization: str,
    outer: int,
    inner: int,
    model: AbsorberModel,
    rng: np.random.Generator,
    size: int,
) -> list[tuple[TrajectoryOutcome, int]]:
    """Traversals of the chained gate: M outer cycles nesting an N-cycle gate.

    An absent blocker makes the inner gate route the channel component to
    the detector (discard path); a present blocker makes it a mirror, so
    the polarization rotation accumulates and the photon exits flipped,
    with the blocked branch carrying the -1 phase of the quarter-turn
    rotation.  Both exit branches are counterfactual, so survival yields
    Success for either absorber state; ``cycle_index`` counts outer cycles.
    Sampling and ``size`` are as in ``simulate_qz``.
    """
    return _sample(_gate_table(absorber, polarization, outer, inner, model), rng, size)


@dataclass(frozen=True)
class MonteCarloReport:
    """Aggregate statistics of a seeded trajectory campaign."""

    trials: int
    successes: int
    absorbed: int
    discarded: int
    abort_rate_estimate: float
    standard_error: float
    conditional_fidelity: float | None
    seed: int

    def __post_init__(self) -> None:
        if self.successes + self.absorbed + self.discarded != self.trials:
            raise ValueError("outcome counts must sum to the number of trials")

    def as_dict(self) -> dict:
        return asdict(self)


def _report(rows: Iterable[tuple[OutcomeKind, float | None, int]], seed: int) -> MonteCarloReport:
    """The one tally behind every MonteCarloReport, from the campaign's
    sampled (kind, fidelity of a success or None, count) rows.

    ``conditional_fidelity`` is None when nothing succeeded or a success
    carries no fidelity.
    """
    # Counted by identity: an Enum member hashes through Python code.
    successes = absorbed = discarded = 0
    fid_total: float | None = 0.0
    for kind, fid, count in rows:
        if kind is OutcomeKind.SUCCESS:
            successes += count
            if fid_total is not None:
                fid_total = None if fid is None else fid_total + count * fid
        elif kind is OutcomeKind.ABSORBED_BY_ELECTRON:
            absorbed += count
        elif kind is OutcomeKind.DISCARDED_AT_DETECTOR:
            discarded += count
        else:
            raise ValueError(f"not an OutcomeKind: {kind!r}")
    trials = successes + absorbed + discarded
    abort = 1.0 - successes / trials
    return MonteCarloReport(
        trials=trials,
        successes=successes,
        absorbed=absorbed,
        discarded=discarded,
        abort_rate_estimate=abort,
        standard_error=math.sqrt(abort * (1.0 - abort) / trials),
        conditional_fidelity=fid_total / successes if successes and fid_total is not None else None,
        seed=seed,
    )


def gate_statistics(
    gate: str,
    absorber: tuple[complex, complex],
    polarization: str,
    inner: int,
    model: AbsorberModel,
    trials: int,
    seed: int,
    outer: int | None = None,
    expected_success_state: StateVector | None = None,
) -> MonteCarloReport:
    """Seeded trajectory campaign over one gate ('qz' or 'cqz').

    ``outer`` is required for the chained gate and refused for the single
    one.  The trials are one ``simulate_qz``/``simulate_cqz`` call: the
    gate's outcome table is built once and trial i takes the row picked by
    the i-th double of ``default_rng(seed)``.  No Success touched the
    channel: ``photon_entered_channel`` follows from the outcome kind.
    ``conditional_fidelity`` averages the Success final states against
    ``expected_success_state`` when one is supplied.
    """
    if gate not in ("qz", "cqz"):
        raise ValueError(f"gate must be 'qz' or 'cqz', got {gate!r}")
    if gate == "cqz" and outer is None:
        raise ValueError("the chained gate needs an outer cycle count")
    if gate == "qz" and outer is not None:
        raise ValueError(f"the single-interferometer gate takes no outer cycle count, got {outer!r}")
    seed = _as_seed(seed)
    rng = np.random.default_rng(seed)
    if gate == "qz":
        sampled = simulate_qz(absorber, polarization, inner, model, rng, trials)
    else:
        sampled = simulate_cqz(absorber, polarization, outer, inner, model, rng, trials)
    rows = []
    for outcome, count in sampled:
        fid = None
        if outcome.kind is OutcomeKind.SUCCESS and expected_success_state is not None:
            fid = fidelity(outcome.final_state, expected_success_state)
        rows.append((outcome.kind, fid, count))
    return _report(rows, seed)


def _cct_table(
    cfg: CycleConfig, inp: GeneralInput | BellInput
) -> tuple[tuple[tuple[int | None, str, OutcomeKind, float | None], ...], np.ndarray]:
    """simulate_cct's outcome table: a row (m, stage, kind, fidelity of a
    success) per outcome m, stage m meets and kind, and a success row per m."""
    schedule = schedule_of(inp)
    ((_, stages),) = stage_rows((cfg,), inp)
    rows: list[tuple[int | None, str, OutcomeKind, float | None]] = []
    probs: list[float] = []
    for (m, end), (weight, branch_fidelity) in zip(schedule.branches, schedule.outcomes(inp)):
        alive = weight
        for stage, f_discard, f_absorb in stages[:end]:
            rows.append((m, stage, OutcomeKind.DISCARDED_AT_DETECTOR, None))
            probs.append(alive * (1.0 - f_discard))
            alive *= f_discard
            rows.append((m, stage, OutcomeKind.ABSORBED_BY_ELECTRON, None))
            probs.append(alive * (1.0 - f_absorb))
            alive *= f_absorb
        rows.append((m, "exit", OutcomeKind.SUCCESS, branch_fidelity))
        probs.append(alive)
    return tuple(rows), np.array(probs)


def simulate_cct(
    cfg: CycleConfig,
    inp: GeneralInput | BellInput,
    trials: int,
    seed: int,
) -> MonteCarloReport:
    """Stage-composed Monte Carlo of a full protocol run.

    Per trial, each counterfactual stage succeeds with its printed
    probability; the first failure aborts the trial, classified as a
    detector discard (outer factors) or an electron absorption (inner
    factors and the collapse-chain stages).  That law is one outcome table
    (_cct_table), sampled as the gate tables are: ``hilbert.sample_counts``
    checks ``trials``, and trial i takes the row picked by the i-th
    double of ``default_rng(seed)``.  Successful trials deliver the exact
    logical output, so the conditional fidelity against the closed form is
    1 by construction; it is still measured, not asserted.
    """
    seed = _as_seed(seed)
    sampled = _sample(_cct_table(cfg, inp), np.random.default_rng(seed), trials)
    return _report(((kind, fid, count) for (_, _, kind, fid), count in sampled), seed)
