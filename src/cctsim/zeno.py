"""Counterfactual optical layer: gate trajectories and protocol campaigns.

The module samples the gates' trajectories under two explicitly named
absorber models:

* ``PER_CYCLE_BORN`` reproduces the closed forms: a cycle's absorption
  hazard is the fixed weight * sin^2(theta), with the absorber's branch
  weights frozen until a final collapse;
* ``COHERENT`` evolves the joint absorber-photon amplitudes, unnormalized,
  and takes each event's probability from the squared amplitude it removes.

The two models differ at finite cycle counts.  For the collapse gate
they agree in the many-cycle limit; for the chained gate they agree only
as M/N -> 0, and along the diagonal M = N they tend to different limits
(presence-branch survival 0.424 coherent against 0.289 per-cycle-Born at
M = N = 160).  Both are reported, neither is declared authoritative.
``simulate_cct`` samples a whole protocol run from the stage
probabilities of ``stages`` and the branch outcomes of dense runs.

Counterfactuality bookkeeping: a trajectory counts as Success only if no
absorption event fired, i.e. the photon was never found in the channel.

Loading: the module imports ``stages`` and ``protocol`` (with ``gates``
and ``hilbert``); ``cli`` imports it only for ``montecarlo``, so neither a
sweep nor a run compiles the samplers.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from enum import Enum
from typing import TypeVar

import numpy as np

from . import protocol, stages
from .hilbert import StateVector, _norm, fidelity, sample_counts
from .inputs import BellInput, GeneralInput, _as_seed, _check_unit_pair, _is_integer, is_count
from .stages import _cycle_count, _sin_sq_pi

# The closed forms read through this module (perfbench's tracer and
# workloads among the readers): each is the ``stages`` object.
from .stages import (  # noqa: F401
    CycleConfig,
    _chained_factors,
    cepi_success,
    chained_survival,
    coherent_qz_success,
    cqz_lambda0,
    cqz_lambda1,
    dcepi_success,
    dcfo_stage_success,
    dcfo_success,
    ddcfo_success,
    qz_survival,
    stage_probabilities_bell,
    stage_probabilities_general,
)


class AbsorberModel(Enum):
    """How absorption events are sampled along a trajectory."""

    COHERENT = "coherent"
    PER_CYCLE_BORN = "per_cycle_born"


class OutcomeKind(Enum):
    SUCCESS = "success"
    ABSORBED_BY_ELECTRON = "absorbed_by_electron"
    DISCARDED_AT_DETECTOR = "discarded_at_detector"


@dataclass(frozen=True, init=False)
class TrajectoryOutcome:
    """Result of one simulated gate traversal.

    ``final_state`` lives on (absorber, photon polarization) with basis
    order absorber {|0>=absence, |1>=presence} and photon {|0>=H, |1>=V}.
    For Success it is the delivered joint state; for an absorption at the
    exit port it records the state diverted into the absorber.
    ``photon_entered_channel`` is derived from ``kind``: True exactly when
    an absorption event fired, so a Success never touched the channel by
    construction.  The constructor checks that a Success carries a
    normalized state and fills the frozen fields without per-field setattr,
    so every table row ``_gate_table`` builds is checked at little cost.
    """

    kind: OutcomeKind
    stage: str
    cycle_index: int
    final_state: StateVector | None

    def __init__(self, kind: OutcomeKind, stage: str, cycle_index: int, final_state: StateVector | None) -> None:
        if type(kind) is not OutcomeKind:
            raise ValueError(f"kind must be an OutcomeKind, got {kind!r}")
        if kind is OutcomeKind.SUCCESS and (final_state is None or not final_state.is_normalized(1e-9)):
            raise ValueError("Success outcomes must carry a normalized final state")
        fields = self.__dict__
        fields["kind"] = kind
        fields["stage"] = stage
        fields["cycle_index"] = cycle_index
        fields["final_state"] = final_state

    @property
    def photon_entered_channel(self) -> bool:
        return self.kind is OutcomeKind.ABSORBED_BY_ELECTRON


_POL_INDEX = {"H": 0, "V": 1}


# The (absorber, photon) basis states, indexed [presence][polarization];
# states are immutable, so every outcome that ends in one shares it.
_JOINT_STATES = tuple(tuple(StateVector.basis((2, 2), (row, pol)) for pol in (0, 1)) for row in (0, 1))


def _joint_state(presence: bool, pol_index: int) -> StateVector:
    return _JOINT_STATES[presence][pol_index]


# One row of a gate's outcome table: (probability, *TrajectoryOutcome fields).
_Row = tuple[float, OutcomeKind, str, int, StateVector | None]

# The most rows a chained gate's table may hold.  Each of its 2M + 2 rows is
# a checked TrajectoryOutcome; at M = 2**21 - 1 a 1000-trial campaign peaks
# at about 1.1 GB resident, inside 2 GB of address space.
MAX_TABLE_ROWS = 2**22


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
    norm = _norm(amps)
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
        # N inner cycles at one hazard p keep (1 - p)^N = exp(log_kept); a
        # certain loss keeps nothing (exp(-inf) = 0, expm1(-inf) = -1).
        p_absorb = weight * _sin_sq_pi(i / (2 * outer)) * s_n
        log_kept = inner * math.log1p(-p_absorb) if p_absorb < 1.0 else -math.inf
        yield -alive * math.expm1(log_kept), OutcomeKind.ABSORBED_BY_ELECTRON, "cqz:channel", i, None
        alive *= math.exp(log_kept)
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
    # Channel components enter the inner gate; its own channel is the outer
    # design polarization, read by the detector on exit.  As in
    # _qz_coherent_rows, it keeps cos^N theta_N = exp(log_kept / 2) of the
    # presence component (cos_n**N would raise cos_n's rounding to the N-th
    # power), none at N = 1, and absorbs the rest; the absence component
    # makes one exact quarter turn onto the detector.
    log_kept = inner * math.log1p(-sin_n * sin_n) if cos_n else -math.inf
    lost, kept = -math.expm1(log_kept), math.exp(log_kept / 2)
    for i in range(1, outer + 1):
        absence, absence_channel = (cos_m * absence - sin_m * absence_channel,
                                    sin_m * absence + cos_m * absence_channel)
        presence, presence_channel = (cos_m * presence - sin_m * presence_channel,
                                      sin_m * presence + cos_m * presence_channel)
        yield abs(presence_channel) ** 2 * lost, OutcomeKind.ABSORBED_BY_ELECTRON, "cqz:channel", i, None
        presence_channel *= kept
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
    share that cycle's row, one closed form in N: a chained table costs O(M),
    and an M whose 2M + 2 rows pass MAX_TABLE_ROWS is refused before any row.
    Rows of probability 0 are left out; every other row is built, and
    checked, by the TrajectoryOutcome constructor.
    """
    a, b = complex(absorber[0]), complex(absorber[1])
    _check_unit_pair("absorber", a, b)
    pol0 = _POL_INDEX.get(polarization) if isinstance(polarization, str) else None
    if pol0 is None:
        raise ValueError(f"polarization must be 'H' or 'V', got {polarization!r}")
    if not isinstance(model, AbsorberModel):
        raise ValueError(f"model must be an AbsorberModel, got {model!r}")
    if outer is None:
        inner = _cycle_count("N", inner)
        builder = _qz_born_rows if model is AbsorberModel.PER_CYCLE_BORN else _qz_coherent_rows
        rows = builder(a, b, pol0, inner)
    else:
        outer, inner = _cycle_count("M", outer), _cycle_count("N", inner)
        if 2 * outer + 2 > MAX_TABLE_ROWS:
            raise ValueError(f"cycle count M must be at most {MAX_TABLE_ROWS // 2 - 1} "
                             f"(a gate table of at most 2**22 rows), got {outer!r}")
        builder = _cqz_born_rows if model is AbsorberModel.PER_CYCLE_BORN else _cqz_coherent_rows
        rows = builder(a, b, pol0, outer, inner)
    outcomes, probs = [], []
    for p, kind, stage, index, state in rows:
        if p > 0.0:
            outcomes.append(TrajectoryOutcome(kind, stage, index, state))
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

    Runs ``size`` traversals as one multinomial draw over the gate's
    outcome table (``hilbert.sample_counts``) and returns each outcome that
    occurred with its count.
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


@dataclass(frozen=True, init=False)
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

    def __init__(
        self,
        trials: int,
        successes: int,
        absorbed: int,
        discarded: int,
        abort_rate_estimate: float,
        standard_error: float,
        conditional_fidelity: float | None,
        seed: int,
    ) -> None:
        if not is_count(trials):
            raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
        for name, count in (("successes", successes), ("absorbed", absorbed), ("discarded", discarded)):
            if not (_is_integer(count) and count >= 0):
                raise ValueError(f"{name} must be an integer >= 0, got {count!r}")
        if successes + absorbed + discarded != trials:
            raise ValueError("outcome counts must sum to the number of trials")
        fields = self.__dict__
        fields["trials"] = trials
        fields["successes"] = successes
        fields["absorbed"] = absorbed
        fields["discarded"] = discarded
        fields["abort_rate_estimate"] = abort_rate_estimate
        fields["standard_error"] = standard_error
        fields["conditional_fidelity"] = conditional_fidelity
        fields["seed"] = _as_seed(seed)

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
        trials,
        successes,
        absorbed,
        discarded,
        abort,
        math.sqrt(abort * (1.0 - abort) / trials),
        fid_total / successes if successes and fid_total is not None else None,
        seed,
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
    gate's outcome table is built once and its counts are one multinomial
    draw from ``default_rng(seed)``.  No Success touched the
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


def _general_outcomes(inp: GeneralInput) -> Iterable[tuple[float, float]]:
    p0, transcripts = protocol.run_general_branches(inp)
    fids = [fidelity(t.psi6m, protocol.expected_output_general(inp, m)) for m, t in enumerate(transcripts)]
    return zip((p0, 1.0 - p0), fids)


def _bell_outcomes(inp: BellInput) -> Iterable[tuple[float, float]]:
    return [(1.0, fidelity(protocol.run_bell(inp).psi6m, protocol.expected_output_bell(inp)))]


def _cct_table(
    cfg: CycleConfig, inp: GeneralInput | BellInput
) -> tuple[tuple[tuple[int | None, str, OutcomeKind, float | None], ...], np.ndarray]:
    """simulate_cct's outcome table: a row (m, stage, kind, fidelity of a
    success) per outcome m, stage m meets and kind, and a success row per m."""
    schedule = stages.schedule_of(inp)
    ((_, factors),) = stages.stage_rows((cfg,), inp)
    outcomes = _general_outcomes(inp) if isinstance(inp, GeneralInput) else _bell_outcomes(inp)
    rows: list[tuple[int | None, str, OutcomeKind, float | None]] = []
    probs: list[float] = []
    for (m, end), (weight, branch_fidelity) in zip(schedule.branches, outcomes):
        alive = weight
        for stage, f_discard, f_absorb in factors[:end]:
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
    checks ``trials`` and draws the counts of every row in one multinomial
    draw from ``default_rng(seed)``.  Successful trials deliver the exact
    logical output, so the conditional fidelity against the closed form is
    1 by construction; it is still measured, not asserted.
    """
    seed = _as_seed(seed)
    sampled = _sample(_cct_table(cfg, inp), np.random.default_rng(seed), trials)
    return _report(((kind, fid, count) for (_, _, kind, fid), count in sampled), seed)
