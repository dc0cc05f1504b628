"""Closed forms of the optical layer: gate and stage probabilities.

Evaluates, exactly as printed, the closed-form success and abortion
probabilities of every interferometric gate and protocol stage (the
lambda/nabla/zeta family).  ``stage_rows`` evaluates a protocol's stage
schedule (GENERAL_SCHEDULE, BELL_SCHEDULE) over a whole sequence of cycle
configurations: configs that share M share one log1p pass per outer cycle
count, walked in blocks of at most PASS_BLOCK entries along both the inner
counts and the cycles, so memory stays bounded at any cycle count, and
every row is == to a one-config call.  ``stage_probabilities_general/bell``
return a one-config call's values.  The trajectory Monte Carlo over the
same gates is ``zeno``.

Loading: the module needs only ``inputs``, so a sweep compiles neither the
dense run nor the samplers.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .inputs import BellInput, GeneralInput, is_count

# The largest cycle count: every count the closed forms derive from a config,
# up to the 2M cycles of lambda5's pass, then stays at or below 2**53, where
# float64 stops holding every integer.
MAX_CYCLES = 2**52


@dataclass(frozen=True, init=False)
class CycleConfig:
    """Cycle counts: M outer, N inner, K concatenated collapse gates, each
    at most MAX_CYCLES."""

    M: int
    N: int
    K: int

    def __init__(self, M: int, N: int, K: int) -> None:
        fields = self.__dict__
        fields["M"] = _cycle_count("M", M)
        fields["N"] = _cycle_count("N", N)
        fields["K"] = _cycle_count("K", K)


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

    Each entry evaluates only its own branch, in place, with the bits of
    evaluating both branches over the block and picking with np.where.
    """
    r = np.arange(start + 1, stop + 1, dtype=np.float64)
    r /= 2 * outer
    r -= np.floor(r)  # fmod(r, 1), exactly: r >= 0 and its fractional part is a double
    table = np.subtract(1.0, r)
    np.minimum(r, table, out=r)
    below = r < 0.25
    np.subtract(0.5, r, out=table)
    np.copyto(table, r, where=below)
    table *= np.pi
    np.sin(table, out=table, where=below)
    np.cos(table, out=table, where=~below)
    np.square(table, out=table)
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
    (``inputs.is_count``); on a numpy count such as uint16, arithmetic
    like 2 * M or N * K would wrap.  A count above MAX_CYCLES is refused."""
    if type(value) is int and value >= 1 or is_count(value):
        if value <= MAX_CYCLES:
            return int(value)
        raise ValueError(f"cycle count {name} must be at most 2**52, got {value!r}")
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
    stage's ((outer, inner) or a nabla)."""

    def __init__(self, stages: tuple[tuple[str, str, int | None, tuple[int | None, ...]], ...], weights):
        self.weights = weights
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


GENERAL_SCHEDULE = Schedule(
    (
        ("toffoli", "lambda2", 1, (0, 1)),
        ("flip-chain", "lambda3", None, (0, 1)),
        ("flip-pair", "lambda4", 1, (0, 1)),
        ("controlled-z", "lambda5", 2, (1,)),
    ),
    _general_weights,
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


BELL_SCHEDULE = Schedule(
    (
        ("flip-chain", "lambda6", None, (None,)),
        ("controlled-z", "lambda7", 1, (None,)),
    ),
    _bell_weights,
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
