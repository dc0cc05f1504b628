"""Exact logical execution of the concealed controlled-unitary protocol.

Two variants are implemented:

* the general protocol, which consumes arbitrary product inputs on A and B,
  uses a qutrit ancilla C and ends with a measurement whose outcome m is
  exactly unbiased;
* the Bell-type protocol, which consumes two-qubit entangled inputs of
  either class, uses a qubit ancilla and is fully deterministic.

Register order is A (Alice's target qubit), B (Bob's control qubit),
C (ancilla) throughout.  States stored in transcripts are renormalized
after collapses so fidelity comparisons against the closed forms are
well-defined.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import gates
from .hilbert import (
    FIDELITY_TOL,
    StateVector,
    _branch_weight,
    _fidelity,
    _marginal,
    _unit,
    apply,
    sample_counts,
)
from .inputs import BellInput, EulerAngles, GeneralInput, _as_seed, _check_bit

# Ancilla weight above which the measurement's third level signals a fault.
ANCILLA_LEAK_TOL = 1e-12
# Registers A, B, C of the general and the Bell-type protocol.
_GENERAL_DIMS = (2, 2, 3)
_BELL_DIMS = (2, 2, 2)


class ProtocolFault(RuntimeError):
    """Internal consistency violation (not a bad input)."""


@dataclass(frozen=True, init=False)
class Transcript:
    """Labeled intermediate states of one protocol run.

    psi0..psi4 live on the full A,B,C register.  For the general protocol,
    ``pre_measurement`` is the state entering the ancilla measurement and
    psi5m/psi6m are the post-measurement A,B states for the realized
    outcome.  For the Bell-type protocol the measurement fields are None,
    ``final_abc`` holds the state after the disentangling step and psi6m
    the extracted A,B output.  The constructor fills the frozen fields
    without per-field setattr; every run builds one.
    """

    psi0: StateVector
    psi1: StateVector
    psi2: StateVector
    psi3: StateVector
    psi4: StateVector
    psi6m: StateVector
    pre_measurement: StateVector | None = None
    outcome: int | None = None
    outcome_probability: float | None = None
    psi5m: StateVector | None = None
    final_abc: StateVector | None = None

    def __init__(
        self,
        psi0: StateVector,
        psi1: StateVector,
        psi2: StateVector,
        psi3: StateVector,
        psi4: StateVector,
        psi6m: StateVector,
        pre_measurement: StateVector | None = None,
        outcome: int | None = None,
        outcome_probability: float | None = None,
        psi5m: StateVector | None = None,
        final_abc: StateVector | None = None,
    ) -> None:
        fields = self.__dict__
        fields["psi0"] = psi0
        fields["psi1"] = psi1
        fields["psi2"] = psi2
        fields["psi3"] = psi3
        fields["psi4"] = psi4
        fields["psi6m"] = psi6m
        fields["pre_measurement"] = pre_measurement
        fields["outcome"] = outcome
        fields["outcome_probability"] = outcome_probability
        fields["psi5m"] = psi5m
        fields["final_abc"] = final_abc

    def stages(self) -> tuple[tuple[str, StateVector], ...]:
        labeled = [
            ("psi0", self.psi0),
            ("psi1", self.psi1),
            ("psi2", self.psi2),
            ("psi3", self.psi3),
            ("psi4", self.psi4),
        ]
        if self.psi5m is not None:
            labeled.append(("psi5m", self.psi5m))
        if self.final_abc is not None:
            labeled.append(("final_abc", self.final_abc))
        labeled.append(("psi6m", self.psi6m))
        return tuple(labeled)


@dataclass(frozen=True, init=False)
class VerificationReport:
    """Per-stage fidelities of a transcript against independent closed forms.

    Filled like Transcript: every verification builds one.
    """

    stage_fidelities: tuple[tuple[str, float], ...]
    worst_fidelity: float
    passed: bool

    def __init__(self, stage_fidelities: tuple[tuple[str, float], ...], worst_fidelity: float, passed: bool) -> None:
        fields = self.__dict__
        fields["stage_fidelities"] = stage_fidelities
        fields["worst_fidelity"] = worst_fidelity
        fields["passed"] = passed

    @classmethod
    def from_stages(cls, stage_fidelities: list[tuple[str, float]]) -> VerificationReport:
        stages = tuple(stage_fidelities)
        worst = stages[0][1]
        for _, f in stages:
            # A NaN stage is taken wherever it sits, and kept: nothing compares
            # below it (min() would drop a NaN that is not the first element).
            if f < worst or f != f:
                worst = f
        return cls(stages, worst, worst >= 1.0 - FIDELITY_TOL)


def _at(dims: tuple[int, ...], *labels: tuple[int, ...]) -> np.ndarray:
    """Flat indices of basis labels over ``dims``."""
    return np.ravel_multi_index(tuple(zip(*labels)), dims)


def _general_prefix(inp: GeneralInput) -> tuple[tuple[StateVector, ...], np.ndarray]:
    """Deterministic pipeline up to (not including) the ancilla measurement.

    Returns the stage states and the Born weights of the three ancilla
    outcomes, after checking that level 2 carries no weight.
    """
    target = np.array([inp.alpha, inp.beta], dtype=np.complex128)
    control = np.array([inp.gamma, inp.delta], dtype=np.complex128)
    amps = np.zeros(12, dtype=np.complex128)
    amps[::3] = np.multiply.outer(target, control).reshape(-1)  # |a, b, 0> sits at a*6 + b*3
    psi0 = StateVector._trusted(_GENERAL_DIMS, amps)
    psi1 = apply(gates.cnot_qutrit(), psi0, (1, 2))
    psi2 = apply(gates.toffoli(), psi1, (0, 1, 2))
    psi3 = apply(gates.v1(inp.angles), psi2, (1, 2))
    psi4 = apply(gates.q2(), apply(gates.q1(), psi3, (0, 1, 2)), (0, 1, 2))
    pre = apply(gates.hadamard_on_qutrit(), apply(gates.v2(), psi4, (1, 2)), (2,))
    probs = _marginal(pre, 2)
    if probs[2] > ANCILLA_LEAK_TOL:
        raise ProtocolFault(f"ancilla weight {probs[2]!r} on level 2 before measurement")
    return (psi0, psi1, psi2, psi3, psi4, pre), probs


def _zero_probability(probs: np.ndarray) -> float:
    """Probability of outcome m=0 given the (checked) ancilla Born weights."""
    return float(probs[0] / (probs[0] + probs[1]))


def _finish_general(stages: tuple[StateVector, ...], probs: np.ndarray, m: int) -> Transcript:
    """Transcript for outcome m: psi5m is the pre-measurement branch |a, b, m>,
    which sits at a*6 + b*3 + m, divided by the square root of its weight and
    normalized, as collapse then factor_out would compute it."""
    psi0, psi1, psi2, psi3, psi4, pre = stages
    weight = _branch_weight(m, probs)
    psi5m = StateVector._trusted((2, 2), _unit(pre.amps[m::3] / math.sqrt(weight)))
    psi6m = apply(gates.q3(m), psi5m, (0, 1))
    return Transcript(
        psi0=psi0,
        psi1=psi1,
        psi2=psi2,
        psi3=psi3,
        psi4=psi4,
        psi6m=psi6m,
        pre_measurement=pre,
        outcome=m,
        outcome_probability=weight,
        psi5m=psi5m,
    )


def measurement_weights(inp: GeneralInput) -> np.ndarray:
    """Exact Born weights of the ancilla measurement outcomes (0, 1, 2)."""
    return _general_prefix(inp)[1]


def run_general(inp: GeneralInput, rng: np.random.Generator) -> Transcript:
    """Run the general protocol end to end, sampling the ancilla outcome.

    Applies, in order: the entangling controlled flip on (B, C), the
    three-register controlled flip with A and C as controls, Bob's local
    composite operation, the two global flips, Bob's ancilla relabeling and
    Hadamard, the ancilla measurement, and the outcome correction.
    """
    stages, probs = _general_prefix(inp)
    m = 0 if rng.random() < _zero_probability(probs) else 1
    return _finish_general(stages, probs, m)


def run_general_branches(inp: GeneralInput) -> tuple[float, tuple[Transcript, Transcript]]:
    """Probability of m=0 and the replays of both outcomes, from one prefix build.

    The transcript for m is identical to a sampled ``run_general`` that
    realized m; its recorded probability is the Born weight of that branch.
    """
    stages, probs = _general_prefix(inp)
    return _zero_probability(probs), (
        _finish_general(stages, probs, 0),
        _finish_general(stages, probs, 1),
    )


def bell_initial_state(inp: BellInput) -> StateVector:
    """Two-qubit input state c0|0 ell> + sign*c1|1 1-ell> on A (x) B."""
    return StateVector._trusted((2, 2), _bell_amps(inp))


def _bell_amps(inp: BellInput) -> np.ndarray:
    """bell_initial_state's amplitudes, in a new writable array."""
    amps = np.zeros(4, dtype=np.complex128)
    # |0 ell> sits at ell and |1 1-ell> at 3 - ell.
    amps[inp.ell] = inp.c0
    amps[3 - inp.ell] = inp.sign * inp.c1
    return amps


def run_bell(inp: BellInput) -> Transcript:
    """Run the deterministic Bell-type protocol.

    Applies, in order: the entangling controlled flip on (B, C), Bob's
    class-adapted local operation, the two global flips, and the final
    controlled flip that disentangles the ancilla.  No measurement occurs;
    the ancilla must come back separable in |0>.
    """
    amps = np.zeros(8, dtype=np.complex128)
    amps[::2] = _bell_amps(inp)  # |a, b, 0> sits at a*4 + b*2
    psi0 = StateVector._trusted(_BELL_DIMS, amps)
    psi1 = apply(gates.cnot(), psi0, (1, 2))
    psi2 = apply(gates.tilde_v1(inp.angles, inp.ell), psi1, (1, 2))
    psi3 = apply(gates.tilde_q1(), psi2, (0, 1, 2))
    psi4 = apply(gates.tilde_q2(inp.ell), psi3, (0, 1, 2))
    final_abc = apply(gates.cnot(), psi4, (1, 2))
    probs = _marginal(final_abc, 2)
    leak = float(1.0 - probs[0])
    if leak > FIDELITY_TOL:
        raise ProtocolFault(f"ancilla not separable in |0> after the Bell-type run: weight {leak!r} leaked")
    psi6m = StateVector._trusted((2, 2), _unit(final_abc.amps[0::2]))  # |a, b, 0> sits at a*4 + b*2
    return Transcript(
        psi0=psi0,
        psi1=psi1,
        psi2=psi2,
        psi3=psi3,
        psi4=psi4,
        psi6m=psi6m,
        final_abc=final_abc,
    )


def expected_output_general(inp: GeneralInput, m: int) -> StateVector:
    """Closed-form output gamma*(I psiA)|0>_B + delta*(U_m psiA)|1>_B, normalized."""
    _check_bit(m, "measurement outcome")
    return StateVector._trusted((2, 2), _unit(_compact_general(inp, m)))


def expected_output_bell(inp: BellInput) -> StateVector:
    """Closed-form output: act with U on A wherever B is |1>, normalized."""
    return StateVector._trusted((2, 2), _unit(_compact_bell(inp)))


def _compact_general(inp: GeneralInput, m: int) -> np.ndarray:
    """expected_output_general's amplitudes before normalization.

    U_m is the Z-Y-Z product with theta negated for m=1, built from the
    angles as plain floats.
    """
    a = inp.angles
    u = gates._euler(a.phi, (-1) ** m * a.theta, a.varphi)
    psi_a = np.array([inp.alpha, inp.beta], dtype=np.complex128)
    cols = np.empty((2, 2), dtype=np.complex128)
    cols[:, 0] = inp.gamma * psi_a
    cols[:, 1] = inp.delta * (u @ psi_a)
    return cols.reshape(-1)


def _compact_bell(inp: BellInput) -> np.ndarray:
    """expected_output_bell's amplitudes before normalization."""
    a = inp.angles
    amps = _bell_amps(inp)
    cols = amps.reshape(2, 2)
    cols[:, 1] = gates._euler(a.phi, a.theta, a.varphi) @ cols[:, 1]
    return amps


# Basis labels of the closed-form amplitude lists, in the order written below.
_PSI1 = ((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1))
_PSI2 = ((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 0, 1))
_PSI3 = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 2), (1, 1, 2))
_PSI4 = ((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1), (1, 1, 2), (0, 1, 2))
_OUTPUT = ((0, 0), (1, 0), (0, 1), (1, 1))
# Their flat indices in _closed_forms' (4, 12) array of psi1..psi4 and its
# (2, 4) array of psi5m and psi6m, a leading row index before the labels.
_STAGES_AT = _at(
    (4, *_GENERAL_DIMS), *((row, *label) for row, labels in enumerate((_PSI1, _PSI2, _PSI3, _PSI4)) for label in labels)
)
_OUTPUTS_AT = _at((2, 2, 2), *((row, *label) for row in (0, 1) for label in _OUTPUT))


def _closed_forms(inp: GeneralInput, m: int) -> tuple[np.ndarray, ...]:
    """psi1..psi6m, built term by term from the closed-form amplitude lists:
    psi1..psi4 are the rows of one (4, 12) array, and psi5m and psi6m the
    normalized rows of one (2, 4) array.

    Independent of the gate constructors: every amplitude below is written
    out directly from the per-term expressions, so this is the oracle the
    operator pipeline is checked against.
    """
    a, b, g, d = inp.alpha, inp.beta, inp.gamma, inp.delta
    phi, theta, varphi = inp.angles.phi, inp.angles.theta, inp.angles.varphi
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    e_mm = cmath.exp(-1j * (varphi + phi) / 2.0)
    e_mp = cmath.exp(-1j * (varphi - phi) / 2.0)
    e_pp = e_mm.conjugate()
    e_pm = e_mp.conjugate()
    sign_m = (-1.0) ** m

    # psi4 carries psi3's six amplitudes on new labels.
    branches = [g * a, g * b, d * a * e_mm * c, d * a * e_mp * s, d * b * e_pp * c, -d * b * e_pm * s]
    stages = np.zeros(48, dtype=np.complex128)
    stages[_STAGES_AT] = [a * g, b * g, a * d, b * d, g * a, g * b, d * a, d * b, *branches, *branches]
    out01 = d * a * e_mm * c + (-sign_m) * d * b * e_pm * s
    outputs = np.zeros(8, dtype=np.complex128)
    outputs[_OUTPUTS_AT] = [
        g * a, g * b, out01, d * a * e_mp * s + sign_m * d * b * e_pp * c,  # psi5m
        g * a, g * b, out01, sign_m * d * a * e_mp * s + d * b * e_pp * c,  # psi6m
    ]
    return (*stages.reshape(4, 12), _unit(outputs[:4]), _unit(outputs[4:]))


def verify_general(transcript: Transcript, inp: GeneralInput) -> VerificationReport:
    """Compare a general-protocol transcript against the closed forms.

    The output stage is checked twice: against the explicit term list and
    against the compact controlled-U_m form, so any disagreement between
    the two surfaces as a fidelity drop instead of being silently merged.
    Each stage is one inner product against its row of the closed forms; no
    gate constructor and no ``apply`` runs.
    """
    if transcript.outcome is None:
        raise ValueError("transcript has no measurement outcome; was this a Bell-type run?")
    m = transcript.outcome
    psi1, psi2, psi3, psi4, psi5m, psi6m = _closed_forms(inp, m)
    t = transcript
    return VerificationReport.from_stages([
        ("psi1", _fidelity(t.psi1.amps, psi1)),
        ("psi2", _fidelity(t.psi2.amps, psi2)),
        ("psi3", _fidelity(t.psi3.amps, psi3)),
        ("psi4", _fidelity(t.psi4.amps, psi4)),
        ("psi5m", _fidelity(t.psi5m.amps, psi5m)),
        ("psi6m", _fidelity(t.psi6m.amps, psi6m)),
        ("psi6m_compact", _fidelity(t.psi6m.amps, _unit(_compact_general(inp, m)))),
    ])


def verify_bell(transcript: Transcript, inp: BellInput) -> VerificationReport:
    """Check a Bell-type transcript: output fidelity and ancilla separability."""
    if transcript.final_abc is None:
        raise ValueError("transcript has no disentangling stage; was this a general run?")
    output_fid = _fidelity(transcript.psi6m.amps, _unit(_compact_bell(inp)))
    ancilla_weight = float(_marginal(transcript.final_abc, 2)[0])
    return VerificationReport.from_stages([("psi6m", output_fid), ("ancilla", ancilla_weight)])


def outcome_statistics(inp: GeneralInput, trials: int, seed: int) -> tuple[float, float]:
    """Empirical frequencies of m=0 and m=1 over repeated seeded runs.

    The pipeline before the measurement is deterministic, so it runs once;
    the number of m=0 outcomes is then one binomial(trials, P(m=0)) draw
    from ``default_rng(seed)`` by ``sample_counts``, the law of ``trials``
    independent ``run_general`` measurements.
    """
    p0 = _zero_probability(_general_prefix(inp)[1])
    zeros = sample_counts((p0, 1.0 - p0), trials, np.random.default_rng(_as_seed(seed)))[0]
    return zeros / trials, (trials - zeros) / trials


def random_angles(rng: np.random.Generator) -> EulerAngles:
    """Uniform angle triple over [0, 2pi)^3."""
    phi, theta, varphi = rng.uniform(0.0, 2.0 * math.pi, size=3)
    return EulerAngles(float(phi), float(theta), float(varphi))


def random_amplitude_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    """Normalized complex pair with uniform weight split and random phases."""
    weight = rng.uniform(0.0, 1.0)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=2))
    return (
        complex(math.sqrt(weight) * phases[0]),
        complex(math.sqrt(1.0 - weight) * phases[1]),
    )


def random_general_input(rng: np.random.Generator) -> GeneralInput:
    """Haar-ish random product input with random angles (for tests and sweeps)."""
    alpha, beta = random_amplitude_pair(rng)
    gamma, delta = random_amplitude_pair(rng)
    return GeneralInput(alpha, beta, gamma, delta, random_angles(rng))


def random_bell_input(rng: np.random.Generator) -> BellInput:
    c0, c1 = random_amplitude_pair(rng)
    return BellInput(
        ell=int(rng.integers(0, 2)),
        sign=1 if rng.random() < 0.5 else -1,
        c0=c0,
        c1=c1,
        angles=random_angles(rng),
    )
