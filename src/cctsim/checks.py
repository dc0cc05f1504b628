"""Acceptance checklist: every release gate, runnable from tests or the CLI.

Each check returns a CheckResult and never raises on a mere failure, so the
verify command can print the full matrix.  One check is expected to fail:
the closed-form abort rates have a nonzero limit along the equal-cycle
diagonal, so the halving milestone stated for that scan is mathematically
out of reach (they do vanish when the inner cycle count dominates, which
the same check demonstrates).  See the README's verification notes.
"""

from __future__ import annotations

import inspect
import math
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gates, protocol, stages, zeno
from .gates import EulerAngles
from .hilbert import FIDELITY_TOL, Operator, StateVector, apply, born_probabilities, fidelity, schmidt_rank


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    duration: float
    detail: str
    expected_failure: bool = False

    @property
    def ok(self) -> bool:
        """True when the outcome matches expectation (strict for expected failures)."""
        return self.passed != self.expected_failure


class CheckFailure(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _balanced_general() -> protocol.GeneralInput:
    s = 1.0 / math.sqrt(2.0)
    return protocol.GeneralInput(s, s, s, s, EulerAngles(0.3, math.pi / 2.0, 0.7))


def _balanced_bell(ell: int) -> protocol.BellInput:
    s = 1.0 / math.sqrt(2.0)
    return protocol.BellInput(ell, 1, s, s, EulerAngles(0.3, math.pi / 2.0, 0.7))


# Angles at which the gates check builds every angle-dependent constructor.
GATE_ANGLES = EulerAngles(0.4, 1.3, 2.1)


def _fixed_gate(name: str) -> Callable[[], Operator]:
    """Zero-argument factory for ``gates.<name>()``, named like the constructor."""

    def factory() -> Operator:
        return getattr(gates, name)()

    factory.__name__ = name
    return factory


# Every gate constructor the gates check covers, as (name, zero-argument
# factory).  Each factory looks its constructor up on ``gates`` when called,
# so ``verify --sabotage <constructor>`` reaches the gate it names.
GATE_CONSTRUCTORS: tuple[tuple[str, Callable[[], Operator]], ...] = (
    ("rotation_y", lambda: gates.rotation_y(GATE_ANGLES.theta)),
    ("rotation_z", lambda: gates.rotation_z(GATE_ANGLES.phi)),
    ("euler_unitary", lambda: gates.euler_unitary(GATE_ANGLES)),
    ("u_m0", lambda: gates.u_m(GATE_ANGLES, 0)),
    ("u_m1", lambda: gates.u_m(GATE_ANGLES, 1)),
    ("controlled_unitary", lambda: gates.controlled_unitary(gates.euler_unitary(GATE_ANGLES))),
    ("v11", lambda: gates.v11(GATE_ANGLES)),
    ("v12", _fixed_gate("v12")),
    ("v13", lambda: gates.v13(GATE_ANGLES)),
    ("v14", _fixed_gate("v14")),
    ("v1", lambda: gates.v1(GATE_ANGLES)),
    ("q1", _fixed_gate("q1")),
    ("q2", _fixed_gate("q2")),
    ("v2", _fixed_gate("v2")),
    ("q3_0", lambda: gates.q3(0)),
    ("q3_1", lambda: gates.q3(1)),
    ("toffoli", _fixed_gate("toffoli")),
    ("hadamard_on_qutrit", _fixed_gate("hadamard_on_qutrit")),
    ("cnot", _fixed_gate("cnot")),
    ("cnot_qutrit", _fixed_gate("cnot_qutrit")),
    ("tilde_v1_l0", lambda: gates.tilde_v1(GATE_ANGLES, 0)),
    ("tilde_v1_l1", lambda: gates.tilde_v1(GATE_ANGLES, 1)),
    ("tilde_q1", _fixed_gate("tilde_q1")),
    ("tilde_q2_l0", lambda: gates.tilde_q2(0)),
    ("tilde_q2_l1", lambda: gates.tilde_q2(1)),
)
# The flip gates among them: 0/1 permutation matrices.
_FLIP_GATES = (
    "v12", "v14", "q1", "q2", "v2", "toffoli", "cnot", "cnot_qutrit", "tilde_q1", "tilde_q2_l0", "tilde_q2_l1",
)
PERMUTATION_GATES: tuple[tuple[str, Callable[[], Operator]], ...] = tuple(
    (name, factory) for name, factory in GATE_CONSTRUCTORS if name in _FLIP_GATES
)


def _factored_gates(angles: EulerAngles) -> tuple[tuple[str, Operator, str, Operator], ...]:
    """(name, gate, how its factor product reads, that product) for each gate
    that is built without multiplying out its factors."""
    x, one = gates.pauli_x(), Operator.identity((2,))
    u = gates.euler_unitary(angles)
    factors = gates.v14() @ gates.v13(angles) @ gates.v12() @ gates.v11(angles)
    return (
        ("v1", gates.v1(angles), "v14 . v13 . v12 . v11", factors),
        ("tilde_v1_l0", gates.tilde_v1(angles, 0), "controlled_unitary(X . U)", gates.controlled_unitary(x @ u @ one)),
        ("tilde_v1_l1", gates.tilde_v1(angles, 1), "controlled_unitary(U . X)", gates.controlled_unitary(one @ u @ x)),
    )


def check_gate_unitarity_and_permutations() -> str:
    """Criterion 1: every constructor unitary; the flip gates are 0/1 permutations;
    v1 and tilde_v1 equal their factor products entry for entry, and
    euler_unitary equals rotation_z . rotation_y . rotation_z."""
    worst = 0.0
    for name, factory in GATE_CONSTRUCTORS:
        defect = factory().unitarity_defect()
        worst = max(worst, defect)
        _require(defect < 1e-12, f"{name} fails unitarity: defect {defect:.3e}")
    for name, factory in PERMUTATION_GATES:
        op = factory()
        _require(op.is_permutation(), f"{name} is not a 0/1 permutation matrix")
        for col in range(op.size):
            column = op.entries[:, col]
            _require(
                int(np.count_nonzero(np.abs(column) > 1e-12)) == 1,
                f"{name} column {col} does not hold exactly one unit entry",
            )
    factored = _factored_gates(GATE_ANGLES)
    for name, op, reads, product in factored:
        _require(np.array_equal(op.entries, product.entries), f"{name} differs from {reads} at {GATE_ANGLES}")
    # Not bitwise: euler_unitary's last 2x2 product is rounded by the BLAS kernel.
    a = GATE_ANGLES
    rotations = gates.rotation_z(a.phi) @ gates.rotation_y(a.theta) @ gates.rotation_z(a.varphi)
    gap = float(np.max(np.abs(gates.euler_unitary(a).entries - rotations.entries)))
    _require(
        gap <= 1e-15, f"euler_unitary differs from rotation_z . rotation_y . rotation_z at {a}: max gap {gap:.3e}"
    )
    return (
        f"{len(GATE_CONSTRUCTORS)} constructors unitary (worst defect {worst:.2e}); "
        f"{len(PERMUTATION_GATES)} permutation gates verified over every basis column; "
        f"{len(factored)} composite gates equal their factor products; "
        f"euler_unitary within {gap:.1e} of its rotations"
    )


def check_protocol_fidelity() -> str:
    """Criterion 2: 200 seeded random inputs match every closed-form stage."""
    rng = np.random.default_rng(42)
    worst = 1.0
    for _ in range(200):
        inp = protocol.random_general_input(rng)
        transcript = protocol.run_general(inp, rng)
        for label, state in transcript.stages():
            _require(state.is_normalized(1e-12), f"stage {label} not normalized")
        report = protocol.verify_general(transcript, inp)
        worst = min(worst, report.worst_fidelity)
        _require(
            report.passed,
            f"stage fidelity below 1-1e-10 for input {inp}: {report.stage_fidelities}",
        )
    return f"200 random inputs, all stages within tolerance (worst fidelity 1-{1.0 - worst:.2e})"


def check_outcome_law() -> str:
    """Criterion 3: the ancilla outcome is exactly unbiased, analytically and empirically."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        inp = protocol.random_general_input(rng)
        weights = protocol.measurement_weights(inp)
        deviation = abs(float(weights[0]) - 0.5)
        worst = max(worst, deviation)
        _require(deviation < 1e-12, f"Born weight of m=0 off by {deviation:.3e} for {inp}")
        _require(float(weights[2]) < 1e-12, f"ancilla level 2 carries weight {weights[2]!r}")
    trials = 100_000
    freq0, freq1 = protocol.outcome_statistics(_balanced_general(), trials, seed=2024)
    bound = 4.0 * math.sqrt(0.25 / trials)
    _require(
        abs(freq0 - 0.5) < bound,
        f"empirical frequency {freq0} deviates from 0.5 beyond 4 standard errors ({bound})",
    )
    return (
        f"200 inputs: exact weight 0.5 (worst deviation {worst:.2e}); "
        f"10^5 runs: freq(m=0) = {freq0} within 4 SE ({bound:.2e})"
    )


def check_unitary_teleportation() -> str:
    """Criterion 4: delta=1 leaves a separable output carrying U_m on the target."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        angles = protocol.random_angles(rng)
        alpha, beta = protocol.random_amplitude_pair(rng)
        inp = protocol.GeneralInput(alpha, beta, 0.0, 1.0, angles)
        for m, transcript in enumerate(protocol.run_general_branches(inp)[1]):
            _require(
                schmidt_rank(transcript.psi6m, {0}) == 1,
                f"output not separable for m={m}, angles {angles}",
            )
            psi_a = np.array([alpha, beta], dtype=np.complex128)
            expected = StateVector((2,), gates.u_m(angles, m).entries @ psi_a)
            matrix = transcript.psi6m.amps.reshape(2, 2)
            left_factor = StateVector((2,), np.linalg.svd(matrix)[0][:, 0])
            fid = fidelity(left_factor, expected)
            _require(
                fid >= 1.0 - FIDELITY_TOL,
                f"target factor fidelity {fid} below tolerance for m={m}",
            )
    return "50 angle triples x both outcomes: Schmidt rank 1 and target factor matches the outcome unitary"


def check_bell_determinism() -> str:
    """Criterion 5: Bell-type runs are exact, ancilla-clean, and bitwise repeatable."""
    rng = np.random.default_rng(13)
    for _ in range(50):
        angles = protocol.random_angles(rng)
        c0, c1 = protocol.random_amplitude_pair(rng)
        for ell in (0, 1):
            for sign in (1, -1):
                inp = protocol.BellInput(ell, sign, c0, c1, angles)
                first = protocol.run_bell(inp)
                second = protocol.run_bell(inp)
                _require(
                    np.array_equal(first.psi6m.amps, second.psi6m.amps),
                    f"run-to-run output differs for {inp}",
                )
                oracle = protocol.expected_output_bell(inp)
                controlled = gates.controlled_unitary(gates.euler_unitary(angles))
                matrix_route = apply(controlled, protocol.bell_initial_state(inp), [0, 1])
                fid = fidelity(first.psi6m, oracle)
                fid_matrix = fidelity(first.psi6m, matrix_route)
                _require(fid >= 1.0 - FIDELITY_TOL, f"output fidelity {fid} below tolerance for {inp}")
                _require(
                    fid_matrix >= 1.0 - FIDELITY_TOL,
                    f"matrix-route fidelity {fid_matrix} below tolerance for {inp}",
                )
                ancilla_weight = float(born_probabilities(first.final_abc, 2)[0])
                _require(
                    ancilla_weight >= 1.0 - FIDELITY_TOL,
                    f"ancilla weight on |0> only {ancilla_weight} for {inp}",
                )
    return "both classes x both signs x 50 angle triples: exact controlled-U output, clean ancilla, bitwise deterministic"


def check_probability_pins() -> str:
    """Criterion 6: closed-form gate probabilities hit their exact rational values."""
    pins = [
        ("qz_survival(1)", stages.qz_survival(1), 0.0),
        ("qz_survival(2)", stages.qz_survival(2), 0.25),
        ("cqz_lambda0(2)", stages.cqz_lambda0(2), 0.25),
        ("cqz_lambda1(2,2)", stages.cqz_lambda1(2, 2), 9.0 / 64.0),
        ("cepi_success(2,0.5)", stages.cepi_success(2, 0.5), 0.28125),
    ]
    for name, got, want in pins:
        _require(got == want, f"{name} = {got!r}, expected exactly {want!r}")
    # Independent rational route for the two-cycle chained product:
    # quarter-turn squared sines are exactly 1/2 and 1, so
    # (1 - 1/2*1/2)^2 * (1 - 1*1/2)^2 = (3/4)^2 * (1/2)^2 = 9/64.
    sin_sq = {1: Fraction(1, 2), 2: Fraction(1, 1)}
    rational = (1 - sin_sq[1] * Fraction(1, 2)) ** 2 * (1 - sin_sq[2] * Fraction(1, 2)) ** 2
    _require(rational == Fraction(9, 64), f"rational cross-check drifted: {rational}")
    _require(float(rational) == stages.cqz_lambda1(2, 2), "float and rational routes disagree")
    return "all five pins exact; 9/64 confirmed by exact rational arithmetic"


_DIAGONAL = (5, 10, 20, 40, 80)


def _diagonal_scan() -> dict[str, list[float]]:
    cfgs = [stages.CycleConfig(c, c, c) for c in _DIAGONAL]
    general = [values for values, _ in stages.stage_rows(cfgs, _balanced_general())]
    bell = [values for values, _ in stages.stage_rows(cfgs, _balanced_bell(1))]
    return {
        "zeta0": [values["zeta0"] for values in general],
        "zeta1": [values["zeta1"] for values in general],
        "zeta": [values["zeta"] for values in bell],
        "lambda1": [stages.cqz_lambda1(c, c) for c in _DIAGONAL],
    }


def check_asymptotics_monotone() -> str:
    """Criterion 7 (monotone part): abort rates fall and lambda1 rises along the diagonal."""
    scan = _diagonal_scan()
    for name in ("zeta0", "zeta1", "zeta"):
        values = scan[name]
        _require(
            all(b < a for a, b in zip(values, values[1:])),
            f"{name} not strictly decreasing along the diagonal: {values}",
        )
    lam = scan["lambda1"]
    _require(all(b > a for a, b in zip(lam, lam[1:])), f"lambda1 not strictly increasing: {lam}")
    return (
        f"zeta0 {scan['zeta0'][0]:.4f}->{scan['zeta0'][-1]:.4f}, "
        f"zeta1 {scan['zeta1'][0]:.4f}->{scan['zeta1'][-1]:.4f}, "
        f"zeta {scan['zeta'][0]:.4f}->{scan['zeta'][-1]:.4f} strictly decreasing; "
        f"lambda1 {lam[0]:.4f}->{lam[-1]:.4f} strictly increasing"
    )


def check_asymptotics_halving() -> str:
    """Criterion 7 (halving part): final diagonal abort rate below half the initial one.

    Expected to fail: the closed forms tend to nonzero constants along the
    equal-cycle diagonal (the decay exponent scales as M/N, which the
    diagonal holds fixed).  The same quantities do vanish when the inner
    cycle count dominates; that regime is reported in the detail string of
    the failure message for reference.
    """
    scan = _diagonal_scan()
    ginp = _balanced_general()
    binp = _balanced_bell(1)
    inner_dominant = stages.CycleConfig(20, 400, 20)
    ((ref_g, _),) = stages.stage_rows((inner_dominant,), ginp)
    ((ref_b, _),) = stages.stage_rows((inner_dominant,), binp)
    context = (
        f"diagonal limits: zeta0 {scan['zeta0'][-1]:.4f}, zeta1 {scan['zeta1'][-1]:.4f}, "
        f"zeta {scan['zeta'][-1]:.4f}; inner-dominant (M=K=20, N=400): "
        f"zeta0 {ref_g['zeta0']:.4f}, zeta1 {ref_g['zeta1']:.4f}, zeta {ref_b['zeta']:.4f}"
    )
    for name in ("zeta0", "zeta1", "zeta"):
        values = scan[name]
        _require(
            values[-1] < values[0] / 2.0,
            f"{name}: final {values[-1]:.4f} not below half of initial {values[0]:.4f} ({context})",
        )
    return context


def check_montecarlo_agreement() -> str:
    """Criterion 8: per-cycle-Born campaigns match the printed formulas at 4 SE."""
    trials = 100_000
    inner, outer = 5, 5
    root_half = 1.0 / math.sqrt(2.0)
    campaigns = [
        (
            "qz presence",
            zeno.gate_statistics("qz", (1.0, 0.0), "H", inner, zeno.AbsorberModel.PER_CYCLE_BORN, trials, 101),
            stages.qz_survival(inner),
        ),
        (
            "cepi balanced",
            zeno.gate_statistics("qz", (root_half, root_half), "H", 2, zeno.AbsorberModel.PER_CYCLE_BORN, trials, 103),
            stages.cepi_success(2, 0.5),
        ),
        (
            "cqz absence",
            zeno.gate_statistics(
                "cqz", (0.0, 1.0), "H", inner, zeno.AbsorberModel.PER_CYCLE_BORN, trials, 105, outer=outer
            ),
            stages.cqz_lambda0(outer),
        ),
        (
            "cqz presence",
            zeno.gate_statistics(
                "cqz", (1.0, 0.0), "V", inner, zeno.AbsorberModel.PER_CYCLE_BORN, trials, 107, outer=outer
            ),
            stages.cqz_lambda1(outer, inner),
        ),
    ]
    lines = []
    for name, report, expected in campaigns:
        observed = report.successes / report.trials
        bound = 4.0 * math.sqrt(max(expected * (1.0 - expected), 1e-12) / trials)
        _require(
            abs(observed - expected) < bound,
            f"{name}: observed {observed} vs formula {expected} beyond 4 SE ({bound})",
        )
        lines.append(f"{name} {observed:.4f}~{expected:.4f}")
    # qz absence: never successful, deterministic flip visible at the exit port,
    # asserted for every outcome a 2000-trial campaign samples.
    flip_trials = 2_000
    sampled = zeno.simulate_qz(
        (0.0, 1.0), "H", inner, zeno.AbsorberModel.PER_CYCLE_BORN, np.random.default_rng(109), size=flip_trials
    )
    _require(sum(count for _, count in sampled) == flip_trials, "pure-absence campaign lost trials")
    for outcome, _ in sampled:
        _require(outcome.kind is not zeno.OutcomeKind.SUCCESS, "pure-absence traversal counted as Success")
        _require(outcome.photon_entered_channel, "pure-absence traversal did not reach the absorber")
        _require(
            outcome.final_state is not None and abs(outcome.final_state.amplitude((0, 1))) > 0.999999,
            "pure-absence exit polarization was not a deterministic flip",
        )
    # Determinism: same seed, byte-identical campaign reports.
    rep_a = zeno.gate_statistics("qz", (1.0, 0.0), "H", inner, zeno.AbsorberModel.PER_CYCLE_BORN, 5_000, 77)
    rep_b = zeno.gate_statistics("qz", (1.0, 0.0), "H", inner, zeno.AbsorberModel.PER_CYCLE_BORN, 5_000, 77)
    _require(rep_a == rep_b, "fixed seed did not reproduce an identical report")
    cfg = stages.CycleConfig(25, 25, 25)
    mc_a = zeno.simulate_cct(cfg, _balanced_general(), 100_000, 31)
    mc_b = zeno.simulate_cct(cfg, _balanced_general(), 100_000, 31)
    _require(mc_a == mc_b, "protocol-level campaign not reproducible")
    ((probs, _),) = stages.stage_rows((cfg,), _balanced_general())
    expected_abort = (probs["zeta0"] + probs["zeta1"]) / 2.0
    bound = 4.0 * math.sqrt(expected_abort * (1.0 - expected_abort) / mc_a.trials)
    _require(
        abs(mc_a.abort_rate_estimate - expected_abort) < bound,
        f"protocol abort rate {mc_a.abort_rate_estimate} vs analytic {expected_abort} beyond 4 SE",
    )
    _require(
        mc_a.conditional_fidelity is not None and mc_a.conditional_fidelity >= 1.0 - FIDELITY_TOL,
        f"conditional fidelity {mc_a.conditional_fidelity} below tolerance",
    )
    lines.append(f"cct abort {mc_a.abort_rate_estimate:.4f}~{expected_abort:.4f}")
    return "; ".join(lines) + "; counterfactuality and determinism held over every trajectory"


def check_model_convergence() -> str:
    """Criterion 9: coherent and per-cycle-Born gate models converge as N grows."""
    gap_small = abs(stages.coherent_qz_success(10, 0.5) - stages.cepi_success(10, 0.5))
    gap_large = abs(stages.coherent_qz_success(200, 0.5) - stages.cepi_success(200, 0.5))
    _require(
        gap_large < gap_small,
        f"model gap did not shrink: |diff|(N=200) = {gap_large} vs |diff|(N=10) = {gap_small}",
    )
    # Trajectory-level confirmation at a modest trial count.
    trials = 20_000
    root_half = 1.0 / math.sqrt(2.0)
    observed = {}
    for model in (zeno.AbsorberModel.COHERENT, zeno.AbsorberModel.PER_CYCLE_BORN):
        report = zeno.gate_statistics("qz", (root_half, root_half), "H", 10, model, trials, 211)
        observed[model] = report.successes / report.trials
    for model, probability in (
        (zeno.AbsorberModel.COHERENT, stages.coherent_qz_success(10, 0.5)),
        (zeno.AbsorberModel.PER_CYCLE_BORN, stages.cepi_success(10, 0.5)),
    ):
        bound = 4.0 * math.sqrt(probability * (1.0 - probability) / trials)
        _require(
            abs(observed[model] - probability) < bound,
            f"{model.value} campaign {observed[model]} vs analytic {probability} beyond 4 SE",
        )
    return (
        f"|coherent - per-cycle-Born|: {gap_small:.5f} at N=10 -> {gap_large:.5f} at N=200; "
        "both models confirmed by trajectory campaigns"
    )


def check_concealment_api_shape() -> str:
    """Alice-side constructors take no angle parameters (operational concealment)."""
    for name in ("toffoli", "q1", "q2", "q3", "tilde_q1", "tilde_q2"):
        signature = inspect.signature(getattr(gates, name))
        for parameter in signature.parameters.values():
            _require(
                parameter.annotation not in ("EulerAngles", EulerAngles),
                f"{name} takes angles and would leak the unitary to Alice",
            )
            _require(
                "angle" not in parameter.name and "theta" not in parameter.name and "phi" not in parameter.name,
                f"{name} parameter {parameter.name} looks angle-valued",
            )
    return "no Alice-side constructor accepts angle parameters"


# Registry: (key, callable, budget seconds or None, expected_failure)
CHECKS: tuple[tuple[str, object, float | None, bool], ...] = (
    ("gates", check_gate_unitarity_and_permutations, 1.0, False),
    ("protocol-fidelity", check_protocol_fidelity, 10.0, False),
    ("outcome-law", check_outcome_law, None, False),
    ("teleportation", check_unitary_teleportation, None, False),
    ("bell-determinism", check_bell_determinism, None, False),
    ("probability-pins", check_probability_pins, None, False),
    ("asymptotics-monotone", check_asymptotics_monotone, 5.0, False),
    ("asymptotics-halving", check_asymptotics_halving, 5.0, True),
    ("montecarlo", check_montecarlo_agreement, 60.0, False),
    ("model-convergence", check_model_convergence, None, False),
    ("concealment", check_concealment_api_shape, None, False),
)


@contextmanager
def _sabotaged_gate(name: str | None):
    """Temporarily corrupt one gate constructor (negative-control hook)."""
    if name is None:
        yield
        return
    original = getattr(gates, name, None)
    # A constructor is a public function of gates: not a class, a private helper or an import.
    public = not name.startswith("_") and callable(original) and not inspect.isclass(original)
    if not (public and original.__module__ == gates.__name__):
        raise ValueError(f"unknown gate constructor {name!r}")

    def corrupted(*args, **kwargs):
        op = original(*args, **kwargs)
        entries = op.entries.copy()
        entries[0, 0] += 0.5
        return Operator(op.dims, entries)

    setattr(gates, name, corrupted)
    try:
        yield
    finally:
        setattr(gates, name, original)


def run_all(sabotage: str | None = None) -> list[CheckResult]:
    """Run every check, returning results in registry order."""
    results = []
    with _sabotaged_gate(sabotage):
        for key, fn, budget, expected_failure in CHECKS:
            start = time.perf_counter()
            try:
                detail = fn()
                passed = True
            except CheckFailure as exc:
                detail = str(exc)
                passed = False
            duration = time.perf_counter() - start
            if passed and budget is not None and duration > budget:
                passed = False
                detail = f"runtime {duration:.2f}s exceeded the {budget:.0f}s budget ({detail})"
            results.append(CheckResult(key, passed, duration, detail, expected_failure))
    return results
