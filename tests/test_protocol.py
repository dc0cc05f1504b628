from __future__ import annotations

import cmath
import copy
import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cctsim import gates, protocol, zeno
from cctsim.gates import EulerAngles
from cctsim.hilbert import (
    FIDELITY_TOL,
    Operator,
    StateVector,
    apply,
    born_probabilities,
    collapse,
    factor_out,
    fidelity,
    schmidt_rank,
    tensor,
)
from cctsim.protocol import (
    BellInput,
    GeneralInput,
    ProtocolFault,
    Transcript,
    VerificationReport,
    bell_initial_state,
    expected_output_bell,
    expected_output_general,
    measurement_weights,
    outcome_statistics,
    random_bell_input,
    random_general_input,
    run_bell,
    run_general,
    run_general_branches,
    verify_bell,
    verify_general,
)

IDENTITY = EulerAngles(0.0, 0.0, 0.0)
ROOT_HALF = 1.0 / math.sqrt(2.0)


def general(alpha, beta, gamma, delta, angles=IDENTITY):
    return GeneralInput(alpha, beta, gamma, delta, angles)


class TestInputValidation:
    def test_general_requires_normalized_pairs(self):
        with pytest.raises(ValueError, match="target"):
            general(0.9, 0.6, 1.0, 0.0)
        with pytest.raises(ValueError, match="control"):
            general(1.0, 0.0, 0.9, 0.6)

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan), math.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        with pytest.raises(ValueError, match="target"):
            general(bad, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            BellInput(0, 1, 1.0, bad, IDENTITY)

    def test_bell_field_ranges(self):
        with pytest.raises(ValueError):
            BellInput(2, 1, 1.0, 0.0, IDENTITY)
        with pytest.raises(ValueError):
            BellInput(0, 0, 1.0, 0.0, IDENTITY)
        with pytest.raises(ValueError):
            BellInput(0, 1, 0.9, 0.6, IDENTITY)

    @pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, 2])
    def test_bell_sign_must_be_the_integer_plus_or_minus_one(self, sign):
        # True and 1.0 compare equal to 1, and -1.0 to -1.
        with pytest.raises(ValueError, match=r"sign must be \+1 or -1"):
            BellInput(0, sign, 0.6, 0.8, IDENTITY)

    @pytest.mark.parametrize("sign", [1, -1, np.int64(-1)])
    def test_bell_sign_accepts_integers(self, sign):
        assert BellInput(0, sign, 0.6, 0.8, IDENTITY).sign == sign

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: general(0.9, 0.6, 1.0, 0.0), "target (alpha, beta) amplitudes must be finite with |c0|^2 + |c1|^2 = 1, got 1.17"),
            (lambda: general(1.0, 0.0, math.nan, 0.0), "control (gamma, delta) amplitudes must be finite with |c0|^2 + |c1|^2 = 1, got nan"),
            (lambda: BellInput(0, 1, 0.6, 0.6j, IDENTITY), "(c0, c1) amplitudes must be finite with |c0|^2 + |c1|^2 = 1, got 0.72"),
            (lambda: zeno.gate_statistics("qz", (math.inf, 0.0), "H", 3, zeno.AbsorberModel.PER_CYCLE_BORN, 10, 1),
             "absorber amplitudes must be finite with |c0|^2 + |c1|^2 = 1, got inf"),
            (lambda: zeno.gate_statistics("cqz", (0.5, 0.5), "H", 3, zeno.AbsorberModel.COHERENT, 10, 1, outer=2),
             "absorber amplitudes must be finite with |c0|^2 + |c1|^2 = 1, got 0.5"),
        ],
        ids=["target", "control", "bell-pair", "absorber-inf", "absorber-norm"],
    )
    def test_every_unit_pair_edge_names_its_pair(self, call, message):
        # Inputs and absorbers raise one diagnostic, prefixed with the pair's name.
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message

    @pytest.mark.parametrize("ell", [True, 1.0, 0.0])
    def test_bell_class_must_be_an_integer(self, ell):
        # An unchecked 1.0 would fail later, in run_bell, with a numpy IndexError.
        with pytest.raises(ValueError, match="class index must be 0 or 1"):
            BellInput(ell, 1, 0.6, 0.8, IDENTITY)
        assert BellInput(np.int64(1), 1, 0.6, 0.8, IDENTITY).ell == 1


class TestGeneralProtocol:
    def test_identity_angles_returns_product_input(self, rng):
        inp = general(0.6, 0.8j, ROOT_HALF, ROOT_HALF)
        transcript = run_general(inp, rng)
        expected = tensor(StateVector((2,), [0.6, 0.8j]), StateVector((2,), [ROOT_HALF, ROOT_HALF]))
        assert fidelity(transcript.psi6m, expected) == pytest.approx(1.0, abs=1e-12)

    def test_teleportation_output_is_separable(self, rng):
        angles = EulerAngles(1.0, 0.7, -0.4)
        inp = general(0.6, 0.8, 0.0, 1.0, angles)
        transcript = run_general(inp, rng)
        assert schmidt_rank(transcript.psi6m, {0}) == 1
        expected = tensor(
            StateVector((2,), gates.u_m(angles, transcript.outcome).entries @ np.array([0.6, 0.8])),
            StateVector.basis((2,), (1,)),
        )
        assert fidelity(transcript.psi6m, expected) == pytest.approx(1.0, abs=1e-12)

    def test_seeded_random_input_matches_closed_form(self):
        rng = np.random.default_rng(42)
        inp = random_general_input(rng)
        transcript = run_general(inp, rng)
        fid = fidelity(transcript.psi6m, expected_output_general(inp, transcript.outcome))
        assert fid >= 1.0 - 1e-10

    def test_every_stage_is_normalized(self, rng):
        transcript = run_general(random_general_input(rng), rng)
        for label, state in transcript.stages():
            assert state.is_normalized(1e-12), label

    def test_identity_angles_stage3_reduction(self, rng):
        # With all angles zero the local operation reduces to plain flips:
        # gamma psi_A |00> + delta alpha |001> + delta beta |102>.
        inp = general(0.6, 0.8, ROOT_HALF, ROOT_HALF)
        transcript = run_general(inp, rng)
        expected = StateVector.from_terms(
            (2, 2, 3),
            {
                (0, 0, 0): ROOT_HALF * 0.6,
                (1, 0, 0): ROOT_HALF * 0.8,
                (0, 0, 1): ROOT_HALF * 0.6,
                (1, 0, 2): ROOT_HALF * 0.8,
            },
        )
        assert fidelity(transcript.psi3, expected) == pytest.approx(1.0, abs=1e-12)

    def test_forced_outcome_replay_matches_sampled_run(self, rng):
        inp = random_general_input(rng)
        sampled = run_general(inp, rng)
        replay = run_general_branches(inp)[1][sampled.outcome]
        assert np.array_equal(sampled.psi6m.amps, replay.psi6m.amps)
        assert replay.outcome_probability == sampled.outcome_probability

    def test_outcome_probability_is_exact_born_weight(self, rng):
        for _ in range(20):
            inp = random_general_input(rng)
            weights = measurement_weights(inp)
            assert abs(float(weights[0]) - 0.5) < 1e-12
            assert abs(float(weights[1]) - 0.5) < 1e-12
            assert float(weights[2]) < 1e-12

    def test_transcript_is_replayable(self, rng):
        # Each stored stage reproduces bitwise from its predecessor under the
        # published operator sequence.
        inp = random_general_input(rng)
        t = run_general(inp, rng)
        assert np.array_equal(apply(gates.cnot_qutrit(), t.psi0, [1, 2]).amps, t.psi1.amps)
        assert np.array_equal(apply(gates.toffoli(), t.psi1, [0, 1, 2]).amps, t.psi2.amps)
        assert np.array_equal(apply(gates.v1(inp.angles), t.psi2, [1, 2]).amps, t.psi3.amps)
        q12 = apply(gates.q2(), apply(gates.q1(), t.psi3, [0, 1, 2]), [0, 1, 2])
        assert np.array_equal(q12.amps, t.psi4.amps)
        pre = apply(gates.hadamard_on_qutrit(), apply(gates.v2(), t.psi4, [1, 2]), [2])
        assert np.array_equal(pre.amps, t.pre_measurement.amps)
        assert np.array_equal(apply(gates.q3(t.outcome), t.psi5m, [0, 1]).amps, t.psi6m.amps)

    def test_measuring_the_stored_pre_measurement_state(self, rng):
        # The ancilla measurement itself: outcomes 0/1 at exact weight 0.5,
        # level 2 suppressed below 1e-12.
        t = run_general(random_general_input(rng), rng)
        weights = born_probabilities(t.pre_measurement, 2)
        assert float(weights[2]) < 1e-12
        for m in (0, 1):
            collapsed, probability = collapse(t.pre_measurement, 2, m)
            assert probability == pytest.approx(0.5, abs=1e-12)
            assert collapsed.is_normalized()

    def test_degenerate_delta_zero_still_measures(self, rng):
        inp = general(0.6, 0.8, 1.0, 0.0)
        transcript = run_general(inp, rng)
        assert transcript.outcome in (0, 1)
        assert transcript.outcome_probability == pytest.approx(0.5, abs=1e-12)
        expected = tensor(StateVector((2,), [0.6, 0.8]), StateVector.basis((2,), (0,)))
        assert fidelity(transcript.psi6m, expected) == pytest.approx(1.0, abs=1e-12)


def _dense_embedding(entries, dims, targets):
    """kron(I, entries, I) over the whole register, for a contiguous run of targets."""
    first, k = targets[0], len(targets)
    assert list(targets) == list(range(first, first + k))
    left = math.prod(dims[:first])
    right = math.prod(dims[first + k :])
    return np.kron(np.kron(np.eye(left), entries), np.eye(right))


class TestApplyAgainstDenseReference:
    def test_every_protocol_step_matches(self, monkeypatch):
        # Gates whose entries are all 0 or +-1 must give the dense product's
        # values exactly; every other gate within 1e-14.
        fast_apply = protocol.apply
        worst = {True: 0.0, False: 0.0}
        steps = {True: 0, False: 0}
        fixed_gates = {}

        def compared(op, state, targets):
            out = fast_apply(op, state, targets)
            key = (op.entries.tobytes(), state.dims, tuple(targets))
            dense = fixed_gates.get(key)
            signed_permutation = dense is not None or bool(np.all(np.isin(op.entries, (0.0, 1.0, -1.0))))
            if dense is None:
                dense = _dense_embedding(op.entries, state.dims, targets)
                if signed_permutation:
                    fixed_gates[key] = dense
            steps[signed_permutation] += 1
            error = float(np.max(np.abs(out.amps - dense @ state.amps)))
            worst[signed_permutation] = max(worst[signed_permutation], error)
            return out

        monkeypatch.setattr(protocol, "apply", compared)
        rng = np.random.default_rng(8128)
        runs = 1000
        for _ in range(runs):
            run_general(random_general_input(rng), rng)
            run_bell(random_bell_input(rng))
        # General: five flips and q3 against v1 and the Hadamard; Bell: four flips against tilde_v1.
        assert steps == {True: runs * (6 + 4), False: runs * (2 + 1)}
        assert worst[True] == 0.0
        assert worst[False] <= 1e-14


class TestLayerBoundaries:
    """Runs cross protocol.apply and the gates constructors by module
    attribute, the boundaries the benchmark's tracer wraps."""

    @staticmethod
    def _wrap(monkeypatch):
        applied, built = [], []
        traced_apply = protocol.apply

        def apply_wrapper(op, state, targets):
            applied.append(op)
            return traced_apply(op, state, targets)

        monkeypatch.setattr(protocol, "apply", apply_wrapper)
        for attr, value in list(vars(gates).items()):
            if attr.startswith("_") or inspect.isclass(value) or not callable(value):
                continue
            if getattr(value, "__module__", None) != gates.__name__:
                continue

            def gate_wrapper(*args, _constructor=value, _name=attr, **kwargs):
                op = _constructor(*args, **kwargs)
                built.append((_name, op))
                return op

            monkeypatch.setattr(gates, attr, gate_wrapper)
        return applied, built

    @staticmethod
    def _check_run(run, applied, built, calls, names):
        applied.clear()
        built.clear()
        run()
        assert len(applied) == calls
        assert names <= {name for name, _ in built}
        # Every applied operator is one a gates constructor returned in this run.
        assert all(any(op is made for _, made in built) for op in applied)

    def test_general_run_makes_eight_apply_calls(self, monkeypatch, rng):
        applied, built = self._wrap(monkeypatch)
        names = {"cnot_qutrit", "toffoli", "v1", "q1", "q2", "v2", "hadamard_on_qutrit", "q3"}
        for _ in range(10):
            inp = random_general_input(rng)
            self._check_run(lambda: run_general(inp, rng), applied, built, 8, names)

    def test_bell_run_makes_five_apply_calls(self, monkeypatch, rng):
        applied, built = self._wrap(monkeypatch)
        for _ in range(10):
            inp = random_bell_input(rng)
            self._check_run(lambda: run_bell(inp), applied, built, 5, {"cnot", "tilde_v1", "tilde_q1", "tilde_q2"})


class TestCompositeGatesInRuns:
    def test_transcripts_equal_those_of_the_ordered_factor_products(self, monkeypatch):
        # v1 and tilde_v1 are built in one step; runs through the operators
        # their factors multiply out to must give equal values at every stage.
        def v1_product(angles):
            return gates.v14() @ gates.v13(angles) @ gates.v12() @ gates.v11(angles)

        def tilde_v1_product(angles, ell):
            x, one = gates.pauli_x(), Operator.identity((2,))
            u = gates.euler_unitary(angles)
            return gates.controlled_unitary(one @ u @ x if ell else x @ u @ one)

        rng = np.random.default_rng(6060)
        inputs = [random_bell_input(rng) if i % 2 else random_general_input(rng) for i in range(2000)]

        def transcripts():
            return [
                run_bell(inp) if isinstance(inp, BellInput) else run_general(inp, np.random.default_rng(i))
                for i, inp in enumerate(inputs)
            ]

        built = transcripts()
        monkeypatch.setattr(gates, "v1", v1_product)
        monkeypatch.setattr(gates, "tilde_v1", tilde_v1_product)
        for got, want in zip(built, transcripts()):
            for field in dataclasses.fields(got):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(a, StateVector):
                    assert np.array_equal(a.amps, b.amps), field.name
                else:
                    assert a == b, field.name


class TestProtocolFaults:
    def test_ancilla_leak_is_detected(self, rng, monkeypatch):
        # Without the ancilla relabeling, amplitude survives on level 2 at
        # measurement time and the run must refuse to proceed.
        monkeypatch.setattr(gates, "v2", lambda: gates.cnot_qutrit() @ gates.cnot_qutrit())
        inp = general(0.6, 0.8, ROOT_HALF, ROOT_HALF, EulerAngles(0.2, 1.3, 0.8))
        with pytest.raises(ProtocolFault, match="level 2"):
            run_general(inp, rng)

    def test_bell_disentangling_failure_is_detected(self, rng, monkeypatch):
        # Dropping the global flip leaves the ancilla entangled at the end.
        identity = gates.tilde_q1() @ gates.tilde_q1()
        monkeypatch.setattr(gates, "tilde_q1", lambda: identity)
        inp = BellInput(0, 1, 0.6, 0.8, EulerAngles(0.2, 1.3, 0.8))
        with pytest.raises(ProtocolFault, match="ancilla"):
            run_bell(inp)


class TestVerifyGeneral:
    def test_valid_transcript_passes(self, rng):
        inp = random_general_input(rng)
        transcript = run_general(inp, rng)
        report = verify_general(transcript, inp)
        assert report.passed
        assert report.worst_fidelity >= 1.0 - 1e-10

    def test_corrupted_stage_fails(self, rng):
        inp = random_general_input(rng)
        transcript = run_general(inp, rng)
        flipped = apply(gates.pauli_x(), transcript.psi3, [0])
        corrupted = dataclasses.replace(transcript, psi3=flipped)
        report = verify_general(corrupted, inp)
        assert not report.passed

    def test_compact_and_term_list_forms_agree(self, rng):
        for _ in range(25):
            inp = random_general_input(rng)
            for transcript in run_general_branches(inp)[1]:
                report = verify_general(transcript, inp)
                stage = dict(report.stage_fidelities)
                assert stage["psi6m"] >= 1.0 - 1e-10
                assert stage["psi6m_compact"] >= 1.0 - 1e-10

    def test_bell_transcript_rejected(self, rng):
        binp = random_bell_input(rng)
        with pytest.raises(ValueError):
            verify_general(run_bell(binp), random_general_input(rng))

    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_a_nan_stage_fails_the_report(self, at):
        fidelities = [("psi1", 1.0), ("psi2", 0.9999999999999998), ("psi3", 1.0), ("psi4", 1.0)]
        fidelities[at] = (fidelities[at][0], math.nan)
        report = protocol.VerificationReport.from_stages(fidelities)
        assert math.isnan(report.worst_fidelity)
        assert not report.passed


def _labeled(dims, terms):
    """Public state with each (labels, amplitude) pair of ``terms`` written in place."""
    amps = np.zeros(math.prod(dims), dtype=np.complex128)
    for labels, value in terms:
        amps[np.ravel_multi_index(labels, dims)] = value
    return StateVector(dims, amps)


def _reference_general_report(transcript, inp):
    """verify_general's report computed state by state: one public state per
    closed form, one fidelity call per stage, and the compact output from
    gates.u_m."""
    m = transcript.outcome
    a, b, g, d = inp.alpha, inp.beta, inp.gamma, inp.delta
    phi, theta, varphi = inp.angles.phi, inp.angles.theta, inp.angles.varphi
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    e_mm = cmath.exp(-1j * (varphi + phi) / 2.0)
    e_mp = cmath.exp(-1j * (varphi - phi) / 2.0)
    e_pp, e_pm = e_mm.conjugate(), e_mp.conjugate()
    sign_m = (-1.0) ** m
    dims = (2, 2, 3)
    branches = [g * a, g * b, d * a * e_mm * c, d * a * e_mp * s, d * b * e_pp * c, -d * b * e_pm * s]
    psi3_labels = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 2), (1, 1, 2)]
    psi4_labels = [(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1), (1, 1, 2), (0, 1, 2)]
    out01 = d * a * e_mm * c + (-sign_m) * d * b * e_pm * s
    out_labels = [(0, 0), (1, 0), (0, 1), (1, 1)]
    forms = {
        "psi1": _labeled(dims, zip([(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)], [a * g, b * g, a * d, b * d])),
        "psi2": _labeled(dims, zip([(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 0, 1)], [g * a, g * b, d * a, d * b])),
        "psi3": _labeled(dims, zip(psi3_labels, branches)),
        "psi4": _labeled(dims, zip(psi4_labels, branches)),
        "psi5m": _labeled(
            (2, 2), zip(out_labels, [g * a, g * b, out01, d * a * e_mp * s + sign_m * d * b * e_pp * c])
        ).normalized(),
        "psi6m": _labeled(
            (2, 2), zip(out_labels, [g * a, g * b, out01, sign_m * d * a * e_mp * s + d * b * e_pp * c])
        ).normalized(),
    }
    psi_a = np.array([a, b], dtype=np.complex128)
    cols = np.empty((2, 2), dtype=np.complex128)
    cols[:, 0] = g * psi_a
    cols[:, 1] = d * (gates.u_m(inp.angles, m).entries @ psi_a)
    compact = StateVector((2, 2), cols.reshape(-1)).normalized()
    stages = [(label, fidelity(getattr(transcript, label), form)) for label, form in forms.items()]
    return protocol.VerificationReport.from_stages(stages + [("psi6m_compact", fidelity(transcript.psi6m, compact))])


def _reference_bell_report(transcript, inp):
    """verify_bell's fidelities with the compact output from gates.euler_unitary."""
    cols = bell_initial_state(inp).amps.reshape(2, 2).copy()
    cols[:, 1] = gates.euler_unitary(inp.angles).entries @ cols[:, 1]
    expected = StateVector((2, 2), cols.reshape(-1)).normalized()
    ancilla = float(born_probabilities(transcript.final_abc, 2)[0])
    output = fidelity(transcript.psi6m, expected)
    return protocol.VerificationReport.from_stages([("psi6m", output), ("ancilla", ancilla)])


class TestOnePassVerify:
    def test_reports_equal_the_state_by_state_reference(self):
        rng = np.random.default_rng(2718)
        for _ in range(1000):
            inp = random_general_input(rng)
            for transcript in protocol.run_general_branches(inp)[1]:
                assert verify_general(transcript, inp) == _reference_general_report(transcript, inp)
            binp = random_bell_input(rng)
            transcript = run_bell(binp)
            assert verify_bell(transcript, binp) == _reference_bell_report(transcript, binp)

    def test_one_corrupted_amplitude_fails_its_stage(self):
        # Zeroing the largest of k amplitudes leaves a fidelity of at most (1 - 1/k)^2.
        def corrupted(transcript, label):
            state = getattr(transcript, label)
            amps = state.amps.copy()
            amps[np.argmax(np.abs(amps))] = 0.0
            return dataclasses.replace(transcript, **{label: StateVector(state.dims, amps)})

        def failing(report):
            return {label for label, f in report.stage_fidelities if f < 1.0 - FIDELITY_TOL}

        rng = np.random.default_rng(3141)
        for _ in range(50):
            inp = random_general_input(rng)
            for transcript in protocol.run_general_branches(inp)[1]:
                for label in ("psi1", "psi2", "psi3", "psi4", "psi5m", "psi6m"):
                    report = verify_general(corrupted(transcript, label), inp)
                    # Both output checks read psi6m.
                    expected = {label, "psi6m_compact"} if label == "psi6m" else {label}
                    assert not report.passed
                    assert failing(report) == expected
                    assert report.worst_fidelity == min(f for name, f in report.stage_fidelities if name in expected)
            binp = random_bell_input(rng)
            transcript = run_bell(binp)
            for label, stage in (("psi6m", "psi6m"), ("final_abc", "ancilla")):
                report = verify_bell(corrupted(transcript, label), binp)
                assert not report.passed
                assert failing(report) == {stage}
                assert report.worst_fidelity == dict(report.stage_fidelities)[stage]

    def test_verify_does_not_use_the_gates_or_apply(self, monkeypatch):
        rng = np.random.default_rng(1618)
        cases = []
        for _ in range(20):
            inp, binp = random_general_input(rng), random_bell_input(rng)
            cases.append((inp, run_general(inp, rng), binp, run_bell(binp)))

        def outputs():
            return [
                (
                    verify_general(transcript, inp),
                    verify_bell(bell_transcript, binp),
                    expected_output_general(inp, 0).amps.tobytes(),
                    expected_output_general(inp, 1).amps.tobytes(),
                    expected_output_bell(binp).amps.tobytes(),
                )
                for inp, transcript, binp, bell_transcript in cases
            ]

        built = outputs()

        def forbidden(*args, **kwargs):
            raise AssertionError("verification must come from the closed forms")

        for name in ("v1", "tilde_v1", "u_m", "euler_unitary"):
            monkeypatch.setattr(gates, name, forbidden)
        monkeypatch.setattr(protocol, "apply", forbidden)
        assert outputs() == built


class TestMeasurementFromOneMarginal:
    def test_outputs_are_bytewise_the_public_collapse_and_factor_out(self):
        rng = np.random.default_rng(1414)
        for _ in range(500):
            inp = random_general_input(rng)
            for m, transcript in enumerate(protocol.run_general_branches(inp)[1]):
                collapsed, weight = collapse(transcript.pre_measurement, 2, m)
                assert transcript.psi5m.amps.tobytes() == factor_out(collapsed, 2, m).amps.tobytes()
                assert transcript.outcome_probability == weight
            transcript = run_bell(random_bell_input(rng))
            reference = factor_out(transcript.final_abc, 2, 0, tol=FIDELITY_TOL)
            assert transcript.psi6m.amps.tobytes() == reference.amps.tobytes()


class TestExpectedOutputGeneral:
    def test_delta_zero(self):
        out = expected_output_general(general(0.6, 0.8, 1.0, 0.0), 0)
        expected = tensor(StateVector((2,), [0.6, 0.8]), StateVector.basis((2,), (0,)))
        assert fidelity(out, expected) == pytest.approx(1.0, abs=1e-15)

    def test_identity_unitary_balanced_control(self):
        out = expected_output_general(general(0.6, 0.8, ROOT_HALF, ROOT_HALF), 0)
        expected = tensor(StateVector((2,), [0.6, 0.8]), StateVector((2,), [ROOT_HALF, ROOT_HALF]))
        assert fidelity(out, expected) == pytest.approx(1.0, abs=1e-15)

    def test_negated_theta_branch(self):
        # m=1 turns ry(pi/2) into ry(-pi/2): |0> -> cos(pi/4)|0> - sin(pi/4)|1>.
        inp = general(1.0, 0.0, 0.0, 1.0, EulerAngles(0.0, math.pi / 2, 0.0))
        out = expected_output_general(inp, 1)
        expected = tensor(
            StateVector((2,), [math.cos(math.pi / 4), -math.sin(math.pi / 4)]),
            StateVector.basis((2,), (1,)),
        )
        assert fidelity(out, expected) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            expected_output_general(general(1.0, 0.0, 1.0, 0.0), 2)

    @pytest.mark.parametrize("m", [True, 1.0, 2])
    def test_forced_outcome_must_be_the_integer_0_or_1(self, m):
        # Unchecked, True fails inside numpy with a TypeError and 1.0 with an IndexError.
        inp = general(0.6, 0.8, ROOT_HALF, ROOT_HALF)
        with pytest.raises(ValueError, match="measurement outcome must be 0 or 1"):
            expected_output_general(inp, m)

    def test_numpy_integer_outcome_is_accepted(self):
        inp = general(0.6, 0.8, ROOT_HALF, ROOT_HALF)
        assert np.array_equal(expected_output_general(inp, np.int64(1)).amps, expected_output_general(inp, 1).amps)


class TestBellProtocol:
    def test_identity_unitary_returns_input(self):
        inp = BellInput(0, 1, 0.6, 0.8, IDENTITY)
        transcript = run_bell(inp)
        assert fidelity(transcript.psi6m, bell_initial_state(inp)) == pytest.approx(1.0, abs=1e-12)
        assert float(born_probabilities(transcript.final_abc, 2)[0]) == pytest.approx(1.0, abs=1e-12)

    def test_controlled_y_rotation_hand_case(self):
        # alpha = beta = 1/sqrt2, U = ry(pi): output (|00> - |01>)/sqrt2.
        inp = BellInput(0, 1, ROOT_HALF, ROOT_HALF, EulerAngles(0.0, math.pi, 0.0))
        transcript = run_bell(inp)
        expected = StateVector.from_terms((2, 2), {(0, 0): ROOT_HALF, (0, 1): -ROOT_HALF})
        assert fidelity(transcript.psi6m, expected) == pytest.approx(1.0, abs=1e-12)

    def test_one_class_negative_sign_matches_closed_form(self, rng):
        inp = BellInput(1, -1, 0.48, complex(0.64, 0.6), protocol.random_angles(rng))
        transcript = run_bell(inp)
        assert fidelity(transcript.psi6m, expected_output_bell(inp)) >= 1.0 - 1e-10

    def test_bitwise_deterministic(self, rng):
        inp = random_bell_input(rng)
        first, second = run_bell(inp), run_bell(inp)
        assert np.array_equal(first.psi6m.amps, second.psi6m.amps)
        for (_, a), (_, b) in zip(first.stages(), second.stages()):
            assert np.array_equal(a.amps, b.amps)

    def test_transcript_is_replayable(self, rng):
        # Each stored stage reproduces bitwise from its predecessor under the
        # published operator sequence, for both classes.
        for _ in range(4):
            for ell in (0, 1):
                inp = dataclasses.replace(random_bell_input(rng), ell=ell)
                t = run_bell(inp)
                assert np.array_equal(apply(gates.cnot(), t.psi0, [1, 2]).amps, t.psi1.amps)
                assert np.array_equal(apply(gates.tilde_v1(inp.angles, ell), t.psi1, [1, 2]).amps, t.psi2.amps)
                assert np.array_equal(apply(gates.tilde_q1(), t.psi2, [0, 1, 2]).amps, t.psi3.amps)
                assert np.array_equal(apply(gates.tilde_q2(ell), t.psi3, [0, 1, 2]).amps, t.psi4.amps)
                assert np.array_equal(apply(gates.cnot(), t.psi4, [1, 2]).amps, t.final_abc.amps)

    def test_verify_bell_reports(self, rng):
        inp = random_bell_input(rng)
        report = verify_bell(run_bell(inp), inp)
        assert report.passed

    def test_general_transcript_rejected(self, rng):
        ginp = random_general_input(rng)
        with pytest.raises(ValueError):
            verify_bell(run_general(ginp, rng), random_bell_input(rng))


class TestExpectedOutputBell:
    def test_identity_block(self):
        inp = BellInput(1, 1, 0.6, 0.8, IDENTITY)
        assert fidelity(expected_output_bell(inp), bell_initial_state(inp)) == pytest.approx(1.0, abs=1e-15)

    def test_block_action_on_one_class(self):
        # gamma (U|0>)_A |1>_B + delta |10>: pin via U = ry(pi/2).
        angles = EulerAngles(0.0, math.pi / 2, 0.0)
        inp = BellInput(1, 1, 0.6, 0.8, angles)
        u00, u10 = math.cos(math.pi / 4), math.sin(math.pi / 4)
        expected = StateVector.from_terms(
            (2, 2), {(0, 1): 0.6 * u00, (1, 1): 0.6 * u10, (1, 0): 0.8}
        )
        assert fidelity(expected_output_bell(inp), expected) == pytest.approx(1.0, abs=1e-15)

    def test_matches_controlled_unitary_oracle(self, rng):
        for _ in range(25):
            inp = random_bell_input(rng)
            controlled = gates.controlled_unitary(gates.euler_unitary(inp.angles))
            oracle = apply(controlled, bell_initial_state(inp), [0, 1])
            assert fidelity(expected_output_bell(inp), oracle) >= 1.0 - 1e-12


class TestOutcomeStatistics:
    def test_single_trial_is_degenerate(self):
        freq0, freq1 = outcome_statistics(general(1.0, 0.0, ROOT_HALF, ROOT_HALF), 1, seed=3)
        assert sorted((freq0, freq1)) == [0.0, 1.0]

    def test_seeded_reproducibility(self):
        inp = general(0.6, 0.8, ROOT_HALF, ROOT_HALF, EulerAngles(0.2, 0.9, 1.4))
        assert outcome_statistics(inp, 500, seed=11) == outcome_statistics(inp, 500, seed=11)

    def test_frequencies_near_half(self):
        inp = general(0.6, 0.8, ROOT_HALF, ROOT_HALF, EulerAngles(0.2, 0.9, 1.4))
        freq0, freq1 = outcome_statistics(inp, 4_000, seed=5)
        assert freq0 + freq1 == pytest.approx(1.0, abs=1e-12)
        assert abs(freq0 - 0.5) < 4 * math.sqrt(0.25 / 4_000)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            outcome_statistics(general(1.0, 0.0, 1.0, 0.0), 0, seed=1)

    def test_frequencies_match_the_exact_weights(self):
        # The count of m=0 is one binomial draw of P(m=0), the exact Born
        # weight run_general samples from (1/2 for every input).
        rng = np.random.default_rng(2024)
        trials = 10**6
        for i in range(10):
            inp = random_general_input(rng)
            p0 = float(measurement_weights(inp)[0])
            freq0, freq1 = outcome_statistics(inp, trials, seed=i)
            assert freq0 + freq1 == pytest.approx(1.0, abs=1e-12)
            assert abs(freq0 - p0) <= 4 * math.sqrt(p0 * (1.0 - p0) / trials), (i, freq0, p0)


class TestTranscriptRecords:
    # Transcript and VerificationReport fill their frozen fields in a
    # hand-written __init__; the dataclass contract must survive that.
    FIELDS = {
        Transcript: ["psi0", "psi1", "psi2", "psi3", "psi4", "psi6m", "pre_measurement", "outcome",
                     "outcome_probability", "psi5m", "final_abc"],
        VerificationReport: ["stage_fidelities", "worst_fidelity", "passed"],
    }

    @staticmethod
    def _records():
        rng = np.random.default_rng(41)
        general_input, bell_input = random_general_input(rng), random_bell_input(rng)
        general_run = run_general(general_input, rng)
        bell_run = run_bell(bell_input)
        return (general_run, bell_run, verify_general(general_run, general_input), verify_bell(bell_run, bell_input))

    def test_fields_signature_and_keywords(self):
        for record in self._records():
            cls = type(record)
            names = self.FIELDS[cls]
            assert [field.name for field in dataclasses.fields(cls)] == names
            assert list(inspect.signature(cls).parameters) == names
            assert cls(**{name: getattr(record, name) for name in reversed(names)}) == record
            assert cls(*(getattr(record, name) for name in names)) == record

    def test_the_bell_fields_default_to_none(self):
        bell_run = self._records()[1]
        short = Transcript(*(getattr(bell_run, name) for name in self.FIELDS[Transcript][:6]), final_abc=bell_run.final_abc)
        assert short == bell_run
        for name in ("pre_measurement", "outcome", "outcome_probability", "psi5m"):
            assert getattr(short, name) is None

    def test_replace_keeps_the_other_fields(self):
        general_run, bell_run, general_report, _ = self._records()
        replaced = dataclasses.replace(general_run, outcome=1 - general_run.outcome)
        assert replaced.outcome == 1 - general_run.outcome
        assert all(getattr(replaced, name) is getattr(general_run, name) for name in self.FIELDS[Transcript] if name != "outcome")
        assert dataclasses.replace(bell_run) == bell_run
        failed = dataclasses.replace(general_report, passed=False)
        assert not failed.passed and failed.stage_fidelities is general_report.stage_fidelities

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
                             ids=["deepcopy", "pickle"])
    def test_copies_are_equal_frozen_and_read_only(self, copier):
        for record in self._records():
            twin = copier(record)
            assert twin is not record and type(twin) is type(record)
            assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
            for name in self.FIELDS[type(record)]:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(twin, name, getattr(record, name))
            if isinstance(twin, Transcript):
                for label, state in twin.stages():
                    assert state.amps.tobytes() == getattr(record, label).amps.tobytes()
                    with pytest.raises(ValueError):
                        state.amps[0] = 5


class TestBoundedGateCaches:
    def test_angle_keyed_caches_stay_bounded(self):
        rng = np.random.default_rng(99)
        for _ in range(2_000):
            run_general(random_general_input(rng), rng)
        assert gates.v1.cache_info().currsize <= 256
        assert gates.v1.cache_info().maxsize == 256


@settings(max_examples=30, deadline=None)
@given(
    weight_a=st.floats(0.0, 1.0),
    weight_b=st.floats(0.0, 1.0),
    phi=st.floats(-6.0, 6.0),
    theta=st.floats(-6.0, 6.0),
    varphi=st.floats(-6.0, 6.0),
    m=st.integers(0, 1),
)
def test_protocol_properties_over_random_inputs(weight_a, weight_b, phi, theta, varphi, m):
    inp = GeneralInput(
        math.sqrt(weight_a),
        math.sqrt(1.0 - weight_a),
        math.sqrt(weight_b),
        math.sqrt(1.0 - weight_b),
        EulerAngles(phi, theta, varphi),
    )
    weights = measurement_weights(inp)
    assert abs(float(weights[0]) - 0.5) < 1e-12
    assert float(weights[2]) < 1e-12
    transcript = run_general_branches(inp)[1][m]
    for label, state in transcript.stages():
        assert state.is_normalized(1e-12), label
    assert fidelity(transcript.psi6m, expected_output_general(inp, m)) >= 1.0 - 1e-10
