from __future__ import annotations

import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cctsim import gates
from cctsim.gates import EulerAngles
from cctsim.hilbert import (
    Operator,
    StateVector,
    apply,
    born_probabilities,
    collapse,
    factor_out,
    fidelity,
    sample_counts,
    schmidt_coefficients,
    schmidt_rank,
    tensor,
)


def ket(dims, labels):
    return StateVector.basis(dims, labels)


class TestStateVector:
    def test_basis_index_convention(self):
        state = ket((2, 2, 3), (0, 1, 1))
        assert state.amps[0 * 6 + 1 * 3 + 1] == 1.0
        assert state.index_of((1, 1, 2)) == 11

    def test_length_validation(self):
        with pytest.raises(ValueError):
            StateVector((2, 2), np.zeros(3))

    def test_amps_are_read_only(self):
        state = ket((2,), (0,))
        with pytest.raises(ValueError):
            state.amps[0] = 0.0

    def test_normalized_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            StateVector((2,), np.zeros(2)).normalized()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.nan, 1.0)])
    def test_non_finite_amplitudes_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            StateVector((2,), [bad, 0.0])
        with pytest.raises(ValueError, match="finite"):
            StateVector.from_terms((2, 2), {(0, 1): bad})

    @pytest.mark.parametrize("dims", [(2.7, 2), ("2", 2), (True, 4), (1.9,), (2, 0), (2, -1), ()], ids=repr)
    def test_dimensions_follow_the_count_rule(self, dims):
        # Unchecked, int() read (2.7, 2) as (2, 2) and (True, 4) as (1, 4).
        message = f"^subsystem dimensions must be positive integers, got {re.escape(repr(dims))}$"
        with pytest.raises(ValueError, match=message):
            StateVector(dims, np.ones(4) / 2)
        with pytest.raises(ValueError, match=message):
            Operator(dims, [[1]])

    def test_numpy_integer_dimensions_become_ints(self):
        state = StateVector((np.int64(2), np.int32(2)), np.ones(4) / 2)
        assert state.dims == (2, 2) and all(type(d) is int for d in state.dims)
        assert Operator((np.int64(3),), np.eye(3)).dims == (3,)

    def test_a_label_count_that_does_not_match_the_dims_is_refused(self):
        state = ket((2, 2), (1, 0))
        for labels in [(1,), (1, 0, 0), ()]:
            message = f"^expected 2 basis labels for dims \\(2, 2\\), got {re.escape(repr(labels))}$"
            with pytest.raises(ValueError, match=message):
                state.index_of(labels)
            with pytest.raises(ValueError, match=message):
                StateVector.basis((2, 2), labels)
            with pytest.raises(ValueError, match=message):
                StateVector.from_terms((2, 2), {labels: 1.0})

    def test_normalized_rejects_a_nan_or_overflowing_norm(self):
        state = StateVector._trusted((2,), np.array([math.nan, 0.0], dtype=np.complex128))
        with pytest.raises(ValueError, match="nan"):
            state.normalized()
        # Finite amplitudes whose norm overflows would otherwise normalize to zeros.
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="inf"):
            StateVector((2,), [1e200, 1e200]).normalized()


class TestTensor:
    def test_basis_case(self):
        product = tensor(ket((2,), (0,)), ket((2,), (0,)))
        assert product.dims == (2, 2)
        assert product.amps[0] == 1.0
        assert np.count_nonzero(product.amps) == 1

    def test_identity_case(self):
        product = tensor(Operator.identity((2,)), Operator.identity((3,)))
        assert product.dims == (2, 3)
        assert np.array_equal(product.entries, np.eye(6))

    def test_hand_expanded_three_register_product(self):
        # (a|0> + b|1>)_A (x) (g|00> + d|11>)_BC laid out by hand:
        # labels (a,b,c) live at index a*6 + b*3 + c.
        psi_a = StateVector((2,), [0.5 * 2, 0.0])  # alpha = 1
        bc = StateVector.from_terms((2, 3), {(0, 0): 1.0, (1, 1): 0.0})  # gamma = 1
        product = tensor(psi_a, bc)
        assert product.dims == (2, 2, 3)
        assert product.amps[0] == 1.0
        assert np.count_nonzero(product.amps) == 1

        half = 0.5
        psi_a = StateVector((2,), [math.sqrt(half), math.sqrt(half)])
        bc = StateVector.from_terms((2, 3), {(0, 0): math.sqrt(half), (1, 1): math.sqrt(half)})
        product = tensor(psi_a, bc)
        expected = np.zeros(12, dtype=complex)
        expected[[0, 4, 6, 10]] = 0.5  # (0,0,0), (0,1,1), (1,0,0), (1,1,1)
        assert np.allclose(product.amps, expected, atol=1e-15)

    def test_associativity_is_bitwise_on_dyadic_amplitudes(self):
        a = StateVector((2,), [0.75, 0.25])
        b = StateVector((3,), [0.5, 0.25, 0.125])
        c = StateVector((2,), [1.0, 0.5])
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert left.dims == right.dims
        assert np.array_equal(left.amps, right.amps)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            tensor(ket((2,), (0,)), Operator.identity((2,)))


class TestApply:
    def test_pauli_x_flips(self):
        assert apply(gates.pauli_x(), ket((2,), (0,)), [0]).amps[1] == 1.0

    def test_cnot_truth_table_on_subregister(self):
        # psi_A (x) |1>_B (x) |0>_C -> psi_A (x) |11>_BC
        psi = tensor(tensor(StateVector((2,), [0.6, 0.8]), ket((2,), (1,))), ket((2,), (0,)))
        flipped = apply(gates.cnot(), psi, [1, 2])
        expected = tensor(tensor(StateVector((2,), [0.6, 0.8]), ket((2,), (1,))), ket((2,), (1,)))
        assert np.allclose(flipped.amps, expected.amps, atol=1e-15)

    def test_three_register_flip_truth_table(self):
        # controls A and C, target B: |1,1,1> -> |1,0,1>
        out = apply(gates.toffoli(), ket((2, 2, 3), (1, 1, 1)), [0, 1, 2])
        assert out.amps[ket((2, 2, 3), (1, 0, 1)).index_of((1, 0, 1))] == 1.0

    def test_middle_target_uses_general_path(self):
        state = StateVector((2, 3, 2), np.arange(12) / math.sqrt(sum(i * i for i in range(12))))
        out = apply(gates.hadamard_on_qutrit(), state, [1])
        # Same contraction done by explicit full-matrix construction.
        full = np.kron(np.eye(2), np.kron(gates.hadamard_on_qutrit().entries, np.eye(2)))
        assert np.allclose(out.amps, full @ state.amps, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not match"):
            apply(gates.pauli_x(), ket((3,), (0,)), [0])

    def test_repeated_target_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            apply(gates.cnot(), ket((2, 2), (0, 0)), [0, 0])

    def test_rejected_targets_are_rejected_every_time(self):
        op = Operator((2,), [[0, 1], [1, 0]])
        for _ in range(2):
            with pytest.raises(ValueError, match="out of range"):
                apply(op, ket((2, 2), (0, 0)), [2])
        assert not op._plans

    def test_one_plan_per_register_and_targets(self):
        op = Operator((2,), [[0, 1], [1, 0]])
        state = _random_state((2, 3, 2), 1)
        first = apply(op, state, [0])
        assert np.array_equal(apply(op, state, [0]).amps, first.amps)
        apply(op, state, [2])
        apply(op, _random_state((2,), 2), [0])
        assert len(op._plans) == 3

    @pytest.mark.parametrize(
        "dims,targets",
        [
            ((2, 3, 2), [0, 1]),
            ((2, 3, 2), [2, 1]),
            ((3, 2, 2), [2, 0]),
            ((2, 2, 3), [1, 2]),
            ((2, 3), [0, 1]),
            ((2, 3, 2), [1]),
        ],
    )
    def test_signed_permutations_match_the_tensor_contraction(self, dims, targets):
        # Gathers (with and without negated rows) exactly and a dense random
        # unitary within 1e-14, against a contraction written out in the
        # test, on every target placement.
        op_dims = tuple(dims[t] for t in targets)
        size = math.prod(op_dims)
        rng = np.random.default_rng(size + targets[0])
        entries = np.eye(size)[rng.permutation(size)] * rng.choice((1.0, -1.0), size=size)[:, None]
        unitary, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        for matrix, tol in ((np.abs(entries), 0.0), (entries, 0.0), (unitary, 1e-14)):
            op = Operator(op_dims, matrix)
            state = _random_state(dims, 3)
            psi = np.moveaxis(state.amps.reshape(dims), targets, range(len(targets)))
            contracted = np.tensordot(op.entries.reshape(op_dims + op_dims), psi, axes=len(targets))
            expected = np.moveaxis(contracted, range(len(targets)), targets).reshape(-1)
            out = apply(op, state, targets)
            if tol:
                assert np.max(np.abs(out.amps - expected)) <= tol
            else:
                assert np.array_equal(out.amps, expected)
            assert not out.amps.flags.writeable
            assert out.amps is not state.amps

    def test_non_permutations_keep_the_matrix_product(self):
        # Entries that are not exactly +-1 take the dense path even when they
        # round to a permutation within the unitarity tolerance.
        near = Operator((2,), [[0, 1 - 1e-16 * 2], [1, 0]])
        state = _random_state((2, 2), 4)
        expected = (state.amps.reshape(2, 2) @ near.entries.T).reshape(-1)
        assert np.array_equal(apply(near, state, [1]).amps, expected)

    @settings(max_examples=40, deadline=None)
    @given(
        phi=st.floats(-10, 10),
        theta=st.floats(-10, 10),
        varphi=st.floats(-10, 10),
        target=st.integers(0, 1),
    )
    def test_unitary_apply_preserves_norm(self, phi, theta, varphi, target):
        unitary = gates.euler_unitary(EulerAngles(phi, theta, varphi))
        state = StateVector((2, 2), np.array([0.5, 0.5j, -0.5, 0.5]))
        out = apply(unitary, state, [target])
        assert abs(out.squared_norm() - 1.0) < 1e-12


def _random_state(dims, seed):
    rng = np.random.default_rng(seed)
    size = math.prod(dims)
    return StateVector(dims, rng.normal(size=size) + 1j * rng.normal(size=size)).normalized()


class TestMeasurementWithoutMovedAxes:
    @pytest.mark.parametrize("subsystem", [0, 1, 2])
    def test_every_subsystem_matches_the_moved_axis_form(self, subsystem):
        dims = (2, 3, 2)
        state = _random_state(dims, subsystem)
        moved = np.moveaxis(state.amps.reshape(dims), subsystem, 0)
        rows = moved.reshape(dims[subsystem], -1)
        probs = born_probabilities(state, subsystem)
        assert np.array_equal(probs, np.einsum("ij,ij->i", rows, rows.conj()).real)
        for outcome in range(dims[subsystem]):
            collapsed, weight = collapse(state, subsystem, outcome)
            kept = np.zeros_like(moved)
            kept[outcome] = moved[outcome]
            expected = np.moveaxis(kept, 0, subsystem).reshape(-1) / np.sqrt(weight)
            assert weight == probs[outcome]
            assert np.array_equal(collapsed.amps, expected)
            reduced = factor_out(collapsed, subsystem, outcome)
            assert reduced.dims == dims[:subsystem] + dims[subsystem + 1 :]
            column = expected.reshape(dims).take(outcome, axis=subsystem).reshape(-1)
            assert np.array_equal(reduced.amps, column / np.linalg.norm(column))

    def test_the_only_subsystem_cannot_be_factored_out(self):
        with pytest.raises(ValueError, match="only subsystem"):
            factor_out(ket((2,), (1,)), 0, 1)

    @pytest.mark.parametrize("outcome", [-1, 3, 7])
    def test_factor_out_refuses_an_outcome_out_of_range(self, outcome):
        # Unchecked, numpy would read -1 as the last level and 3 as an IndexError.
        with pytest.raises(ValueError, match=f"^outcome {outcome} out of range for dimension 3$"):
            factor_out(ket((2, 3), (0, 2)), 1, outcome)

    @pytest.mark.parametrize("tol", [math.nan, -1e-3, -math.inf])
    def test_factor_out_and_schmidt_rank_refuse_a_nan_or_negative_tol(self, tol):
        # Every `> nan` test is False: unchecked, factor_out would drop half of
        # a Bell pair and schmidt_rank would count no coefficient.
        bell = StateVector.from_terms((2, 2), {(0, 0): 1 / math.sqrt(2), (1, 1): 1 / math.sqrt(2)})
        message = f"^tol must be a non-negative number, got {re.escape(repr(tol))}$"
        with pytest.raises(ValueError, match=message):
            factor_out(bell, 1, 0, tol=tol)
        with pytest.raises(ValueError, match=message):
            schmidt_rank(bell, {0}, tol=tol)

    def test_a_zero_tol_is_exact(self):
        bell = StateVector.from_terms((2, 2), {(0, 0): 1 / math.sqrt(2), (1, 1): 1 / math.sqrt(2)})
        assert schmidt_rank(bell, {0}, tol=0.0) == 2
        assert factor_out(ket((2, 3), (1, 2)), 1, 2, tol=0.0) == ket((2,), (1,))
        with pytest.raises(ValueError, match="not in basis state 0"):
            factor_out(bell, 1, 0, tol=0.0)


class TestMeasure:
    def test_collapse_and_factor_out(self):
        state = StateVector.from_terms((2, 2), {(0, 0): 0.6, (1, 1): 0.8})
        collapsed, weight = collapse(state, 1, 1)
        assert weight == pytest.approx(0.64, abs=1e-15)
        reduced = factor_out(collapsed, 1, 1)
        assert reduced.dims == (2,)
        assert abs(reduced.amps[1]) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            factor_out(state, 1, 0)  # still entangled
        with pytest.raises(ValueError, match="outcome 2 out of range for dimension 2"):
            collapse(state, 0, 2)
        with pytest.raises(ValueError, match="cannot collapse onto outcome 1 with Born weight 0.0"):
            collapse(ket((2, 2), (0, 0)), 0, 1)
        with pytest.raises(ValueError, match="subsystem index 2 out of range for 2 subsystems"):
            born_probabilities(state, 2)
        with pytest.raises(ValueError, match="subsystem index -1 out of range for 2 subsystems"):
            born_probabilities(state, -1)

    @pytest.mark.parametrize("index", [1.5, 1.0, 0.0, True, "1"], ids=repr)
    def test_a_non_integer_outcome_or_subsystem_is_named(self, index):
        # Unchecked, numpy read a float as an IndexError, a string failed its
        # range test with a TypeError, and True took the last-subsystem path
        # of born_probabilities as if it were 1.
        state = StateVector.from_terms((2, 2), {(0, 0): 0.6, (1, 1): 0.8})
        outcome = f"^outcome must be an integer, got {re.escape(repr(index))}$"
        with pytest.raises(ValueError, match=outcome):
            collapse(state, 1, index)
        with pytest.raises(ValueError, match=outcome):
            factor_out(collapse(state, 1, 1)[0], 1, index)
        subsystem = f"^subsystem index must be an integer, got {re.escape(repr(index))}$"
        for call in (
            lambda: born_probabilities(state, index),
            lambda: collapse(state, index, 0),
            lambda: factor_out(state, index, 0),
        ):
            with pytest.raises(ValueError, match=subsystem):
                call()

    def test_born_probabilities_sum_to_one(self):
        state = StateVector.from_terms((2, 3), {(0, 1): 0.6, (1, 2): 0.8})
        probs = born_probabilities(state, 1)
        assert probs == pytest.approx([0.0, 0.36, 0.64], abs=1e-15)


class TestIndexRule:
    """Every register index, outcome and basis label goes through one rule:
    a Python or numpy integer in range, refused otherwise by a ValueError
    that names the value."""

    STATE = StateVector.from_terms((2, 2), {(0, 0): 0.6, (1, 1): 0.8})
    ENTRY_POINTS = {
        "apply": lambda i: apply(gates.pauli_x(), TestIndexRule.STATE, [i]),
        "apply, second target": lambda i: apply(gates.cnot(), TestIndexRule.STATE, (0, i)),
        "schmidt_rank": lambda i: schmidt_rank(TestIndexRule.STATE, {i}),
        "schmidt_coefficients": lambda i: schmidt_coefficients(TestIndexRule.STATE, [i]).tolist(),
        "born_probabilities": lambda i: born_probabilities(TestIndexRule.STATE, i).tolist(),
        "collapse, subsystem": lambda i: collapse(TestIndexRule.STATE, i, 1)[0],
        "collapse, outcome": lambda i: collapse(TestIndexRule.STATE, 1, i)[0],
        "factor_out, subsystem": lambda i: factor_out(ket((2, 2), (1, 1)), i, 1),
        "factor_out, outcome": lambda i: factor_out(ket((2, 2), (1, 1)), 1, i),
        "index_of": lambda i: TestIndexRule.STATE.index_of((i, 0)),
        "amplitude": lambda i: TestIndexRule.STATE.amplitude((0, i)),
        "basis": lambda i: StateVector.basis((2, 2), (i, 1)),
        "from_terms": lambda i: StateVector.from_terms((2, 2), {(1, 0): 0.6, (0, i): 0.8}),
    }

    @pytest.mark.parametrize("value", [1.5, 1.0, True, "1", -1, 2], ids=repr)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_a_bad_index_is_named(self, entry, value):
        call = self.ENTRY_POINTS[entry]
        # A plan made for 1 first: True and 1.0 equal 1 and hash alike, so
        # they find it by value, and must still be refused.
        call(1)
        named = re.escape(repr(value))
        with pytest.raises(ValueError, match=f"(must be an integer, got {named}$| {named} out of range for )"):
            call(value)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_a_numpy_integer_is_accepted(self, entry):
        call = self.ENTRY_POINTS[entry]
        assert call(np.int64(1)) == call(1)


class TestFidelity:
    def test_self_and_global_phase(self):
        state = StateVector((2,), [0.6, 0.8j])
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-15)
        rotated = StateVector((2,), np.exp(1j * math.pi / 7) * state.amps)
        assert fidelity(state, rotated) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert fidelity(ket((2,), (0,)), ket((2,), (1,))) == 0.0

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(ket((2,), (0,)), ket((3,), (0,)))

    @settings(max_examples=40, deadline=None)
    @given(phase=st.floats(0, 2 * math.pi), weight=st.floats(0.0, 1.0))
    def test_symmetry_and_phase_invariance(self, phase, weight):
        a = StateVector((2,), [math.sqrt(weight), math.sqrt(1 - weight)])
        b = StateVector((2,), [0.6, 0.8])
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)
        spun = StateVector((2,), np.exp(1j * phase) * a.amps)
        assert fidelity(spun, b) == pytest.approx(fidelity(a, b), abs=1e-12)


class TestSchmidt:
    def test_product_state(self):
        assert schmidt_rank(ket((2, 2), (0, 0)), {0}) == 1

    def test_bell_state(self):
        bell = StateVector.from_terms((2, 2), {(0, 0): 1 / math.sqrt(2), (1, 1): 1 / math.sqrt(2)})
        assert schmidt_rank(bell, {0}) == 2
        coefficients = schmidt_coefficients(bell, {0})
        assert coefficients == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-12)

    def test_split_bipartition_matches_the_transposed_amplitudes(self):
        dims = (2, 3, 2)
        state = _random_state(dims, 6)
        matrix = state.amps.reshape(dims).transpose(0, 2, 1).reshape(4, 3)
        assert np.array_equal(schmidt_coefficients(state, {0, 2}), np.linalg.svd(matrix, compute_uv=False))

    def test_bad_bipartitions(self):
        state = ket((2, 2), (0, 0))
        with pytest.raises(ValueError):
            schmidt_rank(state, set())
        with pytest.raises(ValueError):
            schmidt_rank(state, {0, 1})
        with pytest.raises(ValueError, match="bipartition index 2 out of range for 2 subsystems"):
            schmidt_rank(state, {2})


class TestLastSubsystemMarginal:
    @pytest.mark.parametrize("dims", [(2, 2, 3), (2, 2, 2), (2, 2), (3,)], ids=str)
    def test_bytes_equal_the_transposed_split(self, dims):
        # born_probabilities reads the last subsystem through a transposed
        # view; the split-transpose-reshape path gives the same bytes.
        for seed in range(20):
            state = _random_state(dims, seed)
            split = state.amps.reshape(math.prod(dims[:-1]), dims[-1], -1)
            flat = split.transpose(1, 0, 2).reshape(dims[-1], -1)
            expected = np.einsum("ij,ij->i", flat, flat.conj()).real
            assert born_probabilities(state, len(dims) - 1).tobytes() == expected.tobytes()


class TestValueEquality:
    def test_equal_states_compare_and_hash_equal(self):
        a, b = ket((2, 2), (1, 0)), ket((2, 2), (1, 0))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != ket((2, 2), (0, 1))
        # The same amplitudes over other dims are another state.
        assert a != StateVector((4,), a.amps)
        assert a != 1 and a != (a.dims, a.amps.tobytes())

    def test_signed_zeros_compare_and_hash_alike(self):
        plus = StateVector((2,), [1.0, complex(0.0, 0.0)])
        minus = StateVector((2,), [1.0, complex(-0.0, -0.0)])
        assert plus.amps.tobytes() != minus.amps.tobytes()
        assert plus == minus and hash(plus) == hash(minus)
        left = Operator((2,), [[1.0, -0.0], [0.0, 1.0]])
        right = Operator((2,), [[1.0, 0.0], [complex(0.0, -0.0), 1.0]])
        assert left == right and hash(left) == hash(right)

    def test_operator_plans_stay_out_of_equality_and_hash(self):
        planned, fresh = Operator((2, 2), gates.cnot().entries), Operator((2, 2), gates.cnot().entries)
        before = hash(planned)
        apply(planned, ket((2, 2), (1, 0)), (0, 1))
        assert planned._plans and not fresh._plans
        assert planned == fresh and hash(planned) == hash(fresh) == before
        assert planned != Operator((4,), planned.entries) and planned != gates.q3(1)


class TestPickling:
    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
                             ids=["deepcopy", "pickle"])
    def test_a_copied_state_is_read_only(self, copier):
        state = _random_state((2, 2, 3), 4)
        twin = copier(state)
        assert twin is not state and twin == state and twin.amps.tobytes() == state.amps.tobytes()
        assert not twin.amps.flags.writeable
        with pytest.raises(ValueError):
            twin.amps[0] = 5

    def test_a_planned_gate_pickles_and_replans(self):
        state = _random_state((2, 2, 3), 5)
        for op, targets in ((gates.q1(), (0, 1, 2)), (gates.v2(), (1, 2)), (gates.hadamard_on_qutrit(), (2,))):
            applied = apply(op, state, targets)
            assert op._plans
            twin = pickle.loads(pickle.dumps(op))
            assert twin == op and twin._plans == {} and not twin.entries.flags.writeable
            assert apply(twin, state, targets).amps.tobytes() == applied.amps.tobytes()


class TestOperator:
    def test_unitarity_defect(self):
        assert Operator.identity((2, 3)).unitarity_defect() == 0.0
        skew = Operator((2,), [[1.0, 0.1], [0.0, 1.0]])
        assert skew.unitarity_defect() > 0.05

    def test_permutation_detection(self):
        assert gates.cnot().is_permutation()
        assert not gates.hadamard_on_qutrit().is_permutation()

    def test_permutation_detection_is_exact(self):
        assert not Operator((2,), [[0, 1 - 2e-16], [1, 0]]).is_permutation()
        # A signed permutation is not a 0/1 permutation.
        assert not gates.q3(1).is_permutation()
        assert gates.q3(0).is_permutation()

    @pytest.mark.parametrize("entries", [[[1, 1], [0, 0]], [[1, 0], [1, 0]]], ids=["two-in-a-row", "two-in-a-column"])
    def test_one_entry_per_row_and_column_is_required(self, entries):
        # As many nonzero entries as rows, but a row or a column holds two:
        # no permutation, and apply takes the dense product.
        op = Operator((2,), entries)
        assert not op.is_permutation()
        state = StateVector((2,), [0.6, 0.8j])
        np.testing.assert_array_equal(apply(op, state, [0]).amps, np.array(entries) @ state.amps)

    def test_compose_requires_matching_dims(self):
        with pytest.raises(ValueError):
            gates.cnot() @ gates.hadamard_on_qutrit()
        with pytest.raises(TypeError):
            Operator.identity((2,)) @ 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, 1.0)])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="entries must be finite"):
            Operator((2,), [[bad, 0], [0, 1]])


class TestSampleCounts:
    @pytest.mark.parametrize(
        "probs",
        [
            [math.nan, 1.0],
            [math.inf, 0.0],
            [-math.inf, 1.0],
            [math.inf, -math.inf],
            [0.6, -0.1, 0.5],
            [],
            [0.5, 0.4],
            [0.5, 0.6],
        ],
        ids=["nan", "inf", "minus-inf", "both-infs", "negative", "empty", "sum-below-1", "sum-above-1"],
    )
    def test_bad_tables_raise(self, probs):
        with pytest.raises(ValueError, match=r"^outcome probabilities must be finite, nonnegative and sum to 1, got "):
            sample_counts(probs, 10, np.random.default_rng(1))

    def test_a_zero_row_is_allowed(self):
        assert sample_counts([0.0, 1.0, 0.0], 10, np.random.default_rng(1)) == [0, 10, 0]

    def test_draw_past_the_rounded_table_goes_to_the_last_positive_row(self):
        # numpy's multinomial gives its last row whatever the binomial draws
        # before it leave; on a rounded table that remainder is nonzero at
        # large counts (on about two in five of these tables at 2**62
        # trials), so the draw must stop at the last positive row.
        table_rng = np.random.default_rng(2031)
        tables = [np.array([0.5, 0.5 - 1e-10, 0.0])]
        for _ in range(200):
            weights = np.concatenate([table_rng.random(int(table_rng.integers(2, 7))), np.zeros(int(table_rng.integers(1, 4)))])
            weights[int(table_rng.integers(weights.size - 1))] = 0.0
            tables.append(weights / weights.sum())
        for i, probs in enumerate(tables):
            for trials in (1, 10**6, 2**62, 2**63 - 1):
                counts = sample_counts(probs, trials, np.random.default_rng(i))
                assert sum(counts) == trials, (i, trials)
                assert all(count == 0 for count, p in zip(counts, probs) if p == 0.0), (i, trials, counts)

    def test_counts_follow_the_multinomial_formula(self):
        # The formula written out: one Generator.multinomial draw over the
        # rows up to the last positive one, divided by their sum.
        # sample_counts must give its counts and leave the generator where it
        # leaves it, on tables of 1-40 rows with zero rows, at small and large
        # trial counts, also on tables that sum to 1 - 5e-10.
        def reference(probs, trials, rng):
            probs = np.asarray(probs, dtype=np.float64)
            drawn = int(np.flatnonzero(probs)[-1]) + 1
            counts = np.zeros(probs.size, dtype=np.int64)
            counts[:drawn] = rng.multinomial(trials, probs[:drawn] / probs.sum())
            return counts.tolist()

        table_rng = np.random.default_rng(2027)
        for rows in range(1, 41):
            weights = table_rng.random(rows)
            weights[table_rng.random(rows) < 0.3] = 0.0
            weights[table_rng.integers(rows)] += 0.5
            probs = weights / weights.sum()
            for table in (probs, probs * (1.0 - 5e-10)):
                for trials in (1, 7, 1000, 10**12):
                    seed = 1000 * rows + trials % 1000
                    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                    assert sample_counts(table, trials, ours) == reference(table, trials, theirs), (rows, trials)
                    assert ours.random() == theirs.random(), (rows, trials)
