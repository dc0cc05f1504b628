from __future__ import annotations

import cmath
import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cctsim import checks, gates, protocol
from cctsim.gates import EulerAngles
from cctsim.hilbert import Operator, StateVector, apply

ANGLES = checks.GATE_ANGLES
# One table of constructors for the gates check and these tests.
ALL_CONSTRUCTORS = checks.GATE_CONSTRUCTORS
PERMUTATION_GATES = checks.PERMUTATION_GATES

# SHA-256 of entries.tobytes() for every rule-built gate and one controlled
# block, zero signs included: a change to any basis rule or to the block
# writer shows up here even where the values stay unitary.
PINNED_ENTRY_DIGESTS = {
    "v12": "0e66b768958cd1dd582a2ea8a311be3c101871dd5440c88cf225c30d7b865495",
    "v14": "a5538e2e3190f800d18cdf6ee0cd6602686f9b30f9ab566144791671978bf707",
    "q1": "ef0051fcaf261f8fc827c03f50bedf90787470d24ac11287188ba92813aecf21",
    "q2": "d585cac80c0a245dc973bd59f26fa98a81e320858ade0e6b01caa160e1385cf9",
    "v2": "8b194339e69160eb184a0126772c0ad88b3f891a53d94c735aafc1d844aee63e",
    "toffoli": "76c2b8a948aa01c3ac0cae5f46cd294b40a1c9dd666d007055047bacd6fea4ac",
    "cnot": "8147eeddb2b56869f494b2194eb43a7926d1bb5edb4d4f35c6fa9e9633dd4bf8",
    "cnot_qutrit": "0ac16f707bc12ebb71dc7d1a17d2ccb423d24230295dca2b2073c2c763450378",
    "tilde_q1": "034510c1965eec9aae6231b0330761db6249fffb02cd989b7fb921b39917da9c",
    "tilde_q2_l0": "29e1073ad9ed9994326e1f8bc00c910b045ad186e6a350fdbc5642c0cac100b0",
    "tilde_q2_l1": "d98fd9ebb51ea7220aa28ca51944be08f3934d8e08e23fbe14d656f3256979b7",
    "controlled_unitary": "366a166fe639b5893c0214a670805f39284405a0a599b5e252f35478f8679308",
}


def maps(op, dims, src, dst, amplitude=1.0):
    """Assert op sends basis ket src to amplitude * basis ket dst exactly."""
    out = apply(op, StateVector.basis(dims, src), list(range(len(dims))))
    expected = amplitude * StateVector.basis(dims, dst).amps
    assert np.allclose(out.amps, expected, atol=1e-12), (src, dst, out.amps)


@pytest.mark.parametrize("name,factory", ALL_CONSTRUCTORS)
def test_every_constructor_is_unitary(name, factory):
    assert factory().unitarity_defect() < 1e-12


@pytest.mark.parametrize("name,factory", PERMUTATION_GATES)
def test_flip_gates_are_permutations(name, factory):
    op = factory()
    assert op.is_permutation()
    # Exhaustive basis action: every column holds exactly one unit entry.
    for col in range(op.size):
        column = op.entries[:, col]
        nonzero = np.flatnonzero(np.abs(column) > 1e-12)
        assert nonzero.size == 1
        assert column[nonzero[0]] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", sorted(PINNED_ENTRY_DIGESTS))
def test_entries_match_their_pinned_digest(name):
    entries = dict(ALL_CONSTRUCTORS)[name]().entries
    assert hashlib.sha256(entries.tobytes()).hexdigest() == PINNED_ENTRY_DIGESTS[name]


def test_constructor_table_names():
    assert [name for name, _ in ALL_CONSTRUCTORS] == [
        "rotation_y", "rotation_z", "euler_unitary", "u_m0", "u_m1", "controlled_unitary",
        "v11", "v12", "v13", "v14", "v1", "q1", "q2", "v2", "q3_0", "q3_1", "toffoli",
        "hadamard_on_qutrit", "cnot", "cnot_qutrit", "tilde_v1_l0", "tilde_v1_l1",
        "tilde_q1", "tilde_q2_l0", "tilde_q2_l1",
    ]
    assert [name for name, _ in PERMUTATION_GATES] == [
        "v12", "v14", "q1", "q2", "v2", "toffoli", "cnot", "cnot_qutrit",
        "tilde_q1", "tilde_q2_l0", "tilde_q2_l1",
    ]


def test_table_factories_look_their_constructor_up_when_called(monkeypatch):
    marker = Operator((2, 3), np.eye(6))
    monkeypatch.setattr(gates, "v12", lambda: marker)
    monkeypatch.setattr(gates, "v11", lambda angles: marker)
    table = dict(ALL_CONSTRUCTORS)
    assert table["v12"]() is marker
    assert table["v11"]() is marker


# Every triple of angles whose sines and cosines are exact zeros and ones.
EDGE_ANGLES = [
    EulerAngles(*t)
    for t in itertools.product((0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2, 2 * math.pi), repeat=3)
]


def _edge_and_random_angles() -> list[EulerAngles]:
    """1000 seeded random triples plus EDGE_ANGLES."""
    rows = np.random.default_rng(1010).uniform(-2 * math.pi, 2 * math.pi, size=(1000, 3))
    return [EulerAngles(*map(float, row)) for row in rows] + EDGE_ANGLES


def _angle_gates(angles: EulerAngles) -> list:
    return [
        gates.rotation_y(angles.theta),
        gates.rotation_z(angles.phi),
        gates.euler_unitary(angles),
        gates.u_m(angles, 0),
        gates.u_m(angles, 1),
        gates.v11(angles),
        gates.v13(angles),
        gates.v1(angles),
        gates.tilde_v1(angles, 0),
        gates.tilde_v1(angles, 1),
    ]


class TestTrustedAngleGates:
    """The angle gates skip the public constructor's copy and checks; what
    those would have guaranteed must still hold."""

    def test_entries_are_read_only_complex_and_sized_by_dims(self):
        built = {}
        for angles in _edge_and_random_angles():
            for op in _angle_gates(angles):
                built[id(op)] = op  # holds every operator, so no id is reused
        for op in built.values():
            size = math.prod(op.dims)
            assert op.entries.dtype == np.complex128
            assert op.entries.shape == (size, size)
            assert not op.entries.flags.writeable
            assert type(op._plans) is dict
        # Each operator has its own plan table.
        assert len({id(op._plans) for op in built.values()}) == len(built)

    def test_composites_equal_their_factor_products_at_edge_angles(self):
        # Random angles are covered by TestAngleGatesMatchTheirKronDefinitions.
        x, one = gates.pauli_x(), Operator.identity((2,))
        for angles in EDGE_ANGLES:
            product = gates.v14() @ gates.v13(angles) @ gates.v12() @ gates.v11(angles)
            assert np.array_equal(gates.v1(angles).entries, product.entries), angles
            u = gates.euler_unitary(angles)
            for ell, block in ((0, x @ u @ one), (1, one @ u @ x)):
                expected = gates.controlled_unitary(block).entries
                assert np.array_equal(gates.tilde_v1(angles, ell).entries, expected), (angles, ell)

    def test_public_operator_still_copies_and_checks_its_input(self):
        source = np.eye(2, dtype=np.complex128)
        op = Operator((2,), source)
        source[0, 0] = 5.0
        assert op.entries[0, 0] == 1.0
        assert source.flags.writeable
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            Operator((2,), np.eye(3))
        with pytest.raises(ValueError, match="expected a 6x6 matrix"):
            Operator((2, 3), np.eye(4))
        with pytest.raises(ValueError, match="subsystem dimensions must be positive integers"):
            Operator.identity((2, 0))


class TestEulerAngles:
    @pytest.mark.parametrize("name", ["phi", "theta", "varphi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_is_named(self, name, bad):
        fields = {"phi": 0.1, "theta": 0.3, "varphi": 0.1, name: bad}
        with pytest.raises(ValueError, match=f"Euler angle {name} must be finite"):
            EulerAngles(**fields)


class TestRotations:
    @pytest.mark.parametrize("rotation, name", [(gates.rotation_y, "theta"), (gates.rotation_z, "varphi")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_is_named(self, rotation, name, bad):
        with pytest.raises(ValueError, match=f"rotation angle {name} must be finite"):
            rotation(bad)

    def test_rotation_y_pins(self):
        assert np.allclose(gates.rotation_y(0.0).entries, np.eye(2))
        assert np.allclose(gates.rotation_y(math.pi).entries, [[0, -1], [1, 0]], atol=1e-15)
        r = 1 / math.sqrt(2)
        assert np.allclose(gates.rotation_y(math.pi / 2).entries, [[r, -r], [r, r]], atol=1e-15)

    def test_rotation_y_determinant_one(self):
        assert np.linalg.det(gates.rotation_y(1.234).entries) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_z_pins(self):
        assert np.allclose(gates.rotation_z(0.0).entries, np.eye(2))
        assert np.allclose(gates.rotation_z(math.pi).entries, np.diag([-1j, 1j]), atol=1e-15)
        # Half-angle convention: a full turn is -identity.
        assert np.allclose(gates.rotation_z(2 * math.pi).entries, -np.eye(2), atol=1e-15)

    def test_euler_identity_and_y_reduction(self):
        assert np.allclose(gates.euler_unitary(EulerAngles(0, 0, 0)).entries, np.eye(2))
        assert np.allclose(
            gates.euler_unitary(EulerAngles(0, math.pi, 0)).entries, [[0, -1], [1, 0]], atol=1e-15
        )

    def test_euler_matches_hand_multiplied_product(self):
        # Multiplying the three matrices by hand gives
        # [[e^{-i(phi+varphi)/2} c, -e^{-i(phi-varphi)/2} s],
        #  [e^{+i(phi-varphi)/2} s,  e^{+i(phi+varphi)/2} c]].
        phi, theta, varphi = math.pi / 3, math.pi / 4, math.pi / 5
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        expected = np.array(
            [
                [cmath.exp(-1j * (phi + varphi) / 2) * c, -cmath.exp(-1j * (phi - varphi) / 2) * s],
                [cmath.exp(1j * (phi - varphi) / 2) * s, cmath.exp(1j * (phi + varphi) / 2) * c],
            ]
        )
        got = gates.euler_unitary(EulerAngles(phi, theta, varphi)).entries
        assert np.allclose(got, expected, atol=1e-15)

    def test_euler_is_bitwise_the_constructor_product(self):
        # Each angle gate's Euler block against the public factor product,
        # multiplied through Operator.__matmul__: equal values at every triple
        # and equal bytes at the random ones.  At EDGE_ANGLES, the last
        # len(EDGE_ANGLES) triples, only the sign of an exact zero may differ.
        triples = _edge_and_random_angles()
        random_count = len(triples) - len(EDGE_ANGLES)
        for i, angles in enumerate(triples):
            zy = gates.rotation_z(angles.phi) @ gates.rotation_y(angles.theta)
            u = (zy @ gates.rotation_z(angles.varphi)).entries
            u_minus_theta = (
                gates.rotation_z(angles.phi) @ gates.rotation_y(-angles.theta) @ gates.rotation_z(angles.varphi)
            ).entries
            v13 = gates.v13(angles).entries
            tilde = [gates.tilde_v1(angles, ell).entries[1::2, 1::2] for ell in (0, 1)]
            pairs = [
                (gates.euler_unitary(angles).entries, u),
                (gates.u_m(angles, 0).entries, u),
                (gates.u_m(angles, 1).entries, u_minus_theta),
                (v13[1::3, 1::3], zy.entries),
                (v13[2::3, 2::3], zy.entries),
                (tilde[0], u[::-1]),
                (tilde[1], u[:, ::-1]),
            ]
            for got, expected in pairs:
                assert np.array_equal(got, expected), angles
                if i < random_count:
                    assert got.tobytes() == expected.tobytes(), angles


def _uncached_euler(phi, theta, varphi):
    return gates._rz_ry(phi, theta) @ gates._rz(varphi)


class TestEulerCache:
    """A Bell input's run and its verification share one Z-Y-Z product."""

    def test_entries_are_read_only_and_byte_equal_to_a_fresh_build(self):
        for angles in _edge_and_random_angles():
            triple = (angles.phi, angles.theta, angles.varphi)
            for _ in range(2):
                entries = gates._euler(*triple)
                assert not entries.flags.writeable
                assert entries.tobytes() == _uncached_euler(*triple).tobytes(), triple
        assert gates._euler.cache_info().maxsize == gates._ANGLE_CACHE_SIZE
        assert gates._euler.cache_info().currsize <= gates._ANGLE_CACHE_SIZE

    def test_a_repeated_triple_is_one_entry(self):
        triple = (0.4, 2.0, 1.3)
        assert gates._euler(*triple) is gates._euler(*triple)
        gates._euler.cache_clear()
        inp = protocol.BellInput(1, -1, 0.6, 0.8j, EulerAngles(*triple))
        gates.tilde_v1.cache_clear()
        protocol.verify_bell(protocol.run_bell(inp), inp)
        info = gates._euler.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_both_signs_of_a_zero_angle_share_one_entry(self):
        # Each cache takes 0.0 and -0.0 for one key; the builders drop the
        # sign of a zero sine, so the shared entry is the fresh build at
        # either sign.
        for triple in itertools.product((-0.7, 0.0, -0.0, 2.3), repeat=3):
            for flipped in _zero_sign_flips(triple):
                gates._euler.cache_clear()
                entries = gates._euler(*triple)
                assert gates._euler(*flipped) is entries
                assert gates._euler.cache_info().currsize == 1
                assert not entries.flags.writeable
                assert entries.tobytes() == _uncached_euler(*triple).tobytes(), triple
                assert entries.tobytes() == _uncached_euler(*flipped).tobytes(), flipped


# Every angle-keyed builder, by name, as a function of a (phi, theta, varphi)
# triple; SIGNED_ZERO_TRIPLES runs over the edge angles and two plain ones.
ANGLE_BUILDERS = {
    "rotation_y": lambda t: gates.rotation_y(t[1]).entries,
    "rotation_z(phi)": lambda t: gates.rotation_z(t[0]).entries,
    "rotation_z(varphi)": lambda t: gates.rotation_z(t[2]).entries,
    "v11": lambda t: gates.v11(EulerAngles(*t)).entries,
    "v13": lambda t: gates.v13(EulerAngles(*t)).entries,
    "v1": lambda t: gates.v1(EulerAngles(*t)).entries,
    "tilde_v1_l0": lambda t: gates.tilde_v1(EulerAngles(*t), 0).entries,
    "tilde_v1_l1": lambda t: gates.tilde_v1(EulerAngles(*t), 1).entries,
    "u_m0": lambda t: gates.u_m(EulerAngles(*t), 0).entries,
    "u_m1": lambda t: gates.u_m(EulerAngles(*t), 1).entries,
    "_euler": lambda t: gates._euler(*t),
}
ANGLE_CACHES = (gates.rotation_y, gates.rotation_z, gates.v11, gates.v13, gates.v1, gates.tilde_v1, gates._euler)
SIGNED_ZERO_TRIPLES = list(
    itertools.product((0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2, 2 * math.pi, 0.7, -1.3), repeat=3)
)


def _zero_sign_flips(triple):
    """``triple`` with the sign of one of its zero angles flipped, for each zero."""
    return [triple[:i] + (-angle,) + triple[i + 1 :] for i, angle in enumerate(triple) if angle == 0.0]


def _fresh_bytes(builder, triple) -> bytes:
    for cache in ANGLE_CACHES:
        cache.cache_clear()
    return builder(triple).tobytes()


class TestSignedZeroAngles:
    """An angle cache key is one set of bytes: 0.0 and -0.0 build alike."""

    def test_a_zero_sign_flip_builds_the_same_bytes(self):
        flips = 0
        for triple in SIGNED_ZERO_TRIPLES:
            for flipped in _zero_sign_flips(triple):
                flips += 1
                for name, builder in ANGLE_BUILDERS.items():
                    assert _fresh_bytes(builder, flipped) == _fresh_bytes(builder, triple), (name, triple, flipped)
        assert flips == 486

    def test_call_order_does_not_change_the_bytes(self):
        # Keyed by index: 0.0 == -0.0, so a triple would collide with its flips.
        fresh = {
            (i, name): _fresh_bytes(builder, triple)
            for i, triple in enumerate(SIGNED_ZERO_TRIPLES)
            for name, builder in ANGLE_BUILDERS.items()
        }
        calls = list(fresh)
        random.Random(3030).shuffle(calls)
        for cache in ANGLE_CACHES:
            cache.cache_clear()
        wrong = sorted(
            {i for i, name in calls if ANGLE_BUILDERS[name](SIGNED_ZERO_TRIPLES[i]).tobytes() != fresh[i, name]}
        )
        assert not wrong, f"{len(wrong)} of 729 triples differ, first {SIGNED_ZERO_TRIPLES[wrong[0]]}"


class TestOutcomeUnitary:
    def test_m0_equals_euler(self):
        assert np.array_equal(gates.u_m(ANGLES, 0).entries, gates.euler_unitary(ANGLES).entries)

    def test_m1_negates_theta(self):
        theta = 0.9
        assert np.allclose(
            gates.u_m(EulerAngles(0, theta, 0), 1).entries, gates.rotation_y(-theta).entries, atol=1e-15
        )

    def test_theta_zero_makes_m_irrelevant(self):
        angles = EulerAngles(0.0, 0.0, 1.1)
        assert np.array_equal(gates.u_m(angles, 0).entries, gates.u_m(angles, 1).entries)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            gates.u_m(ANGLES, 2)

    @pytest.mark.parametrize("m", [True, False, 1.0, 0.0, 2, -1, None])
    def test_outcome_must_be_the_integer_0_or_1(self, m):
        with pytest.raises(ValueError, match="measurement outcome must be 0 or 1"):
            gates.u_m(ANGLES, m)
        # q3 is cached: an entry for the integer 0 or 1 must not answer for
        # True or 1.0, which compare equal to it (by keyword they also share a key).
        gates.q3(m=0)
        gates.q3(m=1)
        for call in (lambda: gates.q3(m), lambda: gates.q3(m=m)):
            with pytest.raises(ValueError, match="measurement outcome must be 0 or 1"):
                call()

    def test_numpy_integer_outcome_is_accepted(self):
        assert np.array_equal(gates.u_m(ANGLES, np.int64(1)).entries, gates.u_m(ANGLES, 1).entries)
        assert np.array_equal(gates.q3(np.int64(1)).entries, gates.q3(1).entries)


class TestControlledUnitary:
    def test_identity_block(self):
        assert np.allclose(gates.controlled_unitary(gates.rotation_y(0.0)).entries, np.eye(4))

    def test_x_truth_table(self):
        # target (x) control ordering: |t=1, c=1> -> |t=0, c=1>
        maps(gates.controlled_unitary(gates.pauli_x()), (2, 2), (1, 1), (0, 1))

    def test_controlled_y_rotation_matrix_vector(self):
        # On 0.6|00> + 0.8|11>: the c=1 column picks up ry(pi)|1> = -|0>.
        state = StateVector.from_terms((2, 2), {(0, 0): 0.6, (1, 1): 0.8})
        out = apply(gates.controlled_unitary(gates.rotation_y(math.pi)), state, [0, 1])
        expected = StateVector.from_terms((2, 2), {(0, 0): 0.6, (0, 1): -0.8})
        assert np.allclose(out.amps, expected.amps, atol=1e-15)

    def test_warns_on_non_unitary_block(self):
        with pytest.warns(UserWarning):
            gates.controlled_unitary(Operator((2,), [[1, 0], [0, 0.5]]))
        with pytest.raises(ValueError, match="control block must be a single-qubit operator"):
            gates.controlled_unitary(Operator.identity((3,)))


class TestLocalOperationFactors:
    def test_v11_reduces_to_controlled_x_at_zero_angles(self):
        got = gates.v11(EulerAngles(0.0, 0.0, 0.0)).entries
        expected = np.zeros((6, 6), dtype=complex)
        x = np.array([[0, 1], [1, 0]])
        for c, block in ((0, np.eye(2)), (1, x), (2, np.eye(2))):
            proj = np.zeros((3, 3))
            proj[c, c] = 1
            expected += np.kron(block, proj)
        assert np.allclose(got, expected, atol=1e-15)

    def test_v12_swaps_upper_ancilla_levels(self):
        maps(gates.v12(), (2, 3), (1, 1), (1, 2))
        maps(gates.v12(), (2, 3), (1, 2), (1, 1))
        maps(gates.v12(), (2, 3), (0, 2), (0, 2))

    def test_v14_flips_on_top_level(self):
        maps(gates.v14(), (2, 3), (0, 2), (1, 2))
        maps(gates.v14(), (2, 3), (0, 1), (0, 1))

    def test_v1_is_the_ordered_factor_product(self):
        composed = gates.v14() @ gates.v13(ANGLES) @ gates.v12() @ gates.v11(ANGLES)
        assert np.array_equal(gates.v1(ANGLES).entries, composed.entries)


def _projector(dim, k):
    out = np.zeros((dim, dim))
    out[k, k] = 1.0
    return out


def _on_b_where_c(c_dim, blocks):
    """sum over c of kron(block_c, |c><c|), the identity block where none is given."""
    return sum(np.kron(blocks.get(c, np.eye(2)), _projector(c_dim, c)) for c in range(c_dim))


class TestAngleGatesMatchTheirKronDefinitions:
    def test_random_angle_triples(self):
        # The angle gates write their 2x2 blocks into index pairs; they must
        # equal the kron-of-projectors sums over the rotation constructors.
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        rng = np.random.default_rng(4242)
        for phi, theta, varphi in rng.uniform(-2 * math.pi, 2 * math.pi, size=(1000, 3)):
            angles = EulerAngles(float(phi), float(theta), float(varphi))
            rz_phi = gates.rotation_z(angles.phi).entries
            ry = gates.rotation_y(angles.theta).entries
            rz_varphi = gates.rotation_z(angles.varphi).entries
            euler = rz_phi @ ry @ rz_varphi
            v11 = _on_b_where_c(3, {1: rz_varphi @ x})
            v13 = _on_b_where_c(3, {1: rz_phi @ ry, 2: rz_phi @ ry})
            v1 = gates.v14().entries @ v13 @ gates.v12().entries @ v11
            assert np.array_equal(gates.euler_unitary(angles).entries, euler)
            assert np.array_equal(gates.v11(angles).entries, v11)
            assert np.array_equal(gates.v13(angles).entries, v13)
            assert np.array_equal(gates.v1(angles).entries, v1)
            for ell in (0, 1):
                block = np.linalg.matrix_power(x, 1 - ell) @ euler @ np.linalg.matrix_power(x, ell)
                assert np.array_equal(gates.tilde_v1(angles, ell).entries, _on_b_where_c(2, {1: block}))


class TestGlobalFlips:
    def test_q1_rows(self):
        maps(gates.q1(), (2, 2, 3), (0, 1, 1), (1, 1, 1))
        maps(gates.q1(), (2, 2, 3), (0, 0, 0), (0, 0, 0))
        maps(gates.q1(), (2, 2, 3), (1, 1, 2), (0, 1, 2))

    def test_q2_rows(self):
        maps(gates.q2(), (2, 2, 3), (0, 0, 1), (0, 1, 1))
        maps(gates.q2(), (2, 2, 3), (1, 0, 1), (1, 0, 1))
        maps(gates.q2(), (2, 2, 3), (1, 0, 2), (1, 1, 2))

    def test_v2_cycles_ancilla_when_control_set(self):
        maps(gates.v2(), (2, 3), (1, 1), (1, 0))
        maps(gates.v2(), (2, 3), (0, 2), (0, 2))
        maps(gates.v2(), (2, 3), (1, 0), (1, 2))

    def test_q3_outcome_zero_is_identity(self):
        assert np.array_equal(gates.q3(0).entries, np.eye(4))

    def test_q3_outcome_one_basis_action(self):
        # Multiplying (Z x X) Zc (I x X) over the four basis kets by hand
        # leaves |00>, |01>, |10> fixed and negates |11>.
        maps(gates.q3(1), (2, 2), (0, 0), (0, 0))
        maps(gates.q3(1), (2, 2), (1, 1), (1, 1), amplitude=-1.0)

    def test_q3_outcome_one_is_controlled_z(self):
        assert np.allclose(gates.q3(1).entries, np.diag([1, 1, 1, -1]), atol=1e-15)

    def test_q3_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            gates.q3(-1)

    def test_toffoli_rows(self):
        maps(gates.toffoli(), (2, 2, 3), (1, 1, 1), (1, 0, 1))
        maps(gates.toffoli(), (2, 2, 3), (0, 1, 1), (0, 1, 1))
        maps(gates.toffoli(), (2, 2, 3), (1, 1, 0), (1, 1, 0))


class TestHadamardOnQutrit:
    def test_plus_state(self):
        out = apply(gates.hadamard_on_qutrit(), StateVector.basis((3,), (0,)), [0])
        r = 1 / math.sqrt(2)
        assert np.allclose(out.amps, [r, r, 0], atol=1e-15)

    def test_top_level_untouched(self):
        maps(gates.hadamard_on_qutrit(), (3,), (2,), (2,))

    def test_self_inverse(self):
        h = gates.hadamard_on_qutrit()
        assert np.allclose((h @ h).entries, np.eye(3), atol=1e-15)


class TestBellVariantGates:
    def test_tilde_v1_identity_block_cases(self):
        x = np.array([[0, 1], [1, 0]])
        expected = np.kron(np.eye(2), np.diag([1, 0])) + np.kron(x, np.diag([0, 1]))
        identity_angles = EulerAngles(0.0, 0.0, 0.0)
        assert np.allclose(gates.tilde_v1(identity_angles, 0).entries, expected, atol=1e-15)
        assert np.allclose(gates.tilde_v1(identity_angles, 1).entries, expected, atol=1e-15)

    def test_tilde_v1_x_block_collapses_to_identity(self):
        # euler(-pi/2, pi, pi/2) = -i X, so for ell=0 the composed block
        # X.(-iX).I = -i I: no flip survives in the C=1 sector.
        angles = EulerAngles(-math.pi / 2, math.pi, math.pi / 2)
        assert np.allclose(gates.euler_unitary(angles).entries, -1j * np.array([[0, 1], [1, 0]]), atol=1e-15)
        block = gates.tilde_v1(angles, 0).entries.reshape(2, 2, 2, 2)[:, 1, :, 1]
        assert np.allclose(block, -1j * np.eye(2), atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(phi=st.floats(-6, 6), theta=st.floats(-6, 6), varphi=st.floats(-6, 6))
    def test_tilde_v1_class_flip_conjugation_symmetry(self, phi, theta, varphi):
        # X^(1-l) U X^l is invariant under l -> 1-l with U -> X U X.
        angles = EulerAngles(phi, theta, varphi)
        u = gates.euler_unitary(angles).entries
        x = np.array([[0, 1], [1, 0]])
        for ell in (0, 1):
            direct = np.linalg.matrix_power(x, 1 - ell) @ u @ np.linalg.matrix_power(x, ell)
            flipped = np.linalg.matrix_power(x, ell) @ (x @ u @ x) @ np.linalg.matrix_power(x, 1 - ell)
            assert np.allclose(direct, flipped, atol=1e-12)

    def test_tilde_q1_rows_and_involution(self):
        maps(gates.tilde_q1(), (2, 2, 2), (0, 1, 1), (1, 1, 1))
        maps(gates.tilde_q1(), (2, 2, 2), (0, 1, 0), (0, 1, 0))
        squared = gates.tilde_q1() @ gates.tilde_q1()
        assert np.allclose(squared.entries, np.eye(8), atol=1e-15)

    def test_tilde_q2_rows(self):
        maps(gates.tilde_q2(1), (2, 2, 2), (1, 0, 1), (1, 0, 1))
        maps(gates.tilde_q2(1), (2, 2, 2), (0, 0, 1), (0, 1, 1))
        maps(gates.tilde_q2(0), (2, 2, 2), (1, 0, 1), (1, 1, 1))

    @pytest.mark.parametrize("ell", [True, False, 1.0, 0.0])
    def test_tilde_constructors_reject_non_integer_class(self, ell):
        for label in (0, 1):  # cached entries for the integer labels must not answer for these
            gates.tilde_v1(ANGLES, label)
            gates.tilde_q2(ell=label)
        with pytest.raises(ValueError, match="class index must be 0 or 1"):
            gates.tilde_v1(ANGLES, ell)
        with pytest.raises(ValueError, match="class index must be 0 or 1"):
            gates.tilde_q2(ell)
        with pytest.raises(ValueError, match="class index must be 0 or 1"):
            gates.tilde_q2(ell=ell)

    def test_tilde_constructors_reject_bad_class(self):
        with pytest.raises(ValueError):
            gates.tilde_v1(ANGLES, 2)
        with pytest.raises(ValueError):
            gates.tilde_q2(-1)


class TestEntanglers:
    def test_cnot_rows(self):
        maps(gates.cnot(), (2, 2), (1, 0), (1, 1))
        maps(gates.cnot(), (2, 2), (0, 1), (0, 1))

    def test_cnot_qutrit_rows(self):
        maps(gates.cnot_qutrit(), (2, 3), (1, 0), (1, 1))
        maps(gates.cnot_qutrit(), (2, 3), (1, 2), (1, 2))
        maps(gates.cnot_qutrit(), (2, 3), (0, 1), (0, 1))
