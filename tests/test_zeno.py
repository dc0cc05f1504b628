from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import pickle
import re
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cctsim import checks, cli, hilbert, protocol, stages, zeno
from cctsim.gates import EulerAngles
from cctsim.hilbert import StateVector, fidelity
from cctsim.protocol import BellInput, GeneralInput
from cctsim.zeno import (
    AbsorberModel,
    CycleConfig,
    MonteCarloReport,
    OutcomeKind,
    TrajectoryOutcome,
    cepi_success,
    chained_survival,
    coherent_qz_success,
    cqz_lambda0,
    cqz_lambda1,
    dcepi_success,
    dcfo_stage_success,
    dcfo_success,
    ddcfo_success,
    gate_statistics,
    qz_survival,
    simulate_cct,
    simulate_cqz,
    simulate_qz,
    stage_probabilities_bell,
    stage_probabilities_general,
)

ROOT_HALF = 1.0 / math.sqrt(2.0)
BALANCED = GeneralInput(ROOT_HALF, ROOT_HALF, ROOT_HALF, ROOT_HALF, EulerAngles(0.3, math.pi / 2, 0.7))

# SHA-256 over the same-seed reports of _monte_carlo_documents(), recorded
# when each campaign's counts became one multinomial draw.  It follows
# numpy's Generator.multinomial stream, which NEP 19 lets a numpy release
# change.
MONTE_CARLO_DIGEST = "a23a270e7ae41716adb1706c89de68151c1c77e62f51b5bc50084564c5dbaa82"

# SHA-256 over _stage_documents(), recorded before configs shared a pass.
STAGE_DIGEST = "cd2cd1497311aaf8c404f1969dfab117446039b787e28c26956f45dd38763234"


def _record_repr(cfg: CycleConfig, values: dict[str, float]) -> str:
    """A one-config row as the repr of the record it once was: lambda0/lambda1
    from cqz_lambda0/1, zeta0/zeta1 as the pair zeta_m, every absent value
    None.  So STAGE_DIGEST, recorded over those records, pins every value."""
    values = dict(values, lambda0=cqz_lambda0(cfg.M), lambda1=cqz_lambda1(cfg.M, cfg.N))
    if "zeta0" in values:
        values["zeta_m"] = values.pop("zeta0"), values.pop("zeta1")
    names = [f"lambda{i}" for i in range(8)] + [f"nabla{i}" for i in range(7, 11)] + ["zeta_m", "zeta"]
    return "StageProbabilities(" + ", ".join(f"{name}={values.get(name)!r}" for name in names) + ")"


def _stage_documents() -> list[str]:
    """The one-config rows of random general and Bell-type inputs at random
    cycle counts up to 2400, one in eight a blocked N = 1 row, each printed
    by _record_repr."""
    rng = np.random.default_rng(4711)
    documents = []
    for i in range(80):
        cfg = CycleConfig(*(int(count) for count in rng.integers(1, 2401, 3)))
        if i % 8 == 0:
            cfg = CycleConfig(int(rng.integers(1, 5)), 1, int(rng.integers(1, 5)))
        if i % 2:
            probs = stage_probabilities_general(cfg, protocol.random_general_input(rng))
        else:
            probs = stage_probabilities_bell(cfg, protocol.random_bell_input(rng))
        documents.append(_record_repr(cfg, probs))
    return documents


def _monte_carlo_documents() -> list[str]:
    """Same-seed reports of every campaign kind, each as sorted JSON.

    Every gate, model, absorber and polarization at four cycle pairs, with
    and without an expected success state; seeded simulate_cct runs on
    random general and Bell inputs; outcome_statistics on random inputs.
    """
    documents = []
    expected = StateVector.basis((2, 2), (1, 0))
    for gate in ("qz", "cqz"):
        for model in AbsorberModel:
            for absorber in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8j), (ROOT_HALF, -ROOT_HALF)):
                for polarization in ("H", "V"):
                    for outer, inner in ((1, 1), (2, 3), (5, 5), (12, 7)):
                        for state in (None, expected):
                            report = gate_statistics(
                                gate, absorber, polarization, inner, model, 997, 11 + len(documents),
                                outer=outer if gate == "cqz" else None, expected_success_state=state,
                            )
                            documents.append(json.dumps(report.as_dict(), sort_keys=True))
    rng = np.random.default_rng(2024)
    for i in range(60):
        cfg = CycleConfig(*(int(count) for count in rng.integers(1, 60, 3)))
        inp = protocol.random_general_input(rng) if i % 2 else protocol.random_bell_input(rng)
        report = simulate_cct(cfg, inp, int(rng.integers(1, 5000)), int(rng.integers(0, 2**31)))
        documents.append(json.dumps(report.as_dict(), sort_keys=True))
    for i in range(60):
        inp = protocol.random_general_input(rng)
        documents.append(json.dumps(protocol.outcome_statistics(inp, int(rng.integers(1, 5000)), i)))
    return documents


class TestCycleConfig:
    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_rejects_nonpositive_counts(self, bad):
        with pytest.raises(ValueError):
            CycleConfig(*bad)

    @pytest.mark.parametrize("count", [True, 2.0, 2.5, 0, -1, np.float64(3.0)], ids=repr)
    def test_cycle_counts_follow_the_trial_count_rule(self, count):
        # A bool or a float is not a cycle count, even one equal to an
        # integer: qz_survival(True) and qz_survival(2.0) used to return
        # numbers, and gate_statistics(..., 3.0, ...) failed inside range.
        calls = [
            lambda: CycleConfig(count, 2, 2),
            lambda: CycleConfig(2, 2, count),
            lambda: qz_survival(count),
            lambda: cqz_lambda1(count, 3),
            lambda: cqz_lambda1(3, count),
            lambda: chained_survival(5, count, 0.5, 0.5),
            lambda: dcfo_success(count, 3, 0.5),
            lambda: gate_statistics("qz", (0.6, 0.8), "H", count, AbsorberModel.PER_CYCLE_BORN, 10, 1),
            lambda: gate_statistics("cqz", (0.6, 0.8), "H", 3, AbsorberModel.COHERENT, 10, 1, outer=count),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="cycle count .* must be a positive integer"):
                call()

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16], ids=lambda t: t.__name__)
    def test_numpy_integer_cycle_counts_match_python_ints(self, dtype):
        # Counts are taken as Python ints, so 2 * M (at 40 000) and N * K
        # (at 300) do not wrap for a uint16 count, nor warn of overflow.
        big, small = dtype(40000), dtype(300)
        cfg = CycleConfig(big, big, small)
        assert (cfg.M, cfg.N, cfg.K) == (40000, 40000, 300) and type(cfg.M) is int
        inp = protocol.random_bell_input(np.random.default_rng(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stage_probabilities_bell(cfg, inp) == stage_probabilities_bell(CycleConfig(40000, 40000, 300), inp)
            assert cqz_lambda1(big, 3) == cqz_lambda1(40000, 3)
            assert chained_survival(3, 5, 0.5, 0.5, outer_cycles=big) == chained_survival(3, 5, 0.5, 0.5, outer_cycles=40000)
            assert qz_survival(big) == qz_survival(40000)
            assert cqz_lambda0(big) == cqz_lambda0(40000)
            assert cepi_success(big, 0.5) == cepi_success(40000, 0.5)
            assert dcfo_success(small, small, 0.5) == dcfo_success(300, 300, 0.5)
            assert dcfo_stage_success(small, big, 0.5) == dcfo_stage_success(300, 40000, 0.5)
            for gate, outer in (("qz", None), ("cqz", dtype(2))):
                report = gate_statistics(gate, (0.6, 0.8), "H", big, AbsorberModel.PER_CYCLE_BORN, 100, 1, outer=outer)
                assert report == gate_statistics(gate, (0.6, 0.8), "H", 40000, AbsorberModel.PER_CYCLE_BORN, 100, 1,
                                                 outer=None if outer is None else 2)


class TestSurvivalFormulas:
    def test_qz_survival_pins(self):
        assert qz_survival(1) == 0.0
        assert qz_survival(2) == 0.25

    def test_qz_survival_monotone_and_high_at_200(self):
        values = [qz_survival(n) for n in range(2, 201)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.97

    def test_lambda0_pins_and_limit(self):
        assert cqz_lambda0(1) == 0.0
        assert cqz_lambda0(2) == 0.25
        assert cqz_lambda0(1_000) > 0.997

    def test_lambda1_pins(self):
        assert cqz_lambda1(1, 1) == 0.0
        assert cqz_lambda1(2, 2) == 9.0 / 64.0

    def test_lambda1_rational_oracle(self):
        # Quarter-turn squared sines are exactly 1/2 and 1, so the two-cycle
        # product is (1 - 1/2 * 1/2)^2 * (1 - 1 * 1/2)^2 = 9/64.
        oracle = (1 - Fraction(1, 2) * Fraction(1, 2)) ** 2 * (1 - Fraction(1, 1) * Fraction(1, 2)) ** 2
        assert oracle == Fraction(9, 64)
        assert cqz_lambda1(2, 2) == float(oracle)

    def test_lambda1_grows_along_the_diagonal(self):
        # The printed product sits near exp(-pi^2/8) ~ 0.29 for equal cycle
        # counts; it climbs toward that value, not toward 1, on this scan.
        ten = cqz_lambda1(10, 10)
        twenty_five = cqz_lambda1(25, 25)
        assert twenty_five > ten
        independent = 1.0
        for i in range(1, 26):
            independent *= (1.0 - math.sin(i * math.pi / 50) ** 2 * math.sin(math.pi / 50) ** 2) ** 25
        assert twenty_five == pytest.approx(independent, abs=1e-12)
        assert 0.2 < twenty_five < 0.4

    def test_cepi_pins(self):
        assert cepi_success(5, 0.0) == 0.0
        assert cepi_success(7, 1.0) == qz_survival(7)
        assert cepi_success(2, 0.5) == 0.28125

    def test_dcepi_matches_functional_form(self):
        assert dcepi_success(4, 0.0) == 0.0
        assert dcepi_success(4, 1.0) == qz_survival(4)
        # Orthogonal pairing (alpha=delta=1, beta=gamma=0) zeroes the weight.
        assert dcepi_success(6, abs(1.0 * 0.0) ** 2 + abs(0.0 * 1.0) ** 2) == 0.0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            cepi_success(3, 1.5)
        with pytest.raises(ValueError):
            dcfo_success(3, 3, -0.1)
        with pytest.raises(ValueError):
            qz_survival(0)

    @pytest.mark.parametrize("bad", [math.nan, 1.5, -0.1], ids=repr)
    @pytest.mark.parametrize(
        "name,call",
        [
            ("nabla0", lambda w: cepi_success(3, w)),
            ("nabla1", lambda w: dcepi_success(3, w)),
            ("nabla", lambda w: coherent_qz_success(3, w)),
            ("nabla", lambda w: dcfo_success(3, 3, w)),
            ("nabla", lambda w: dcfo_stage_success(3, 3, w)),
            ("outer_weight", lambda w: chained_survival(3, 3, w, 0.5)),
            ("inner_weight", lambda w: chained_survival(3, 3, 0.5, w)),
        ],
    )
    def test_every_weight_has_one_range_check(self, name, call, bad):
        with pytest.raises(ValueError, match=f"^{name} must lie in \\[0, 1\\], got {bad!r}$"):
            call(bad)


class TestFlipChainFormulas:
    def test_zero_weight_is_certain(self):
        assert dcfo_success(5, 5, 0.0) == 1.0

    def test_single_stage_reduces_to_complement(self):
        # K=1 puts the rotation at a quarter turn: cos^2 = 0 kills the first
        # factor's exponent and the second factor is exactly 1 - weight.
        for weight in (0.0, 0.25, 0.5, 1.0):
            assert dcfo_success(1, 7, weight) == 1.0 - weight

    def test_stage_success_monotone_in_chain_length(self):
        assert dcfo_stage_success(40, 10, 0.5) > dcfo_stage_success(10, 10, 0.5)

    def test_dual_variant_identical(self, rng):
        for _ in range(50):
            chain = int(rng.integers(1, 40))
            inner = int(rng.integers(1, 40))
            weight = float(rng.uniform(0.0, 1.0))
            assert ddcfo_success(chain, inner, weight) == dcfo_success(chain, inner, weight)

    def test_full_weight_two_cycle_rational_oracle(self):
        # nabla = 1, K = N = 2: stage = (1 - 1/2 * 1/2)^2 * (1 - 1/2) = 9/32,
        # and the two-stage chain squares it to 81/1024.
        stage = (1 - Fraction(1, 2) * Fraction(1, 2)) ** 2 * (1 - Fraction(1, 2))
        assert stage == Fraction(9, 32)
        assert dcfo_stage_success(2, 2, 1.0) == float(stage)
        assert ddcfo_success(2, 2, 1.0) == float(stage**2)
        assert float(stage**2) == 81.0 / 1024.0


class TestChainedSurvival:
    def test_degenerate_weights_reduce_to_gate_formulas(self):
        for outer, inner in ((2, 2), (5, 3), (8, 13)):
            assert chained_survival(outer, inner, 1.0, 0.0) == cqz_lambda0(outer)
            assert chained_survival(outer, inner, 0.0, 1.0) == cqz_lambda1(outer, inner)

    def test_log_space_path_matches_direct(self):
        # Same stage at 60 x 60 and at 600 x 600 factors.
        direct = chained_survival(60, 60, 0.2, 0.3)
        assert 0.0 < direct < 1.0
        big = chained_survival(600, 600, 0.2, 0.3)
        assert 0.0 < big < 1.0
        # The two routes agree where both are usable.
        s_n = math.sin(math.pi / 120) ** 2
        log_total = 60 * math.log1p(-0.2 * math.sin(math.pi / 120) ** 2)
        for i in range(1, 61):
            log_total += 60 * math.log1p(-0.3 * math.sin(i * math.pi / 120) ** 2 * s_n)
        assert direct == pytest.approx(math.exp(log_total), rel=1e-10)


    @pytest.mark.parametrize("outer_cycles", [0, -3, 2.5])
    def test_outer_cycles_validated(self, outer_cycles):
        with pytest.raises(ValueError):
            chained_survival(5, 5, 0.5, 0.5, outer_cycles=outer_cycles)


def _reference_sin_sq_table(outer: int, cycles: int) -> np.ndarray:
    """The sin^2 table by its first formula, one full-length temporary per step."""
    r = np.fmod(np.arange(1, cycles + 1) / (2 * outer), 1.0)
    r = np.minimum(r, 1.0 - r)
    table = np.where(r < 0.25, np.sin(np.pi * r), np.cos(np.pi * (0.5 - r))) ** 2
    table[r == 0.25] = 0.5
    return table


class TestLogSpacePrimitives:
    @pytest.mark.parametrize("outer", [1, 2, 4, 5, 6, 12, 40, 150, 600, 2400])
    def test_matches_the_scalar_half_angle_form(self, outer):
        for cycles in (outer, 2 * outer, 3 * outer, 5 * outer + 1):
            table = stages._sin_sq_table(outer, 0, cycles)
            scalar = np.array([stages._sin_sq_pi(i / (2 * outer)) for i in range(1, cycles + 1)])
            assert table.shape == (cycles,)
            # numpy's and math's sin/cos may round differently, so an ulp is
            # taken at no less than 0.5.
            assert np.all(np.abs(table - scalar) <= 2 * np.spacing(np.maximum(scalar, 0.5))), (outer, cycles)
            # Quarter turns (2i/outer an integer) are exact: sin^2(k pi/4).
            for i in range(1, cycles + 1):
                if 2 * i % outer == 0:
                    exact = (0.0, 0.5, 1.0, 0.5)[(2 * i // outer) % 4]
                    assert table[i - 1] == scalar[i - 1] == exact, (outer, cycles, i)

    def test_small_angles_keep_relative_precision(self, mp):
        for outer in (2, 7, 150, 2400, 10**6):
            y = 1.0 / (2 * outer)
            with mp.workdps(50):
                reference = mp.sin(mp.pi * mp.mpf(y)) ** 2
            for value in (stages._sin_sq_pi(y), stages._sin_sq_table(outer, 0, 1)[0]):
                assert abs(mp.mpf(value) - reference) <= 2 * math.ulp(float(reference)), (outer, value)
        with mp.workdps(50):
            reference = mp.cos(mp.pi / 10) ** 2
        assert abs(mp.mpf(stages._cos_sq_pi(0.1)) - reference) <= math.ulp(float(reference))

    def test_sin_sq_table_is_shared_and_read_only(self):
        table = stages._sin_sq_table(5, 0, 10)
        assert stages._sin_sq_table(5, 0, 10) is table
        with pytest.raises(ValueError):
            table[0] = 1.0

    def test_a_long_pass_runs_in_bounded_memory(self):
        # Passes of 3*10^6 and 6*10^6 cycles are walked in blocks of at most
        # PASS_BLOCK entries, so the row peaks near the table cache's 16 MiB
        # bound plus one chunk, not at the 48 MB table of the longer pass.
        stages._sin_sq_table.cache_clear()
        inp = protocol.random_general_input(np.random.default_rng(11))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            stages.stage_rows([CycleConfig(3_000_000, 25, 25)], inp)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
            stages._sin_sq_table.cache_clear()
        assert peak < 20 * 2**20, peak

    def test_cycle_sweep_tables_hit_the_cache(self):
        # The benchmark's sweeps reach 2400 cycles; their longest tables
        # (2M outer cycles of the controlled-phase stage) stay cached.
        cache = stages._sin_sq_table
        cache.cache_clear()
        inp = protocol.random_general_input(np.random.default_rng(3))
        cfg = CycleConfig(2400, 2400, 2400)
        first = stages.stage_probabilities_general(cfg, inp)
        misses = cache.cache_info().misses
        assert cache.cache_info().currsize == misses > 0
        assert stages.stage_probabilities_general(cfg, inp) == first
        assert cache.cache_info().misses == misses
        assert cache.cache_info().hits >= misses
        assert stages._sin_sq_table(2400, 0, 4800) is stages._sin_sq_table(2400, 0, 4800)

    @pytest.mark.parametrize("outer,cycles", [(200000, 400000), (7, 1000), (1, 9), (2400, 4800), (3, 100007)])
    def test_built_table_keeps_the_reference_bits(self, outer, cycles):
        # A table built block by block, at the pass's block edges or at any
        # other offsets, has the bits of the whole table by the first formula.
        reference = _reference_sin_sq_table(outer, cycles).tobytes()
        for block in (stages.PASS_BLOCK, 4093):
            blocks = [stages._sin_sq_table(outer, start, min(start + block, cycles)) for start in range(0, cycles, block)]
            assert np.concatenate(blocks).tobytes() == reference, (outer, cycles, block)

    @pytest.mark.parametrize(
        "n_stages,cycles,block",
        [
            # PASS_BLOCK // n_stages entries fit one block: 65 536, 32 768 and
            # 21 845 for 1, 2 and 3 stages.
            *[(k, fits + d, 1 << 16) for k, fits in ((1, 65536), (2, 32768), (3, 21845)) for d in (-1, 0, 1)],
            *[(k, 2 * fits + d, 1 << 16) for k, fits in ((1, 65536), (3, 21845)) for d in (-8, 8)],
            # numpy adds at most 128 entries in one loop: 129 splits, 128 does not.
            (1, 128, 1),
            (1, 129, 1),
            (2, 128, 40),
            (2, 129, 40),
            (3, 7 * 21845, 1 << 16),
            (1, 3_000_017, 1 << 16),
        ],
    )
    def test_long_passes_split_where_numpy_sums_pairwise(self, monkeypatch, n_stages, cycles, block):
        # A pass longer than one block is summed in pieces split where numpy's
        # pairwise sum splits; each log sum and inner factor must be == to
        # numpy's sum over the whole table, so a change to numpy's rule fails
        # here rather than moving the bytes silently.  The longer inner count
        # keeps its factor near exp(-14), informative and far from underflow;
        # at N = 7 the entries are large enough for the sums to round apart.
        monkeypatch.setattr(stages, "PASS_BLOCK", block)
        outer, inners = cycles // 2 + 1, (7, max(1, cycles // 16))
        weights = ((0.3, 0.7), (0.9, 0.2), (0.5, 1.0))[:n_stages]
        s_n = [stages._sin_sq_pi(1.0 / (2 * inner)) for inner in inners]
        log_sums = stages._log_sums(outer, cycles, weights, s_n)
        factors = stages._chained_factors(outer, inners, ((cycles, weights),))
        reference = _reference_sin_sq_table(outer, cycles)
        for inner, s, sums, pairs in zip(inners, s_n, log_sums, factors):
            for (_, w), log_sum, (_, got) in zip(weights, sums, pairs):
                whole = float(np.log1p(-w * reference * s).sum())
                assert log_sum == whole, (n_stages, cycles, inner, w)
                assert got == math.exp(inner * whole), (n_stages, cycles, inner, w)

    def test_power_keeps_exact_rationals(self, mp):
        assert stages._power(0.25, 2) == 0.5625
        assert stages._power(0.5, 3) == 0.125
        assert stages._power(0.0, 7) == 1.0
        assert stages._power(1.0, 3) == 0.0
        # 1 - 0.1 rounds; the correction restores the exact power.
        for n in (1, 10, 1_000, 5_000):
            with mp.workdps(50):
                reference = (1 - mp.mpf(0.1)) ** n
            assert abs(mp.mpf(stages._power(0.1, n)) - reference) <= 4 * math.ulp(float(reference)), n

    def test_log_space_product(self):
        # At M = 2 the sin^2 table is (1/2, 1), and at N = 1 sin^2(theta_N)
        # is 1, so the inner factor is prod((1 - w sin^2(i pi/4))^N).
        (((_, inner),),) = stages._chained_factors(2, (1,), ((2, ((0.0, 0.5),)),))
        assert inner == pytest.approx(0.75 * 0.5, rel=1e-15)
        # A loss of exactly 1 blocks the stage: exactly 0.0, and no
        # RuntimeWarning from log1p(-1) (CI runs with warnings as errors).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stages._chained_factors(2, (1,), ((2, ((0.0, 1.0),)),)) == [[(1.0, 0.0)]]
        assert stages._chained_factors(4, (100,), ((4, ((0.0, 0.0),)),)) == [[(1.0, 1.0)]]

    def test_shared_pass_matches_one_stage_bit_for_bit(self):
        # Stages that share (outer, inner, cycles) are taken in one pass;
        # each stage's factors must be == those of the stage alone, whose
        # inner factor is the single-stage log-space sum.  Full inner
        # weights block the stage at N = 1 (a loss of exactly 1 at i = M).
        rng = np.random.default_rng(1701)
        for outer in (1, 2, 5, 12, 25, 150, 2400):
            for inner in (1, 2, 25, 2400):
                for cycles in (outer, 2 * outer):
                    weights = tuple(map(tuple, rng.random((3, 2)).tolist())) + ((1.0, 1.0), (0.0, 1.0))
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        (shared,) = stages._chained_factors(outer, (inner,), ((cycles, weights),))
                        alone = [stages._chained_factors(outer, (inner,), ((cycles, (pair,)),))[0][0] for pair in weights]
                    assert shared == alone, (outer, inner, cycles)
                    table = stages._sin_sq_table(outer, 0, cycles)
                    s_n = stages._sin_sq_pi(1.0 / (2 * inner))
                    for (_, w_in), (_, got) in zip(weights, shared):
                        losses = w_in * table * s_n
                        if np.any(losses >= 1.0):
                            assert inner == 1 and w_in == 1.0 and got == 0.0
                        else:
                            assert got == math.exp(inner * float(np.sum(np.log1p(-losses)))), (outer, inner, cycles, w_in)
                    if inner == 1:
                        assert shared[-2][1] == shared[-1][1] == 0.0

    @pytest.mark.parametrize("block", [1, 40, 300, stages.PASS_BLOCK])
    def test_many_inner_counts_match_one_at_a_time(self, monkeypatch, block):
        # A pass over many inner counts is cut into chunks of at most
        # PASS_BLOCK entries (at least one inner count, and a pass longer than
        # a block is split along its cycles); every chunking gives each inner
        # count the factors of a call for that inner count alone.  N = 1 at
        # full weight blocks.
        monkeypatch.setattr(stages, "PASS_BLOCK", block)
        inners = (7, 1, 2400, 25, 1, 2, 150, 7)
        weights = ((0.3, 0.7), (1.0, 1.0), (0.0, 0.25))
        for outer in (1, 5, 24, 600):
            passes = ((outer, weights), (2 * outer, weights[:1]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                many = stages._chained_factors(outer, inners, passes)
                alone = [stages._chained_factors(outer, (inner,), passes)[0] for inner in inners]
            assert many == alone, (outer, block)
            assert len(many) == len(inners) and all(len(pairs) == 4 for pairs in many)
            assert many[1][1][1] == many[4][1][1] == 0.0


# The 50-digit reference below is written from the printed products alone.
ORACLE_CYCLES = (5, 40, 150, 600, 2400)
ORACLE_RTOL = 1e-12
ORACLE_FLOOR = 1e-300


@pytest.fixture(scope="module")
def mp():
    return pytest.importorskip("mpmath")


@functools.lru_cache(maxsize=None)
def _mp_sin_sq_table(mp, outer: int) -> tuple:
    """sin^2(i pi / 2 outer) for i = 1..3 outer at 50 digits."""
    with mp.workdps(50):
        return tuple(mp.sin(mp.pi * i / (2 * outer)) ** 2 for i in range(1, 3 * outer + 1))


def _mp_chained(mp, outer, inner, w_out, w_in, cycles_list):
    """(outer factor, inner factor) of a chained stage at 50 digits, for each
    outer cycle count in ``cycles_list`` (at most 3 outer)."""
    with mp.workdps(50):
        s_m = _mp_sin_sq_table(mp, outer)
        s_n = mp.sin(mp.pi / (2 * inner)) ** 2
        logs = [mp.log(1 - w_in * s * s_n) for s in s_m[: max(cycles_list)]]
        return [((1 - w_out * s_m[0]) ** cycles, mp.exp(inner * mp.fsum(logs[:cycles]))) for cycles in cycles_list]


def _mp_survival(mp, outer, inner, w_out, w_in, cycles):
    """Product of both factors of a chained stage at 50 digits."""
    ((outer_factor, inner_factor),) = _mp_chained(mp, outer, inner, w_out, w_in, (cycles,))
    with mp.workdps(50):
        return outer_factor * inner_factor


def _mp_dcfo(mp, chain, inner, weight):
    with mp.workdps(50):
        s_k = mp.sin(mp.pi / (2 * chain)) ** 2
        s_n = mp.sin(mp.pi / (2 * inner)) ** 2
        return ((1 - weight * (1 - s_k) * s_n) ** inner * (1 - weight * s_k)) ** chain


def _assert_close(value, reference, label):
    if reference < ORACLE_FLOOR:
        return
    assert abs(value - float(reference)) <= ORACLE_RTOL * float(reference), (label, value, float(reference))


def _assert_zeta_close(mp, value, product, label):
    """zeta = 1 - product, held relative to the larger of zeta and 1 - zeta."""
    with mp.workdps(50):
        reference = float(1 - product)
        scale = max(reference, float(product))
    assert abs(value - reference) <= ORACLE_RTOL * scale, (label, value, reference)


class TestMpmathOracle:
    """Closed forms against 50-digit products, from 25 to 3 * 2400^2 factors."""

    @pytest.mark.parametrize("outer", ORACLE_CYCLES)
    @pytest.mark.parametrize("inner", ORACLE_CYCLES)
    def test_chained_factors(self, mp, outer, inner):
        cycles_list = (outer, 2 * outer, 3 * outer)
        refs = _mp_chained(mp, outer, inner, mp.mpf(0.3), mp.mpf(0.7), cycles_list)
        for cycles, ref in zip(cycles_list, refs):
            ((got,),) = stages._chained_factors(outer, (inner,), ((cycles, ((0.3, 0.7),)),))
            for value, reference, side in zip(got, ref, ("outer", "inner")):
                _assert_close(value, reference, (outer, inner, cycles, side))
        _assert_close(cqz_lambda1(outer, inner), _mp_survival(mp, outer, inner, 0, 1, outer), (outer, inner, "lambda1"))

    @pytest.mark.parametrize("chain", ORACLE_CYCLES)
    @pytest.mark.parametrize("inner", ORACLE_CYCLES)
    def test_dcfo_success(self, mp, chain, inner):
        for weight in (0.05, 0.7, 1.0):
            _assert_close(dcfo_success(chain, inner, weight), _mp_dcfo(mp, chain, inner, mp.mpf(weight)),
                          (chain, inner, weight))

    @pytest.mark.parametrize("outer", ORACLE_CYCLES)
    @pytest.mark.parametrize("inner", ORACLE_CYCLES)
    def test_stage_zetas(self, mp, outer, inner):
        angles = EulerAngles(0.2, 1.3, 0.4)
        cfg = CycleConfig(outer, inner, outer)
        general = GeneralInput(0.6, 0.8j, 0.8, 0.6, angles)
        probs = stage_probabilities_general(cfg, general)
        zeta0, zeta1 = probs["zeta0"], probs["zeta1"]
        with mp.workdps(50):
            a2, b2, g2, d2 = (abs(mp.mpc(amp)) ** 2 for amp in (general.alpha, general.beta, general.gamma, general.delta))
            c2, s2 = mp.cos(mp.mpf(angles.theta) / 2) ** 2, mp.sin(mp.mpf(angles.theta) / 2) ** 2
            lam2 = _mp_survival(mp, outer, inner, a2 * d2, b2 * d2, outer)
            lam3 = _mp_dcfo(mp, outer, inner, d2 * s2)
            lam4 = _mp_survival(mp, outer, inner, d2 * (a2 * c2 + b2 * s2), d2 * (b2 * c2 + a2 * s2), outer)
            lam5 = _mp_survival(mp, outer, inner, a2 * g2, b2 * g2, 2 * outer)
            _assert_zeta_close(mp, zeta0, lam2 * lam3 * lam4, (outer, inner, "zeta0"))
            _assert_zeta_close(mp, zeta1, lam2 * lam3 * lam4 * lam5, (outer, inner, "zeta1"))

        for ell, c0, c1 in ((1, 0.6, 0.8j), (0, 0.8, 0.6)):
            zeta = stage_probabilities_bell(cfg, BellInput(ell, 1, c0, c1, angles))["zeta"]
            with mp.workdps(50):
                weight = abs(mp.mpc(c1 if ell == 0 else c0)) ** 2
                on_outer, on_inner = weight * c2, weight * s2
                if ell == 0:
                    on_outer, on_inner = on_inner, on_outer
                lam6 = _mp_dcfo(mp, outer, inner, weight * s2)
                lam7 = _mp_survival(mp, outer, inner, on_outer, on_inner, outer)
                _assert_zeta_close(mp, zeta, lam6 * lam7, (outer, inner, ell, "zeta"))


class TestStageProbabilitiesGeneral:
    def test_inert_control_aborts_never(self):
        inp = GeneralInput(0.6, 0.8, 1.0, 0.0, EulerAngles(0.4, 1.1, 2.0))
        probs = stage_probabilities_general(CycleConfig(4, 4, 4), inp)
        assert probs["lambda2"] == 1.0
        assert probs["lambda3"] == 1.0
        assert probs["lambda4"] == 1.0
        assert probs["zeta0"] == 0.0

    def test_zeta_identities_hold_bitwise(self):
        probs = stage_probabilities_general(CycleConfig(7, 9, 11), BALANCED)
        product = probs["lambda2"] * probs["lambda3"] * probs["lambda4"]
        assert (probs["zeta0"], probs["zeta1"]) == (1.0 - product, 1.0 - product * probs["lambda5"])

    def test_zeta0_never_exceeds_zeta1(self, rng):
        for _ in range(30):
            inp = protocol.random_general_input(rng)
            cfg = CycleConfig(int(rng.integers(1, 30)), int(rng.integers(1, 30)), int(rng.integers(1, 30)))
            probs = stage_probabilities_general(cfg, inp)
            assert probs["zeta0"] <= probs["zeta1"]

    def test_diagonal_scan_decreases(self):
        smaller = stage_probabilities_general(CycleConfig(50, 50, 50), BALANCED)
        larger = stage_probabilities_general(CycleConfig(25, 25, 25), BALANCED)
        assert smaller["zeta0"] < larger["zeta0"]

    def test_keys_follow_the_schedule(self):
        # The schedule's lambdas in run order, its printed weights, then one
        # abort rate per branch: the sweep's columns, in the same order.
        probs = stage_probabilities_general(CycleConfig(3, 3, 3), BALANCED)
        assert list(probs) == ["lambda2", "lambda3", "lambda4", "lambda5", "nabla7", "nabla8", "zeta0", "zeta1"]
        bell = stage_probabilities_bell(CycleConfig(3, 3, 3), BellInput(1, 1, 0.6, 0.8, EulerAngles(0.3, 1.2, 0.5)))
        assert list(bell) == ["lambda6", "lambda7", "nabla9", "nabla10", "zeta"]


class TestStageProbabilitiesBell:
    def test_flat_rotation_keeps_chain_certain(self):
        inp = BellInput(0, 1, 0.6, 0.8, EulerAngles(0.5, 0.0, 1.0))
        probs = stage_probabilities_bell(CycleConfig(5, 5, 5), inp)
        assert probs["lambda6"] == 1.0

    def test_zero_weight_class_never_aborts(self):
        # Class 0 blocks on |c1|^2; class 1 on |c0|^2.
        zero_cls0 = stage_probabilities_bell(CycleConfig(4, 4, 4), BellInput(0, 1, 1.0, 0.0, EulerAngles(0.3, 1.2, 0.5)))
        assert (zero_cls0["lambda6"], zero_cls0["lambda7"], zero_cls0["zeta"]) == (1.0, 1.0, 0.0)
        zero_cls1 = stage_probabilities_bell(CycleConfig(4, 4, 4), BellInput(1, -1, 0.0, 1.0, EulerAngles(0.3, 1.2, 0.5)))
        assert (zero_cls1["lambda6"], zero_cls1["lambda7"], zero_cls1["zeta"]) == (1.0, 1.0, 0.0)

    def test_half_turn_moves_weight_to_inner_product(self):
        # theta = pi zeroes nabla9, so the outer factor is 1 and the inner
        # product carries the whole class weight.
        inp = BellInput(1, 1, 0.6, 0.8, EulerAngles(0.0, math.pi, 0.0))
        cfg = CycleConfig(6, 6, 6)
        probs = stage_probabilities_bell(cfg, inp)
        weight = 0.36
        assert probs["nabla9"] == pytest.approx(0.0, abs=1e-30)
        assert probs["nabla10"] == pytest.approx(weight, abs=1e-15)
        assert probs["lambda7"] == pytest.approx(chained_survival(6, 6, 0.0, weight), abs=1e-15)

    def test_class_swap_of_weights(self):
        angles = EulerAngles(0.0, 1.0, 0.0)
        cfg = CycleConfig(5, 7, 3)
        one_class = stage_probabilities_bell(cfg, BellInput(1, 1, 0.6, 0.8, angles))
        zero_class = stage_probabilities_bell(cfg, BellInput(0, 1, 0.8, 0.6, angles))
        # Same blocking weight (0.36) lands on swapped factors.
        assert one_class["lambda7"] == chained_survival(5, 7, one_class["nabla9"], one_class["nabla10"])
        assert zero_class["lambda7"] == chained_survival(5, 7, zero_class["nabla10"], zero_class["nabla9"])

    def test_zeta_identity(self):
        inp = BellInput(1, -1, 0.6, 0.8, EulerAngles(0.1, 2.0, 0.9))
        probs = stage_probabilities_bell(CycleConfig(9, 4, 6), inp)
        assert probs["zeta"] == 1.0 - probs["lambda6"] * probs["lambda7"]


@settings(max_examples=60, deadline=None)
@given(
    outer=st.integers(1, 50),
    inner=st.integers(1, 50),
    chain=st.integers(1, 50),
    w1=st.floats(0.0, 1.0),
    w2=st.floats(0.0, 1.0),
)
def test_analytic_outputs_stay_in_unit_interval(outer, inner, chain, w1, w2):
    values = [
        qz_survival(inner),
        cqz_lambda0(outer),
        cqz_lambda1(outer, inner),
        cepi_success(inner, w1),
        dcepi_success(inner, w2),
        dcfo_stage_success(chain, inner, w1),
        dcfo_success(chain, inner, w2),
        chained_survival(outer, inner, w1, w2),
        coherent_qz_success(inner, w1),
    ]
    for value in values:
        assert 0.0 <= value <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    outer=st.integers(1, 25),
    inner=st.integers(1, 25),
    chain=st.integers(1, 25),
    wa=st.floats(0.0, 1.0),
    wb=st.floats(0.0, 1.0),
    phi=st.floats(-6, 6),
    theta=st.floats(-6, 6),
    varphi=st.floats(-6, 6),
)
def test_stage_probabilities_stay_in_unit_interval(outer, inner, chain, wa, wb, phi, theta, varphi):
    inp = GeneralInput(
        math.sqrt(wa), math.sqrt(1 - wa), math.sqrt(wb), math.sqrt(1 - wb), EulerAngles(phi, theta, varphi)
    )
    probs = stage_probabilities_general(CycleConfig(outer, inner, chain), inp)
    for value in (probs["lambda2"], probs["lambda3"], probs["lambda4"], probs["lambda5"], probs["zeta0"], probs["zeta1"]):
        assert 0.0 <= value <= 1.0
    binp = BellInput(0, 1, math.sqrt(wa), math.sqrt(1 - wa), EulerAngles(phi, theta, varphi))
    bprobs = stage_probabilities_bell(CycleConfig(outer, inner, chain), binp)
    for value in (bprobs["lambda6"], bprobs["lambda7"], bprobs["zeta"]):
        assert 0.0 <= value <= 1.0


# Passes the constructors' 1e-12 norm check with a squared modulus above 1.
NEAR_UNIT = math.sqrt(1.0 + 8e-13)


class TestNearUnitInputs:
    ANGLES = EulerAngles(0.3, 1.2, 0.7)
    FLAT = EulerAngles(0.3, 0.0, 0.7)

    def test_general_stage_weights_stay_in_the_unit_interval(self):
        cfg = CycleConfig(5, 5, 5)
        inp = GeneralInput(NEAR_UNIT, 0.0, 0.0, NEAR_UNIT, self.ANGLES)
        assert abs(inp.alpha) ** 2 * abs(inp.delta) ** 2 > 1.0
        unit = GeneralInput(1.0, 0.0, 0.0, 1.0, self.ANGLES)
        assert stage_probabilities_general(cfg, inp) == stage_probabilities_general(cfg, unit)
        report, reference = simulate_cct(cfg, inp, 2_000, 3), simulate_cct(cfg, unit, 2_000, 3)
        assert (report.successes, report.absorbed, report.discarded) == (
            reference.successes, reference.absorbed, reference.discarded)

    @pytest.mark.parametrize("ell", [0, 1])
    def test_bell_stage_weights_stay_in_the_unit_interval(self, ell):
        # At theta = 0 the whole class weight sits on nabla9: the inner
        # weight for class 0, the outer one for class 1.
        cfg = CycleConfig(5, 5, 5)
        inp = BellInput(ell, 1, 0.0, NEAR_UNIT, self.FLAT) if ell == 0 else BellInput(ell, 1, NEAR_UNIT, 0.0, self.FLAT)
        unit = BellInput(ell, 1, 0.0, 1.0, self.FLAT) if ell == 0 else BellInput(ell, 1, 1.0, 0.0, self.FLAT)
        assert stage_probabilities_bell(cfg, inp) == stage_probabilities_bell(cfg, unit)
        assert simulate_cct(cfg, inp, 2_000, 3).successes == simulate_cct(cfg, unit, 2_000, 3).successes


def _axis_configs(axis: str, values, base: CycleConfig) -> list[CycleConfig]:
    """The configs a sweep along ``axis`` takes, as cli._sweep_cycles builds them."""
    if axis == "diag":
        return [CycleConfig(v, v, v) for v in values]
    return [CycleConfig(*(v if axis == name else getattr(base, name) for name in "MNK")) for v in values]


UNIT_GENERAL = GeneralInput(1.0, 0.0, 0.0, 1.0, EulerAngles(0.0, math.pi, 0.0))
UNIT_BELL = BellInput(1, 1, 1.0, 0.0, EulerAngles(0.0, math.pi, 0.0))


class TestGroupedPass:
    """stage_rows over many configs against one-config calls."""

    ROWS = ((stages.stage_rows, stage_probabilities_general), (stages.stage_rows, stage_probabilities_bell))

    def _assert_rows_match_one_config_calls(self, cfgs, inputs):
        for (rows_of, one_config), inp in zip(self.ROWS, inputs):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = rows_of(cfgs, inp)
            assert len(rows) == len(cfgs)
            for cfg, row in zip(cfgs, rows):
                assert row[0] == one_config(cfg, inp), (cfg, inp)
                assert [row] == rows_of((cfg,), inp), (cfg, inp)

    @pytest.mark.parametrize("axis", ["M", "N", "K", "diag"])
    def test_rows_equal_one_config_calls(self, axis):
        rng = np.random.default_rng(7331)
        values = (1, 2, 3, 5, 12, 25, 40, 150, 600, 2400, *(int(v) for v in rng.integers(1, 2401, 6)))
        for _ in range(3):
            base = CycleConfig(*(int(v) for v in rng.integers(1, 60, 3)))
            inputs = (protocol.random_general_input(rng), protocol.random_bell_input(rng))
            self._assert_rows_match_one_config_calls(_axis_configs(axis, values, base), inputs)

    @pytest.mark.parametrize("values", [(5, 5), (2400, 5, 600), (2400, 5, 5, 600), (1, 40, 1, 2)], ids=str)
    def test_duplicate_and_unsorted_values_keep_their_order(self, values):
        inputs = (protocol.random_general_input(np.random.default_rng(5)), protocol.random_bell_input(np.random.default_rng(6)))
        for axis in ("M", "N", "K", "diag"):
            cfgs = _axis_configs(axis, values, CycleConfig(6, 7, 8))
            self._assert_rows_match_one_config_calls(cfgs, inputs)

    def test_blocked_rows_at_full_weight(self):
        # Unit weights put a loss of exactly 1 on lambda1, lambda4 and
        # lambda7 at N = 1; those rows are exactly 0.0, with no warning.
        cfgs = _axis_configs("N", (1, 3, 1, 2400), CycleConfig(5, 1, 2)) + _axis_configs("diag", (1, 2), CycleConfig(1, 1, 1))
        self._assert_rows_match_one_config_calls(cfgs, (UNIT_GENERAL, UNIT_BELL))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            general = stages.stage_rows(cfgs, UNIT_GENERAL)
            bell = stages.stage_rows(cfgs, UNIT_BELL)
        for cfg, (g, _), (b, _) in zip(cfgs, general, bell):
            if cfg.N == 1:
                assert cqz_lambda1(cfg.M, cfg.N) == g["lambda4"] == b["lambda7"] == 0.0
                assert g["zeta0"] == g["zeta1"] == b["zeta"] == 1.0

    def test_unit_weight_inputs(self):
        cfgs = [CycleConfig(m, n, k) for m in (1, 2, 25) for n in (1, 2, 25) for k in (1, 3)]
        self._assert_rows_match_one_config_calls(cfgs, (UNIT_GENERAL, UNIT_BELL))
        inputs = (GeneralInput(0.0, 1.0, 1.0, 0.0, EulerAngles(0.1, 0.0, 0.2)), BellInput(0, -1, 1.0, 0.0, EulerAngles(0.1, 0.0, 0.2)))
        self._assert_rows_match_one_config_calls(cfgs, inputs)

    def test_every_written_value_is_range_checked(self, monkeypatch):
        # A value out of [0, 1] (here a NaN lambda3 or lambda6) is named by
        # stage_rows, in a many-config call as in a one-config one, and so by
        # the stage_probabilities_* functions that return a one-config row.
        monkeypatch.setattr(stages, "dcfo_success", lambda chain, inner, nabla: math.nan)
        cfgs = _axis_configs("K", (5, 6), CycleConfig(6, 7, 8))
        calls = [
            ("lambda3", lambda: stages.stage_rows(cfgs, BALANCED)),
            ("lambda6", lambda: stages.stage_rows(cfgs, UNIT_BELL)),
            ("lambda3", lambda: stage_probabilities_general(cfgs[0], BALANCED)),
            ("lambda6", lambda: stage_probabilities_bell(cfgs[0], UNIT_BELL)),
        ]
        for name, call in calls:
            with pytest.raises(ValueError, match=f"^{name} must lie in \\[0, 1\\], got nan$"):
                call()

    def test_rows_do_not_depend_on_phi_or_varphi(self):
        # Only theta enters a stage weight, so every row, values and stage
        # factors, is bit for bit the same under any other phi and varphi.
        rng = np.random.default_rng(1618)
        for i in range(300):
            cfgs = [CycleConfig(*(int(c) for c in rng.integers(1, 40, 3))) for _ in range(2)]
            inp = protocol.random_general_input(rng) if i % 2 else protocol.random_bell_input(rng)
            phi, varphi = (float(a) for a in rng.uniform(-7.0, 7.0, 2))
            turned = dataclasses.replace(inp, angles=EulerAngles(phi, inp.angles.theta, varphi))
            assert repr(stages.stage_rows(cfgs, turned)) == repr(stages.stage_rows(cfgs, inp)), (cfgs, inp, phi, varphi)

    def test_a_branch_must_meet_a_prefix_of_the_schedule(self):
        # Abort rates are running products over a prefix, so a branch that
        # skips an earlier stage is refused when the schedule is built.
        layout = (("first", "lambda2", 1, (1,)), ("second", "lambda3", None, (0, 1)))
        with pytest.raises(ValueError, match="prefix of the schedule"):
            stages.Schedule(layout, None)
        schedule = stages.Schedule(layout[::-1], None)
        assert schedule.branches == [(0, 1), (1, 2)] and schedule.zetas == ("zeta0", "zeta1")

    def test_a_wide_sweep_holds_one_row_at_a_time(self):
        # 64 inner counts at M = 200 000 share one pass per outer cycle
        # count, walked in blocks of at most PASS_BLOCK entries along both
        # the inner counts and the cycles, so the sweep peaks near a single
        # row (the sin^2 table cache plus one chunk), not at the (rows, 3, M)
        # array of about 290 MB.
        inp = protocol.random_general_input(np.random.default_rng(11))
        outer = 200_000

        def peak(cfgs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                rows = stages.stage_rows(cfgs, inp)
                return tracemalloc.get_traced_memory()[1] - before, rows
            finally:
                if started:
                    tracemalloc.stop()

        single, _ = peak([CycleConfig(outer, 25, 25)])
        wide, rows = peak(_axis_configs("N", range(1, 65), CycleConfig(outer, 25, 25)))
        assert len(rows) == 64
        assert wide <= 2 * single, (wide, single)
        assert single < 12_000_000


class TestProtocolDispatch:
    """Each protocol's entry points take that protocol's input class only."""

    CFG = CycleConfig(5, 5, 5)
    BELL = BellInput(1, 1, 0.6, 0.8, EulerAngles(0.3, 1.2, 0.5))

    def test_each_wrapper_names_its_input_class(self):
        with pytest.raises(TypeError, match="^stage_probabilities_general expects a GeneralInput, got BellInput$"):
            stage_probabilities_general(self.CFG, self.BELL)
        with pytest.raises(TypeError, match="^stage_probabilities_bell expects a BellInput, got GeneralInput$"):
            stage_probabilities_bell(self.CFG, BALANCED)
        assert stage_probabilities_general(self.CFG, BALANCED) == stages.stage_rows((self.CFG,), BALANCED)[0][0]
        assert stage_probabilities_bell(self.CFG, self.BELL) == stages.stage_rows((self.CFG,), self.BELL)[0][0]

    def test_a_plain_object_is_not_an_input(self):
        # Fields that look like a Bell-type input do not make one: it used to
        # be read as Bell-type and fail later with an AttributeError.
        plain = SimpleNamespace(ell=1, sign=1, c0=0.6, c1=0.8, angles=EulerAngles(0.3, 1.2, 0.5))
        message = "^expected a GeneralInput or a BellInput, got SimpleNamespace$"
        with pytest.raises(TypeError, match=message):
            stages.schedule_of(plain)
        with pytest.raises(TypeError, match=message):
            stages.stage_rows((self.CFG,), plain)
        with pytest.raises(TypeError, match="^stage_probabilities_general expects a GeneralInput, got SimpleNamespace$"):
            stage_probabilities_general(self.CFG, plain)
        with pytest.raises(TypeError, match="^stage_probabilities_bell expects a BellInput, got SimpleNamespace$"):
            stage_probabilities_bell(self.CFG, plain)
        assert stages.schedule_of(BALANCED) is stages.GENERAL_SCHEDULE and stages.schedule_of(self.BELL) is stages.BELL_SCHEDULE


class TestTrajectoryOutcome:
    def test_success_never_entered_the_channel(self):
        state = StateVector.basis((2, 2), (1, 0))
        assert TrajectoryOutcome(OutcomeKind.SUCCESS, "qz:exit", 1, state).photon_entered_channel is False
        assert TrajectoryOutcome(OutcomeKind.ABSORBED_BY_ELECTRON, "qz:exit", 1, state).photon_entered_channel is True
        assert TrajectoryOutcome(OutcomeKind.DISCARDED_AT_DETECTOR, "cqz:detector", 1, None).photon_entered_channel is False

    def test_success_requires_final_state(self):
        with pytest.raises(ValueError):
            TrajectoryOutcome(OutcomeKind.SUCCESS, "qz:exit", 1, None)


class TestSimulateQz:
    def test_pure_presence_rate_and_polarization(self):
        inner, trials = 4, 30_000
        expected = qz_survival(inner)
        report = gate_statistics(
            "qz", (1.0, 0.0), "H", inner, AbsorberModel.PER_CYCLE_BORN, trials, 5,
            expected_success_state=StateVector.basis((2, 2), (1, 0)),
        )
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(report.successes / trials - expected) < 4 * se
        assert report.conditional_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_pure_absence_flips_deterministically(self):
        sampled = simulate_qz((0.0, 1.0), "H", 6, AbsorberModel.PER_CYCLE_BORN, np.random.default_rng(17), 300)
        assert sum(count for _, count in sampled) == 300
        for outcome, _ in sampled:
            assert outcome.kind is OutcomeKind.ABSORBED_BY_ELECTRON
            assert outcome.photon_entered_channel
            assert outcome.stage == "qz:exit"
            # The recorded exit state shows the flip onto V before the discard.
            assert abs(outcome.final_state.amplitude((0, 1))) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_absorber_matches_collapse_formula(self):
        trials = 60_000
        expected = cepi_success(2, 0.5)
        report = gate_statistics("qz", (ROOT_HALF, ROOT_HALF), "H", 2, AbsorberModel.PER_CYCLE_BORN, trials, 23)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(report.successes / trials - expected) < 4 * se

    def test_coherent_model_matches_its_own_formula(self):
        trials = 30_000
        inner = 6
        expected = coherent_qz_success(inner, 0.5)
        report = gate_statistics("qz", (ROOT_HALF, ROOT_HALF), "H", inner, AbsorberModel.COHERENT, trials, 29)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(report.successes / trials - expected) < 4 * se

    def test_v_gate_frame(self, rng):
        sampled = simulate_qz((1.0, 0.0), "V", 200, AbsorberModel.COHERENT, rng, 100)
        successes = [outcome for outcome, _ in sampled if outcome.kind is OutcomeKind.SUCCESS]
        assert successes
        for outcome in successes:
            # Design polarization for the V gate is V itself.
            assert abs(outcome.final_state.amplitude((1, 1))) == pytest.approx(1.0, abs=1e-9)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            simulate_qz((1.0, 1.0), "H", 3, AbsorberModel.COHERENT, rng, 1)
        with pytest.raises(ValueError):
            simulate_qz((1.0, 0.0), "D", 3, AbsorberModel.COHERENT, rng, 1)
        with pytest.raises(ValueError):
            simulate_qz((1.0, 0.0), "H", 0, AbsorberModel.COHERENT, rng, 1)


def _coherent_cqz_oracle(outer: int, inner: int):
    """Deterministic amplitude recursion: survival probability and exit state
    for a pure-presence absorber, tracked independently of the simulator."""
    h, v = 1.0, 0.0
    survival = 1.0
    cos_m, sin_m = math.cos(math.pi / (2 * outer)), math.sin(math.pi / (2 * outer))
    cos_n = math.cos(math.pi / (2 * inner))
    for _ in range(outer):
        h, v = cos_m * h - sin_m * v, sin_m * h + cos_m * v
        # Inner gate: the presence branch keeps cos^N of the amplitude, the
        # rest is absorption weight.
        kept = v * cos_n**inner
        survival *= 1.0 - (v * v - kept * kept)
        scale = math.sqrt(1.0 - (v * v - kept * kept))
        h, v = h / scale, kept / scale
    return survival, (h, v)


class TestSimulateCqz:
    def test_absence_rate_and_polarization(self):
        outer, inner, trials = 5, 5, 30_000
        expected = cqz_lambda0(outer)
        report = gate_statistics(
            "cqz", (0.0, 1.0), "H", inner, AbsorberModel.PER_CYCLE_BORN, trials, 31, outer=outer,
            expected_success_state=StateVector.basis((2, 2), (0, 0)),
        )
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(report.successes / trials - expected) < 4 * se
        assert report.conditional_fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.absorbed == 0  # nothing to absorb without a blocker

    def test_presence_rate_and_flip(self):
        outer, inner, trials = 5, 5, 30_000
        expected = cqz_lambda1(outer, inner)
        report = gate_statistics(
            "cqz", (1.0, 0.0), "H", inner, AbsorberModel.PER_CYCLE_BORN, trials, 37, outer=outer,
            expected_success_state=StateVector.basis((2, 2), (1, 1)),
        )
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(report.successes / trials - expected) < 4 * se
        assert report.conditional_fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.discarded == 0  # the inner gate mirrors, nothing reaches the detector

    def test_single_cycle_presence_never_succeeds(self):
        sampled = simulate_cqz((1.0, 0.0), "H", 1, 1, AbsorberModel.PER_CYCLE_BORN, np.random.default_rng(41), 200)
        assert sum(count for _, count in sampled) == 200
        assert all(outcome.kind is not OutcomeKind.SUCCESS for outcome, _ in sampled)

    def test_coherent_presence_matches_amplitude_recursion(self):
        outer = inner = 4
        survival, (h, v) = _coherent_cqz_oracle(outer, inner)
        trials = 30_000
        expected_state = StateVector((2, 2), [0.0, 0.0, h, v])  # presence row
        report = gate_statistics(
            "cqz", (1.0, 0.0), "H", inner, AbsorberModel.COHERENT, trials, 43, outer=outer,
            expected_success_state=expected_state.normalized(),
        )
        se = math.sqrt(survival * (1 - survival) / trials)
        assert abs(report.successes / trials - survival) < 4 * se
        # Conditioned on survival the coherent exit state is deterministic.
        assert report.conditional_fidelity == pytest.approx(1.0, abs=1e-9)


def _born_cqz_oracle(weight: float, outer: int, inner: int) -> tuple[float, float]:
    """(absorbed, discarded) probabilities of the per-cycle-Born chained gate,
    from the sin^2 hazards cycle by cycle."""
    s_n = math.sin(math.pi / (2 * inner)) ** 2
    p_detector = (1.0 - weight) * math.sin(math.pi / (2 * outer)) ** 2
    alive = absorbed = discarded = 0.0
    alive = 1.0
    for i in range(1, outer + 1):
        kept = (1.0 - weight * math.sin(i * math.pi / (2 * outer)) ** 2 * s_n) ** inner
        absorbed += alive * (1.0 - kept)
        alive *= kept
        discarded += alive * p_detector
        alive *= 1.0 - p_detector
    return absorbed, discarded


def _coherent_cqz_absence_survival(outer: int) -> float:
    """Absent blocker: the inner gate routes the whole channel amplitude to
    the detector, so each outer cycle keeps cos of the design amplitude."""
    h = 1.0
    for _ in range(outer):
        h *= math.cos(math.pi / (2 * outer))
    return h * h


class TestCqzAbortKinds:
    # Every projection is diagonal in the absorber basis, so the coherent
    # law is the |a|^2 / |b|^2 mixture of the presence branch (absorptions
    # only) and the absence branch (discards only).
    @pytest.mark.parametrize("model", list(AbsorberModel))
    @pytest.mark.parametrize("outer,inner", [(5, 5), (4, 3)])
    def test_absorbed_and_discarded_frequencies(self, model, outer, inner):
        presence, absence = 0.6, 0.8
        weight = presence**2
        trials = 40_000
        if model is AbsorberModel.PER_CYCLE_BORN:
            absorbed, discarded = _born_cqz_oracle(weight, outer, inner)
        else:
            absorbed = weight * (1.0 - _coherent_cqz_oracle(outer, inner)[0])
            discarded = (1.0 - weight) * (1.0 - _coherent_cqz_absence_survival(outer))
        report = gate_statistics("cqz", (presence, absence), "V", inner, model, trials, 67, outer=outer)
        for observed, expected in ((report.absorbed, absorbed), (report.discarded, discarded)):
            se = math.sqrt(expected * (1 - expected) / trials)
            assert abs(observed / trials - expected) < 4 * se


def _assert_within_4_se(counts: np.ndarray, probs: np.ndarray, case: object) -> None:
    """Each row's sampled frequency within 4 SE of its probability.  Rows
    are pooled, smallest first, until each pool is expected at least 25
    times, so no pool's SE is too small for a count of one to break."""
    trials = int(counts.sum())
    pools, count, prob = [], 0, 0.0
    for i in np.argsort(probs):
        count, prob = count + int(counts[i]), prob + float(probs[i])
        if prob * trials >= 25:
            pools.append((count, prob))
            count, prob = 0, 0.0
    if count or prob:
        last_count, last_prob = pools.pop()
        pools.append((last_count + count, last_prob + prob))
    for count, prob in pools:
        se = math.sqrt(prob * (1.0 - prob) / trials)
        assert abs(count / trials - prob) <= 4 * se, (case, count, trials, prob)


class TestOutcomeTables:
    def test_probabilities_sum_to_one(self):
        for gate in ("qz", "cqz"):
            for model in AbsorberModel:
                for absorber in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8j), (ROOT_HALF, -ROOT_HALF)):
                    for polarization in ("H", "V"):
                        for outer, inner in ((1, 1), (2, 3), (5, 5), (40, 40)):
                            case = (gate, model, absorber, polarization, outer, inner)
                            outcomes, probs = zeno._gate_table(
                                absorber, polarization, outer if gate == "cqz" else None, inner, model
                            )
                            assert len(outcomes) == len(probs), case
                            assert np.all(probs > 0.0), case
                            assert abs(probs.sum() - 1.0) <= 1e-12, case
                            for outcome in outcomes:
                                absorbed = outcome.kind is OutcomeKind.ABSORBED_BY_ELECTRON
                                assert outcome.photon_entered_channel is absorbed, (case, outcome)
                                if outcome.kind is OutcomeKind.SUCCESS:
                                    assert outcome.final_state.is_normalized(1e-9), (case, outcome)

    @pytest.mark.parametrize("model", list(AbsorberModel))
    @pytest.mark.parametrize("cycles", [1, 2, 5, 40])
    def test_pure_absence_never_succeeds_where_impossible(self, model, cycles):
        # Without a blocker the single gate always flips, and one outer cycle
        # of the chained gate is a quarter turn that leaves nothing to exit.
        for outer in (None, 1):
            for polarization in ("H", "V"):
                outcomes, probs = zeno._gate_table((0.0, 1.0), polarization, outer, cycles, model)
                assert all(outcome.kind is not OutcomeKind.SUCCESS for outcome in outcomes), (outer, polarization)
                assert abs(probs.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("model", list(AbsorberModel))
    def test_sampled_records_equal_constructed_ones(self, model):
        # Each sampled record equals an outcome rebuilt from its fields.
        for absorber in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8j)):
            rng = np.random.default_rng(3)
            sampled = [*simulate_qz(absorber, "H", 5, model, rng, 2_000),
                       *simulate_cqz(absorber, "V", 4, 5, model, rng, 2_000)]
            for outcome, _ in sampled:
                fields = [getattr(outcome, field.name) for field in dataclasses.fields(outcome)]
                assert outcome == TrajectoryOutcome(*fields), (absorber, outcome)

    @pytest.mark.parametrize("outer", [None, 4])
    def test_an_unnormalized_success_state_is_refused(self, monkeypatch, outer):
        unnormalized = StateVector._trusted((2, 2), np.array([1.0, 1.0, 0.0, 0.0], dtype=np.complex128))
        monkeypatch.setattr(zeno, "_exit_state", lambda final: (0.5, unnormalized))
        gate = "qz" if outer is None else "cqz"
        with pytest.raises(ValueError, match="^Success outcomes must carry a normalized final state$"):
            gate_statistics(gate, (0.6, 0.8), "H", 5, AbsorberModel.COHERENT, 100, 1, outer=outer)

    def test_tables_do_not_use_the_closed_forms(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("outcome tables must come from the trajectory recursion")

        for name in ("qz_survival", "cqz_lambda0", "cqz_lambda1", "chained_survival", "_chained_factors", "_log_sums",
                     "_survival_power", "cepi_success", "coherent_qz_success",
                     "_power", "_sin_sq_table", "_cos_sq_pi", "_collapse_chain_losses"):
            # Where each closed form lives, and under its re-exported name.
            monkeypatch.setattr(stages, name, forbidden)
            if hasattr(zeno, name):
                monkeypatch.setattr(zeno, name, forbidden)
        for model in AbsorberModel:
            zeno._gate_table((0.6, 0.8), "H", None, 5, model)
            zeno._gate_table((0.6, 0.8), "H", 5, 5, model)

    def test_single_trajectory_views_draw_one_multinomial(self):
        # A campaign of any size reads exactly one multinomial draw over its
        # gate's outcome table, whose rows are all positive.
        for model in AbsorberModel:
            view, reference = np.random.default_rng(5), np.random.default_rng(5)
            for simulate, args, outer in ((simulate_qz, ((0.6, 0.8), "H", 5, model), None),
                                          (simulate_cqz, ((0.6, 0.8), "H", 5, 5, model), 5)):
                outcomes, probs = zeno._gate_table((0.6, 0.8), "H", outer, 5, model)
                for size in (1, 1_000):
                    counts = reference.multinomial(size, probs / probs.sum())
                    expected = [(outcome, count) for outcome, count in zip(outcomes, counts) if count]
                    assert simulate(*args, view, size) == expected, (model, outer, size)
            assert view.random() == reference.random()

    def test_size_tallies_the_single_trajectory_views(self):
        # A single-trajectory view (a campaign of size 1) lands on row i
        # with probability probs[i], and a campaign of size n tallies n
        # trials of that law: 2000 views on fresh seeds and one campaign of
        # 10**6 each sit within 4 SE of the table.
        for model in AbsorberModel:
            for simulate, args, table in ((simulate_qz, ((0.6, 0.8), "H", 5, model), ((0.6, 0.8), "H", None, 5, model)),
                                          (simulate_cqz, ((0.6, 0.8), "V", 4, 3, model), ((0.6, 0.8), "V", 4, 3, model))):
                outcomes, probs = zeno._gate_table(*table)
                rows = {outcome: i for i, outcome in enumerate(outcomes)}
                singles = np.zeros(len(outcomes), dtype=np.int64)
                for seed in range(2_000):
                    ((outcome, count),) = simulate(*args, np.random.default_rng(seed), 1)
                    singles[rows[outcome]] += count
                _assert_within_4_se(singles, probs, (table, "views"))
                tallied = np.zeros(len(outcomes), dtype=np.int64)
                for outcome, count in simulate(*args, np.random.default_rng(9), 10**6):
                    tallied[rows[outcome]] += count
                _assert_within_4_se(tallied, probs, (table, "campaign"))

    def test_nan_absorber_rejected(self):
        with pytest.raises(ValueError):
            gate_statistics("qz", (math.nan, 1.0), "H", 5, AbsorberModel.PER_CYCLE_BORN, 1000, 1)
        with pytest.raises(ValueError):
            gate_statistics("cqz", (1.0, complex(0.0, math.nan)), "H", 5, AbsorberModel.COHERENT, 1000, 1, outer=5)


class TestSameSeedBytes:
    def test_stage_probabilities_are_pinned(self):
        digest = hashlib.sha256("\n".join(_stage_documents()).encode()).hexdigest()
        assert digest == STAGE_DIGEST

    def test_monte_carlo_reports_are_pinned(self):
        documents = _monte_carlo_documents()
        assert len(documents) == 376
        digest = hashlib.sha256("\n".join(documents).encode()).hexdigest()
        assert digest == MONTE_CARLO_DIGEST

    def test_seeds_follow_the_integer_rule(self):
        # A numpy integer seed draws the Python int's stream and is stored as
        # that int, so its report is the same JSON; a bool or a negative seed
        # is refused, although default_rng takes True as 1.
        campaigns = (
            lambda seed: gate_statistics("qz", (0.6, 0.8), "H", 5, AbsorberModel.COHERENT, 500, seed).as_dict(),
            lambda seed: simulate_cct(CycleConfig(6, 6, 6), BALANCED, 500, seed).as_dict(),
            lambda seed: protocol.outcome_statistics(BALANCED, 500, seed),
        )
        for campaign in campaigns:
            assert json.dumps(campaign(np.int64(5))) == json.dumps(campaign(5))
            for seed in (True, -1, 5.0):
                with pytest.raises(ValueError, match="^seed must be a non-negative integer, got "):
                    campaign(seed)


class TestSimulateCct:
    def test_bell_zero_weight_never_aborts(self):
        inp = BellInput(0, 1, 1.0, 0.0, EulerAngles(0.7, 1.9, 0.2))
        report = simulate_cct(CycleConfig(3, 3, 3), inp, 2_000, 51)
        assert report.successes == report.trials
        assert report.abort_rate_estimate == 0.0
        assert report.conditional_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_general_abort_rate_matches_mean_zeta(self):
        cfg = CycleConfig(25, 25, 25)
        trials = 40_000
        report = simulate_cct(cfg, BALANCED, trials, 53)
        probs = stage_probabilities_general(cfg, BALANCED)
        expected = (probs["zeta0"] + probs["zeta1"]) / 2.0
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(report.abort_rate_estimate - expected) < 4 * se
        assert report.successes + report.absorbed + report.discarded == trials
        assert report.conditional_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_bell_abort_rate_matches_zeta(self):
        cfg = CycleConfig(10, 10, 10)
        inp = BellInput(1, -1, 0.6, 0.8, EulerAngles(0.4, 2.0, 1.3))
        trials = 40_000
        report = simulate_cct(cfg, inp, trials, 59)
        expected = stage_probabilities_bell(cfg, inp)["zeta"]
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(report.abort_rate_estimate - expected) < 4 * se

    def test_a_sabotaged_gate_lowers_the_fidelity_after_a_clean_run(self):
        # The protocol runs behind the success fidelity go through the gate
        # constructors on every call, so a corrupted one shows at once.
        cfg = CycleConfig(6, 6, 6)
        clean = simulate_cct(cfg, BALANCED, 2_000, 3)
        with checks._sabotaged_gate("q1"):
            sabotaged = simulate_cct(cfg, BALANCED, 2_000, 3)
        assert sabotaged.conditional_fidelity < clean.conditional_fidelity - 0.01
        assert simulate_cct(cfg, BALANCED, 2_000, 3) == clean

    def test_the_outcome_table_carries_the_analytic_abort_rate(self):
        # Without sampling: the table's abort mass is p0 zeta0 + (1 - p0)
        # zeta1 for the general protocol and zeta for the Bell-type one, and
        # the controlled-z stage acts on the m = 1 branch only.
        rng = np.random.default_rng(2718)
        for i in range(300):
            cfg = CycleConfig(*(int(c) for c in rng.integers(1, 200, 3)))
            if i % 2:
                inp = protocol.random_general_input(rng)
                p0 = protocol.run_general_branches(inp)[0]
                values = stage_probabilities_general(cfg, inp)
                zeta0, zeta1 = values["zeta0"], values["zeta1"]
                expected, branches, controlled_z = p0 * zeta0 + (1.0 - p0) * zeta1, {0, 1}, {1}
            else:
                inp = protocol.random_bell_input(rng)
                expected, branches, controlled_z = stage_probabilities_bell(cfg, inp)["zeta"], {None}, {None}
            rows, probs = zeno._cct_table(cfg, inp)
            abort = sum(p for (_, _, kind, _), p in zip(rows, probs) if kind is not OutcomeKind.SUCCESS)
            assert abs(abort - expected) <= 1e-15, (cfg, inp, abort, expected)
            assert {m for m, _, _, _ in rows} == branches
            assert {m for m, stage, _, _ in rows if stage == "controlled-z"} == controlled_z

    def test_one_trial_lands_on_each_row_with_its_probability(self):
        # A one-trial campaign on fresh seeds lands on row i of the outcome
        # table with probability probs[i], for both protocols.
        for cfg, inp in ((CycleConfig(4, 5, 3), GeneralInput(0.6, 0.8j, 0.8, 0.6, EulerAngles(0.2, 1.3, 0.4))),
                         (CycleConfig(4, 5, 3), BellInput(1, -1, 0.6, 0.8, EulerAngles(0.4, 2.0, 1.3)))):
            table = zeno._cct_table(cfg, inp)
            counts = np.zeros(len(table[0]), dtype=np.int64)
            for seed in range(5_000):
                ((row, count),) = zeno._sample(table, np.random.default_rng(seed), 1)
                counts[table[0].index(row)] += count
            _assert_within_4_se(counts, table[1], (cfg, inp))

    @pytest.mark.parametrize("mode", ["general", "bell"])
    def test_a_campaign_of_10_to_the_8_trials_matches_the_abort_rate(self, mode):
        # examples.json, whose outcome m is 0 or 1 with probability 1/2, and
        # its Bell-type counterpart; one draw makes 10**8 trials affordable.
        config = cli.load_config(Path(__file__).resolve().parents[1] / "examples.json")
        cfg, inp = config.cycles, config.protocol_input
        if mode == "general":
            assert protocol.run_general_branches(inp)[0] == pytest.approx(0.5, abs=1e-12)
            values = stage_probabilities_general(cfg, inp)
            expected = (values["zeta0"] + values["zeta1"]) / 2.0
        else:
            inp = BellInput(1, -1, 0.6, 0.8j, EulerAngles(0.4, 2.0, 1.3))
            expected = stage_probabilities_bell(cfg, inp)["zeta"]
        trials = 10**8
        report = simulate_cct(cfg, inp, trials, config.seed)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(report.abort_rate_estimate - expected) < 4 * se

    def test_seeded_reproducibility(self):
        cfg = CycleConfig(8, 8, 8)
        first = simulate_cct(cfg, BALANCED, 5_000, 61)
        second = simulate_cct(cfg, BALANCED, 5_000, 61)
        assert first == second

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            simulate_cct(CycleConfig(2, 2, 2), BALANCED, 0, 1)

    @pytest.mark.parametrize(
        "cfg,inp,seed,n_stages,counts",
        [
            (CycleConfig(6, 6, 6), BALANCED, 73, 4, (736, 3486, 778)),
            (CycleConfig(150, 150, 5), GeneralInput(0.6, 0.8j, 0.8, 0.6, EulerAngles(0.2, 1.3, 0.4)), 74, 4, (1854, 3111, 35)),
            (CycleConfig(6, 6, 6), BellInput(1, -1, 0.6, 0.8, EulerAngles(0.4, 2.0, 1.3)), 79, 2, (1642, 3255, 103)),
            (CycleConfig(5, 2400, 7), BellInput(0, 1, 0.8, 0.6, EulerAngles(0.4, 2.0, 1.3)), 80, 2, (4082, 410, 508)),
        ],
    )
    def test_each_chained_stage_evaluated_once(self, monkeypatch, cfg, inp, seed, n_stages, counts):
        # One factor pair per chained stage (lambda2, lambda4, lambda5 or
        # lambda7), one pass per outer cycle count and one call for the
        # config: the general protocol takes lambda2 and lambda4 at M cycles
        # and lambda5 at 2M, the Bell-type one lambda7 at M.  With the one
        # collapse chain (lambda3 or lambda6), that is one evaluation per
        # stage the protocol runs, and no other.
        # The (successes, absorbed, discarded) counts were recorded when the
        # counts became one multinomial draw.
        calls, chains = [], []
        original, original_chain = stages._chained_factors, stages.dcfo_success

        def counting(outer, inners, passes):
            assert (outer, tuple(inners)) == (cfg.M, (cfg.N,))
            calls.append([len(weights) for _, weights in passes])
            return original(outer, inners, passes)

        def counting_chain(chain, inner, nabla):
            chains.append((chain, inner))
            return original_chain(chain, inner, nabla)

        monkeypatch.setattr(stages, "_chained_factors", counting)
        monkeypatch.setattr(stages, "dcfo_success", counting_chain)
        report = simulate_cct(cfg, inp, 5_000, seed)
        assert calls == ([[2, 1]] if isinstance(inp, GeneralInput) else [[1]])
        assert chains == [(cfg.K, cfg.N)]
        assert sum(calls[0]) + len(chains) == n_stages
        assert (report.successes, report.absorbed, report.discarded) == counts
        assert report.conditional_fidelity == pytest.approx(1.0, abs=1e-12)


class TestModelConvergence:
    def test_gap_shrinks_with_cycle_count(self):
        gap10 = abs(coherent_qz_success(10, 0.5) - cepi_success(10, 0.5))
        gap200 = abs(coherent_qz_success(200, 0.5) - cepi_success(200, 0.5))
        assert gap200 < gap10

    def test_report_counts_validated(self):
        # Every construction checks the counts, _report's tally included.
        for counts in ((10, 5, 2, 2), (6, 4, 2, 1)):
            with pytest.raises(ValueError, match="^outcome counts must sum to the number of trials$"):
                MonteCarloReport(*counts, 0.5, 0.1, None, 0)


class TestTalliedReport:
    @staticmethod
    def _reports():
        yield zeno._report([(OutcomeKind.SUCCESS, 0.75, 3), (OutcomeKind.ABSORBED_BY_ELECTRON, None, 2),
                            (OutcomeKind.DISCARDED_AT_DETECTOR, None, 1), (OutcomeKind.SUCCESS, 1.0, 1)], 9)
        yield zeno._report([(OutcomeKind.ABSORBED_BY_ELECTRON, None, 4)], 0)
        yield gate_statistics("cqz", (0.6, 0.8), "H", 5, AbsorberModel.COHERENT, 500, 3, outer=4,
                              expected_success_state=StateVector.basis((2, 2), (1, 0)))
        yield simulate_cct(CycleConfig(6, 6, 6), BALANCED, 500, 5)

    def test_the_tally_builds_the_public_record(self):
        # The public constructor given the same fields builds an equal,
        # equally printed and equally encoded report.
        for report in self._reports():
            public = MonteCarloReport(**{f.name: getattr(report, f.name) for f in dataclasses.fields(MonteCarloReport)})
            assert report == public and hash(report) == hash(public)
            assert repr(report) == repr(public)
            assert report.as_dict() == public.as_dict()
            assert json.dumps(report.as_dict()) == json.dumps(public.as_dict())

    def test_the_tallied_fields(self):
        report = next(self._reports())
        abort = 1.0 - 4 / 7
        assert report == MonteCarloReport(7, 4, 2, 1, abort, math.sqrt(abort * (1.0 - abort) / 7), (3 * 0.75 + 1.0) / 4, 9)

    def test_the_tallied_record_is_frozen(self):
        for report in self._reports():
            for name in ("trials", "successes", "conditional_fidelity", "seed"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(report, name, 1)


class TestRecordConstructors:
    # Each record checks its fields in a hand-written __init__ and fills the
    # frozen fields itself; the dataclass contract must survive that.
    SUCCESS = TrajectoryOutcome(OutcomeKind.SUCCESS, "qz:exit", 5, StateVector.basis((2, 2), (1, 0)))
    RECORDS = (
        TrajectoryOutcome(OutcomeKind.ABSORBED_BY_ELECTRON, "cqz:channel", 3, None),
        MonteCarloReport(7, 4, 2, 1, 3 / 7, 0.1, 0.9, 9),
        CycleConfig(25, 600, 25),
    )
    FIELDS = {
        TrajectoryOutcome: ["kind", "stage", "cycle_index", "final_state"],
        MonteCarloReport: ["trials", "successes", "absorbed", "discarded", "abort_rate_estimate", "standard_error",
                           "conditional_fidelity", "seed"],
        CycleConfig: ["M", "N", "K"],
    }

    def test_replace_still_validates(self):
        outcome, report, cfg = self.RECORDS
        assert dataclasses.replace(self.SUCCESS, cycle_index=6).cycle_index == 6
        with pytest.raises(ValueError, match="^Success outcomes must carry a normalized final state$"):
            dataclasses.replace(self.SUCCESS, final_state=None)
        with pytest.raises(ValueError, match="^Success outcomes must carry a normalized final state$"):
            dataclasses.replace(outcome, kind=OutcomeKind.SUCCESS)
        assert dataclasses.replace(report, absorbed=1, discarded=2) == MonteCarloReport(7, 4, 1, 2, 3 / 7, 0.1, 0.9, 9)
        with pytest.raises(ValueError, match="^outcome counts must sum to the number of trials$"):
            dataclasses.replace(report, absorbed=3)
        with pytest.raises(ValueError, match="^outcome counts must sum to the number of trials$"):
            dataclasses.replace(report, trials=8)
        with pytest.raises(ValueError, match="^cycle count M must be a positive integer, got 0$"):
            dataclasses.replace(cfg, M=0)
        replaced = dataclasses.replace(cfg, N=np.int64(7))
        assert replaced == CycleConfig(25, 7, 25) and type(replaced.N) is int

    def test_cycle_counts_are_checked_in_order(self):
        # M, N, K: the first bad count is the one named.
        with pytest.raises(ValueError, match="^cycle count M must be a positive integer, got 0$"):
            CycleConfig(0, 0, 0)
        with pytest.raises(ValueError, match="^cycle count N must be a positive integer, got 2.0$"):
            CycleConfig(1, 2.0, True)
        with pytest.raises(ValueError, match="^cycle count K must be a positive integer, got True$"):
            CycleConfig(np.uint16(1), 1, True)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ((1, 2, -1, 0, -1.0, 0.0, None, 0), "absorbed must be an integer >= 0, got -1"),
            ((0, 0, 0, 0, 0.0, 0.0, None, 0), "trials must be an integer >= 1, got 0"),
            ((2.0, 1.0, 1.0, 0, 0.5, 0.3, None, 0), "trials must be an integer >= 1, got 2.0"),
            ((2, 1.0, 1, 0, 0.5, 0.3, None, 0), "successes must be an integer >= 0, got 1.0"),
            ((2, 1, 1, False, 0.5, 0.3, None, 0), "discarded must be an integer >= 0, got False"),
            ((2, 1, 1, 0, 0.5, 0.3, None, -1), "seed must be a non-negative integer, got -1"),
            ((2, 1, 1, 0, 0.5, 0.3, None, True), "seed must be a non-negative integer, got True"),
            ((2, 1, 0, 0, 0.5, 0.3, None, 0), "outcome counts must sum to the number of trials"),
        ],
        ids=repr,
    )
    def test_a_report_refuses_bad_counts_and_seeds(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MonteCarloReport(*fields)

    def test_a_report_takes_numpy_counts_and_stores_a_python_seed(self):
        report = MonteCarloReport(np.int64(2), np.int64(1), 1, np.uint8(0), 0.5, 0.3, None, np.int64(9))
        assert report == MonteCarloReport(2, 1, 1, 0, 0.5, 0.3, None, 9) and type(report.seed) is int

    @pytest.mark.parametrize("kind", ["success", "absorbed_by_electron", None, 1], ids=repr)
    def test_an_outcome_kind_must_be_an_outcome_kind(self, kind):
        with pytest.raises(ValueError, match=f"^kind must be an OutcomeKind, got {re.escape(repr(kind))}$"):
            TrajectoryOutcome(kind, "x", -3, None)

    def test_a_cycle_count_above_two_to_the_52_is_refused(self):
        assert CycleConfig(2**52, 1, 2**52).M == 2**52
        for count in (2**52 + 1, np.uint64(2**52 + 1), 10**400):
            with pytest.raises(ValueError, match=re.escape(f"cycle count N must be at most 2**52, got {count!r}")):
                CycleConfig(1, count, 1)
        with pytest.raises(ValueError, match="^cycle count K must be a positive integer, got 0$"):
            CycleConfig(1, 1, 0)

    @pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
    def test_keywords_and_signature(self, record):
        cls = type(record)
        names = self.FIELDS[cls]
        assert [field.name for field in dataclasses.fields(cls)] == names
        assert list(inspect.signature(cls).parameters) == names
        kwargs = {name: getattr(record, name) for name in reversed(names)}
        assert cls(**kwargs) == record
        assert cls(*(getattr(record, name) for name in names)) == record

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
                             ids=["deepcopy", "pickle"])
    @pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
    def test_copies_are_equal_and_frozen(self, copier, record):
        twin = copier(record)
        assert twin is not record and type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
        for name in self.FIELDS[type(record)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(twin, name, getattr(record, name))

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
                             ids=["deepcopy", "pickle"])
    def test_a_copied_success_equals_the_original(self, copier):
        # States compare and hash by value, so a Success holding a copy of
        # the state equals the original.
        twin = copier(self.SUCCESS)
        assert twin.final_state is not self.SUCCESS.final_state
        assert twin == self.SUCCESS and hash(twin) == hash(self.SUCCESS) and repr(twin) == repr(self.SUCCESS)
        assert not twin.final_state.amps.flags.writeable


class TestTrialCountRule:
    @staticmethod
    def _campaigns(trials):
        rng = np.random.default_rng(1)
        return [
            lambda: gate_statistics("qz", (0.6, 0.8), "H", 3, AbsorberModel.COHERENT, trials, 1),
            lambda: gate_statistics("cqz", (0.6, 0.8), "H", 3, AbsorberModel.PER_CYCLE_BORN, trials, 1, outer=2),
            lambda: simulate_cct(CycleConfig(2, 2, 2), BALANCED, trials, 1),
            lambda: simulate_cct(CycleConfig(2, 2, 2), BellInput(1, 1, 0.6, 0.8, EulerAngles(0.4, 2.0, 1.3)), trials, 1),
            lambda: protocol.outcome_statistics(BALANCED, trials, 1),
            lambda: simulate_qz((0.6, 0.8), "H", 3, AbsorberModel.COHERENT, rng, trials),
            lambda: simulate_cqz((0.6, 0.8), "V", 2, 3, AbsorberModel.COHERENT, rng, size=trials),
            lambda: hilbert.sample_counts((0.5, 0.5), trials, rng),
        ]

    @pytest.mark.parametrize("trials", [True, False, 2.5, 3.0, np.float64(4.0), 0, -3, np.int64(0)], ids=repr)
    def test_every_campaign_rejects_a_bad_count(self, trials):
        for campaign in self._campaigns(trials):
            with pytest.raises(ValueError, match="trials"):
                campaign()

    def test_none_is_not_a_trial_count(self):
        # A campaign given trials=None used to sample one trajectory and fail
        # on unpacking it; every sampler now rejects it by the one rule.
        campaigns = self._campaigns(None)
        assert len(campaigns) == 8
        for campaign in campaigns:
            with pytest.raises(ValueError, match="^trials must be an integer >= 1, got None$"):
                campaign()

    def test_every_campaign_refuses_a_count_past_int64(self):
        # One multinomial draw takes at most 2**63 - 1 trials, which every
        # campaign runs; a larger count is refused by name.
        for trials in (2**63, np.uint64(2**63), 10**23):
            for campaign in self._campaigns(trials):
                with pytest.raises(ValueError, match=r"^trials: must be at most 2\*\*63 - 1, got "):
                    campaign()
        for campaign in self._campaigns(2**63 - 1):
            campaign()

    @pytest.mark.parametrize("trials", [np.int64(300), np.int32(300), np.uint16(300)], ids=repr)
    def test_numpy_integer_counts_match_python_ints(self, trials):
        for numpy_count, python_count in zip(self._campaigns(trials), self._campaigns(300)):
            result, reference = numpy_count(), python_count()
            if isinstance(reference, MonteCarloReport):
                assert json.dumps(result.as_dict()) == json.dumps(reference.as_dict())
            elif isinstance(reference, list) and isinstance(reference[0], tuple):
                assert [(o.kind, o.cycle_index, n) for o, n in result] == [(o.kind, o.cycle_index, n) for o, n in reference]
            else:
                assert result == reference


class TestGateStatisticsValidation:
    def test_single_gate_refuses_an_outer_count(self):
        with pytest.raises(ValueError, match="outer"):
            gate_statistics("qz", (1.0, 0.0), "H", 2, AbsorberModel.COHERENT, 10, 1, outer=7)

    def test_unknown_gate(self, rng):
        with pytest.raises(ValueError):
            gate_statistics("mzi", (1.0, 0.0), "H", 2, AbsorberModel.COHERENT, 10, 1)

    def test_chained_gate_needs_outer(self):
        with pytest.raises(ValueError):
            gate_statistics("cqz", (1.0, 0.0), "H", 2, AbsorberModel.COHERENT, 10, 1)

    @pytest.mark.parametrize("model", ["per_cycle_born", "coherent", None, 1])
    def test_model_must_be_an_absorber_model(self, model):
        # Anything else used to run the coherent table silently.
        with pytest.raises(ValueError, match="model must be an AbsorberModel"):
            gate_statistics("qz", (0.6, 0.8), "H", 5, model, 2_000, 1)
        with pytest.raises(ValueError, match="model must be an AbsorberModel"):
            gate_statistics("cqz", (0.6, 0.8), "H", 5, model, 2_000, 1, outer=5)

    def test_each_model_runs_its_own_table(self):
        reports = {model: gate_statistics("qz", (0.6, 0.8), "H", 5, model, 2_000, 1) for model in AbsorberModel}
        counts = {model: (report.successes, report.absorbed) for model, report in reports.items()}
        assert counts == {AbsorberModel.COHERENT: (435, 1565), AbsorberModel.PER_CYCLE_BORN: (591, 1409)}

    @pytest.mark.parametrize("polarization", ["D", "h", ["H"], ("H",), None, 0], ids=repr)
    def test_polarization_must_be_h_or_v(self, polarization):
        # A list used to fail the polarization lookup with "unhashable type".
        message = f"^polarization must be 'H' or 'V', got {re.escape(repr(polarization))}$"
        for gate, outer in (("qz", None), ("cqz", 5)):
            with pytest.raises(ValueError, match=message):
                gate_statistics(gate, (1.0, 0.0), polarization, 5, AbsorberModel.COHERENT, 10, 1, outer=outer)

    def test_the_tally_refuses_an_unknown_kind(self):
        with pytest.raises(ValueError, match="not an OutcomeKind"):
            zeno._report([(OutcomeKind.SUCCESS, None, 2), ("success", None, 1)], 1)
