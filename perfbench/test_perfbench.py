"""Tests of the benchmark itself: oracles, drift correction, checks, tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import kernel  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TestOraclePins:
    def test_qz_survival_quarter_turn(self):
        assert oracles.qz_coherent(1.0, 2)[0] == 0.25

    def test_lambda1_two_by_two(self):
        outer, inner = oracles.chained_factors(2, 2, 0.0, 1.0)
        assert float(outer) == 1.0
        assert float(inner) == 9.0 / 64.0

    def test_cepi_half_weight(self):
        assert oracles.qz_born(0.5, 2) == (0.28125, 0.71875, 0.0)

    def test_coherent_cqz_branch_resolved(self):
        success, absorbed, discarded = oracles.cqz_coherent(0.5, 5, 5)
        assert success == pytest.approx(0.47311, abs=5e-6)
        assert success + absorbed + discarded == pytest.approx(1.0, abs=1e-15)

    def test_outcome_laws_sum_to_one(self):
        for law in (
            oracles.cqz_born(0.3, 7, 4),
            oracles.cct_general(6, 5, 4, 0.6, 0.8j, 0.8, 0.6, 1.1),
            oracles.cct_bell(6, 5, 4, 0, 0.6, 0.8, 1.1),
        ):
            assert sum(law) == pytest.approx(1.0, abs=1e-15)
            assert min(law) > 0.0

    def test_zeta_is_one_minus_lambda_product(self):
        lam2, lam3, lam4, lam5, zeta0, zeta1 = oracles.general_row(5, 6, 7, 0.6, 0.8, 0.8, 0.6j, 0.9)
        assert float(zeta0) == pytest.approx(1 - float(lam2 * lam3 * lam4), abs=1e-15)
        assert float(zeta1) == pytest.approx(1 - float(lam2 * lam3 * lam4 * lam5), abs=1e-15)


class TestControlledUnitary:
    def test_outcome_one_negates_theta(self):
        args = (0.6, 0.8j, 0.28, 0.96, 0.3, 1.2, 0.7)
        m1 = oracles.general_expected(*args, 1)
        flipped = oracles.general_expected(*args[:5], -1.2, 0.7, 0)
        assert oracles.overlap(m1, flipped) == pytest.approx(1.0, abs=1e-15)

    def test_control_zero_leaves_target_alone(self):
        out = oracles.general_expected(0.6, 0.8, 1.0, 0.0, 0.3, 1.2, 0.7, 0)
        assert np.allclose(out, [0.6, 0.0, 0.8, 0.0])

    def test_zyz_is_unitary_with_unit_determinant(self):
        u = oracles.euler_zyz(0.3, 1.2, 0.7)
        assert np.allclose(u.conj().T @ u, np.eye(2))
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


class TestDriftCorrection:
    def test_scripted_drift_is_removed(self):
        # The machine slows down by up to 2x and back; a fixed operation
        # costs 7 kernel-times at every moment.
        speed = [1.0 + math.sin(i / 80.0) ** 2 for i in range(401)]
        kernels = [kernel.NOMINAL_S * s for s in speed]
        raw = [7 * kernel.NOMINAL_S * (speed[i] + speed[i + 1]) / 2 for i in range(400)]
        local = run.local_kernel_times(kernels)
        corrected = [t * kernel.NOMINAL_S / k for t, k in zip(raw, local)]
        assert max(raw) / min(raw) > 1.9
        assert max(corrected) / min(corrected) < 1.03
        assert statistics.median(corrected) == pytest.approx(7 * kernel.NOMINAL_S, rel=0.01)

    def test_live_slowdown_moves_raw_not_corrected(self):
        """A line tracer slows the interpreter down; corrected times hold.

        The synthetic operation mixes the kernel's two kinds of work in other
        proportions, so the kernel has to stand in for it, not replicate it.
        """
        block = np.arange(6, dtype=np.complex128) / 10

        def synthetic():
            total = 0.0
            pairs = []
            for i in range(1, 300):
                total += math.sqrt(i) * math.atan(1.0 / i)
                pairs.append((total, complex(i, total)))
            for _ in range(25):
                total += float(np.vdot(np.kron(block, block[:2]), np.kron(block[:2], block)).real)
            return total

        def measure(seconds: float):
            kernels = [kernel.reference_kernel()]
            raw = []
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                start = time.perf_counter()
                synthetic()
                raw.append(time.perf_counter() - start)
                kernels.append(kernel.reference_kernel())
            local = run.local_kernel_times(kernels)
            return statistics.median(raw), statistics.median(t * kernel.NOMINAL_S / k for t, k in zip(raw, local))

        def line_tracer(frame, event, arg):
            return line_tracer

        quiet_raw, quiet_corrected = measure(1.0)
        sys.settrace(line_tracer)
        try:
            slow_raw, slow_corrected = measure(1.0)
        finally:
            sys.settrace(None)
        assert slow_raw / quiet_raw > 1.5
        assert 0.75 < slow_corrected / quiet_corrected < 1.33


def _first_op(workload_cls, tmp_path, seed=3):
    w = workload_cls(seed, tmp_path)
    w.setup()
    w.references()
    args = w.prepare(0)
    return w, args, w.run(args)


class TestWorkloadChecks:
    def test_protocol_random_passes_and_catches_a_wrong_output(self, tmp_path):
        w, inputs, out = _first_op(workloads.ProtocolRandom, tmp_path)
        assert w.check(0, inputs, out)
        transcript, report = out[0]
        wrong = type(transcript)(**{**vars(transcript), "psi6m": transcript.psi1.__class__((2, 2), [1, 0, 0, 0])})
        assert not w.check(0, inputs, [(wrong, report)] + out[1:])

    def test_protocol_random_inputs_follow_the_seed(self, tmp_path):
        a, b = workloads.ProtocolRandom(5, tmp_path), workloads.ProtocolRandom(5, tmp_path)
        a.setup()
        b.setup()
        ops_a = [a.prepare(i) for i in range(4)]
        assert ops_a == [b.prepare(i) for i in range(4)]
        inputs = [inp for op in ops_a for inp in op]
        assert len({inp.angles for inp in inputs}) == len(inputs)

    def test_mc_campaigns_counts_and_statistics(self, tmp_path):
        w, campaigns, out = _first_op(workloads.McCampaigns, tmp_path)
        assert w.check(0, campaigns, out)
        assert w.finish(1)
        kind, trials, _ = campaigns[1]
        assert w._counts(kind, trials + 1, out[1]) is None

    def test_mc_campaigns_rejects_a_biased_frequency(self, tmp_path):
        w, campaigns, out = _first_op(workloads.McCampaigns, tmp_path)
        w.check(0, campaigns, out)
        w.totals["qz-born"][:2] = (w.trials["qz-born"], 0)
        assert not w.finish(1)

    def test_cycle_sweep_matches_mpmath_and_catches_a_changed_digit(self, tmp_path):
        w, calls, codes = _first_op(workloads.CycleSweep, tmp_path)
        assert w.check(0, calls, codes)
        mode, axis, path, _ = calls[-1]
        lines = path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[2] = repr(float(cells[2]) * (1 + 1e-6))
        path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
        assert not w._check_table(mode, axis, path)


class TestTracer:
    def test_spans_nest_and_wrappers_come_off(self, tmp_path):
        from cctsim import cli, gates, protocol, zeno

        originals = (protocol.apply, gates.v1, zeno.simulate_qz, cli.main)
        w, campaigns, _ = _first_op(workloads.McCampaigns, tmp_path)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            w.run(campaigns)
        finally:
            tracer.uninstall()
        assert (protocol.apply, gates.v1, zeno.simulate_qz, cli.main) == originals
        metrics = tracer.layer_metrics(w.ITEMS_PER_OP, 0, 1.0)
        assert metrics["zeno.traj.cqz-coherent.us_per_trial"] > 0.0
        assert metrics["protocol.outcome_statistics.us_per_trial"] > 0.0
        assert metrics["cli.main.self_ms"] == 0.0
        for row in tracer.stats:
            assert 0.0 <= row[2] <= row[1] + 1e-9
        parents = tracer.span_parent.tolist()
        for i, parent in enumerate(parents):
            if parent >= 0:
                assert tracer.span_start[parent] <= tracer.span_start[i] <= tracer.span_end[i] <= tracer.span_end[parent]
        tracer.write(tmp_path / "trace.json", {"workload": "test"})
        assert (tmp_path / "trace.json").stat().st_size > 0
