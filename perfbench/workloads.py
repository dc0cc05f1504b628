"""The benchmark's three workloads.

Each workload builds its inputs from the run's seed and hands the program
only those inputs.  The benchmark loop calls ``prepare(i)`` (untimed),
``run(args)`` (timed: one operation, the same amount of work every time),
then ``check(i, args, out)`` (untimed) against references computed apart
from cctsim in ``oracles``.  ``finish()`` runs the checks that need a whole
run's outputs.  cctsim is imported in ``setup`` so that import counts as
set-up time, and every call goes through a module attribute so a tracer can
wrap it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracles

# Output fidelity against the benchmark's own controlled-U_m.
FIDELITY_FLOOR = 1.0 - 1e-10
# Outcome weights and ancilla leakage.
WEIGHT_TOL = 1e-12


def _amplitude_pair(rng: np.random.Generator, weight: float | None = None) -> tuple[complex, complex]:
    """(sqrt(w) e^{ia}, sqrt(1-w) e^{ib}) with random phases; w uniform unless given."""
    if weight is None:
        weight = rng.uniform(0.0, 1.0)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return (
        complex(math.sqrt(weight) * complex(math.cos(phases[0]), math.sin(phases[0]))),
        complex(math.sqrt(1.0 - weight) * complex(math.cos(phases[1]), math.sin(phases[1]))),
    )


def _angles(rng: np.random.Generator) -> tuple[float, float, float]:
    phi, theta, varphi = rng.uniform(0.0, 2.0 * math.pi, size=3)
    return float(phi), float(theta), float(varphi)


def _general_input(protocol, rng: np.random.Generator):
    alpha, beta = _amplitude_pair(rng)
    gamma, delta = _amplitude_pair(rng)
    return protocol.GeneralInput(alpha, beta, gamma, delta, protocol.EulerAngles(*_angles(rng)))


def _bell_input(protocol, rng: np.random.Generator):
    c0, c1 = _amplitude_pair(rng)
    ell, sign = int(rng.integers(0, 2)), int(rng.choice((1, -1)))
    return protocol.BellInput(ell, sign, c0, c1, protocol.EulerAngles(*_angles(rng)))


class ProtocolRandom:
    """A seeded stream of distinct random inputs, alternating general and Bell-type.

    Each input goes through run+verify, on the distinct-angle (cache-miss)
    path of ``gates``.  Inputs are drawn between operations and dropped
    after their check, so memory grows only inside cctsim.  Every run
    processes TOTAL_INPUTS distinct inputs: what the timed loop leaves over
    runs untimed afterwards, so ``peak_rss_mb`` measures the same input
    count whatever the speed.
    """

    name = "protocol-random"
    ITEMS_PER_OP = 16
    TOTAL_INPUTS = 32_768

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        from cctsim import protocol

        self.protocol = protocol
        self._stream = np.random.default_rng([self.seed, 1])
        self._outcomes = np.random.default_rng([self.seed, 2])
        warmup = np.random.default_rng([self.seed, 3])
        self.run(self._draw(warmup))

    def _draw(self, rng: np.random.Generator) -> list:
        protocol = self.protocol
        return [
            (_general_input if k % 2 == 0 else _bell_input)(protocol, rng) for k in range(self.ITEMS_PER_OP)
        ]

    def references(self) -> None:
        pass

    def prepare(self, i: int):
        """Inputs of operation i; operations must be prepared in order."""
        return self._draw(self._stream)

    def run(self, inputs):
        protocol = self.protocol
        out = []
        for inp in inputs:
            if isinstance(inp, protocol.GeneralInput):
                transcript = protocol.run_general(inp, self._outcomes)
                out.append((transcript, protocol.verify_general(transcript, inp)))
            else:
                transcript = protocol.run_bell(inp)
                out.append((transcript, protocol.verify_bell(transcript, inp)))
        return out

    def check(self, i: int, inputs, out) -> bool:
        return all(self._check_one(inp, transcript, report) for inp, (transcript, report) in zip(inputs, out))

    def _check_one(self, inp, transcript, report) -> bool:
        a = inp.angles
        if isinstance(inp, self.protocol.GeneralInput):
            m = transcript.outcome
            expected = oracles.general_expected(inp.alpha, inp.beta, inp.gamma, inp.delta, a.phi, a.theta, a.varphi, m)
            balanced = abs(transcript.outcome_probability - 0.5) <= WEIGHT_TOL
        else:
            expected = oracles.bell_expected(inp.ell, inp.sign, inp.c0, inp.c1, a.phi, a.theta, a.varphi)
            ancilla = transcript.final_abc.amps.reshape(2, 2, 2)
            balanced = float(np.sum(np.abs(ancilla[:, :, 1]) ** 2)) <= WEIGHT_TOL
        return report.passed and balanced and oracles.overlap(transcript.psi6m.amps, expected) >= FIDELITY_FLOOR

    def finish(self, ops: int) -> bool:
        """Run, untimed, the inputs the timed loop did not reach."""
        ok = True
        for i in range(ops, self.TOTAL_INPUTS // self.ITEMS_PER_OP):
            inputs = self.prepare(i)
            ok = self.check(i, inputs, self.run(inputs)) and ok
        return ok


class McCampaigns:
    """Seeded repeated-trial campaigns on fixed inputs.

    One operation runs one campaign of every type below, each sized to a
    similar share of the time, with a seed drawn from (run seed, op index).
    The fixed inputs make the protocol calls inside ``simulate_cct`` and
    ``outcome_statistics`` repeat, so ``gates`` serves them from its caches.
    The seed sets the phases, phi, varphi, the Bell class and sign and the
    polarization; the moduli and theta set how long trajectories last, so
    they are fixed and every run does the same expected work.
    """

    name = "mc-campaigns"
    # (kind, trials); gate kinds are gate-model.
    CAMPAIGNS = (
        ("outcome_statistics", 12),
        ("qz-born", 100),
        ("qz-coherent", 36),
        ("cqz-born", 50),
        ("cqz-coherent", 10),
        ("cct-general", 100),
        ("cct-bell", 150),
    )
    ITEMS_PER_OP = sum(trials for _, trials in CAMPAIGNS)
    QZ_INNER = 5
    CQZ_OUTER, CQZ_INNER = 5, 5
    CCT_CYCLES = (10, 10, 10)
    THETA = 1.2
    # Statistics are checked on the first CHECKED_OPS operations only, so a
    # seed's verdict does not depend on how fast the run went.
    CHECKED_OPS = 100
    SE_LIMIT = 4.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.totals = {kind: np.zeros(3, dtype=np.int64) for kind, _ in self.CAMPAIGNS}
        self.trials = dict.fromkeys(self.totals, 0)

    def setup(self) -> None:
        from cctsim import protocol, zeno

        self.protocol, self.zeno = protocol, zeno
        rng = np.random.default_rng([self.seed, 1])
        alpha, beta = _amplitude_pair(rng, 0.36)
        gamma, delta = _amplitude_pair(rng, 0.5)
        phi, _, varphi = _angles(rng)
        self.general = protocol.GeneralInput(alpha, beta, gamma, delta, protocol.EulerAngles(phi, self.THETA, varphi))
        c0, c1 = _amplitude_pair(rng, 0.5)
        ell, sign = int(rng.integers(0, 2)), int(rng.choice((1, -1)))
        self.bell = protocol.BellInput(ell, sign, c0, c1, protocol.EulerAngles(varphi, self.THETA, phi))
        self.absorber = _amplitude_pair(rng, 0.5)
        self.polarization = "H" if rng.random() < 0.5 else "V"
        self.cycles = zeno.CycleConfig(*self.CCT_CYCLES)
        self.run(self.prepare(-1))

    def references(self) -> None:
        w = abs(self.absorber[0]) ** 2
        g, b = self.general, self.bell
        self.refs = {
            "outcome_statistics": (0.5, 0.5, 0.0),
            "qz-born": oracles.qz_born(w, self.QZ_INNER),
            "qz-coherent": oracles.qz_coherent(w, self.QZ_INNER),
            "cqz-born": oracles.cqz_born(w, self.CQZ_OUTER, self.CQZ_INNER),
            "cqz-coherent": oracles.cqz_coherent(w, self.CQZ_OUTER, self.CQZ_INNER),
            "cct-general": oracles.cct_general(*self.CCT_CYCLES, g.alpha, g.beta, g.gamma, g.delta, g.angles.theta),
            "cct-bell": oracles.cct_bell(*self.CCT_CYCLES, b.ell, b.c0, b.c1, b.angles.theta),
        }

    def prepare(self, i: int):
        base = (self.seed << 24) + (i + 1) * len(self.CAMPAIGNS)
        return [(kind, trials, base + t) for t, (kind, trials) in enumerate(self.CAMPAIGNS)]

    def run(self, campaigns):
        protocol, zeno = self.protocol, self.zeno
        out = []
        for kind, trials, seed in campaigns:
            if kind == "outcome_statistics":
                out.append(protocol.outcome_statistics(self.general, trials, seed))
            elif kind.startswith("cct-"):
                inp = self.general if kind == "cct-general" else self.bell
                out.append(zeno.simulate_cct(self.cycles, inp, trials, seed))
            else:
                gate, model = kind.split("-")
                out.append(
                    zeno.gate_statistics(
                        gate,
                        self.absorber,
                        self.polarization,
                        self.QZ_INNER if gate == "qz" else self.CQZ_INNER,
                        zeno.AbsorberModel.PER_CYCLE_BORN if model == "born" else zeno.AbsorberModel.COHERENT,
                        trials,
                        seed,
                        outer=self.CQZ_OUTER if gate == "cqz" else None,
                    )
                )
        return out

    @staticmethod
    def _counts(kind: str, trials: int, result) -> tuple[int, int, int] | None:
        """(successes, absorbed, discarded), or None when they do not sum to trials."""
        if kind == "outcome_statistics":
            zeros, ones = result[0] * trials, result[1] * trials
            counts = (round(zeros), round(ones), 0)
            exact = abs(zeros - counts[0]) < 1e-6 and abs(ones - counts[1]) < 1e-6
            return counts if exact and sum(counts) == trials else None
        if result.trials != trials:
            return None
        counts = (result.successes, result.absorbed, result.discarded)
        return counts if sum(counts) == trials else None

    def check(self, i: int, campaigns, out) -> bool:
        ok = True
        for (kind, trials, _), result in zip(campaigns, out):
            counts = self._counts(kind, trials, result)
            if counts is None:
                ok = False
                continue
            if kind.startswith("cct-") and result.successes:
                ok = ok and result.conditional_fidelity >= FIDELITY_FLOOR
            if i < self.CHECKED_OPS:
                self.totals[kind] += counts
                self.trials[kind] += trials
        if i == 0:
            self._first = (campaigns, out)
        return ok

    def finish(self, ops: int) -> bool:
        """Frequencies within SE_LIMIT standard errors, and a same-seed repeat."""
        ok = True
        for kind, totals in self.totals.items():
            n = self.trials[kind]
            for observed, p in zip(totals, self.refs[kind]):
                if p <= 0.0 or p >= 1.0:
                    ok = ok and observed == round(p * n)
                else:
                    ok = ok and abs(observed / n - p) <= self.SE_LIMIT * math.sqrt(p * (1.0 - p) / n)
        campaigns, out = self._first
        return ok and _same_reports(out, self.run(campaigns))


def _same_reports(a: list, b: list) -> bool:
    return all((x.as_dict() if hasattr(x, "as_dict") else x) == (y.as_dict() if hasattr(y, "as_dict") else y) for x, y in zip(a, b))


class CycleSweep:
    """``cctsim sweep`` in-process over every axis, for one general and one Bell-type config.

    Cycle counts run from 5 to 2400, so the M, N and diag axes cross the
    10^4 log-space threshold of the chained products.  One operation is
    the same eight sweeps every time.
    """

    name = "cycle-sweep"
    VALUES = (5, 12, 40, 150, 600, 2400)
    AXES = ("M", "N", "K", "diag")
    BASE = 25
    ITEMS_PER_OP = 2 * len(AXES) * len(VALUES)
    # Relative tolerance against mpmath.  Each zeta is 1 - (a lambda
    # product), so it is held to the tolerance relative to the larger of
    # zeta and that product: cancellation in 1 - x is not the program's
    # error.  cctsim's sin^2 via (1 - cos)/2 loses about eps/sin^2 at small
    # angles, which leaves 3.5e-10 at 2400 cycles; a more accurate survival
    # formula stays far below the tolerance too.
    RTOL = 1e-8
    HEADERS = {
        "general": "axis,value,lambda2,lambda3,lambda4,lambda5,zeta0,zeta1",
        "bell": "axis,value,lambda6,lambda7,zeta",
    }

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        from cctsim import cli

        self.cli = cli
        rng = np.random.default_rng([self.seed, 1])
        alpha, beta = _amplitude_pair(rng)
        gamma, delta = _amplitude_pair(rng)
        phi, theta, varphi = _angles(rng)
        general = {
            "mode": "general",
            "alpha": [alpha.real, alpha.imag],
            "beta": [beta.real, beta.imag],
            "gamma": [gamma.real, gamma.imag],
            "delta": [delta.real, delta.imag],
        }
        c0, c1 = _amplitude_pair(rng)
        bell = {
            "mode": "bell",
            "ell": int(rng.integers(0, 2)),
            "sign": int(rng.choice((1, -1))),
            "c0": [c0.real, c0.imag],
            "c1": [c1.real, c1.imag],
        }
        self.docs = {}
        self.calls = []
        for mode, doc in (("general", general), ("bell", bell)):
            doc["angles"] = {"phi": phi, "theta": theta, "varphi": varphi}
            doc.update(M=self.BASE, N=self.BASE, K=self.BASE)
            config = self.workdir / f"{mode}.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            self.docs[mode] = doc
            values = ",".join(str(v) for v in self.VALUES)
            for axis in self.AXES:
                out = self.workdir / f"{mode}-{axis}.csv"
                argv = ["sweep", "--config", str(config), "--axis", axis, "--values", values, "--format", "csv", "--out", str(out)]
                self.calls.append((mode, axis, out, argv))
        self.run(self.prepare(-1))

    def _cycles(self, axis: str, value: int) -> tuple[int, int, int]:
        if axis == "diag":
            return value, value, value
        return tuple(value if axis == name else self.BASE for name in ("M", "N", "K"))

    def references(self) -> None:
        self.refs = {}
        for mode, axis, _, _ in self.calls:
            doc = self.docs[mode]
            theta = doc["angles"]["theta"]
            rows = []
            for value in self.VALUES:
                cycles = self._cycles(axis, value)
                if mode == "general":
                    amps = (complex(*doc[key]) for key in ("alpha", "beta", "gamma", "delta"))
                    row = oracles.general_row(*cycles, *amps, theta)
                else:
                    row = oracles.bell_row(*cycles, doc["ell"], complex(*doc["c0"]), complex(*doc["c1"]), theta)
                rows.append([float(x) for x in row])
            self.refs[(mode, axis)] = rows

    def prepare(self, i: int):
        for _, _, out, _ in self.calls:
            out.unlink(missing_ok=True)
        return self.calls

    def run(self, calls):
        cli = self.cli
        return [cli.main(argv) for _, _, _, argv in calls]

    def check(self, i: int, calls, codes) -> bool:
        return all(code == 0 and self._check_table(mode, axis, out) for (mode, axis, out, _), code in zip(calls, codes))

    def _check_table(self, mode: str, axis: str, path: Path) -> bool:
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != self.HEADERS[mode] or len(lines) != len(self.VALUES) + 1:
            return False
        columns = self.HEADERS[mode].split(",")[2:]
        for line, value, ref in zip(lines[1:], self.VALUES, self.refs[(mode, axis)]):
            cells = line.split(",")
            if cells[:2] != [axis, str(value)] or len(cells) != 2 + len(ref):
                return False
            for column, cell, expected in zip(columns, cells[2:], ref):
                scale = max(expected, 1.0 - expected) if column.startswith("zeta") else abs(expected)
                if not abs(float(cell) - expected) <= self.RTOL * scale:
                    return False
        return True

    def finish(self, ops: int) -> bool:
        return True


WORKLOADS = {w.name: w for w in (ProtocolRandom, McCampaigns, CycleSweep)}
