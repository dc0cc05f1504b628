"""Per-layer tracing by timing wrappers on the module attributes callers look up.

cctsim modules call each other through module attributes (``gates.v1``,
``zeno.stage_probabilities_general``) or through names bound in the calling
module (``apply`` inside ``cctsim.protocol``).  The tracer replaces exactly
those attributes with wrappers that record a span (name, start, end,
parent) and restores them on ``uninstall``.  Spans stay in memory until
``write``.  A span's self time is its duration minus the durations of its
child spans; the wrapper's own bookkeeping falls into the parent's self
time.
"""

from __future__ import annotations

import inspect
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

CLOSED_FORMS = (
    "stage_probabilities_general",
    "stage_probabilities_bell",
    "chained_survival",
    "_chained_factors",
    "dcfo_success",
    "dcfo_stage_success",
    "ddcfo_success",
    "cqz_lambda0",
    "cqz_lambda1",
    "qz_survival",
    "cepi_success",
    "dcepi_success",
    "coherent_qz_success",
)
PROTOCOL_CALLS = ("run_general", "run_bell", "verify_general", "verify_bell", "outcome_statistics")
ANGLE_KEYED = ("v1", "v11", "v13", "tilde_v1", "rotation_y", "rotation_z")


class Tracer:
    """Spans and per-name totals of one traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        # Per name id: [calls, total seconds, self seconds, units].
        self.stats: list[list[float]] = []
        self.counts: Counter[str] = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0.0, 0.0, 0])
        return nid

    def wrap(self, owner, attr: str, name: str | None = None, label=None, units: str | None = None, count=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``label(args, kwargs)`` names the span per call when the name depends
        on the arguments; ``units`` names an argument (such as ``trials``)
        whose values are summed per span name; ``count(args, kwargs)`` may
        bump plain counters.
        """
        original = getattr(owner, attr)
        fixed = self._id(name) if label is None else None
        bind = inspect.signature(original).bind if units else None
        stack, stats = self._stack, self.stats
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            nid = fixed if label is None else self._id(label(args, kwargs))
            if count is not None:
                count(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                starts[idx] = start
                ends[idx] = end
                row = stats[nid]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if bind is not None:
                    row[3] += bind(*args, **kwargs).arguments[units]

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary of cctsim that the workloads cross."""
        from cctsim import cli, gates, hilbert, protocol, zeno

        def tensordot_path(args, kwargs):
            state, targets = args[1], [int(t) for t in args[2]]
            n, k = len(state.dims), len(targets)
            if targets != list(range(n - k, n)) and targets != list(range(k)):
                self.counts["hilbert.apply_tensordot"] += 1

        self.wrap(protocol, "apply", "hilbert.apply", count=tensordot_path)
        original_post_init = hilbert.StateVector.__post_init__

        def counted_post_init(state):
            self.counts["hilbert.state"] += 1
            original_post_init(state)

        hilbert.StateVector.__post_init__ = counted_post_init
        self._patched.append((hilbert.StateVector, "__post_init__", original_post_init))

        self.gate_caches = {}
        for attr, value in vars(gates).items():
            if attr.startswith("_") or inspect.isclass(value) or not callable(value):
                continue
            if getattr(value, "__module__", None) != gates.__name__:
                continue
            if hasattr(value, "cache_info"):
                self.gate_caches[attr] = value
            self.wrap(gates, attr, f"gates.{attr}")
        for attr in PROTOCOL_CALLS:
            self.wrap(protocol, attr, f"protocol.{attr}", units="trials" if attr == "outcome_statistics" else None)
        for attr in CLOSED_FORMS:
            self.wrap(zeno, attr, f"zeno.closed.{attr}")

        def trajectory(gate: str, model_index: int):
            def label(args, kwargs):
                model = kwargs["model"] if "model" in kwargs else args[model_index]
                return f"zeno.traj.{gate}-{'born' if model is zeno.AbsorberModel.PER_CYCLE_BORN else 'coherent'}"

            return label

        self.wrap(zeno, "simulate_qz", label=trajectory("qz", 3))
        self.wrap(zeno, "simulate_cqz", label=trajectory("cqz", 4))
        self.wrap(zeno, "gate_statistics", "zeno.traj.gate_statistics", units="trials")
        self.wrap(zeno, "simulate_cct", "zeno.traj.simulate_cct", units="trials")
        self.wrap(cli, "main", "cli.main")
        self.cache_misses_before = self._cache_misses()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _cache_misses(self) -> int:
        return sum(fn.cache_info().misses for fn in self.gate_caches.values())

    def _sum(self, prefix: str, column: int) -> float:
        return sum(row[column] for name, row in zip(self.names, self.stats) if name.startswith(prefix))

    def _row(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return self.stats[nid] if nid is not None else [0, 0.0, 0.0, 0]

    def layer_metrics(self, items: int, rows: int, drift: float) -> dict[str, float]:
        """Per-layer figures of the traced phase; 0 where the workload bypasses a layer.

        ``drift`` is the traced phase's corrected/raw time ratio, so layer
        times are drift-corrected like the end-to-end ones.
        """

        def per(value: float, base: float, scale: float = 1.0) -> float:
            return value * scale / base if base else 0.0

        us, ms = 1e6 * drift, 1e3 * drift

        apply_row = self._row("hilbert.apply")
        verify_calls = self._row("protocol.verify_general")[0] + self._row("protocol.verify_bell")[0]
        verify_self = self._row("protocol.verify_general")[2] + self._row("protocol.verify_bell")[2]
        outcome = self._row("protocol.outcome_statistics")
        gate_stats = self._row("zeno.traj.gate_statistics")
        cct = self._row("zeno.traj.simulate_cct")
        main = self._row("cli.main")
        metrics = {
            "hilbert.apply.calls_per_item": per(apply_row[0], items),
            "hilbert.apply.self_us": per(apply_row[2], apply_row[0], us),
            "hilbert.apply_tensordot.calls_per_item": per(self.counts["hilbert.apply_tensordot"], items),
            "hilbert.state.calls_per_item": per(self.counts["hilbert.state"], items),
            "gates.calls_per_item": per(self._sum("gates.", 0), items),
            "gates.self_us_per_item": per(self._sum("gates.", 2), items, us),
            "gates.cache_misses_per_item": per(self._cache_misses() - self.cache_misses_before, items),
            "gates.cache_entries": float(
                sum(self.gate_caches[name].cache_info().currsize for name in ANGLE_KEYED)
            ),
            "protocol.run_general.self_us": per(self._row("protocol.run_general")[2], self._row("protocol.run_general")[0], us),
            "protocol.run_bell.self_us": per(self._row("protocol.run_bell")[2], self._row("protocol.run_bell")[0], us),
            "protocol.verify.self_us": per(verify_self, verify_calls, us),
            "protocol.outcome_statistics.us_per_trial": per(outcome[1], outcome[3], us),
            "zeno.closed.calls_per_row": per(self._sum("zeno.closed.", 0), rows),
            "zeno.closed.self_us_per_row": per(self._sum("zeno.closed.", 2), rows, us),
        }
        for kind in ("qz-born", "qz-coherent", "cqz-born", "cqz-coherent"):
            row = self._row(f"zeno.traj.{kind}")
            metrics[f"zeno.traj.{kind}.us_per_trial"] = per(row[1], row[0], us)
        metrics["zeno.traj.gate_statistics.self_us_per_trial"] = per(gate_stats[2], gate_stats[3], us)
        metrics["zeno.traj.simulate_cct.us_per_trial"] = per(cct[1], cct[3], us)
        metrics["cli.main.self_ms"] = per(main[2], main[0], ms)
        return metrics

    def write(self, path: Path, header: dict) -> None:
        """Write every span, times in seconds from the first span's start."""
        origin = min(self.span_start) if len(self.span_start) else 0.0
        document = dict(header)
        document["names"] = self.names
        document["spans"] = {
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": [round(t - origin, 9) for t in self.span_start],
            "end": [round(t - origin, 9) for t in self.span_end],
        }
        path.write_text(json.dumps(document, separators=(",", ":")) + "\n", encoding="utf-8")
