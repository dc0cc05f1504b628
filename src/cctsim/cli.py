"""Command-line front end: run, sweep, montecarlo, and verify subcommands.

Configuration lives in a single JSON document; ``--seed``, ``--trials``,
``--out`` and ``--format`` override its fields, and a sweep's axis and
values come only from ``--axis`` and ``--values``.  Complex amplitudes are
written as [re, im] pairs and angles in radians.  Every report echoes the
full configuration and the seed, and files are written atomically (temp
file plus rename).  Exit codes: 0 success, 1 verification failure, 2
configuration error, an output that cannot be written included.

Each subcommand loads only the layers it runs: ``sweep`` needs the closed
forms of ``stages`` and the ``inputs`` records alone, ``run`` imports
``protocol`` (with ``gates`` and ``hilbert``), ``montecarlo`` imports
``zeno``'s samplers (with ``protocol``), and ``verify`` imports ``checks``.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, stages
from .inputs import BellInput, EulerAngles, GeneralInput, _is_integer, unit_pair_error
from .stages import CycleConfig

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2

_SWEEP_AXES = ("M", "N", "K", "diag")
# Column orders read off each protocol's stage schedule; the golden-file tests pin these.
SWEEP_COLUMNS_GENERAL = ("axis", "value", *stages.GENERAL_SCHEDULE.lambdas, *stages.GENERAL_SCHEDULE.zetas)
SWEEP_COLUMNS_BELL = ("axis", "value", *stages.BELL_SCHEDULE.lambdas, *stages.BELL_SCHEDULE.zetas)


class ConfigError(Exception):
    """Carries every field-level diagnostic found while loading a config."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class RunConfig:
    mode: str
    protocol_input: GeneralInput | BellInput
    cycles: CycleConfig
    trials: int
    seed: int
    out: str | None
    fmt: str
    echo: dict


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _take_complex(doc: dict, field: str, errors: list[str]) -> complex | None:
    """The [re, im] pair at ``field``, or None once a diagnostic names it."""
    value = doc.get(field)
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_is_number, value)):
        errors.append(f"{field}: expected a [re, im] number pair, got {value!r}")
        return None
    try:
        return complex(float(value[0]), float(value[1]))
    except OverflowError:  # a JSON integer beyond the float range
        errors.append(f"{field}: number too large for a float")
        return None


def _take_int(doc: dict, field: str, errors: list[str], minimum: int, default: int | None = None) -> int:
    value = doc.get(field, default)
    if not _is_integer(value):
        errors.append(f"{field}: expected an integer, got {value!r}")
        return minimum
    if value < minimum:
        errors.append(f"{field}: must be >= {minimum}, got {value}")
        return minimum
    return value


def _take_choice(doc: dict, field: str, choices: tuple[int, int], errors: list[str]) -> int:
    value = doc.get(field)
    if not _is_integer(value) or value not in choices:
        errors.append(f"{field}: expected {choices[0]} or {choices[1]}, got {value!r}")
        return choices[0]
    return value


def _take_angles(doc: dict, errors: list[str]) -> EulerAngles:
    raw = doc.get("angles")
    if not isinstance(raw, dict):
        errors.append(f"angles: expected an object with phi/theta/varphi, got {raw!r}")
        return EulerAngles(0.0, 0.0, 0.0)
    values = []
    for key in ("phi", "theta", "varphi"):
        part = raw.get(key)
        if not _is_number(part):
            errors.append(f"angles.{key}: expected a finite number, got {part!r}")
            part = 0.0
        try:
            part = float(part)
        except OverflowError:  # a JSON integer beyond the float range
            errors.append(f"angles.{key}: number too large for a float")
            part = 0.0
        # A NaN or infinite angle is already named by load_config's non-finite scan.
        values.append(part if math.isfinite(part) else 0.0)
    return EulerAngles(*values)


def _check_pair_norm(label: str, c0: complex | None, c1: complex | None, errors: list[str]) -> None:
    if c0 is None or c1 is None:  # _take_complex has named the malformed amplitude
        return
    error = unit_pair_error(c0, c1)
    if error:
        errors.append(f"{label}: {error}")


def _non_finite_fields(value: dict | list, trail: tuple = ()) -> Iterator[str]:
    """Paths of the NaN and infinite numbers in a parsed JSON document, in
    document order; a path is built only on the way to one of them."""
    indexed = isinstance(value, list)
    for key, item in enumerate(value) if indexed else value.items():
        if isinstance(item, (dict, list)):
            yield from _non_finite_fields(item, (*trail, (key, indexed)))
        elif isinstance(item, float) and not math.isfinite(item):
            path = ""
            for part, in_list in (*trail, (key, indexed)):
                path = f"{path}[{part}]" if in_list else f"{path}.{part}" if path else str(part)
            yield path


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a config document, applying flag overrides."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read().decode("utf-8")
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"]) from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"]) from exc
    except ValueError as exc:  # int() refuses a literal longer than the interpreter's digit limit
        raise ConfigError([f"config: an integer has more than {sys.get_int_max_str_digits()} digits"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["config: top level must be a JSON object"])
    doc = dict(doc)
    for key, value in (overrides or {}).items():
        if value is not None:
            doc[key] = value

    # Reports echo the whole document, so a non-finite number anywhere in it
    # would make them invalid JSON.
    errors = [f"{field}: NaN and Infinity are not allowed" for field in _non_finite_fields(doc)]
    mode = doc.get("mode")
    if mode not in ("general", "bell"):
        errors.append(f"mode: expected 'general' or 'bell', got {mode!r}")
        mode = "general"

    angles = _take_angles(doc, errors)
    if mode == "general":
        alpha = _take_complex(doc, "alpha", errors)
        beta = _take_complex(doc, "beta", errors)
        gamma = _take_complex(doc, "gamma", errors)
        delta = _take_complex(doc, "delta", errors)
        _check_pair_norm("alpha/beta", alpha, beta, errors)
        _check_pair_norm("gamma/delta", gamma, delta, errors)
    else:
        ell = _take_choice(doc, "ell", (0, 1), errors)
        sign = _take_choice(doc, "sign", (1, -1), errors)
        c0 = _take_complex(doc, "c0", errors)
        c1 = _take_complex(doc, "c1", errors)
        _check_pair_norm("c0/c1", c0, c1, errors)

    m = _take_int(doc, "M", errors, 1, default=25)
    n = _take_int(doc, "N", errors, 1, default=25)
    k = _take_int(doc, "K", errors, 1, default=25)
    trials = _take_int(doc, "trials", errors, 1, default=10_000)
    seed = _take_int(doc, "seed", errors, 0, default=0)

    fmt = doc.get("format", "json")
    if fmt not in ("json", "csv"):
        errors.append(f"format: expected 'json' or 'csv', got {fmt!r}")
        fmt = "json"
    out = doc.get("output")
    if out is not None and not isinstance(out, str):
        errors.append(f"output: expected a path string, got {out!r}")
        out = None

    if errors:
        raise ConfigError(errors)

    if mode == "general":
        protocol_input: GeneralInput | BellInput = GeneralInput(alpha, beta, gamma, delta, angles)
    else:
        protocol_input = BellInput(ell, sign, c0, c1, angles)
    return RunConfig(
        mode=mode,
        protocol_input=protocol_input,
        cycles=CycleConfig(m, n, k),
        trials=trials,
        seed=seed,
        out=out,
        fmt=fmt,
        echo=doc,
    )


def _atomic_write(path: str | Path, text: str) -> None:
    path, data = Path(path), memoryview(text.encode("utf-8"))
    # mkstemp opens the temp file exclusively with mode 0600; parents are made only when missing.
    try:
        fd, temp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _check_out(out: str | None) -> None:
    """Refuse an ``out`` that is an existing directory before any work is
    done, with the line ``_emit`` would print after it; the rename stays the
    authority on every other write failure."""
    if out is not None and os.path.isdir(out):
        raise ConfigError([f"out: cannot write {out}: {os.strerror(errno.EISDIR)}"])


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to standard output, or atomically to ``out``; the one
    writer of every command's output.  A failed write is a config error,
    named by the OS reason alone: the full error names the random temp file.
    A standard output that fails, such as a pipe whose reader has gone, is
    then pointed at os.devnull, so the interpreter's flush at exit does not
    fail on it again (the signal module's recipe for SIGPIPE)."""
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
            raise ConfigError([f"stdout: cannot write: {exc.strerror or exc}"]) from exc
        return
    try:
        _atomic_write(out, text)
    except OSError as exc:
        raise ConfigError([f"out: cannot write {out}: {exc.strerror or exc}"]) from exc


def _pair(value: complex) -> list[float]:
    return [value.real, value.imag]


def _envelope(config: RunConfig, results: dict) -> str:
    document = {
        "config": config.echo,
        "results": results,
        "version": __version__,
        "seed": config.seed,
    }
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def cmd_run(config: RunConfig) -> int:
    """Execute one protocol run, verify it, and write the transcript summary."""
    _check_out(config.out)
    # Imported here, like checks in cmd_verify: a sweep never loads the dense run.
    from . import protocol
    from .hilbert import schmidt_rank

    if config.mode == "general":
        rng = np.random.default_rng(config.seed)
        transcript = protocol.run_general(config.protocol_input, rng)
        report = protocol.verify_general(transcript, config.protocol_input)
    else:
        transcript = protocol.run_bell(config.protocol_input)
        report = protocol.verify_bell(transcript, config.protocol_input)
    results: dict = {
        "mode": config.mode,
        "outcome": transcript.outcome,
        "outcome_probability": transcript.outcome_probability,
        "stage_fidelities": [[label, value] for label, value in report.stage_fidelities],
        "worst_fidelity": report.worst_fidelity,
        "passed": report.passed,
        "output_amplitudes": [_pair(a) for a in transcript.psi6m.amps],
    }
    if config.mode == "general" and abs(config.protocol_input.gamma) ** 2 <= 1e-12:
        rank = schmidt_rank(transcript.psi6m, {0})
        results["separable_output"] = rank == 1
        results["schmidt_rank"] = rank
    _emit(_envelope(config, results), config.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _sweep_cycles(config: RunConfig, axis: str, value: int) -> CycleConfig:
    base = config.cycles
    if axis == "diag":
        return CycleConfig(value, value, value)
    return CycleConfig(
        value if axis == "M" else base.M,
        value if axis == "N" else base.N,
        value if axis == "K" else base.K,
    )


def _sweep_rows(config: RunConfig, axis: str, values: tuple[int, ...]) -> list[list]:
    cfgs = [_sweep_cycles(config, axis, value) for value in values]
    schedule = stages.schedule_of(config.protocol_input)
    keys = schedule.lambdas + schedule.zetas
    return [[axis, value, *map(p.__getitem__, keys)]
            for value, (p, _) in zip(values, stages.stage_rows(cfgs, config.protocol_input))]


def cmd_sweep(config: RunConfig, axis: str | None, values: tuple[int, ...] | None) -> int:
    """Tabulate stage probabilities along one cycle-count axis.

    ``axis`` and ``values`` are the ``--axis`` and ``--values`` flags, the
    only source of a sweep request; a config ``sweep`` key is echoed and
    otherwise ignored, like any other field the loader does not read.

    The rows are one closed-form evaluation (``stages.stage_rows``), with the
    columns of the protocol's stage schedule: values that share M share one
    pass in chunks of the fixed ``stages.PASS_BLOCK`` budget.  Rows come in
    the order of ``values``, duplicates included, and each is == to a
    one-value sweep.
    """
    problems = []
    if axis not in _SWEEP_AXES:
        problems.append(f"axis: expected one of {_SWEEP_AXES}, got {axis!r}")
    if not values:
        problems.append("values: a nonempty list of cycle counts is required")
    if problems:
        raise ConfigError(problems)
    _check_out(config.out)
    rows = _sweep_rows(config, axis, values)
    columns = SWEEP_COLUMNS_GENERAL if config.mode == "general" else SWEEP_COLUMNS_BELL
    if config.fmt == "csv":
        lines = [",".join(columns)]
        lines += [f"{axis},{value}," + ",".join([format(x, ".17g") for x in cells]) for _, value, *cells in rows]
        _emit("\n".join(lines) + "\n", config.out)
    else:
        results = {"columns": columns, "rows": rows}
        _emit(_envelope(config, results), config.out)
    return EXIT_OK


def cmd_montecarlo(config: RunConfig) -> int:
    """Run the stage-composed protocol campaign and emit its JSON report."""
    _check_out(config.out)
    # Imported here, like protocol in cmd_run: a sweep or a run never loads the samplers.
    from . import zeno

    report = zeno.simulate_cct(config.cycles, config.protocol_input, config.trials, config.seed)
    schedule = stages.schedule_of(config.protocol_input)
    ((values, _),) = stages.stage_rows((config.cycles,), config.protocol_input)
    results = {"report": report.as_dict(), "analytic": {z: values[z] for z in schedule.zetas}}
    _emit(_envelope(config, results), config.out)
    return EXIT_OK


def cmd_verify(out: str | None = None, sabotage: str | None = None) -> int:
    """Run the acceptance checklist and print a pass/fail matrix with timings."""
    _check_out(out)
    # Imported here: run, sweep and montecarlo never load the checklist.
    from . import checks

    results = checks.run_all(sabotage=sabotage)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        if r.passed:
            status = "PASS"
        elif r.expected_failure:
            status = "XFAIL"
        else:
            status = "FAIL"
        lines.append(f"{r.name:<{width}}  {status:<5}  {r.duration:8.3f}s  {r.detail}")
    all_ok = all(r.ok for r in results)
    lines.append("result: " + ("OK" if all_ok else "FAILED"))
    _emit("\n".join(lines) + "\n", None)
    if out is not None:
        payload = {"version": __version__, "checks": [dataclasses.asdict(r) for r in results], "ok": all_ok}
        _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", out)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def _parse_values(raw: str | None) -> tuple[int, ...] | None:
    if raw is None:
        return None
    try:
        values = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError([f"values: expected comma-separated integers, got {raw!r}"]) from exc
    if not values or any(v < 1 for v in values):
        raise ConfigError([f"values: expected positive integers, got {raw!r}"])
    return values


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its subcommand parsers by name, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cctsim",
        description="Simulate and verify counterfactual concealed telecomputation protocols.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_config: bool) -> None:
        p.add_argument("--config", required=needs_config, help="path to the JSON configuration")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--trials", type=int, default=None, help="override the configured trial count")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None, help="output format override")

    run_p = sub.add_parser("run", help="execute one protocol run and verify it")
    add_common(run_p, needs_config=True)

    sweep_p = sub.add_parser("sweep", help="tabulate stage probabilities along a cycle axis")
    add_common(sweep_p, needs_config=True)
    sweep_p.add_argument("--axis", choices=_SWEEP_AXES, default=None, help="cycle axis to sweep")
    sweep_p.add_argument("--values", default=None, help="comma-separated cycle counts")

    mc_p = sub.add_parser("montecarlo", help="run the stage-composed protocol campaign")
    add_common(mc_p, needs_config=True)

    verify_p = sub.add_parser("verify", help="run the acceptance checklist")
    verify_p.add_argument("--out", default=None, help="also write the results as JSON here")
    verify_p.add_argument("--sabotage", default=None, help=argparse.SUPPRESS)
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    return _parsers()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, without its pass over the subcommand's options.

    A command line that starts with a subcommand goes to that subcommand's
    parser alone; the full parser hands it exactly the same words, so the
    namespace and any usage error or help text are the same.  Anything else,
    and a command line the subparser leaves words of, is parsed by the full
    parser, which reports it as it always has.
    """
    parser, subparsers = _parsers()
    if argv and argv[0] in subparsers:
        args, extras = subparsers[argv[0]].parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if args.command == "verify":
            return cmd_verify(out=args.out, sabotage=args.sabotage)
        overrides = {"seed": args.seed, "trials": args.trials, "format": args.fmt}
        config = load_config(args.config, overrides)
        if args.out is not None:
            config = dataclasses.replace(config, out=args.out)
        if args.command == "run":
            return cmd_run(config)
        if args.command == "sweep":
            return cmd_sweep(config, args.axis, _parse_values(args.values))
        if args.command == "montecarlo":
            return cmd_montecarlo(config)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ConfigError, ValueError) as exc:
        for message in exc.errors if isinstance(exc, ConfigError) else [exc]:
            print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
