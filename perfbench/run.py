"""cctsim benchmark: drift-corrected end-to-end and per-layer figures.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload protocol-random --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Raw wall times and the reference kernel's own times go to
``perfbench/runs/`` and a summary to standard error.

The parent process starts one process per set-up sample and one for the
timed work, so every figure comes from a fresh interpreter and set-up can
be sampled several times; see README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

# Set-up samples per untraced run: one more is started first and discarded,
# so that byte-compiling a fresh checkout is not counted.
SETUP_SAMPLES = 9
# Kernel runs on each side of an operation that make up its local kernel time.
KERNEL_SIDE = 3
DEADLINE_S = 170.0


def local_kernel_times(kernels: list[float]) -> list[float]:
    """Kernel time next to each operation.

    ``kernels[i]`` ran just before operation i and ``kernels[i + 1]`` just
    after it.  The mean of the KERNEL_SIDE kernel runs before and the
    KERNEL_SIDE after an operation follows the machine's drift over a few
    operations while averaging out the jitter of a single 1 ms kernel run.
    """
    out = []
    for i in range(len(kernels) - 1):
        window = kernels[max(0, i + 1 - KERNEL_SIDE) : i + 1 + KERNEL_SIDE]
        out.append(sum(window) / len(window))
    return out


def timed_loop(workload, seconds: float, first_op: int, kernel) -> dict:
    """Run whole operations for ``seconds`` with a reference kernel between them."""
    kernels = [kernel.reference_kernel()]
    raw = []
    failed = 0
    i = first_op
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        args = workload.prepare(i)
        start = time.perf_counter()
        out = workload.run(args)
        raw.append(time.perf_counter() - start)
        kernels.append(kernel.reference_kernel())
        if not workload.check(i, args, out):
            failed += 1
        i += 1
    local = local_kernel_times(kernels)
    corrected = [t * kernel.NOMINAL_S / k for t, k in zip(raw, local)]
    return {"raw": raw, "kernels": kernels, "corrected": corrected, "failed": failed}


def summarize(times: list[float], items: int) -> dict:
    """Throughput in items per second and per-operation percentiles in ms."""
    deciles = statistics.quantiles(times, n=10)
    return {
        "throughput": items * len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
    }


def work(args) -> dict:
    """Child process: set up, measure, check; return the figures.

    numpy (for the reference kernel) and mpmath (for the references) load
    before the set-up clock starts; the set-up time is importing cctsim,
    generating the inputs and one warm-up operation, scaled by the kernel
    measured on both sides of it.
    """
    import kernel
    import workloads

    with tempfile.TemporaryDirectory(dir=RUNS) as workdir:
        return _measure(args, kernel, workloads.WORKLOADS[args.workload](args.seed, Path(workdir)))


def _measure(args, kernel, workload) -> dict:
    kernel_before = kernel.settled_kernel()
    start = time.perf_counter()
    workload.setup()
    setup_raw = time.perf_counter() - start
    setup_kernel = (kernel_before + kernel.settled_kernel()) / 2.0
    if args.role == "setup":
        return {"setup_raw_s": setup_raw, "setup_kernel_s": setup_kernel}

    workload.references()
    items = workload.ITEMS_PER_OP
    result = {"setup_raw_s": setup_raw, "setup_kernel_s": setup_kernel, "nominal_kernel_s": kernel.NOMINAL_S}
    if args.trace:
        import tracing

        plain = timed_loop(workload, args.seconds / 2.0, 0, kernel)
        tracer = tracing.Tracer()
        tracer.install()
        # One root span per operation, so the spans of an operation share it.
        tracer.wrap(workload, "run", "bench.op")
        try:
            traced = timed_loop(workload, args.seconds / 2.0, len(plain["raw"]), kernel)
        finally:
            tracer.uninstall()
        runs = [plain, traced]
        traced_items = items * len(traced["raw"])
        drift = sum(traced["corrected"]) / sum(traced["raw"])
        layers = tracer.layer_metrics(traced_items, traced_items if args.workload == "cycle-sweep" else 0, drift)
        plain_rate = summarize(plain["corrected"], items)["throughput"]
        traced_rate = summarize(traced["corrected"], items)["throughput"]
        layers["trace.overhead_ratio"] = traced_rate / plain_rate
        trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "metrics": layers})
        result["metrics"] = layers
    else:
        runs = [timed_loop(workload, args.seconds, 0, kernel)]
        result["metrics"] = summarize(runs[0]["corrected"], items)
        result["raw"] = summarize(runs[0]["raw"], items)
    ops = sum(len(r["raw"]) for r in runs)
    correct = workload.finish(ops)
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(
        correct=correct,
        attempted=ops,
        failed=sum(r["failed"] for r in runs),
        raw_op_s=[t for r in runs for t in r["raw"]],
        kernel_s=[t for r in runs for t in r["kernels"]],
    )
    return result


def _child(args, role: str, timeout: float) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role, "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # One BLAS thread: the matrices are at most 12x12 and threads only add jitter.
    # Fixed string hashing, so dict layouts, and the time spent in them, repeat.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=timeout, env=env, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def parent(args, spec: dict) -> dict:
    started = time.perf_counter()

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    setup_samples = []
    if not args.trace:
        for k in range(SETUP_SAMPLES + 1):
            sample = _child(args, "setup", left())
            if k:
                setup_samples.append(sample)
    result = _child(args, "work", left())
    setup_samples.append({key: result[key] for key in ("setup_raw_s", "setup_kernel_s")})
    nominal = result["nominal_kernel_s"]
    setup_raw = [s["setup_raw_s"] for s in setup_samples]
    setup_corrected = [s["setup_raw_s"] * nominal / s["setup_kernel_s"] for s in setup_samples]
    metrics = result["metrics"]
    metrics["setup_s"] = statistics.median(setup_corrected)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    report = {
        "correct": bool(result["correct"]) and result["attempted"] >= 1,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    log = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "report": report,
        "nominal_kernel_s": nominal,
        "raw": result.get("raw"),
        "setup_raw_s": setup_raw,
        "setup_corrected_s": setup_corrected,
        "setup_kernel_s": [s["setup_kernel_s"] for s in setup_samples],
        "raw_op_s": result["raw_op_s"],
        "kernel_s": result["kernel_s"],
    }
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(log) + "\n", encoding="utf-8")
    kernels = result["kernel_s"]
    print(
        f"{args.workload} seed={args.seed}: {result['attempted']} ops, {result['failed']} failed; "
        f"raw {json.dumps(result.get('raw'))}; kernel median {statistics.median(kernels) * 1e3:.4f} ms "
        f"(nominal {nominal * 1e3:.4f}, range {min(kernels) * 1e3:.4f}-{max(kernels) * 1e3:.4f}); "
        f"setup raw median {statistics.median(setup_raw):.4f} s",
        file=sys.stderr,
    )
    return report


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("parent", "setup", "work"), default="parent", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "cctsim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"cannot benchmark: no cctsim sources under {SRC} or no {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    RUNS.mkdir(exist_ok=True)
    if args.role != "parent":
        sys.path.insert(0, str(SRC))
        print(json.dumps(work(args)))
        return 0
    try:
        report = parent(args, spec)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
