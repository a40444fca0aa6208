"""jayfix benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {pipeline,repair,critic} --seed N --seconds S --trace {0,1}

Run it from the root of a jayfix checkout. It imports jayfix from
`src/`, reads `corpus/`, and writes only under `.perfbench/`. It sets up
(again and again for a few seconds where set-up is cheap), then repeats
the workload's body until S seconds have been measured, at least once.
The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the run sets up once under the tracer,
runs the body once untraced and once traced, and reports the per-layer
metrics. The full record (environment, per-operation latencies, digests,
problems) goes to `.perfbench/results/`. A run whose output digests
differ from those of an earlier correct run there, with the same
workload, seed and source, counts a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "repair", "critic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    from jayfix.config import RunConfig

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_threads": _blas_threads(),
        "resolved_jobs": RunConfig().jobs,
    }


def _blas_threads():
    """OpenBLAS's own thread count, when the loaded library exposes it."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def source_digest() -> str:
    """Digest of the code and data a run depends on: src/, corpus/ and the benchmark."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "corpus", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(base)).encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def earlier_record(results: Path, workload: str, seed: int, source: str):
    """The outputs of an earlier correct run of this workload and seed on the
    same source, traced or not, if one is in `results`: its digests must recur."""
    for trace in (0, 1):
        path = results / f"{workload}-seed{seed}-trace{trace}.json"
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if record.get("source") == source and record.get("correct"):
            return {"path": path.name, "digests": record["digests"],
                    "setup_digest": record["setup_digest"]}
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "jayfix" / "cli.py").is_file() or not (ROOT / "corpus" / "manifest.json").is_file():
        print("perfbench: run from the root of a jayfix checkout (src/jayfix and corpus/ not found)",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer
    from workloads import WORKLOADS, Context

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    ctx = Context(ROOT, work, tracer)
    workload = WORKLOADS[args.workload](ctx)
    source = source_digest()
    reference = earlier_record(results, args.workload, args.seed, source)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "source": source, "environment": environment()}
    try:
        # A cheap set-up runs for `setup_seconds / 2` before the body and as many times
        # again after it, so its median spans the run as the body's time does. A traced
        # run sets up once, under the tracer, so that its layer counts are fixed.
        if tracer:
            tracer.install()
        setup_s, states = [], []

        def set_up():
            t0 = time.perf_counter()
            states.append(workload.setup(args.seed, len(states)))
            setup_s.append(time.perf_counter() - t0)

        setup_started = time.perf_counter()
        while not states or not tracer and time.perf_counter() - setup_started < workload.setup_seconds / 2:
            set_up()
        setups_before = 0 if tracer or not workload.setup_seconds else len(states)

        bodies, walls = [], {}

        def run_body(traced: bool):
            if tracer:
                tracer.install() if traced else tracer.uninstall()
            result = workload.body(states[0], len(bodies))
            # output checks run between operations, untimed
            walls.setdefault(traced, []).append(sum(result.op_latencies))
            bodies.append(result)

        if tracer:
            # the second body runs warmer; alternate which one that is by seed
            for traced in ((False, True) if args.seed % 2 else (True, False)):
                run_body(traced)
            tracer.uninstall()
        else:
            started = time.perf_counter()
            while not bodies or time.perf_counter() - started < args.seconds:
                run_body(traced=False)
        for _ in range(setups_before):
            set_up()

        problems = []
        if len({state["digest"] for state in states}) != 1:
            problems.append("set-up repetitions produced different inputs")
        if reference and reference["setup_digest"] != states[0]["digest"]:
            problems.append("set-up produced other inputs than an earlier run with this seed and source")

        digests = {body.digest for body in bodies}
        attempted = sum(body.attempted for body in bodies)
        failed = sum(body.failed for body in bodies)
        if len(digests) != 1:
            problems.append(f"bodies with the same seed gave {len(digests)} different digests")
            failed += 1
        elif reference and reference["digests"] != sorted(digests):
            problems.append("the body's output digest differs from an earlier run with this seed and source")
            failed += 1
        for body in bodies:
            problems.extend(body.problems)
        correct = not problems and failed == 0

        latencies = [lat for body in bodies for lat in body.op_latencies]
        if tracer:
            metrics = {name: metric(value, _unit(name)) for name, value in tracer.layer_metrics().items()}
            metrics["trace.wall_s"] = metric(walls[True][0], "s")
            metrics["trace.overhead_s"] = metric(walls[True][0] - walls[False][0], "s")
            tracer.write(results / f"{args.workload}-seed{args.seed}-spans.jsonl")
        else:
            body_s = walls[False]
            metrics = {
                "setup_s": metric(statistics.median(setup_s), "s"),
                "wall_s": metric(statistics.median(body_s), "s"),
                "op_p50_s": metric(statistics.median(latencies), "s"),
                "verdicts_per_s": metric(
                    statistics.median(b.verdicts / w for b, w in zip(bodies, body_s)), "1/s"),
                "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            }
        record.update(
            correct=correct, attempted=attempted, failed=failed, problems=problems,
            setup_s=setup_s, body_s=walls.get(False, []), traced_body_s=walls.get(True, []),
            op_latencies=latencies, digests=sorted(digests), setup_digest=states[0]["digest"],
            reference=reference and reference["path"],
            details=[body.detail for body in bodies], metrics=metrics,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    print(f"perfbench: environment {json.dumps(record['environment'], sort_keys=True)}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
