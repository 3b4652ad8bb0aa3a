"""Benchmark entry point.

    python3 perfbench/run.py --workload strict3-default --seed 0 \
        --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, nothing is installed.  The last stdout line is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0`
the metrics are the end-to-end ones, measured with tracing off; with
`--trace 1` they are the per-layer ones from a traced run (one untraced and
one traced batch on the same inputs; their wall-time difference is
`trace.overhead_s`).  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

#: Fresh processes timed from spawn to "ready"; setup_s is their median.
SETUP_PROBES = 3


def import_package():
    """Import cantortubes from this checkout's src/, or exit non-zero."""
    try:
        import cantortubes
    except ImportError as exc:
        sys.exit(f"cannot import cantortubes from {SRC}: {exc}")
    if Path(cantortubes.__file__).resolve().parent.parent != SRC:
        sys.exit(f"cantortubes resolved to {cantortubes.__file__}, "
                 f"not to this checkout's {SRC}")
    return cantortubes


def environment() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter to its workload being
    set up (import included)."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                sys.exit(f"setup probe for {workload} failed")
        samples.append(ready - t0)
    return statistics.median(samples)


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_package()
    env = environment()
    calibrated = json.loads((HERE / "environment.json").read_text())
    if env["mpmath_backend"] != calibrated["mpmath_backend"]:
        print(f"warning: mpmath backend {env['mpmath_backend']!r} differs from "
              f"the calibration backend {calibrated['mpmath_backend']!r}; "
              "timings are not comparable", file=sys.stderr)

    wl = workloads.WORKLOADS[args.workload]
    refs = json.loads((HERE / "reference_hashes.json").read_text()).get(wl.name)
    out_root = ROOT / ".perfbench_out" / f"{wl.name}-{os.getpid()}"
    out_root.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            batches, metrics = traced_run(wl, args.seed, out_root, refs)
        else:
            setup_s = setup_seconds(wl.name, args.seed)
            state = wl.setup(args.seed, out_root)
            batches = workloads.run_for(wl, state, args.seconds, refs)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = workloads.end_to_end(batches, setup_s, rss_mb)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            out_root.parent.rmdir()
        except OSError:
            pass

    attempted = sum(len(b.ops) for b in batches)
    failed = sum(b.failed for b in batches)
    for b in batches:
        for op in b.ops:
            for problem in op.problems:
                print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(wl, seed: int, out_root: Path, refs):
    """One untraced batch, then a fresh set-up and the same batch traced."""
    import workloads
    from spans import SpanStats, Tracer

    plain = workloads.run_batch(wl, wl.setup(seed, out_root), 0, refs)
    with Tracer() as tracer:
        traced = workloads.run_batch(wl, wl.setup(seed, out_root), 0, refs)
    stats = SpanStats(tracer.spans)
    metrics = workloads.layer_metrics(stats, traced,
                                      traced.wall_s - plain.wall_s)
    return [plain, traced], metrics


if __name__ == "__main__":
    sys.exit(main())
