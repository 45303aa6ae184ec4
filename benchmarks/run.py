"""Run one misac benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload pretrain --seed 1 --seconds 35 --trace 0

Run it from the root of a misac source tree; it imports ``misac`` from
``src/`` beside this directory, never an installed copy. With ``--trace 0``
the last line of stdout is a JSON object holding every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` the same workload runs with span tracing
and the object holds every per-layer metric instead. The lines above it name
the run environment and every metric with its unit, including the
workload-specific metrics that the end-to-end ones summarize. See README.md
beside this file.
"""

from __future__ import annotations

import os
import sys

# OpenBLAS reads its thread count once, when numpy loads it: fix it first.
# One thread is steadier than two on a shared machine, is no slower for the
# desk preset's small matmuls, and keeps float results independent of nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("pretrain", "finetune_eval", "synth_io"))
    parser.add_argument("--seed", type=int, required=True, help="non-negative seed of the generated inputs")
    parser.add_argument("--seconds", type=float, required=True, help="minimum length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def import_misac():
    """Import misac from this tree's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import misac
    except ImportError as e:
        raise SystemExit(f"benchmark: cannot import misac from {SRC}: {e}") from None
    if Path(misac.__file__).resolve().parent != SRC / "misac":
        raise SystemExit(f"benchmark: imported misac from {misac.__file__}, not from {SRC}")
    return misac


def blas_threads() -> int | None:
    """The thread count OpenBLAS reports, or None when it cannot be asked."""
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    from misac.tensor import set_finite_checks

    set_finite_checks(True)  # as the CLI runs: every op checks its output
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    threads = blas_threads()
    if threads is not None and threads != BLAS_THREADS:
        raise SystemExit(f"benchmark: OpenBLAS runs {threads} threads, not the {BLAS_THREADS} pinned")
    return {
        "kind": "env",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", "?"),
        "blas_threads": "unverified" if threads is None else threads,
        "finite_checks": True,
    }


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise SystemExit(f"benchmark: cannot read {ROOT / 'BENCHMARK.json'}: {e}") from None


def end_to_end(result, workloads) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric of BENCHMARK.json: name -> (value, note)."""
    checks = result.checks
    tail_ms, p = workloads.tail(result.step_ms)
    return {
        "setup_s": (workloads.median(result.setup_s), f"median of {len(result.setup_s)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "process ru_maxrss"),
        "ok_share": ((checks.attempted - checks.failed) / checks.attempted, f"{checks.attempted} operations"),
        "samples_per_s": (
            workloads.rate(result.samples, result.loop_s), f"{result.samples} samples in {result.loop_s:.3f} s"
        ),
        "step_ms_p50": (workloads.median(result.step_ms), f"{len(result.step_ms)} steps"),
        "step_ms_tail": (tail_ms, f"p{p} of {len(result.step_ms)} steps"),
        "io_ms": (workloads.median(result.io_ms), f"median of {len(result.io_ms)} calls"),
    }


def _number(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None  # JSON has no NaN; a missing measurement reads null
    return value


def main(argv=None) -> int:
    args = parse_args(argv)
    import_misac()
    spec = load_spec()
    import layers
    import tracing
    import workloads

    env = environment()
    print(json.dumps(env, sort_keys=True))
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    tracer = tracing.Tracer() if args.trace else None
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, sizes, tracer, work)
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()

    if args.trace:
        src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "misac").glob("*.py")))
        metrics = layers.layer_metrics(
            args.workload, tracer, result, workloads.DESK, layers.matmul_ceiling_gflops(), src_lines
        )
        notes = {}
        listed = spec["per_layer"]
    else:
        measured = end_to_end(result, workloads)
        metrics = {name: value for name, (value, _) in measured.items()}
        notes = {name: note for name, (_, note) in measured.items()}
        listed = spec["end_to_end"]
    names = [m["name"] for m in listed]
    if sorted(metrics) != sorted(names):
        raise SystemExit(f"benchmark: metrics {sorted(set(metrics) ^ set(names))} disagree with BENCHMARK.json")

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f" set-ups={len(result.setup_s)} loop={result.loop_s:.3f}s samples={result.samples}")
    if not args.trace:
        print("workload metrics:")
        for name, (value, unit, note) in result.named.items():
            print(f"  {name:28s} {value:14.6g} {unit:10s} {note}")
        print(f"  {'failed_share':28s} {result.checks.failed / result.checks.attempted:14.6g} {'share':10s}"
              f" {result.checks.failed} of {result.checks.attempted} operations")
    print("end-to-end metrics:" if not args.trace else "per-layer metrics:")
    for m in listed:
        print(f"  {m['name']:40s} {metrics[m['name']]:16.6g} {m['unit']:10s} {notes.get(m['name'], '')}")
    for failure in result.checks.failures[:10]:
        print(f"FAILED: {failure}")
    checks = result.checks
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": _number(metrics[m["name"]]), "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
