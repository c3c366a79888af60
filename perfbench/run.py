"""Canonical DGNN train -> publish -> serve benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload train-full --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

One run prints a human-readable report (host, every metric with its
unit, every correctness check) and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics listed in ``BENCHMARK.json``; ``--trace 1``
reports the per-layer metrics, and also writes a Chrome trace-event
file and a per-span self-time table.  Every run appends its full record
to ``perfbench/out/records.jsonl``.

The process environment is fixed before :mod:`numpy` loads: inherited
``REPRO_*`` variables are dropped so every knob is at its default except
the production engine policy (``REPRO_ENGINE_DTYPE=float32``,
``REPRO_ENGINE_INDEX_DTYPE=int32``), and the BLAS thread count is pinned
to the CPUs this process may use.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: The seed later claims are made on, and a second one held out for
#: re-checking a claim on inputs not used while writing it.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
DEFAULT_SECONDS = 30

ENGINE_POLICY = {"REPRO_ENGINE_DTYPE": "float32",
                 "REPRO_ENGINE_INDEX_DTYPE": "int32"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_environment() -> int:
    """Reset ``REPRO_*`` to the engine policy and pin BLAS threads."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(ENGINE_POLICY)
    threads = len(os.sched_getaffinity(0))
    for name in BLAS_THREAD_VARS:
        os.environ[name] = str(threads)
    return threads


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _l3_bytes() -> int:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        if _read(str(index / "level")).strip() == "3":
            size = _read(str(index / "size")).strip().upper()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
            if size and size[-1] in scale:
                return int(size[:-1]) * scale[size[-1]]
            return int(size or 0)
    return 0


def _cpu_ticks() -> list:
    """The aggregate ``cpu`` line of ``/proc/stat``; empty if unreadable."""
    for line in _read("/proc/stat").splitlines():
        if line.startswith("cpu "):
            return [int(v) for v in line.split()[1:]]
    return []


def steal_share(before: list, after: list) -> float:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if len(before) < 8 or len(after) < 8:
        return float("nan")
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(sum(delta), 1)


def _git_sha() -> str:
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        return _read(str(ROOT / ".git" / head[5:])).strip() or "unknown"
    return head or "unknown"


def host_record(blas_threads: int) -> dict:
    import numpy as np
    import scipy

    from repro.engine import get_dtype, get_index_dtype

    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cpu_model": cpu_model,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "engine_dtype": np.dtype(get_dtype()).name,
        "engine_index_dtype": np.dtype(get_index_dtype()).name,
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
    }


def benchmark_metrics(trace: bool) -> dict:
    """Metric name -> unit that the final JSON line must carry."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(args) -> int:
    threads = pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import pipeline

    OUT.mkdir(parents=True, exist_ok=True)
    host = host_record(threads)
    wanted = benchmark_metrics(args.trace)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    started = time.time()
    ticks = _cpu_ticks()
    try:
        result = pipeline.run_workload(args.workload, args.seed, args.seconds,
                                       bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host["cpu_steal_share"] = steal_share(ticks, _cpu_ticks())
    values = result.layers if args.trace else result.end_to_end
    units = pipeline.LAYER_UNITS if args.trace else pipeline.E2E_UNITS

    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    for key, value in host.items():
        print(f"# host {key}: {value}")
    print(f"# end-to-end metrics ({len(result.end_to_end)})")
    for name, value in result.end_to_end.items():
        print(f"{name:32s} {value:16.6g} {pipeline.E2E_UNITS[name]}")
    if args.trace:
        print(f"# per-layer metrics ({len(result.layers)})")
        for name, value in result.layers.items():
            print(f"{name:32s} {value:16.6g} {pipeline.LAYER_UNITS[name]}")
        print("# span self time (calls, total s, self s)")
        for name, row in result.tracer.summary().items():
            print(f"{name:32s} {row['calls']:8d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f}")
    print("# correctness checks")
    for name, attempted, failed, detail in result.checks.results:
        status = "PASS" if failed == 0 else "FAIL"
        extra = f"  ({detail})" if failed and detail else ""
        print(f"{status} {name}: {attempted - failed}/{attempted}{extra}")

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "started": started, "host": host, "notes": result.notes,
        "end_to_end": result.end_to_end, "per_layer": result.layers,
        "checks": result.checks.results,
        "attempted": result.checks.attempted, "failed": result.checks.failed,
    }
    if args.trace:
        stem = f"trace-{args.workload}-seed{args.seed}"
        trace_path = OUT / f"{stem}.json"
        result.tracer.write_chrome(trace_path)
        record["spans"] = result.tracer.summary()
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        print(f"# chrome trace written to {record['trace_file']}")
    with open(OUT / "records.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")

    missing = sorted(set(wanted) - set(values))
    if missing:
        print(f"# metrics missing from this run: {missing}", file=sys.stderr)
        return 1
    line = {
        "correct": result.checks.failed == 0,
        "attempted": result.checks.attempted,
        "failed": result.checks.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in wanted},
    }
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    sys.path.insert(0, str(ROOT / "src"))
    import pipeline

    status = 0
    for workload in pipeline.WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            completed = subprocess.run(command, check=False)
            status = status or completed.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
