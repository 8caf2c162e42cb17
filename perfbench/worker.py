"""One workload in one process: set up, warm up, run the closed loop.

Started by run.py with the BLAS thread pool pinned; prints one JSON object
as its last line of output.  `--mode setup` stops after the warm-up and
reports only the set-up time.  Times are reported raw and scaled to the
reference host speed (hostspeed.py): set-up by the kernel samples taken
right after it, each timed operation by those taken around it.  With
`--spans PATH` the tracer is installed before the warm-up and the spans
of the timed operations are written to PATH; without it the tracer
module is never imported.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_REPORTED_PROBLEMS = 5


def blas_info() -> dict:
    """BLAS library and its thread count, queried from the loaded library."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "blas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                info["blas_threads"] = int(fn())
                return info
    return info


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t_setup = time.perf_counter()
    import murel
    import murel.cli  # noqa: F401  (imports every murel module)

    if not Path(murel.__file__).resolve().is_relative_to(src):
        print(f"murel imported from {murel.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import numpy as np
    import workloads
    from hostspeed import SETUP_SAMPLES, HostSpeed

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    attempted = failed = 0
    problems: list[str] = []

    def attempt(op, op_id):
        """Run and check one operation; returns (output, start, wall s, cpu s) or None."""
        nonlocal attempted, failed
        attempted += 1
        if tracer:
            tracer.begin_op(op_id)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = wl.run(op)
            error = None
        except Exception:
            out, error = None, traceback.format_exc(limit=3)
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.end_op()
        if error is None:
            try:
                found = wl.check(op, out)
            except Exception:
                found = [traceback.format_exc(limit=3)]
        else:
            found = [error]
        if found:
            failed += 1
            problems.extend(f"{op.case} #{op_id}: {p}" for p in found)
            return None
        return out, t0, t1 - t0, c1 - c0

    for i in range(wl.warmup_ops):
        attempt(wl.make_input(0, i), -1 - i)
    raw_setup_s = time.perf_counter() - t_setup
    speed = HostSpeed()
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    setup = {"setup_s": raw_setup_s * speed.overall(), "raw_setup_s": raw_setup_s}
    if args.mode == "setup":
        print(json.dumps({**setup, "attempted": attempted, "failed": failed,
                          "problems": problems[:MAX_REPORTED_PROBLEMS]}))
        return 0

    timed = []  # (case, items, start, wall s, cpu s) of each operation that passed its checks
    first = None
    i = 0
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < args.seconds:
        speed.sample_if_due()
        op = wl.make_input(1, i)
        done = attempt(op, i)
        if done is not None:
            out, t0, dt, dc = done
            timed.append((op.case, wl.items(op, out), t0, dt, dc))
            if i == 0:
                first = (op, out)
        i += 1
    speed.sample()

    latencies, raw_latencies, cases = [], [], {}
    items = 0
    wall = cpu = raw_wall = raw_cpu = 0.0
    for case_name, n, t0, dt, dc in timed:
        f = speed.factor(t0)
        items += n
        wall += dt * f
        cpu += dc * f
        raw_wall += dt
        raw_cpu += dc
        latencies.append(dt * f)
        raw_latencies.append(dt)
        case = cases.setdefault(case_name, [0, 0.0])
        case[0] += n
        case[1] += dt * f
    if first is not None and hasattr(wl, "final_check"):
        attempted += 1
        try:
            found = wl.final_check(*first)
        except Exception:
            found = [traceback.format_exc(limit=3)]
        if found:
            failed += 1
            problems.extend(found)
    if tracer:
        tracer.write(args.spans)

    result = {
        **setup,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_REPORTED_PROBLEMS],
        "ops": len(latencies),
        "items": items,
        "wall_s": wall,
        "cpu_s": cpu,
        "latencies_s": latencies,
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "raw_latencies_s": raw_latencies,
        "host_speed": speed.overall(),
        "host_samples": len(speed.seconds),
        "cases": cases,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            **blas_info(),
            "pinned": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
