"""murel benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload search|report|replay --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; murel is imported from its `src`.
Each workload runs in its own worker process (worker.py) with the BLAS
thread pool pinned to one thread, as one closed-loop client.

--trace 0 prints the end-to-end metrics.  Set-up runs in SETUP_REPEATS
workers; `setup_s` is their median.  The last of them then measures for S
seconds.  Every time in the result is scaled to the reference host speed
of hostspeed.py, which is sampled between operations; the raw times are
printed above the result.  --trace 1 measures for S/2 seconds untraced
and S/2 seconds with the tracer installed, writes the spans to
.perfbench_out/, and prints the per-layer metrics listed in
layer_map.json.

The last line of output is one JSON object: correct, attempted, failed,
metrics.  Exit code 0 when the run completed (a failed operation sets
"correct": false), 2 when the checkout holds no murel sources, 1 when a
worker failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("search", "report", "replay")
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_item": "ms",
    "peak_rss_mb": "MiB",
}
SETUP_REPEATS = 9
MIN_LATENCY_SAMPLES = 100  # p90 then has at least 10 samples beyond it
WORKER_TIMEOUT_S = 150
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def load_layer_map() -> list[dict]:
    with open(HERE / "layer_map.json", encoding="utf-8") as f:
        return json.load(f)


def run_worker(workload: str, seed: int, seconds: float, workdir: Path, *,
               mode: str = "measure", spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **BLAS_PIN}, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(results: list[dict], prefix: str = "") -> dict[str, float]:
    """The end-to-end metrics of the set-up workers and the measuring one
    (the last); prefix "raw_" gives them unscaled."""
    result = results[-1]
    lat = result[prefix + "latencies_s"]
    return {
        "setup_s": statistics.median(r[prefix + "setup_s"] for r in results),
        "items_per_s": result["items"] / result[prefix + "wall_s"],
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "cpu_ms_per_item": result[prefix + "cpu_s"] / result["items"] * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def measure(args, workdir: Path) -> tuple[list[dict], dict[str, tuple[float, str]], dict]:
    """Run the workers; returns their results, the metrics with units, and the environment."""
    if not args.trace:
        results = [run_worker(args.workload, args.seed, 0, workdir, mode="setup")
                   for _ in range(SETUP_REPEATS - 1)]
        main = run_worker(args.workload, args.seed, args.seconds, workdir)
        results.append(main)
        if main["ops"] < 2:
            raise WorkerError(f"{main['ops']} operations succeeded; {main['problems']}")
        if main["ops"] < MIN_LATENCY_SAMPLES:
            print(f"warning: {main['ops']} latency samples, fewer than {MIN_LATENCY_SAMPLES}",
                  file=sys.stderr)
        values = end_to_end(results)
        return results, {k: (v, END_TO_END[k]) for k, v in values.items()}, main["env"]

    spans_path = OUT / f"spans-{args.workload}.csv"
    untraced = run_worker(args.workload, args.seed, args.seconds / 2, workdir)
    traced = run_worker(args.workload, args.seed, args.seconds / 2, workdir, spans=spans_path)
    if not (untraced["items"] and traced["items"]):
        raise WorkerError(f"no operation succeeded; {untraced['problems'] + traced['problems']}")
    layer_map = load_layer_map()
    prefix = "search.evals_per_s."
    cases = [e["name"][len(prefix):] for e in layer_map if e["name"].startswith(prefix)]
    values = layers.per_layer(layers.Spans(spans_path), untraced, traced, cases)
    metrics = {e["name"]: (values[e["name"]], e["unit"]) for e in layer_map}
    return [untraced, traced], metrics, traced["env"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "murel" / "__init__.py").is_file():
        print(f"no murel sources under {ROOT / 'src'}; run from a murel checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        results, metrics, env = measure(args, workdir)
    except (WorkerError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for problem in r["problems"]:
            print(f"failed operation: {problem}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env))
    print(f"operations attempted {attempted}, failed {failed}")
    if not args.trace:
        main_result = results[-1]
        print(f"latency samples {main_result['ops']}, set-ups {len(results)}")
        print(f"raw, at host speed {main_result['host_speed']:.3f} of reference "
              f"({main_result['host_samples']} kernel samples):")
        for name, value in end_to_end(results, "raw_").items():
            print(f"  {name:<48} {value:>14.6g} {END_TO_END[name]}")
        print("scaled to reference host speed:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
