"""The repository's benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit_ds1 --seed 0 --seconds 20 --trace 0

Workloads: ``fit_ds1``, ``fit_ds1_jobs2``, ``stream_ds1o``, ``serve_ds1``
(see ``perfbench/README.md``).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.

Each workload runs in processes of its own (``perfbench/workloads.py``):
an untimed preparation process, ``SETUP_SAMPLES - 1`` set-up probes and
the main process, all in a scratch directory of the run under
``.perfbench_tmp/``, which is removed afterwards.  ``setup_s`` is the median set-up time over the probes
and the main process.  Thread pools of the BLAS libraries are pinned to
one thread before any of them imports numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
# Wall-clock ceiling of the whole run, which must end within 180 s.
RUN_DEADLINE_S = 170.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def load_spec(checkout: Path) -> dict:
    """``BENCHMARK.json``: the workload names and every metric's unit."""
    with open(checkout / "BENCHMARK.json") as handle:
        return json.load(handle)


def child_env(checkout: Path) -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    source = str(checkout / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: argparse.Namespace, role: str, tmp: Path, env: dict, deadline: float) -> dict:
    """Run one ``workloads.py`` process and parse its last output line."""
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", str(args.scale),
    ]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(command, cwd=tmp, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"{role} process exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"{role} process exited with {proc.returncode}"}
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    checkout = Path.cwd()
    try:
        spec = load_spec(checkout)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description="BIRCH repository benchmark")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every dataset (tests only; 1.0 is the benchmark)")
    args = parser.parse_args(argv)

    if not (checkout / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout holding src/repro", file=sys.stderr)
        return 2

    tmp_root = checkout / ".perfbench_tmp"
    tmp = tmp_root / f"run-{secrets.token_hex(4)}"
    tmp.mkdir(parents=True)
    env = child_env(checkout)
    try:
        prep = run_child(args, "prep", tmp, env, deadline)
        results = [prep]
        if prep.get("ok"):
            for _ in range(SETUP_SAMPLES - 1):
                results.append(run_child(args, "probe", tmp, env, deadline))
            main_out = run_child(args, "main", tmp, env, deadline)
            results.append(main_out)
        else:
            main_out = prep
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    attempted = int(main_out.get("attempted", 1)) or 1
    failed = int(main_out.get("failed", attempted))
    errors = [r["error"] for r in results if "error" in r]
    for failure in main_out.get("failures", []) + errors:
        print(f"perfbench: {failure}", file=sys.stderr)
    setups = [r for r in results[1:] if "setup_s" in r]
    if not main_out.get("ok") or errors:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": max(failed, 1),
                          "metrics": {}}))
        return 1

    if args.trace:
        values = main_out["layers"]
        wanted = spec["per_layer"]
        print("call counts:", json.dumps(main_out["call_counts"]))
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "pts_per_s": main_out["pts_per_s"],
            "ari": main_out["ari"],
            "peak_rss_mb": main_out["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
        print(f"repetitions: {main_out['reps']}; wall clock: pts_per_s "
              f"{main_out['wall_pts_per_s']:.6g}, setup_s "
              f"{statistics.median(r['setup_wall_s'] for r in setups):.4g}; "
              f"calibration loop median {main_out['loop_s']:.4f} s")
    print(f"host: cpu_count={os.cpu_count()} blas_threads={env['OPENBLAS_NUM_THREADS']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
