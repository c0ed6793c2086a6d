"""relcone benchmark: the command BENCHMARK.json names.

    python3 bench/run.py --workload z-ladder --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each workload runs in a fresh interpreter
(bench/worker.py) with default flags and one thread.  Set-up time is the
median over SETUP_PROBES fresh interpreters, the measured one included.
With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(args, extra, timeout):
    env = dict(os.environ)
    env.pop("RELCONE_THREADS", None)
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: worker did not finish within {timeout} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "relcone", "__init__.py")):
        print("bench: src/relcone not found next to bench/", file=sys.stderr)
        return 2
    if not __debug__ or sys.flags.optimize:
        print("bench: refusing to run under -O: it strips the checks the program runs", file=sys.stderr)
        return 2

    main_run = run_worker(args, ["--trace"] if args.trace else [], WORKER_TIMEOUT_S)
    env = main_run["env"]
    print("bench: " + json.dumps(env, sort_keys=True))
    if env["relcone_threads"] != "unset" or not env["debug"]:
        print("bench: the workload process must run with checks on and RELCONE_THREADS unset", file=sys.stderr)
        return 2

    if args.trace:
        values = main_run["layers"]
        specs = spec["per_layer"]
    else:
        setups = [main_run["setup_s"]]
        for _ in range(SETUP_PROBES - 1):
            setups.append(run_worker(args, ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"])
        attempted, failed = main_run["attempted"], main_run["failed"]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": main_run["ops_per_s"],
            "op_p50_ms": main_run["op_p50_s"] * 1e3,
            "op_p90_ms": main_run["op_p90_s"] * 1e3,
            "peak_rss_mb": main_run["peak_rss_mb"],
            "ok_rate": 1.0 - failed / attempted,
        }
        print(f"bench: {main_run['passes']} passes of {main_run['attempted'] // main_run['passes']} ops, "
              f"{main_run['beyond_p90']} ops beyond p90, unscaled pass seconds {main_run['pass_seconds']}, "
              f"scaled setup samples {setups}")
        specs = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    result = {
        "correct": main_run["failed"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
