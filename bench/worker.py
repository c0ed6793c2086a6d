"""One workload in a fresh interpreter: set up, run timed passes, verify.

    python3 bench/worker.py --workload z-ladder --seed 1 --seconds 10 [--trace] [--setup-only]

Run from the repository root.  The last stdout line is one JSON object
for bench/run.py.  A pass runs every op of the workload once, in order,
in a closed loop on one thread; passes repeat, each on freshly built
inputs, at least MIN_PASSES times and then while the next one is expected
to end within --seconds.  Times are scaled to a reference machine speed
(see SpeedGauge); an op's latency is the median of its scaled times
across passes.  With --trace, one untraced pass is followed by a pass
that records spans and a pass that counts scalar calls; the per-layer
numbers come from those two.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import math
import os
import resource
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import relcone  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPAN_DIR = os.path.join(".bench_out", "spans")
MIN_PASSES = 3


def _rank(n, q):
    return max(1, math.ceil(round(n * q, 9)))


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1) of a non-empty sample."""
    return sorted(values)[_rank(len(values), q) - 1]


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-quantile."""
    return n - _rank(n, q)


def reference_kernel():
    """Fixed pure-Python work (integers, a dict, a sort) that never touches relcone."""
    acc, d = 0, {}
    for i in range(20000):
        acc += (i * 7919) % 104729
        d[i & 255] = acc
    xs = sorted((i * 31) % 1000 for i in range(5000))
    return acc + xs[0]


class SpeedGauge:
    """How fast the machine runs right now, from the reference kernel.

    The machine is shared: over a minute its speed swings by half, and a
    burst lasts seconds to minutes, so no length of run averages it out.
    The ratio of an op's time to the kernel's, both timed moments apart,
    stays within a few percent.  `factor()` re-times the kernel when the
    last sample is older than SAMPLE_EVERY_S and returns
    REFERENCE_S / kernel time: the scale that turns a time measured now
    into one at the reference speed.
    """

    REFERENCE_S = 0.0025  # the kernel's time at the reference speed
    SAMPLE_EVERY_S = 0.2

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.last = None
        self.scale = 1.0

    def sample(self, repeats=2):
        best = None
        for _ in range(repeats):
            t = self.clock()
            reference_kernel()
            dt = self.clock() - t
            best = dt if best is None else min(best, dt)
        self.scale = self.REFERENCE_S / best
        self.last = self.clock()
        return self.scale

    def factor(self):
        if self.last is None or self.clock() - self.last >= self.SAMPLE_EVERY_S:
            self.sample()
        return self.scale


class Pass:
    """One run of every op: raw and speed-scaled latencies, answers, errors."""

    def __init__(self):
        self.raw, self.scaled, self.results, self.errors = [], [], [], []

    @property
    def seconds(self):
        return sum(self.raw)


def run_pass(ops, gauge, tr=None):
    """Run every op once; the gauge is read between ops, never inside one."""
    out = Pass()
    clock = time.perf_counter
    for op in ops:
        scale = gauge.factor()
        t = clock()
        try:
            if tr is None:
                r = op.fn()
            else:
                with tr.span("op." + op.kind):
                    r = op.fn()
            err = None
        except Exception as e:  # a traceback is a failed op, not a crash
            r, err = None, f"{type(e).__name__}: {e}".splitlines()[0][:200]
        dt = clock() - t
        out.raw.append(dt)
        out.scaled.append(dt * scale)
        out.results.append(r)
        out.errors.append(err)
    return out


def reuse_share(ops):
    """Share of ops whose input an earlier op of the same pass already built."""
    seen, hits = set(), 0
    for op in ops:
        if op.key is not None:
            hits += op.key in seen
            seen.add(op.key)
    return hits / len(ops)


def verify(wl, ops, passes):
    """Failed op count over all passes, and the reasons, checked after timing.

    The first pass is checked against known answers; every later pass
    must give the same answer, op for op.
    """
    if hasattr(wl, "prepare_checks"):
        wl.prepare_checks()
    first = passes[0]
    base_digests = [workloads.digest(r) for r in first.results]
    reasons = []
    failed = 0
    for i, op in enumerate(ops):
        err = first.errors[i]
        if err is None:
            try:
                err = op.check(first.results[i])
            except Exception as e:
                err = f"check raised {type(e).__name__}: {e}"
        if err:
            failed += 1
            reasons.append(f"{op.label}: {err}")
    for p in passes[1:]:
        for i, op in enumerate(ops):
            if p.errors[i] is not None or workloads.digest(p.results[i]) != base_digests[i]:
                failed += 1
                reasons.append(f"{op.label}: answer differs between passes ({p.errors[i] or 'other bytes'})")
    return failed, reasons


def env_record(args):
    rev = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        rev = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    rev = fh.read().strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "revision": rev,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "relcone_threads": os.environ.get("RELCONE_THREADS", "unset"),
        "debug": __debug__,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not __debug__:
        print("bench: refusing to run with assertions stripped (-O)", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed)
    ops = wl.build()
    setup_raw_s = time.perf_counter() - _T0
    gauge = SpeedGauge()
    setup_s = setup_raw_s * gauge.sample(repeats=5)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes = [run_pass(ops, gauge)]
    elapsed = passes[0].seconds
    tr = None
    if args.trace:
        # pass 2 records spans, pass 3 counts scalar calls; both on fresh inputs
        tr = tracing.Tracer()
        ops = wl.build()
        undo = tracing.install_spans(tr, relcone)
        try:
            passes.append(run_pass(ops, gauge, tr))
        finally:
            tracing.uninstall(undo)
        ops = wl.build()
        undo, flush = tracing.install_counters(tr, relcone)
        try:
            passes.append(run_pass(ops, gauge))
        finally:
            tracing.uninstall(undo)
        flush()
    else:
        while len(passes) < MIN_PASSES or elapsed + passes[-1].seconds <= args.seconds:
            ops = wl.build()
            passes.append(run_pass(ops, gauge))
            elapsed += passes[-1].seconds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, reasons = verify(wl, ops, passes)
    for r in reasons[:20]:
        print(f"bench: FAILED {r}", file=sys.stderr)
    attempted = sum(len(p.raw) for p in passes)
    env = env_record(args)
    out = {"env": env, "attempted": attempted, "failed": failed, "setup_s": setup_s}
    if tr is None:
        # an op's latency: the median over passes of its speed-scaled time
        best = [statistics.median(p.scaled[i] for p in passes) for i in range(len(ops))]
        out.update(
            passes=len(passes),
            pass_seconds=[p.seconds for p in passes],
            ops_per_s=len(ops) / sum(best),
            op_p50_s=percentile(best, 0.5),
            op_p90_s=percentile(best, 0.9),
            beyond_p90=samples_beyond(len(best), 0.9),
            peak_rss_mb=peak_rss_mb,
        )
    else:
        layers = tracing.layer_metrics(tr)
        untraced, traced = sum(passes[0].scaled), sum(passes[1].scaled)
        layers["trace.overhead_share"] = (traced - untraced) / traced
        layers["workload.input_reuse_share"] = reuse_share(ops)
        out["layers"] = layers
        out["spans"] = len(tr.name)
        os.makedirs(SPAN_DIR, exist_ok=True)
        tr.write(os.path.join(SPAN_DIR, f"{args.workload}-seed{args.seed}.tsv"), "# " + json.dumps(env))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
