"""usbvet benchmark: time-to-verdict and layer costs on fixed, seeded workloads.

    python3 bench/run.py --workload identity-triage --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout; the program is imported from ``src``.
An untraced run (``--trace 0``) times whole rounds of operations until
``--seconds`` have passed and prints the end-to-end metrics. Each round's
inputs are made just before it, outside the clock, so no input repeats in a
run. A traced run (``--trace 1``) takes the first rounds of the same seeded
inputs, runs each operation once plain and once with spans around every
layer, and prints the per-layer metrics. Both check every output against
ground truth, write a results file with provenance, per-operation rows and
report hashes to ``bench/out/``, and print one JSON object as the last line.

Seed 1 is the primary seed and seed 2 the held-out seed: a performance claim
made on seed 1 must also hold on seed 2. Any other seed is accepted.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array

PRIMARY_SEED = 1
HELDOUT_SEED = 2
WORKLOAD_NAMES = ("vet-default", "identity-triage", "lifter-differential")
SETUP_PROBES = 7

# Machine-speed calibration. On a shared host a CPU's speed drifts by up to
# 2x within seconds, and wall times drift with it. A timer runs a fixed
# pure-Python kernel every SAMPLE_EVERY_S, also in the middle of a timed call,
# and every timed call is scaled by CAL_REF_S / (mean kernel time around it):
# times read as seconds on a reference machine where the kernel takes
# CAL_REF_S. The kernel's own time is taken out of the calls it interrupted.
# The results file keeps the raw wall times as well.
CAL_REF_S = 0.001
CAL_ITERS = 4_000
SAMPLE_EVERY_S = 0.2

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def _mix(a: int, b: int) -> int:
    return (a ^ (b >> 3)) & 0xFF


def _kernel() -> float:
    """Duration of fixed interpreter-bound work like usbvet's inner loops:
    dict traffic, calls and small-integer arithmetic."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(CAL_ITERS):
        acc = (acc + table.get((i * 7) & 255, i) + _mix(i, acc)) & 0xFFFF
        table[i & 255] = acc
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the kernel from a SIGALRM handler, which Python runs between
    bytecodes of whatever is executing, so long calls are sampled too."""

    def __init__(self):
        self.at = array("d")            # when each sample started
        self.kernel = array("d")        # kernel time of each sample
        self.cost = array("d")          # whole handler time of each sample

    def sample(self, *_):
        t0 = time.perf_counter()
        k = _kernel()
        self.at.append(t0)
        self.kernel.append(k)
        self.cost.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, wall: float) -> tuple[float, float]:
        """(scaled, raw) time of a call: its wall time without the handler
        runs inside it, scaled by the samples within one period of it."""
        end = start + wall
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        raw = wall - sum(self.cost[lo:hi])
        lo = bisect.bisect_left(self.at, start - SAMPLE_EVERY_S)
        hi = bisect.bisect_right(self.at, end + SAMPLE_EVERY_S)
        if lo == hi:                    # the handler could not run: widen
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        ks = self.kernel[lo:hi]
        return raw * CAL_REF_S * len(ks) / sum(ks), raw


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=30, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(top) != 2 or os.path.realpath(top[0]) != os.path.realpath(ROOT):
        return "unknown"
    return top[1]


def _workdir(workload: str, seed: int) -> str:
    # Stable and relative: the image path is part of every report, so report
    # hashes compare across runs and checkouts.
    return os.path.join("bench", ".work", f"{workload}-s{seed}")


def _measure_setup(args, sampler) -> list[tuple[float, float]]:
    """Fresh processes that start the interpreter, import usbvet and build
    the first round's inputs, then exit: (start, wall time) of each. The
    speed is sampled between the probes, not during them: the probe shares
    the CPU with this process and would slow the kernel down."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    probes = []
    for _ in range(SETUP_PROBES):
        sampler.sample()
        t0 = time.perf_counter()
        # A blocking wait: waiting with a timeout polls, in steps of 50 ms.
        code = subprocess.Popen(cmd, stdout=subprocess.DEVNULL).wait()
        probes.append((t0, time.perf_counter() - t0))
        if code:
            raise RuntimeError(f"set-up probe exited {code}")
        sampler.sample()
    return probes


def _untraced(workload, seed: int, seconds: float, spool_path: str) -> dict:
    """Whole rounds until the time is up or the workload has no more inputs.
    Each operation's record goes to a spool file rather than into memory, so
    the peak RSS does not depend on how many operations fit in the run."""
    workdir = _workdir(workload.name, seed)
    t0 = time.perf_counter()
    r = 0
    with open(spool_path, "w") as spool:
        while r == 0 or time.perf_counter() - t0 < seconds:
            ops = workload.make_round(seed, r, workdir)
            if ops is None:
                break
            for op in ops:
                o = workload.run_op(op)
                spool.write(json.dumps([r, op.key(), op.kind, o.start,
                                        o.wall_s, o.ok, o.reason, o.sha256,
                                        o.row]) + "\n")
            r += 1
    return {"rounds": r, "measured_s": time.perf_counter() - t0,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _traced(workload, seed: int, tracer):
    """Each operation of the sample runs plain and traced, in alternating
    order so neither side always runs on warm caches. Making the inputs is
    traced too, outside any operation."""
    workdir = _workdir(workload.name, seed)
    done = []                           # (index, op, plain, traced)
    i = 0
    for r in range(workload.trace_rounds):
        tracer.op = -1
        tracer.attach()
        ops = workload.make_round(seed, r, workdir)
        tracer.detach()
        for op in ops:
            tracer.op = i
            if i % 2:
                tracer.attach()
                traced = workload.run_op(op)
                tracer.detach()
                plain = workload.run_op(op)
            else:
                plain = workload.run_op(op)
                tracer.attach()
                traced = workload.run_op(op)
                tracer.detach()
            done.append((i, op, plain, traced))
            i += 1
    tracer.op = -1
    return done


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def _write_results(args, doc: dict) -> str:
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        f"{args.workload}-s{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _provenance(args) -> dict:
    return {"commit": _git_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": sorted(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "primary_seed": PRIMARY_SEED, "heldout_seed": HELDOUT_SEED}


def _units(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _p(xs: list[float], pct: int) -> float:
    """The pct-th percentile, linearly interpolated."""
    return statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]


def run_untraced(args, sampler, probes, res, spool_path, units) -> str:
    with open(spool_path) as fh:
        records = [json.loads(line) for line in fh]
    scaled, walls, rows, failures = [], [], [], []
    by_kind: dict[str, list[float]] = {}
    hashes: dict[str, str] = {}
    skipped = 0
    for index, (r, key, kind, start, wall, ok, reason, sha256, row) in \
            enumerate(records):
        x, raw = sampler.scaled(start, wall)
        scaled.append(x)
        walls.append(raw)
        by_kind.setdefault(kind, []).append(x)
        skipped += row.get("skipped", 0)
        if not ok:
            failures.append({"round": r, "index": index, "op": key,
                             "reason": reason})
        if sha256 is not None:
            hashes[key] = sha256
            rows.append({"round": r, **row, "wall_s": wall, "scaled_s": x,
                         "ok": ok, "sha256": sha256})
    setup = [sampler.scaled(t, w) for t, w in probes]
    computed = {
        "ops_per_s": len(scaled) / sum(scaled),
        "setup_s": statistics.median(p[0] for p in setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = {k: (computed[k], unit) for k, unit in units.items()}
    doc = {"provenance": _provenance(args),
           "attempted": len(walls), "failed": len(failures),
           "failed_frac": len(failures) / len(walls),
           "skipped": skipped,
           "rounds": res["rounds"],
           "measured_s": res["measured_s"],
           "metrics": computed,
           "op_s_p50": statistics.median(scaled),
           "op_s_p90": _p(scaled, 90),
           "op_s_p99": _p(scaled, 99),
           "op_s_p50_by_kind": {k: statistics.median(v)
                                for k, v in sorted(by_kind.items())},
           "raw": {"op_wall_s_p50": statistics.median(walls),
                   "op_wall_s_p90": _p(walls, 90),
                   "ops_per_wall_s": len(walls) / sum(walls),
                   "setup_wall_s": statistics.median(p[1] for p in setup),
                   "setup_probes_wall_s": [p[1] for p in setup]},
           "calibration": {"ref_s": CAL_REF_S,
                           "samples": len(sampler.kernel),
                           "median_s": statistics.median(sampler.kernel),
                           "min_s": min(sampler.kernel),
                           "max_s": max(sampler.kernel)},
           "failures": failures[:100],
           "report_sha256": hashes,
           "rows": rows}
    path = _write_results(args, doc)
    print(f"{args.workload} seed {args.seed}: {len(walls)} operations in "
          f"{res['rounds']} rounds, {len(failures)} failed -> "
          f"{os.path.relpath(path, ROOT)}")
    for f in failures[:5]:
        print(f"  failed: {f['op']}: {f['reason']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return _result_line(not failures, len(walls), len(failures), metrics)


def run_traced(args, workload, tracer, units) -> str:
    done = _traced(workload, args.seed, tracer)
    failures = []
    rows = []
    templates = {}
    stage_s = tracer.op_stage_seconds()
    for i, op, plain, traced in done:
        for side, o in (("plain", plain), ("traced", traced)):
            if not o.ok:
                failures.append({"op": i, "key": op.key(), "side": side,
                                 "reason": o.reason})
        if plain.sha256 != traced.sha256:
            failures.append({"op": i, "key": op.key(), "side": "both",
                             "reason": "traced report differs from untraced"})
        if plain.row and "template" in plain.row:
            templates[i] = plain.row["template"]
            rows.append({**plain.row, "wall_s": plain.wall_s,
                         "traced_wall_s": traced.wall_s,
                         "sha256": plain.sha256,
                         "traced_sha256": traced.sha256,
                         "stage_s": stage_s.get(i, {})})
    plain_s = sum(p.wall_s for _, _, p, _ in done)
    traced_s = sum(t.wall_s for _, _, _, t in done)
    layer = tracer.layer_metrics(templates, stage_s)
    layer["trace.overhead_s"] = traced_s - plain_s
    layer["trace.ops"] = len(done)
    metrics = {k: (layer[k], units[k]) for k in units}
    spans_path = os.path.join(BENCH_DIR, "out",
                              f"{args.workload}-s{args.seed}.spans.json")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as fh:
        fh.write(tracer.spans_json())
    failed_ops = len({f["op"] for f in failures})
    doc = {"provenance": _provenance(args),
           "attempted": len(done), "failed": failed_ops,
           "failed_frac": failed_ops / len(done),
           "plain_s": plain_s, "traced_s": traced_s,
           "metrics": layer,
           "failures": failures[:100],
           "report_sha256": {row["image"]: row["sha256"] for row in rows},
           "rows": rows,
           "spans_file": os.path.relpath(spans_path, ROOT)}
    path = _write_results(args, doc)
    print(f"{args.workload} seed {args.seed} traced: {len(done)} operations, "
          f"{failed_ops} failed, overhead {traced_s - plain_s:.3f} s "
          f"-> {os.path.relpath(path, ROOT)}")
    for f in failures[:5]:
        print(f"  failed: op {f['op']} {f['key']} ({f['side']}): {f['reason']}")
    for name, (value, unit) in metrics.items():
        if value:
            print(f"  {name} = {value:.6g} {unit}")
    return _result_line(not failures, len(done), failed_ops, metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=PRIMARY_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the first round's inputs and exit (set-up "
                         "timing probe)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "usbvet", "__init__.py")):
        print(f"error: no usbvet sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # One CPU for the run, its set-up probes and its calibrations: the CPUs
    # of a shared host drift in speed independently of each other.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(_workdir(args.workload, args.seed), exist_ok=True)
    if args.setup_only:
        workload.make_round(args.seed, 0, _workdir(args.workload, args.seed))
        return 0

    try:
        if args.trace:
            import spans
            line = run_traced(args, workload, spans.Tracer(),
                              _units("per_layer"))
        else:
            sampler = SpeedSampler()
            probes = _measure_setup(args, sampler)
            spool = os.path.join(_workdir(args.workload, args.seed),
                                 "ops.jsonl")
            with sampler:
                res = _untraced(workload, args.seed, args.seconds, spool)
            line = run_untraced(args, sampler, probes, res, spool,
                                _units("end_to_end"))
    finally:
        shutil.rmtree(_workdir(args.workload, args.seed), ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
