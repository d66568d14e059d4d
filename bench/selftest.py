"""Harness self-test: tiny runs of each workload through ``bench/run.py``.

    python3 bench/selftest.py [--with-vet-default]

Checks that
- every run prints exactly the metrics BENCHMARK.json names, and passes;
- a deliberately wrong expectation (benign-hid expected as mass-storage)
  counts as a failed operation;
- the traced run reproduces the untraced report hashes;
- lifter-differential makes zero solver queries;
- without the program's sources the benchmark exits non-zero and prints no
  result.
``--with-vet-default`` adds a traced pass over the three default fixtures,
which takes about ten minutes at default budgets.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEED = 9001                     # neither the primary nor the held-out seed

failures: list[str] = []


def check(ok: bool, what: str):
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def bench(*args: str, cwd: str = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=1800)
    return proc.returncode, proc.stdout


def run(workload: str, trace: int) -> dict:
    code, out = bench("--workload", workload, "--seed", str(SEED),
                      "--seconds", "1", "--trace", str(trace))
    check(code == 0, f"{workload} trace {trace} exits 0")
    result = json.loads(out.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    section = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in spec[section]]
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"]
          and sorted(result["metrics"]) == sorted(names),
          f"{workload} trace {trace} prints exactly the {section} metrics")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{workload} trace {trace} passes ground truth")
    with open(os.path.join(BENCH_DIR, "out",
                           f"{workload}-s{SEED}-trace{trace}.json")) as fh:
        return {"line": result, "doc": json.load(fh)}


def same_hashes(workload: str, untraced: dict, traced: dict):
    a = untraced["doc"]["report_sha256"]
    b = traced["doc"]["report_sha256"]
    common = sorted(set(a) & set(b))
    check(bool(common) and all(a[k] == b[k] for k in common),
          f"{workload}: traced run reproduces {len(common)} untraced "
          f"report hashes")


def wrong_expectation():
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    import workloads
    workdir = os.path.join("bench", ".work", "selftest")
    os.makedirs(workdir, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        op = workloads.identity_triage_round(SEED, 0, workdir)[0]
        assert op.template == "benign-hid"
        i = op.argv.index("--expected")
        op.argv[i + 1] = "mass-storage"
        out = workloads.run_analysis(op)
    finally:
        os.chdir(cwd)
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    check(not out.ok, f"benign-hid expected as mass-storage fails "
                      f"({out.reason})")


def without_sources():
    tmp = os.path.join(BENCH_DIR, ".work", "no-src")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
    for name in os.listdir(BENCH_DIR):
        if name.endswith(".py"):
            shutil.copy(os.path.join(BENCH_DIR, name),
                        os.path.join(tmp, "bench"))
    try:
        code, out = bench("--workload", "identity-triage", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    check(code != 0 and not out.strip(),
          "without sources: non-zero exit and no result")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--with-vet-default", action="store_true")
    args = ap.parse_args()

    run("lifter-differential", 0)
    diff1 = run("lifter-differential", 1)
    m = diff1["line"]["metrics"]
    check(m["solver.queries"]["value"] == 0 and m["machine.steps"]["value"] > 0,
          "lifter-differential makes zero solver queries")

    ident0 = run("identity-triage", 0)
    ident1 = run("identity-triage", 1)
    same_hashes("identity-triage", ident0, ident1)
    check(ident1["line"]["metrics"]["solver.queries"]["value"] > 0,
          "identity-triage reaches the solver")

    if args.with_vet_default:
        vet1 = run("vet-default", 1)
        check(vet1["line"]["metrics"]["cli.stage.query2_unexpected_s"]["value"]
              > 0, "vet-default runs Query 2")

    wrong_expectation()
    without_sources()
    print(f"{len(failures)} check(s) failed" if failures else "all checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
