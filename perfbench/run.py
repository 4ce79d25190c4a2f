#!/usr/bin/env python3
"""Build and run the simulator benchmark for one workload.

    python3 perfbench/run.py --workload table1-tlm --seed 1 --seconds 12 --trace 0

Builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs one
measurement, checks it, writes a result file with provenance under
.bench_out/, prints every metric with its unit, and prints one JSON object
as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  --tiny shrinks every input so a run takes about a second
(used by perfbench/test_run.py).  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("table1-tlm", "table1-accuracy", "sweep-wbuf")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, timeout, **kw):
    """Run `cmd` in its own process group; on timeout kill the whole group
    and wait for it, so no child outlives the benchmark."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"timed out after {timeout} s: {' '.join(cmd)}")
    return proc.returncode, out, err


def build():
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    bdir = build_root / "perfbench"
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    for cmd in steps:
        code, out, _ = run_checked(cmd, BUILD_TIMEOUT_S, cwd=ROOT,
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True)
        if code != 0:
            log(out[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    exe = bdir / "perfbench"
    if not exe.exists():
        raise RuntimeError(f"build produced no {exe}")
    return exe


def source_digest():
    """SHA-256 over the library and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for p in sorted(base.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        code, out, _ = run_checked(["git", "rev-parse", "HEAD"], 10, cwd=ROOT,
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL, text=True)
    except (OSError, RuntimeError):
        return "unknown"
    return out.strip() if code == 0 else "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_digest(res, tiny, sources):
    """The simulated-statistics digest of a (workload, seed) must be the
    same in every run of the same sources, traced or not."""
    path = OUT_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = (f"{res['workload']}/{res['seed']}/{'tiny' if tiny else 'full'}/"
           f"{sources[:16]}")
    digest = res["info"]["digest"]
    if key in known and known[key] != digest:
        return (f"simulated-statistics digest {digest} differs from an "
                f"earlier run's {known[key]} for {key}")
    known[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for checking the output's shape")
    args = ap.parse_args()

    if not (ROOT / "src" / "core" / "platform.hpp").exists():
        log(f"perfbench: no library sources under {ROOT / 'src'}")
        return 2
    expected = expected_metrics(args.trace)

    exe = build()
    OUT_DIR.mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT_DIR)] + (["--tiny"] if args.tiny else [])
    code, out, err = run_checked(cmd, RUN_TIMEOUT_S, cwd=ROOT,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log(f"perfbench exited with {code}")
        return 1
    res = json.loads(lines[-1])

    messages = list(res["messages"])
    failed = res["failed"]
    sources = source_digest()
    digest_msg = check_digest(res, args.tiny, sources)
    if digest_msg:
        messages.append(digest_msg)
        failed += 1
    metrics = res["metrics"]
    if set(metrics) != set(expected):
        log(f"metric set differs from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(expected))}")
        return 1
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit or metrics[name]["value"] is None:
            log(f"metric {name}: {metrics[name]} does not match unit {unit}")
            return 1
    correct = res["correct"] and failed == 0

    provenance = dict(res["info"])
    provenance.update({
        "git_commit": git_commit(),
        "source_sha256": sources,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "tiny": args.tiny,
    })
    record = {"correct": correct, "attempted": res["attempted"],
              "failed": failed, "error_rate": failed / res["attempted"],
              "messages": messages, "metrics": metrics,
              "provenance": provenance}
    out_path = (OUT_DIR / f"result-{args.workload}-seed{args.seed}-"
                f"trace{args.trace}{'-tiny' if args.tiny else ''}.json")
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    for msg in messages:
        print(f"CHECK FAILED: {msg}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {provenance['passes']}  ops {provenance['main_ops']} "
          f"(main) / {res['attempted']} (all)  error_rate "
          f"{record['error_rate']:.4f}")
    print(f"provenance: commit {provenance['git_commit'][:12]}  sources "
          f"{provenance['source_sha256'][:12]}  {provenance['build_type']}  "
          f"{provenance['compiler']}  snapshot v"
          f"{provenance['snapshot_format_version']}  nproc "
          f"{provenance['nproc']}  sweep jobs {provenance['sweep_jobs']}")
    for name in expected:
        m = metrics[name]
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(f"result written to {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
