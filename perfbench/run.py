#!/usr/bin/env python3
"""Pinned end-to-end solidification benchmark (see README.md here).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lamellar-serial --seed 1 \\
        --seconds 25 --trace 0

Builds libtpf and the benchmark driver (driver.cpp) from the checkout's
sources on first use, under $CARGO_TARGET_DIR (default .bench_build), runs
the workload and prints, as the last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones (names and units: BENCHMARK.json).
Every result also goes, with the machine and build fingerprint, to
<build dir>/results/.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Workload -> key of its problem in golden.json. The two lamellar workloads
# run the same problem, so they share one expected fingerprint.
GOLDEN_KEY = {
    "lamellar-serial": "lamellar",
    "lamellar-shm4": "lamellar",
    "melt-insitu-hybrid": "melt-insitu",
}

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configure (once) and build the driver; returns the binary's path."""
    cmake_dir = bdir / "cmake"
    bdir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(bdir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = cmake_dir / "CMakeCache.txt"
        if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
            shutil.rmtree(cmake_dir)  # configured for another source tree
        steps = []
        if not cache.exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(cmake_dir), "--target",
                      "tpf-perfbench", "-j", jobs])
        for cmd in steps:
            left = deadline - time.monotonic()
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=max(1.0, left))
            if r.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}", 1)
    return cmake_dir / "tpf-perfbench"


def read_sys(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cache_sizes():
    """{'L1d': '48K', 'L2': '2048K', 'L3': '307200K', ...} of cpu0."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level, kind = read_sys(idx / "level"), read_sys(idx / "type")
        size = read_sys(idx / "size")
        if level and size and kind != "Instruction":
            sizes[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return sizes


def size_kib(text):
    if not text:
        return 0
    units = {"K": 1, "M": 1024, "G": 1024 * 1024}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text) // 1024


def source_identity():
    """Git revision when the checkout is a repository, plus a SHA-256 of the
    sources the benchmark builds from (the checkout may not be a repo)."""
    rev = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            rev = r.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "cmake", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return rev, h.hexdigest()


def machine():
    model = None
    for line in (read_sys("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": cache_sizes(),
        "kernel": platform.release(),
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    line = (read_sys("/proc/stat") or "").split("\n", 1)[0].split()
    if len(line) < 9 or line[0] != "cpu":
        return None
    ticks = [int(v) for v in line[1:]]
    return ticks[7], sum(ticks[:8])


def run_driver(cmd):
    """Run the driver in its own process group, so a timeout also stops the
    rank processes it forked; returns its stdout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"driver timed out after {RUN_TIMEOUT_S} s", 1)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray rank processes
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail(f"driver exited with code {proc.returncode}", 1)
    lines = out.strip().splitlines()
    if not lines:
        fail("driver printed no result", 1)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no solver sources under {ROOT / 'src'}: run from a full "
             "checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload '{args.workload}' ({', '.join(names)})")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    golden = json.loads((HERE / "golden.json").read_text())

    bdir = build_dir()
    exe = build(bdir)
    l3_kib = size_kib(cache_sizes().get("L3"))
    if l3_kib <= 0:
        fail("cannot read the L3 size from sysfs; it sizes the STREAM arrays")
    run_dir = bdir / "run" / f"{args.workload}-{os.getpid()}"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(run_dir), "--l3-kib", str(l3_kib),
           "--golden", golden[GOLDEN_KEY[args.workload]]]
    ticks0 = cpu_ticks()
    try:
        res = run_driver(cmd)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    ticks1 = cpu_ticks()

    rev, src_sha = source_identity()
    detail = res["detail"]
    # Share of CPU time the hypervisor took from this machine during the
    # run: a diagnostic for slow runs on shared hosts, not a metric.
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        detail["host_steal_frac"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    fingerprint = {
        "machine": machine(),
        "build": {k: detail[k] for k in ("build_type", "cxx_flags",
                                         "native_arch", "compiler",
                                         "kernel_target", "kernel_width")},
        "git_rev": rev,
        "source_sha256": src_sha,
    }
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            fail(f"metric {m['name']} was not measured", 1)
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} in {got['unit']}, expected {m['unit']}", 1)
        if not args.trace and got["value"] <= 0:
            fail(f"end-to-end metric {m['name']} is {got['value']}, not positive", 1)
        metrics[m["name"]] = got

    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'step_ms_p99 (no bound)':28s} {detail['step_ms_p99']:14.6g} ms"
              f"  over {detail['step_samples']} steps")
    for p in detail["problems"]:
        print(f"  CHECK FAILED: {p}")
    print("detail: " + json.dumps(detail))
    print("fingerprint: " + json.dumps(fingerprint))

    result = {"correct": bool(res["correct"]), "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    rdir = bdir / "results"
    rdir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = dict(result, detail=detail, fingerprint=fingerprint,
                  workload=args.workload, seed=args.seed, trace=args.trace)
    (rdir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-"
            f"{os.getpid()}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
