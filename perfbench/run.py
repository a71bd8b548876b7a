#!/usr/bin/env python3
"""Koios benchmark: one command for three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script

  1. builds the Koios library from src/ plus the measuring program
     (perfbench/CMakeLists.txt, Release, -march=native) into .bench_build/;
  2. generates the workload's inputs from the seed in a separate process:
     a v4 repository file and a query list, nothing else;
  3. runs the measuring program, which drives Koios through its public API
     for S seconds, checks every answer (exact semantic overlap, Baseline+
     theta*k on a sample, the serial replay), and with --trace 1 adds the
     traced pass that attributes time to the io/index/serve/net/sim/core/
     matching layers;
  4. prints every metric by name and unit, writes a result file with run
     provenance (build, host, load average and CPU steal around the run)
     under .bench_build/results/, and prints as its last line
     {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
     of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Workload constants (tail percentile, offered rate, latency limit, lag
bound) and the per-layer -> end-to-end map live in perfbench/workloads.json;
every numeric constant of the workload is passed to the measuring program.
Exit status: 0 when every answer was exact and the run valid, 1 otherwise.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(os.getcwd(), ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "koios_perfbench")
RUN_TIMEOUT_S = 170


def keep_temporaries_inside():
    """Points compilers and the program's temporaries at .bench_build/tmp."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp


def build():
    """Configures (once) and builds; build output goes to stderr."""
    keep_temporaries_inside()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise SystemExit("build failed: " + " ".join(cmd))


def source_fingerprint():
    """SHA-256 over the library sources (the checkout may not be a git repo)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice],
    # guest time being counted inside user already.
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests in between: a
    run on a machine shared with busy neighbours shows it."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    constants = load_json(os.path.join(HERE, "workloads.json"))
    if args.workload not in constants["workloads"]:
        raise SystemExit("unknown workload " + args.workload)
    workload = constants["workloads"][args.workload]

    build()

    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                    "-toy" if args.toy else "")
    inputs = os.path.join(BUILD_ROOT, "inputs", tag)
    results = os.path.join(BUILD_ROOT, "results")
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    os.makedirs(results, exist_ok=True)
    report_path = os.path.join(inputs, "report.json")
    trace_path = os.path.join(results, tag + ".trace.json")
    try:
        gen = [BINARY, "gen", "--workload", args.workload, "--seed",
               str(args.seed), "--dir", inputs] + (["--toy"] if args.toy else [])
        if subprocess.run(gen, stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode:
            raise SystemExit("input generation failed")
        cmd = [BINARY, "run", "--workload", args.workload, "--dir", inputs,
               "--out", report_path, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--seed", str(args.seed),
               "--trace-out", trace_path] + (["--toy"] if args.toy else [])
        for key, value in sorted(workload.items()):
            if isinstance(value, (int, float)):
                cmd += ["--" + key.replace("_", "-"), str(value)]
        load_before = os.getloadavg()[0]
        ticks_before = cpu_ticks()
        started = time.time()
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        wall_s = time.time() - started
        load_after = os.getloadavg()[0]
        ticks_after = cpu_ticks()
        if proc.returncode not in (0, 3) or not os.path.exists(report_path):
            raise SystemExit("measuring run failed (exit %d)" % proc.returncode)
        report = load_json(report_path)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    report["workload"] = args.workload
    report["seed"] = args.seed
    report["seconds"] = args.seconds
    report["trace"] = args.trace
    report["constants"] = workload
    report["layer_map"] = constants["layer_map"]
    report["provenance"] = dict(
        report.pop("build"),
        git_sha=git_sha(), source_sha256=source_fingerprint(),
        nproc=os.cpu_count(),
        hardware_concurrency=report["info"].get("hardware_concurrency"),
        machine=platform.machine(), kernel=platform.release(),
        loadavg_1m_before=load_before, loadavg_1m_after=load_after,
        cpu_steal_share=steal_share(ticks_before, ticks_after),
        run_wall_s=wall_s)
    result_file = os.path.join(results, tag + ".json")
    with open(result_file, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    # Every metric, by name and unit, for a human reader.
    print("== %s seed %d (%gs, trace %d) ==" % (args.workload, args.seed,
                                               args.seconds, args.trace))
    for section in ("end_to_end", "per_layer"):
        for name, m in sorted(report[section].items()):
            print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-28s %14d count" % ("wrong_results", report["wrong_results"]))
    for note in report["notes"]:
        print("note: " + note)
    print("result file: " + os.path.relpath(result_file))

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = report["per_layer"] if args.trace else report["end_to_end"]
    metrics = {}
    for spec in wanted:
        m = source.get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            raise SystemExit("metric %s missing or with another unit"
                             % spec["name"])
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
