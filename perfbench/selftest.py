#!/usr/bin/env python3
"""Self-test of the Koios benchmark at toy scale.

    python3 perfbench/selftest.py

Run from the repository root. Checks that

  * every workload runs end to end, untraced and traced, with exact answers
    (the traced replay matches the engine bit for bit);
  * every metric of BENCHMARK.json appears in the output with its unit;
  * input generation is a function of the seed: one seed gives identical
    files, another seed gives different query lists;
  * two runs of opendata-verify with one seed report identical
    deterministic work counters (with toy inputs the closed loop runs over
    the whole query list, not a time window).

Exits 0 when every check passes, 1 otherwise.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (build() and the build paths)

DETERMINISTIC = ["refine.stream_tuples", "refine.tuples_produced",
                 "refine.candidates", "refine.iub_filtered",
                 "refine.bucket_moves", "post.sets", "post.no_em_skipped",
                 "post.em_early_terminated", "post.em_computed",
                 "post.verification_ems"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


# Closed-loop toy runs ignore the window. serve-churn's open loop needs one
# long enough for ten samples beyond its p98 at the fixed offered rate.
SECONDS = {"serve-churn": 14}


def bench_run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds",
           str(SECONDS.get(workload, 1)), "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, lines, last


def result_file(lines):
    for line in lines:
        if line.startswith("result file: "):
            with open(line[len("result file: "):]) as f:
                return json.load(f)
    return None


def main():
    bench = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
    run.build()

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            proc, lines, last = bench_run(workload, 1, trace)
            label = "%s trace %d" % (workload, trace)
            check(proc.returncode == 0 and last is not None
                  and last["correct"] and last["attempted"] >= 1,
                  label + ": runs end to end with exact answers")
            specs = bench["per_layer"] if trace else bench["end_to_end"]
            printed = {tuple(l.split()[::2]) for l in lines if len(l.split()) == 3}
            missing = [s["name"] for s in specs
                       if last is None or s["name"] not in last["metrics"]
                       or last["metrics"][s["name"]]["unit"] != s["unit"]
                       or (s["name"], s["unit"]) not in printed]
            check(not missing, label + ": every metric printed with its unit"
                  + ("" if not missing else " (missing %s)" % missing))
            report = result_file(lines)
            check(report is not None and report["wrong_results"] == 0,
                  label + ": no wrong results")
            if trace and report is not None:
                check(report["per_layer"]["trace.replay_coverage"]["value"] > 0,
                      label + ": traced replay ran and matched the engine")

    # Inputs are a function of the seed.
    base = os.path.join(run.BUILD_ROOT, "selftest")
    shutil.rmtree(base, ignore_errors=True)
    dirs = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        dirs[name] = os.path.join(base, name)
        os.makedirs(dirs[name])
        subprocess.run([run.BINARY, "gen", "--workload", "opendata-verify",
                        "--seed", str(seed), "--dir", dirs[name], "--toy"],
                       check=True, stderr=subprocess.DEVNULL)
    same = all(filecmp.cmp(os.path.join(dirs["a"], f),
                           os.path.join(dirs["b"], f), shallow=False)
               for f in ("queries.txt", "repo.v4"))
    check(same, "one seed gives identical inputs")
    check(not filecmp.cmp(os.path.join(dirs["a"], "queries.txt"),
                          os.path.join(dirs["c"], "queries.txt"),
                          shallow=False),
          "another seed gives a different query list")
    shutil.rmtree(base, ignore_errors=True)

    # Deterministic counters: the toy closed loop, run twice.
    counters = []
    for _ in range(2):
        proc, lines, last = bench_run("opendata-verify", 7, 0)
        report = result_file(lines)
        counters.append(None if report is None else
                        {k: report["per_layer"][k]["value"]
                         for k in DETERMINISTIC})
    check(counters[0] is not None and counters[0] == counters[1],
          "one seed gives identical work counters on opendata-verify")

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
