#!/usr/bin/env python3
"""The repository's benchmark: POP vs EBR on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload kv-zipf --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/main.exe with dune, runs it, checks that the metrics it
prints are exactly those BENCHMARK.json names (end_to_end with --trace 0,
per_layer with --trace 1), adds the commit to the provenance line and
prints the result object as the last line of standard output. Exits
non-zero, without a result, if the build or the name check fails or a
metric has no value (main.exe prints null for it); exits
non-zero after the result if a cell failed its correctness checks.

--self-test runs the determinism self-test (one worker, fixed seed, run
twice: per-op counts must repeat exactly) and a run of every workload
in both modes, whose metric names must match BENCHMARK.json and whose
values must all be numbers.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_SLACK_S = 150


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        die("no dune-project and lib/ here: run from the repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed (dune exit %d)" % r.returncode)


def run_exe(args, timeout):
    """Run main.exe; returns (exit code, stdout lines). stderr passes through."""
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("main.exe %s timed out after %ds" % (" ".join(args), timeout))
    return r.returncode, r.stdout.splitlines()


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_names(result, trace):
    """Problems with the printed metric set, as a list of strings."""
    want = declared_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    problems = ["missing %s" % k for k in sorted(set(want) - set(got))]
    problems += ["undeclared %s" % k for k in sorted(set(got) - set(want))]
    problems += ["unit of %s is %s, declared %s" % (k, got[k], want[k])
                 for k in sorted(set(want) & set(got)) if got[k] != want[k]]
    # main.exe prints null where a value could not be measured (an
    # empty cell, a zero denominator).
    problems += ["%s has no value" % k for k, v in sorted(result["metrics"].items())
                 if not isinstance(v.get("value"), (int, float)) or isinstance(v["value"], bool)]
    return problems


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    p = os.path.join(d, name)
                    h.update(p.encode())
                    with open(p, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                           timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def measure(args):
    build()
    code, lines = run_exe(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        timeout=int(args.seconds) + RUN_SLACK_S)
    result = parse_result(lines)
    if result is None:
        die("main.exe printed no result (exit %d)" % code)
    problems = check_names(result, args.trace == 1)
    if problems:
        die("metrics do not match BENCHMARK.json: " + "; ".join(problems))
    for line in lines[:-1]:
        if line.startswith('{"provenance"'):
            prov = json.loads(line)
            prov["provenance"].update(commit=commit(), source_digest=source_digest())
            line = json.dumps(prov)
        print(line)
    print(json.dumps(result), flush=True)
    sys.exit(code)


def self_test():
    build()
    code, lines = run_exe(["--self-test"], timeout=RUN_SLACK_S)
    print("\n".join(lines))
    ok = code == 0
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    # Runs of the measured length: every cell starts with empty retire
    # lists, and on kv-zipf a worker reaches its first reclamation pass
    # only after about 200 ms, so shorter traced cells leave the
    # per-pass ratios without a value.
    seconds = str(bench["run_seconds"])
    for w in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            code, lines = run_exe(["--workload", w, "--seed", "7", "--seconds", seconds,
                                   "--trace", str(trace)],
                                  timeout=bench["run_seconds"] + RUN_SLACK_S)
            result = parse_result(lines)
            if result is None:
                problems = ["no result (exit %d)" % code]
            else:
                problems = check_names(result, trace == 1)
                if code != 0 or not result["correct"] or result["failed"]:
                    problems.append("run failed (exit %d)" % code)
            print("self-test names %s trace=%d: %s"
                  % (w, trace, "; ".join(problems) if problems else "ok"), flush=True)
            ok = ok and not problems
    print("self-test: " + ("ok" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test()
    if not args.workload:
        die("--workload is required")
    measure(args)


if __name__ == "__main__":
    main()
