#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py selftest
    python3 perfbench/run.py compare BASE.json NEW.json

Run from the repository root.  The harness is an OCaml executable built
with dune from this checkout; this script builds it, passes the machine's
core count in as --jobs, and relays its output.  The last line of standard
output is the run's JSON result.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "exec"))):
        fail("run from the root of a lattol checkout (dune-project and lib/exec/ are missing)")
    # The shared dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe", "./test/numdiff.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")


def harness(args):
    return subprocess.run([EXE] + args).returncode


def spec_from_benchmark_json():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return {
        "end_to_end": [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
    }, bench


def selftest():
    build()
    status = harness(["selftest", "--jobs", str(nproc())])
    out = subprocess.run([EXE, "spec"], capture_output=True, text=True, check=True).stdout
    harness_spec = {"end_to_end": [], "per_layer": [], "workload": []}
    for line in out.splitlines():
        kind, name, *rest = line.split()
        harness_spec[kind].append(tuple([name] + rest))
    listed, bench = spec_from_benchmark_json()
    same = all(listed[k] == harness_spec[k] for k in listed)
    print(("ok  " if same else "FAIL") + " BENCHMARK.json lists the harness's metrics, units and directions")
    known = {name for (name,) in harness_spec["workload"]}
    listed_ok = {w["name"] for w in bench["workloads"]} <= known
    print(("ok  " if listed_ok else "FAIL") + " every BENCHMARK.json workload is known to the harness")
    return 0 if status == 0 and same and listed_ok else 1


def compare(base_path, new_path):
    """Compare two --out documents of the same workload.

    Refuses (exit 2) when they were taken at different core counts: the
    pool's scaling makes such numbers incomparable.  Exit 1 when an
    end-to-end metric is worse than its BENCHMARK.json bound."""
    docs = []
    for path in (base_path, new_path):
        with open(path) as f:
            docs.append(json.load(f))
    base, new = docs
    for key in ("nproc", "available_cores", "workload", "trace", "tail_pct"):
        if base["context"][key] != new["context"][key]:
            fail("refusing to compare: %s differs (%s vs %s)"
                 % (key, base["context"][key], new["context"][key]))
    _, bench = spec_from_benchmark_json()
    gated = {m["name"]: m for m in bench["end_to_end"]}
    directions = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    worse = []
    for name, b in base["result"]["metrics"].items():
        n = new["result"]["metrics"].get(name)
        if n is None:
            worse.append(name + " (missing)")
            continue
        bv, nv = b["value"], n["value"]
        change = (nv - bv) / bv if bv else 0.0
        loss = change if directions.get(name) == "lower" else -change
        verdict = ""
        if name in gated and loss > gated[name]["bound"]:
            verdict = "  WORSE than bound %.2f" % gated[name]["bound"]
            worse.append(name)
        print("%-28s %14.6g -> %-14.6g %-6s %+7.1f%%%s" % (name, bv, nv, b["unit"], 100 * change, verdict))
    return 1 if worse else 0


def main(argv):
    if argv[:1] == ["selftest"]:
        return selftest()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare BASE.json NEW.json")
        return compare(argv[1], argv[2])
    if "--jobs" in argv:
        fail("--jobs is set from the machine's core count")
    build()
    return harness(["run"] + argv + ["--jobs", str(nproc())])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
