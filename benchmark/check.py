#!/usr/bin/env python3
"""Checks BENCHMARK.json and what the benchmark emits against each other.

  check.py declared BENCHMARK.json GEMMINI_BENCH
      BENCHMARK.json is well formed (keys, name and unit syntax, limits,
      bounds) and declares exactly the workloads GEMMINI_BENCH --list runs.
  check.py smoke BENCHMARK.json WORKLOAD TRACE BUILD_DIR
      One short run of WORKLOAD through run.sh (one rep, from the
      repository root) is correct, fails no op, and emits exactly the
      declared metrics of that pass with their declared units.
"""

import json
import math
import os
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def check_keys(obj, keys, where):
    if not isinstance(obj, dict) or set(obj) != set(keys):
        fail(f"{where}: keys must be exactly {sorted(keys)}")


def declared(spec_path, bench_bin):
    if os.path.getsize(spec_path) > 64 * 1024:
        fail("BENCHMARK.json is larger than 64 KiB")
    with open(spec_path) as f:
        spec = json.load(f)
    check_keys(spec, ["command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"], "BENCHMARK.json")

    cmd = spec["command"]
    if not (1 <= len(cmd) <= 32) or not all(
            isinstance(c, str) and len(c) <= 200 and not c.startswith("/")
            and ".." not in c.split("/") for c in cmd):
        fail("command: 1..32 relative strings of at most 200 characters")
    paths = spec["paths"]
    if not (1 <= len(paths) <= 16) or not all(
            PATH.match(p) and ".." not in p.split("/") for p in paths):
        fail("paths: 1..16 relative directory names")
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        fail("run_seconds: a whole number from 1 to 60")

    names = []
    workloads = spec["workloads"]
    if not 2 <= len(workloads) <= 8:
        fail("workloads: 2 to 8")
    for w in workloads:
        check_keys(w, ["name", "why"], "workload")
        if "\n" in w["why"] or not 0 < len(w["why"]) <= 200:
            fail(f"workload {w['name']}: why is one line of at most 200")
        names.append(w["name"])

    e2e, layer = spec["end_to_end"], spec["per_layer"]
    if not (1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128):
        fail("at most 16 end-to-end and 128 per-layer metrics")
    for m in e2e:
        check_keys(m, ["name", "unit", "better", "bound"], "end_to_end")
        if not (isinstance(m["bound"], (int, float)) and 0 <= m["bound"] <= 0.25):
            fail(f"{m['name']}: bound must lie in [0, 0.25]")
    for m in layer:
        check_keys(m, ["name", "unit", "better"], "per_layer")
    for m in e2e + layer:
        if m["better"] not in ("lower", "higher") or not UNIT.match(m["unit"]):
            fail(f"{m['name']}: bad unit or direction")
        names.append(m["name"])
    for n in names:
        if not NAME.match(n):
            fail(f"bad name {n!r}")
    if len(names) != len(set(names)):
        fail("a name is declared twice")

    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s (unit s, lower) must be declared")
    if setup[0]["bound"] < max(m["bound"] for m in e2e):
        fail("setup_s must have the largest bound")

    emitted = subprocess.run([bench_bin, "--list"], check=True,
                             capture_output=True, text=True).stdout.split()
    if sorted(emitted) != sorted(w["name"] for w in workloads):
        fail(f"workloads run {emitted} != declared")
    print("ok: BENCHMARK.json")


def smoke(spec_path, workload, trace, build_dir):
    with open(spec_path) as f:
        spec = json.load(f)
    root = os.path.dirname(os.path.abspath(spec_path))
    metrics = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", "1",
           "--seconds", "0", "--reps", "1", "--trace", trace,
           "--build-dir", build_dir]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    sys.stderr.write(proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    check_keys(result, ["correct", "attempted", "failed", "metrics"], "result")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"correct={result['correct']} failed={result['failed']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail("attempted must be a whole number >= 1")
    declared_units = {m["name"]: m["unit"] for m in metrics}
    emitted = result["metrics"]
    if set(emitted) != set(declared_units):
        fail(f"emitted-only {sorted(set(emitted) - set(declared_units))}, "
             f"declared-only {sorted(set(declared_units) - set(emitted))}")
    for name, m in emitted.items():
        check_keys(m, ["value", "unit"], name)
        v = m["value"]
        if m["unit"] != declared_units[name] or not (
                isinstance(v, (int, float)) and math.isfinite(v)):
            fail(f"{name}: unit {m['unit']!r} or value {v!r}")
        if trace == "0" and v == 0:
            fail(f"{name}: end-to-end metrics are never 0")
    print(f"ok: {workload} trace {trace}, {result['attempted']} ops")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "declared":
        declared(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 6 and sys.argv[1] == "smoke":
        smoke(*sys.argv[2:])
    else:
        sys.exit(__doc__)
