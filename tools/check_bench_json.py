#!/usr/bin/env python3
"""Checks the structure and verdicts of one BENCH_*.json artifact.

Usage:
  tools/check_bench_json.py BENCH_<name>.json [--cqa-check PATH]

The file's base name selects its entry in SPECS below. Every entry can
hold:
  keys     -- top-level keys that must be present;
  nested   -- keys required inside a sub-object ("kernel"), inside every
              element of a list ("threads[]"), or inside every value of
              a map ("workloads{}");
  members  -- names that must appear in a top-level list or map;
  rules    -- verdicts, each (path, test); a path ending in "[].field"
              applies the test to that field of every list element.
Tests: "true" / "false" (truthiness), "nonzero", "zero", and
"covers_oracles" (every oracle `cqa_check --list` prints is listed;
needs --cqa-check).

Exits 0 and prints a one-line summary when every check holds, and exits
nonzero naming the first failed check otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

SPECS = {
    "BENCH_runtime.json": {
        "keys": ["sample_size", "hardware_concurrency", "kernel",
                 "serial_seconds", "serial_samples_per_sec", "threads",
                 "max_thread_speedup", "speedup_floor", "meets_floor",
                 "rewrite_cache_speedup"],
        "nested": {
            "kernel": ["interpreter_seconds", "compiled_seconds",
                       "kernel_speedup"],
            "threads[]": ["threads", "seconds", "samples_per_sec",
                          "speedup", "bitwise_identical"],
        },
        "rules": [("threads[].bitwise_identical", "true"),
                  ("meets_floor", "true")],
        "summary": lambda d: (
            f"kernel {d['kernel']['kernel_speedup']:.1f}x over "
            f"interpreter, threads {d['max_thread_speedup']:.2f}x "
            f"(floor {d['speedup_floor']:.2f}x)"),
    },
    "BENCH_guard.json": {
        "keys": ["workloads", "overhead_ok", "max_overhead_pct"],
        "members": {"workloads": ["exact_sweep_2d", "exact_sweep_3d",
                                  "fm_elimination"]},
        "nested": {"workloads{}": ["off_sec", "on_sec", "overhead_pct"]},
        "summary": lambda d: (
            f"max overhead {d['max_overhead_pct']:.2f}% "
            f"(ok={d['overhead_ok']})"),
    },
    "BENCH_serve.json": {
        "keys": ["requests", "distinct", "threads", "run_sec",
                 "submit_sec", "speedup", "coalesced_total",
                 "batched_total", "speedup_floor", "speedup_ok"],
        "rules": [("coalesced_total", "nonzero")],
        "summary": lambda d: (
            f"{d['speedup']:.2f}x over {d['threads']}-thread run() "
            f"(floor {d['speedup_floor']:.1f}x, ok={d['speedup_ok']})"),
    },
    "BENCH_served.json": {
        "keys": ["workers", "client_threads", "requests", "req_per_sec",
                 "p50_ms", "p99_ms", "cache_hits", "surge_requests",
                 "surge_shed", "shed_rate", "survival_requests",
                 "survival_ok_exact", "survival_degraded",
                 "survival_typed_errors", "survival_dishonest",
                 "survival_faults", "client_retries", "client_reconnects",
                 "hung_kills", "respawns", "req_per_sec_floor",
                 "throughput_ok"],
        "rules": [("surge_shed", "nonzero"),
                  ("survival_dishonest", "zero"),
                  ("survival_faults", "nonzero")],
        "summary": lambda d: (
            f"{d['req_per_sec']:.0f} req/s across {d['workers']} workers "
            f"(p50 {d['p50_ms']:.3f}ms, p99 {d['p99_ms']:.3f}ms, "
            f"shed rate {d['shed_rate']:.2f}, survival "
            f"{d['survival_faults']} faults / "
            f"{d['survival_dishonest']} dishonest, "
            f"ok={d['throughput_ok']})"),
    },
    "BENCH_arith.json": {
        "keys": ["workloads", "speedup_ok"],
        "members": {"workloads": ["fm_pivot_small", "fm_feasible_chain",
                                  "sweep_sections", "rational_axpy",
                                  "lagrange_interp", "bigint_mul_large"]},
        "nested": {"workloads{}": ["sec", "baseline_sec", "speedup",
                                   "floor"]},
        "summary": lambda d: (
            ", ".join(sorted(d["workloads"])) + f" (ok={d['speedup_ok']})"),
    },
    "BENCH_planner.json": {
        "keys": ["strategies", "planner_beats_all_covering_baselines"],
        "members": {"strategies": ["planner", "exact", "mc",
                                   "trivial_half"]},
        "summary": lambda d: ", ".join(sorted(d["strategies"])),
    },
    "BENCH_check.json": {
        "keys": ["oracles", "any_violated"],
        "rules": [("oracles", "covers_oracles"),
                  ("any_violated", "false")],
        "summary": lambda d: ", ".join(sorted(d["oracles"])),
    },
}


class CheckError(Exception):
    pass


def registered_oracles(cqa_check):
    if cqa_check is None:
        raise CheckError("oracle coverage needs --cqa-check PATH")
    listed = subprocess.run([cqa_check, "--list"], capture_output=True,
                            text=True, check=True)
    return [line.split()[0] for line in listed.stdout.splitlines()
            if line.strip()]


def check_value(name, path, value, test, cqa_check):
    if test == "true" and not value:
        raise CheckError(f"{name}: {path} is not true")
    if test == "false" and value:
        raise CheckError(f"{name}: {path} is true")
    if test == "nonzero" and value == 0:
        raise CheckError(f"{name}: {path} is 0")
    if test == "zero" and value != 0:
        raise CheckError(f"{name}: {path} is {value}, must be 0")
    if test == "covers_oracles":
        missing = [o for o in registered_oracles(cqa_check)
                   if o not in value]
        if missing:
            raise CheckError(f"{name}: {path} misses oracles {missing}")


def check(name, doc, spec, cqa_check):
    missing = [k for k in spec.get("keys", []) if k not in doc]
    if missing:
        raise CheckError(f"{name} missing fields: {missing}")
    for field, names in spec.get("members", {}).items():
        absent = [n for n in names if n not in doc[field]]
        if absent:
            raise CheckError(f"{name} {field} missing entries: {absent}")
    for path, keys in spec.get("nested", {}).items():
        field = path.rstrip("[]{}")
        if path.endswith("[]"):
            items = list(enumerate(doc[field]))
        elif path.endswith("{}"):
            items = list(doc[field].items())
        else:
            items = [(None, doc[field])]
        for label, obj in items:
            absent = [k for k in keys if k not in obj]
            if absent:
                where = field if label is None else f"{field}[{label}]"
                raise CheckError(f"{name} {where} missing {absent}")
    for path, test in spec.get("rules", []):
        if "[]." in path:
            field, key = path.split("[].")
            for i, row in enumerate(doc[field]):
                check_value(name, f"{field}[{i}].{key}", row[key], test,
                            cqa_check)
        else:
            check_value(name, path, doc[path], test, cqa_check)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", help="a BENCH_*.json artifact")
    parser.add_argument("--cqa-check", help="cqa_check binary, for the "
                        "oracle coverage of BENCH_check.json")
    args = parser.parse_args()
    name = os.path.basename(args.file)
    if name not in SPECS:
        sys.exit(f"no check table for {name}; known: {sorted(SPECS)}")
    spec = SPECS[name]
    try:
        with open(args.file) as f:
            doc = json.load(f)
        check(name, doc, spec, args.cqa_check)
        print(f"{name} ok: {spec['summary'](doc)}")
    except CheckError as e:
        sys.exit(str(e))
    except (KeyError, TypeError, ValueError, OSError,
            subprocess.CalledProcessError) as e:
        sys.exit(f"{name}: malformed ({type(e).__name__}: {e})")


if __name__ == "__main__":
    main()
