#!/usr/bin/env python3
"""Runs one benchmark workload of the hec-ad repository.

    python3 perfbench/run.py --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]

Run from the repository root. Builds the benchmark package
(`perfbench/Cargo.toml`, release profile) with cargo, runs it with
HEC_THREADS=2, checks its summary line against BENCHMARK.json, and
prints the result record followed by the summary as the last line.
Exits non-zero when the build fails, a pass fails the correctness gate
or the summary does not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
BINARY = "hec-perfbench"
# Worker threads every workload runs with (the build host's core count;
# the result record carries the actual nproc beside it).
THREADS = "2"
# Seconds the benchmark process may take before it is stopped.
RUN_TIMEOUT_S = 170
SUMMARY_KEYS = ["correct", "attempted", "failed", "metrics"]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def seeds():
    """The default seed and the held-out seed (see seeds.json)."""
    return load_json(os.path.join(HERE, "seeds.json"))


def spec_errors(spec):
    """Problems with BENCHMARK.json's names, units and bounds."""
    errors = []
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        if not NAME_RE.match(name):
            errors.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        errors.append("names are not unique")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT_RE.match(m["unit"]):
            errors.append(f"bad unit {m['unit']!r} of {m['name']}")
        if m["better"] not in ("higher", "lower"):
            errors.append(f"bad direction of {m['name']}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            errors.append(f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s (unit s, lower is better) is missing")
    return errors


def parse_summary(line, spec, trace):
    """Parses the summary line and checks it against BENCHMARK.json:
    exactly the four keys, whole-number counts, and exactly the metrics
    of the mode, each a finite number with the declared unit. Returns
    the parsed object; raises ValueError on any mismatch."""
    try:
        summary = json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError(f"summary is not JSON: {e}") from None
    if not isinstance(summary, dict) or list(summary) != SUMMARY_KEYS:
        raise ValueError(f"summary keys must be exactly {SUMMARY_KEYS}")
    if not isinstance(summary["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if isinstance(summary[key], bool) or not isinstance(summary[key], int):
            raise ValueError(f"{key} must be a whole number")
    if summary["attempted"] < 1 or not 0 <= summary["failed"] <= summary["attempted"]:
        raise ValueError("need attempted >= 1 and 0 <= failed <= attempted")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = summary["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics or {}))
        extra = sorted(set(metrics or {}) - set(units))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise ValueError(f"metric {name} must hold exactly value and unit")
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} has no finite value")
        if m["unit"] != units[name]:
            raise ValueError(f"metric {name} has unit {m['unit']!r}, not {units[name]!r}")
    return summary


def build():
    """Builds the benchmark; returns the executable's path or None."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        check=False,
    )
    if done.returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    return os.path.join(target, "release", BINARY)


def main(argv=None):
    defaults = seeds()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=defaults["default"])
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args(argv)

    spec = load_json("BENCHMARK.json")
    errors = spec_errors(spec)
    if errors:
        print("BENCHMARK.json: " + "; ".join(errors), file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    exe = build()
    if exe is None:
        print("benchmark build failed", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", args.trace]
    try:
        done = subprocess.run(cmd, env=dict(os.environ, HEC_THREADS=THREADS),
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if not lines:
        print(f"benchmark printed nothing (exit {done.returncode})", file=sys.stderr)
        return 1
    try:
        summary = parse_summary(lines[-1], spec, args.trace == "1")
    except ValueError as e:
        print(f"bad summary line: {e}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    if done.returncode != 0 or not summary["correct"] or summary["failed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
