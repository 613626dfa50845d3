#!/usr/bin/env python3
"""End-to-end benchmark of the TSC-NTP stack: build, run, record, compare.

Run one workload (from the root of the repository):

    python3 e2e_bench/run.py --workload serve_udp --seed 1 --seconds 10 --trace 0

This builds the benchmark package (`e2e_bench/Cargo.toml`) in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`), runs it, appends a
fingerprinted result record to `.bench_results/records.jsonl` (see
`--records`, `--label`), and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

Compare two sets of result records (for example the parent commit's and a
change's):

    python3 e2e_bench/run.py compare base.jsonl change.jsonl

prints one row per workload and metric: each side's median and quartiles,
and a verdict against the bounds in `BENCHMARK.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "e2e_bench"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(env):
    """Builds the benchmark; returns the path of its executable."""
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail(f"build failed (exit {done.returncode})")
    return os.path.join(ROOT, target, "release", BINARY)


def command_output(cmd, env=None):
    """First line of a command's output, or None if it fails."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else None


def git_rev():
    """The commit the benchmark runs from, `+dirty` if it has local
    changes, or `unknown` outside a git checkout of this repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    top = command_output(["git", "rev-parse", "--show-toplevel"], env)
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    rev = command_output(["git", "rev-parse", "HEAD"], env) or "unknown"
    dirty = command_output(["git", "status", "--porcelain", "--untracked-files=no"], env)
    return rev + ("+dirty" if dirty else "")


def parse_result(line):
    """The result object of the benchmark's last line, validated."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def run(args):
    env = dict(os.environ)
    exe = build(env)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark failed (exit {done.returncode})", 3)
    result = parse_result(lines[-1])
    if result is None:
        fail("benchmark printed no valid result line", 3)
    info = {}
    for line in lines[:-1]:
        if line.startswith("info "):
            info = json.loads(line[len("info "):])
        else:
            print(line)
    record = {
        "label": args.label,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host_cpus": os.cpu_count(),
        "threads": info.get("threads"),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_rev": git_rev(),
        "result": result,
    }
    path = os.path.join(ROOT, args.records)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "result"}, sort_keys=True))
    print(json.dumps(result))


# ---------------------------------------------------------------- compare

def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """`better`, `worse`, `unchanged` or `unresolved` for one metric.

    `worse`: the change's median is worse than the base's by more than
    `bound`. `better`: every change run beats every base run, or the
    change wins at least nine tenths of all (base, change) pairs and the
    medians differ by more than the base's own quartile spread.
    `unresolved`: either side's quartile spread exceeds `bound`, unless
    every run of one side beats every run of the other. `n/a` for a metric
    without a bound.
    """
    if bound is None:
        return "n/a"
    if not base or not change:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    if bmed == 0 or cmed == 0:
        return "unresolved"
    worse_by = sign * (cmed - bmed) / abs(bmed)
    spread = max((bq3 - bq1) / abs(bmed), (cq3 - cq1) / abs(cmed))
    pairs = [sign * (c - b) for b in base for c in change]
    if all(p < 0 for p in pairs):
        return "better"
    if all(p > 0 for p in pairs) and worse_by > bound:
        return "worse"
    if spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(p < 0 for p in pairs) / len(pairs)
    if wins >= 0.9 and -worse_by > (bq3 - bq1) / abs(bmed):
        return "better"
    return "unchanged"


def load_records(path):
    records = []
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                fail(f"{path}:{n}: not a JSON record")
    return records


def values(records, workload, trace, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]]


def fingerprint(records):
    keys = ("host_cpus", "threads", "rustc", "git_rev", "label")
    return {k: sorted({str(r.get(k)) for r in records}) for k in keys}


def compare_rows(spec, base, change):
    """One row per workload and metric present in either set."""
    rows = []
    metrics = [(m, 0, m.get("bound")) for m in spec["end_to_end"]]
    metrics += [(m, 1, None) for m in spec["per_layer"]]
    for w in spec["workloads"]:
        for m, trace, bound in metrics:
            a = values(base, w["name"], trace, m["name"])
            b = values(change, w["name"], trace, m["name"])
            if not a and not b:
                continue
            rows.append({
                "workload": w["name"], "metric": m["name"], "unit": m["unit"],
                "base": a, "change": b,
                "verdict": verdict(a, b, m["better"], bound),
            })
    return rows


def fmt_side(v):
    if not v:
        return "-"
    q1, med, q3 = quartiles(v)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(v)}"


def compare(args):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    base, change = load_records(args.base), load_records(args.change)
    fb, fc = fingerprint(base), fingerprint(change)
    print(f"base:   {fb}")
    print(f"change: {fc}")
    for k in ("host_cpus", "threads", "rustc"):
        if fb[k] != fc[k]:
            print(f"warning: the sets differ in {k}; the comparison may not hold")
    failed = sum(r["result"]["failed"] for r in base + change)
    if failed:
        print(f"warning: {failed} failed operations in the records")
    print(f"{'workload':<20} {'metric':<36} {'unit':<12} {'base median [q1, q3]':<40} "
          f"{'change median [q1, q3]':<40} {'delta':>8}  verdict")
    for row in compare_rows(spec, base, change):
        a, b = row["base"], row["change"]
        delta = "-"
        if a and b and statistics.median(a) != 0:
            delta = f"{100 * (statistics.median(b) / statistics.median(a) - 1):+.1f}%"
        print(f"{row['workload']:<20} {row['metric']:<36} {row['unit']:<12} {fmt_side(a):<40} "
              f"{fmt_side(b):<40} {delta:>8}  {row['verdict']}")


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare",
                                    description="Compare two sets of result records.")
        p.add_argument("base", help="JSONL records of the base (e.g. the parent commit)")
        p.add_argument("change", help="JSONL records of the change")
        compare(p.parse_args(argv[1:]))
        return
    p = argparse.ArgumentParser(description="Build and run one workload of the benchmark.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", default="run", help="label stored in the result record")
    p.add_argument("--records", default=os.path.join(".bench_results", "records.jsonl"),
                   help="records file, relative to the repository root")
    run(p.parse_args(argv))


if __name__ == "__main__":
    main(sys.argv[1:])
