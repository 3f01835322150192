#!/usr/bin/env python3
"""The repository benchmark: build, run a workload, check it, print metrics.

Run one workload (from the root of a source checkout):

    python3 perfbench/run.py --workload kv-put-saturate --seed 7 --seconds 10 --trace 0

builds perfbench/ (a standalone CMake project over ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, prints every metric as "name = value unit", and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 runs the traced variant and reports the
per-layer metrics. The workloads and metrics are the ones BENCHMARK.json (at
the root of the checkout) names. Any correctness violation exits non-zero
without a result. Each result is also stored, stamped with the host
fingerprint, under .bench_build/results/.

--workload all runs every workload in turn and ends with one JSON line per
workload keyed by name; it exits non-zero if any of them is incorrect.

Compare two sets of stored results (refused across host fingerprints):

    python3 perfbench/run.py compare BASE_DIR NEW_DIR

Self-test of the measuring code (percentile rule, open-loop stall, compare):

    python3 perfbench/run.py --self-test
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

SPEC_FILE = ROOT / "BENCHMARK.json"


def load_spec():
    """BENCHMARK.json: the workloads and the metrics each kind of run reports."""
    try:
        spec = json.loads(SPEC_FILE.read_text())
        spec["workload_names"] = [w["name"] for w in spec["workloads"]]
        for kind in ("end_to_end", "per_layer"):
            spec[kind] = {m["name"]: m for m in spec[kind]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        die(f"cannot read {SPEC_FILE}: {e}", 2)
    return spec


# The part of the fingerprint that must match for two results to compare.
HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")

# A cold build compiles all of src/; a run after it has the rest of 180 s.
BUILD_BUDGET_S = 850
RUN_BUDGET_S = 170
REBASELINE_EXIT = 3


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die(msg, code=1):
    log(msg)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build(deadline):
    """Configure (once) and build perfbench; output goes to stderr."""
    if not (ROOT / "src" / "gateway" / "tcp_gateway.h").is_file():
        die(f"FSR sources not found under {ROOT / 'src'}", 2)
    out = build_dir() / "perfbench"

    def attempt():
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, timeout=max(10, deadline - time.time())).returncode:
                return False
        cmd = ["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)]
        return subprocess.run(cmd, stdout=sys.stderr,
                              timeout=max(10, deadline - time.time())).returncode == 0

    try:
        if attempt():
            return out
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(out, ignore_errors=True)
        if attempt():
            return out
    except subprocess.TimeoutExpired:
        die("build timed out")
    die("build failed")


def cmake_cache(out):
    values = {}
    try:
        for line in (out / "CMakeCache.txt").read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("//", "#")):
                key, _, value = line.partition("=")
                values[key.split(":")[0]] = value
    except OSError:
        pass
    return values


def fingerprint(out):
    cache = cmake_cache(out)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*")) + list(BENCH_DIR.rglob("*"))):
        if path.is_file() and path.suffix in (".h", ".cpp", ".py", ".txt"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "compiler": f"{compiler}: {version}",
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "commit": commit,
        "source_digest": digest.hexdigest()[:16],
    }


def run_workload(spec, out, workload, seed, seconds, trace):
    """Run one workload; returns its checked result, or dies on any violation."""
    deadline = time.time() + RUN_BUDGET_S
    cmd = [str(out / "fsrbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        got = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=max(30, deadline - time.time()))
    except subprocess.TimeoutExpired:
        die(f"{workload}: benchmark timed out")
    lines = got.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        die(f"{workload}: benchmark exited {got.returncode} without a result")
    if got.returncode != 0 or not result.get("correct"):
        die(f"{workload}: correctness violation: "
            f"{result.get('violation') or 'exit ' + str(got.returncode)}")

    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        die(f"{workload}: metric set mismatch: missing {sorted(set(expected) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, m in expected.items():
        if metrics[name]["unit"] != m["unit"] or not isinstance(metrics[name]["value"], (int, float)):
            die(f"{workload}: metric {name} malformed: {metrics[name]}")
    if result["attempted"] < 1:
        die(f"{workload}: no operation attempted")

    fp = fingerprint(out)
    record = {"fingerprint": fp, "workload": workload, "seed": seed,
              "seconds": seconds, "trace": trace, "result": result}
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"-{os.getpid()}"
    (results / f"{workload}-trace{trace}-seed{seed}-{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"# host: nproc={fp['nproc']} cpu={fp['cpu_model']!r} compiler={fp['compiler']!r} "
          f"build={fp['build_type']} commit={fp['commit']} source={fp['source_digest']}")
    print(f"# workload={workload} seed={seed} seconds={seconds} "
          f"trace={trace} details={json.dumps(result.get('details', {}))}")
    for name in expected:
        print(f"{name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    return {"correct": True, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                        for name in expected}}


def load_results(paths):
    records = []
    for p in paths:
        p = Path(p)
        for f in sorted(p.glob("*.json")) if p.is_dir() else [p]:
            records.append(json.loads(f.read_text()))
    return records


def host_of(record):
    return tuple(record["fingerprint"].get(k) for k in HOST_KEYS)


def compare(base, new, limits, out=sys.stdout):
    """Median of each metric per (workload, trace) on both sides; `limits`
    maps each end-to-end metric to its BENCHMARK.json entry. Returns the exit
    code: 0 fine, 1 a metric worse than its bound, 2 results that cannot be
    judged, 3 rebaseline."""
    hosts = {host_of(r) for r in base} | {host_of(r) for r in new}
    if len(hosts) != 1:
        print("rebaseline: the results come from different hosts or toolchains; "
              "comparing them would measure the machines, not the code:", file=out)
        for h in sorted(hosts, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, h)), file=out)
        return REBASELINE_EXIT
    lengths = {r["seconds"] for r in base} | {r["seconds"] for r in new}
    if len(lengths) != 1:
        print(f"refused: the results measured windows of different lengths {sorted(lengths)}",
              file=out)
        return 2
    worst = 0

    def medians(records, key):
        values = {}
        for r in records:
            if (r["workload"], r["trace"]) == key:
                for name, m in r["result"]["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
        return {name: statistics.median(v) for name, v in values.items()}

    keys = sorted({(r["workload"], r["trace"]) for r in base} & {(r["workload"], r["trace"]) for r in new})
    if not keys:
        print("refused: no workload was measured on both sides", file=out)
        return 2
    for key in keys:
        b, n = medians(base, key), medians(new, key)
        print(f"{key[0]} (trace {key[1]})", file=out)
        for name in sorted(set(b) | set(n)):
            if name not in b or name not in n:
                print(f"  {name:34s} measured on one side only", file=out)
                worst = max(worst, 2)
                continue
            change = (n[name] - b[name]) / b[name] if b[name] else 0.0
            verdict = ""
            if key[1] == 0:
                if name not in limits:
                    verdict = "  NO BOUND in BENCHMARK.json"
                    worst = max(worst, 2)
                else:
                    worse = -change if limits[name]["better"] == "higher" else change
                    if worse > limits[name]["bound"]:
                        verdict = f"  WORSE than bound {limits[name]['bound']:.0%}"
                        worst = max(worst, 1)
            print(f"  {name:34s} {b[name]:14.6g} -> {n[name]:14.6g} ({change:+.1%}){verdict}",
                  file=out)
    return worst


def self_test():
    out = build(time.time() + BUILD_BUDGET_S)
    code = subprocess.run([str(out / "fsrbench_selftest")]).returncode
    limits = {"setup_s": {"better": "lower", "bound": 0.25}}

    def fake(cpu, setup_s=1.0, seconds=10):
        fp = {"nproc": 4, "cpu_model": cpu, "compiler": "c++", "build_type": "RelWithDebInfo"}
        return {"fingerprint": fp, "workload": "w", "trace": 0, "seconds": seconds,
                "result": {"metrics": {"setup_s": {"value": setup_s, "unit": "s"}}}}

    class Sink:
        text = ""

        def write(self, s):
            self.text += s

    checks = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        checks.append(ok)

    sink = Sink()
    check(compare([fake("cpu A")], [fake("cpu B")], limits, out=sink) == REBASELINE_EXIT
          and "rebaseline" in sink.text,
          "compare refuses results from different hosts and says rebaseline")
    check(compare([fake("cpu A")], [fake("cpu A")], limits, out=Sink()) == 0,
          "compare accepts results from one host")
    check(compare([fake("cpu A")], [fake("cpu A", setup_s=1.5)], limits, out=Sink()) == 1,
          "compare fails a metric worse than its bound")
    check(compare([fake("cpu A")], [fake("cpu A")], {}, out=Sink()) == 2,
          "compare fails a metric without a bound")
    check(compare([fake("cpu A")], [fake("cpu A", seconds=2)], limits, out=Sink()) == 2,
          "compare refuses windows of different lengths")
    return 0 if code == 0 and all(checks) else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        args = parser.parse_args(sys.argv[2:])
        spec = load_spec()
        sys.exit(compare(load_results([args.base]), load_results([args.new]), spec["end_to_end"]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="a workload BENCHMARK.json names, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    # The window length is BENCHMARK.json's run_seconds; the flag is accepted
    # only to confirm it, so every stored result measured the same window.
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    spec = load_spec()
    names = spec["workload_names"]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names} or all")
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds must be BENCHMARK.json's run_seconds ({seconds})")
    out = build(time.time() + BUILD_BUDGET_S)
    if args.workload != "all":
        print(json.dumps(run_workload(spec, out, args.workload, args.seed, seconds, args.trace)),
              flush=True)
        return
    results = {w: run_workload(spec, out, w, args.seed, seconds, args.trace) for w in names}
    print(json.dumps(results), flush=True)


if __name__ == "__main__":
    main()
