#!/usr/bin/env python3
"""Farm benchmark: one workload of the session farm, measured and checked.

    python3 farmbench/run.py --workload hold --seed 1 --seconds 20 --trace 0

Builds farmbench/farmbench.cpp against the repository's sources (into
$CARGO_TARGET_DIR/farmbench, default .bench_build/farmbench), runs the
workload, checks every farm call's events, messages and per-session digest
against farmbench/pins.json, and prints one line per metric followed by the
result as a JSON object on the last line.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer split.  Each run also writes its result,
with the machine fingerprint, under results/ in the build directory; see
compare.py.  farmbench/README.md describes the workloads and metrics.

    python3 farmbench/run.py --make-pins [--size tiny full]

re-pins the expected outputs, refusing if 1 and 4 threads disagree.
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
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("hold", "churn", "relay", "tree_churn")
SIZES = ("tiny", "full")
MAX_THREADS = 4
DEADLINE_S = 175.0
PIN_FIELDS = ("events", "messages", "digest")


def threads():
    return max(1, min(MAX_THREADS, os.cpu_count() or 1))


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (target if target.is_absolute() else ROOT / target) / "farmbench"


def build():
    """Configures (once) and builds the farmbench binary; returns its path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no sigcomp sources beside farmbench/ in {ROOT}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "farmbench",
                    "-j", str(threads())], stdout=sys.stderr, check=True)
    return out / "farmbench"


def run_binary(binary, flags, timeout):
    """Runs the binary; returns its JSON report (last stdout line)."""
    proc = subprocess.run([str(binary), *flags], stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"farmbench exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pin_table(calls):
    """variant -> protocol -> pinned outputs."""
    table = {}
    for call in calls:
        table.setdefault(call["variant"], {})[call["protocol"]] = {
            field: call[field] for field in PIN_FIELDS}
    return table


def count_failures(calls, pins):
    """Farm calls whose outputs differ from (or lack) their pin."""
    failed = 0
    for call in calls:
        want = pins.get(call["variant"], {}).get(call["protocol"])
        got = {field: call[field] for field in PIN_FIELDS}
        if want != got:
            failed += 1
            print(f"farmbench: {call['phase']} {call['protocol']} "
                  f"({call['threads']}t {call['queue']}): got {got}, "
                  f"pinned {want}", file=sys.stderr)
    return failed


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(build_info):
    """What must match for two results to be comparable."""
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "threads": threads(),
        "compiler": build_info["compiler"],
        "flags": build_info["flags"].strip(),
        "build_type": build_info["build_type"],
        "default_event_queue": build_info["default_event_queue"],
    }


def code_identity():
    """Which code was measured: the git SHA when there is one, and a digest
    of the sources either way (a benchmark checkout is not a git repo)."""
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, text=True, check=False)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*")),
             *sorted(BENCH_DIR.glob("*.cpp")), BENCH_DIR / "CMakeLists.txt"]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def measure(args):
    start = time.monotonic()
    binary = build()
    pins_path = Path(args.pins) if args.pins else BENCH_DIR / "pins.json"
    pins = json.loads(pins_path.read_text()).get(args.size, {}).get(
        args.workload, {})
    out = build_dir()
    (out / "results").mkdir(parents=True, exist_ok=True)
    (out / "spans").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    flags = ["--workload", args.workload, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size,
             "--threads", str(threads())]
    if args.trace:
        flags += ["--spans", str(out / "spans" / f"{stem}.jsonl")]
    report = run_binary(binary, flags, DEADLINE_S - (time.monotonic() - start))

    calls = report["calls"]
    failed = count_failures(calls, pins)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in report["metrics"].items()}
    error_rate = {"value": failed / len(calls), "unit": "ratio"}
    if args.trace:
        metrics["error_rate"] = error_rate
    for name, metric in {**metrics, "error_rate": error_rate}.items():
        print(f"{name} = {metric['value']:.10g} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": len(calls),
              "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "size": args.size,
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint(report["build"]),
              "code": code_identity(), "result": result, "calls": calls}
    (out / "results" / f"{stem}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))


def make_pins(args):
    binary = build()
    path = Path(args.pins) if args.pins else BENCH_DIR / "pins.json"
    pins = json.loads(path.read_text()) if path.is_file() else {}
    for size in args.make_pins:
        for workload in WORKLOADS:
            tables = []
            for count in sorted({1, threads()}):
                report = run_binary(binary, ["--workload", workload,
                                             "--size", size,
                                             "--pin-threads", str(count)],
                                    timeout=None)
                tables.append(pin_table(report["calls"]))
            if any(table != tables[0] for table in tables):
                raise RuntimeError(f"{size} {workload}: outputs differ "
                                   "between 1 and 4 threads; not pinning")
            pins.setdefault(size, {})[workload] = tables[0]
            print(f"pinned {size} {workload}", file=sys.stderr)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="run label; every farm call uses farm seed 42")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--pins", help="pins file (default farmbench/pins.json)")
    parser.add_argument("--make-pins", nargs="+", choices=SIZES, metavar="SIZE",
                        help="re-pin the expected outputs of these sizes")
    args = parser.parse_args()
    try:
        if args.make_pins:
            make_pins(args)
        elif args.workload:
            measure(args)
        else:
            parser.error("--workload or --make-pins is required")
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        print(f"farmbench: {err}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
