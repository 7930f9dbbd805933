"""The repository's benchmark: one command per workload, outside-in.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kernels-small --seed 1 --seconds 10 --trace 0

Workloads are ``kernels-small``, ``kernels-large`` and ``serve-native``
(see ``perfbench/README.md``).  Every output is checked against NumPy
references; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

An untraced run starts ``PROCESSES`` fresh worker processes one after the
other, each with empty compile and native-artifact caches.  Each sets the
program up (timed: ``setup_s`` is the median) and then measures for its
share of ``--seconds``; their samples are pooled, so one slow process
moves the result by less.  A traced run uses one worker.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from probe import NOMINAL_NS
from stats import geomean, median, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

PROCESSES = 2
#: rounds per window for the windowed statistics (p90, throughput).
WINDOW = 50
#: a whole run must end within 180 s; a worker gets this long at most.
WORKER_TIMEOUT_S = 150.0

#: the OpenMP environment of each workload.  kernels-small and the service
#: fix a one-thread team: at these sizes no region reaches the engine's
#: parallel threshold, and the default team's spin-wait makes whole
#: processes 10x slower at random (README, "OpenMP team").  kernels-large
#: keeps the default team size and asks waiting threads to sleep, which
#: removes that bimodality but keeps real parallel regions.
OPENMP_ENV = {
    "kernels-small": {"OMP_NUM_THREADS": "1"},
    "kernels-large": {"OMP_WAIT_POLICY": "passive"},
    "serve-native": {"OMP_NUM_THREADS": "1"},
}


def worker_env(workload: str, directory: Path) -> Dict[str, str]:
    """The program's defaults (no ``REPRO_*`` knob), the workload's OpenMP
    settings, and a private temporary directory: empty caches every time."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "OMP_", "GOMP_"))}
    env.update(OPENMP_ENV[workload])
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(directory / "tmp")
    return env


def run_worker(args, index: int, seconds: float, deadline: float) -> Dict:
    directory = WORK / f"run-{os.getpid()}-{index}"
    (directory / "tmp").mkdir(parents=True)
    out = directory / "result.json"
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--src", str(SRC), "--out", str(out)]
    with open(directory / "worker.log", "wb") as log:
        worker = subprocess.Popen(command, cwd=directory,
                                  env=worker_env(args.workload, directory),
                                  stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        try:
            code = worker.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
            code = "timeout"
    if code != 0:
        tail = (directory / "worker.log").read_text(errors="replace")[-4000:]
        raise SystemExit(f"perfbench: worker {index} failed ({code}):\n{tail}")
    return json.loads(out.read_text())


def windows(stream: Dict, nominal: Optional[float]):
    """Split one sample stream into windows of ``WINDOW`` rounds.

    Yields ``(samples by function, operations, busy ns)`` per window; a
    short tail joins the window before it.  ``busy`` is the operations' own
    time in-process (they run one at a time) and the rounds' wall time for
    a service client.  With a ``nominal`` probe time, a window's times are
    scaled by
    ``nominal / median(the window's probes)``.
    """
    probes = stream["probes"]
    count = max(1, len(probes) // WINDOW)
    bounds = [index * WINDOW for index in range(count)] + [len(probes)]
    by_window = [defaultdict(list) for _ in range(count)]
    for label, rounds in stream["rounds"].items():
        for round_index, ns in zip(rounds, stream["ns"][label]):
            by_window[min(round_index // WINDOW, count - 1)][label].append(ns)
    for index, samples in enumerate(by_window):
        first, last = bounds[index], bounds[index + 1]
        factor = nominal / median(probes[first:last]) if nominal else 1.0
        samples = {label: [ns * factor for ns in values]
                   for label, values in samples.items()}
        operations = sum(len(values) for values in samples.values())
        if "round_ns" in stream:
            busy = sum(stream["round_ns"][first:last]) * factor
        else:
            busy = sum(sum(values) for values in samples.values())
        yield samples, operations, busy


def end_to_end(workload: str, results: List[Dict], corrected: bool = True) -> Dict[str, float]:
    """The end-to-end metrics from the workers' host-corrected samples.

    p50 pools every sample of a function.  p90 and throughput are medians
    over windows of ``WINDOW`` rounds, so a few seconds of host noise in
    one window cannot move them much.  ``setup_s`` is scaled by the median
    ``glue`` probe of the worker that set up (``cc`` and the interpreter
    drift alike).
    """
    pooled: Dict[str, List[float]] = defaultdict(list)
    window_p90: Dict[str, List[float]] = defaultdict(list)
    rates: List[float] = []
    clients = 0
    for result in results:
        clients = len(result["streams"])
        for stream in result["streams"]:
            nominal = NOMINAL_NS[result["probe_kind"]] if corrected else None
            for samples, operations, busy in windows(stream, nominal):
                for label, values in samples.items():
                    pooled[label].extend(values)
                    window_p90[label].append(percentile(values, 0.9))
                rates.append(operations / (busy / 1e9))
    return {
        "setup_s": median([result["setup_s"] * (
            NOMINAL_NS["glue"] / median(result["glue_probe_ns"]) if corrected else 1.0)
            for result in results]),
        "run_p50_us": geomean([percentile(v, 0.5) / 1e3 for v in pooled.values()]),
        "run_p90_us": geomean([median(v) / 1e3 for v in window_p90.values()]),
        # each service client's window rate is its share of the total.
        "ops_per_s": median(rates) * (clients if workload == "serve-native" else 1),
        "peak_rss_mb": max(result["rss_kb"] for result in results) / 1024,
    }


def declared_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in document["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: run one workload")
    parser.add_argument("--workload", required=True, choices=sorted(OPENMP_ENV))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    # byte-compile once, outside every timed set-up (a no-op when current).
    compileall.compile_dir(str(SRC), quiet=1)
    count = 1 if args.trace else PROCESSES
    results = []
    try:
        for index in range(count):
            results.append(run_worker(args, index, args.seconds / count, deadline))
    finally:
        for index in range(count):
            shutil.rmtree(WORK / f"run-{os.getpid()}-{index}", ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = results[0]["metrics"]
    else:
        metrics = end_to_end(args.workload, results)
        raw = end_to_end(args.workload, results, corrected=False)
        print("perfbench: uncorrected " + " ".join(
            f"{name}={raw[name]:.6g}"
            for name in ("setup_s", "run_p50_us", "run_p90_us", "ops_per_s")),
            file=sys.stderr)
    units = declared_units(bool(args.trace))
    if set(metrics) != set(units):
        raise SystemExit("perfbench: measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps({
        "correct": all(result["side_ok"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
