"""Reference figures for perfbench/README.md; no workload runs this.

    python3 perfbench/reference.py engines     # native vs compiled, cuda vs omp
    python3 perfbench/reference.py teams       # OpenMP team settings, per process
    python3 perfbench/reference.py warm-start  # set-up with REPRO_CACHE=1, cold vs warm

Each prints one JSON object.  ``teams`` and ``warm-start`` start
``worker.py`` processes the way ``run.py`` does, with other environments.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Dict, List

import run
from stats import geomean, percentile


def worker(workload: str, seconds: float, extra_env: Dict[str, str], name: str,
           seed: int = 1) -> Dict:
    """One untraced ``worker.py`` process in its own scratch directory."""
    directory = run.WORK / name
    shutil.rmtree(directory, ignore_errors=True)
    (directory / "tmp").mkdir(parents=True)
    env = run.worker_env(workload, directory)
    for key in ("OMP_NUM_THREADS", "OMP_WAIT_POLICY"):
        env.pop(key, None)
    env.update(extra_env)
    out = directory / "result.json"
    subprocess.run([sys.executable, str(run.HERE / "worker.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                    "--src", str(run.SRC), "--out", str(out)],
                   cwd=directory, env=env, check=True, timeout=170)
    return json.loads(out.read_text())


def raw_p50s(result: Dict) -> Dict[str, float]:
    """Uncorrected per-function medians, in µs."""
    stream = result["streams"][0]
    return {label: percentile(values, 0.5) / 1e3 for label, values in stream["ns"].items()}


def engines(seconds: float) -> Dict:
    """Warm p50 of every function at small inputs on the native and compiled
    engines (one thread), and the cuda-over-omp geomean of each."""
    scratch = run.WORK / "ref-engines"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ.update(TMPDIR=str(scratch), OMP_NUM_THREADS="1")
    sys.path.insert(0, str(run.SRC))
    import worker as W
    from repro.frontend import compile_cuda
    from repro.runtime import make_executor

    functions = [fn for fn in W.make_functions(1, "kernels-small") if not fn.oob]
    W.attach_sources(functions)
    report = {}
    for engine in ("native", "compiled"):
        p50 = {}
        for fn in functions:
            module = compile_cuda(fn.source, cuda_lower=True, cache="shared")
            executor = make_executor(module, engine=engine)
            W.run_once(fn, executor)
            samples = []
            deadline = time.perf_counter() + seconds / len(functions)
            while time.perf_counter() < deadline or len(samples) < 20:
                ok, elapsed, _ = W.run_once(fn, executor)
                assert ok, f"{fn.label} on {engine} gave a wrong output"
                samples.append(elapsed)
            p50[fn.label] = percentile(samples, 0.5) / 1e3
        report[engine] = p50
    labels = [fn.label for fn in functions]
    report["native_over_compiled"] = geomean(
        [report["compiled"][label] / report["native"][label] for label in labels])
    for engine in ("native", "compiled"):
        report[f"{engine}_cuda_over_omp"] = geomean(
            [report[engine][label.replace("-cuda", "-omp")] / report[engine][label]
             for label in labels if label.endswith("-cuda")])
    return report


def teams(processes: int, seconds: float) -> Dict:
    """Geomean p50 of one process per setting, ``processes`` times each."""
    settings = {
        "default": {},
        "passive": {"OMP_WAIT_POLICY": "passive"},
        "one-thread": {"OMP_NUM_THREADS": "1"},
    }
    report = {}
    for workload in ("kernels-small", "kernels-large"):
        for name, env in settings.items():
            values = []
            for index in range(processes):
                result = worker(workload, seconds, env, f"ref-{name}-{index}")
                values.append(geomean(list(raw_p50s(result).values())))
            report[f"{workload}/{name}"] = values
    return report


def warm_start() -> Dict:
    """``setup_s`` of a process with an empty disk cache, then a warm one."""
    env = {"REPRO_CACHE": "1", "REPRO_CACHE_DIR": str(run.WORK / "ref-cache"),
           "OMP_NUM_THREADS": "1"}
    shutil.rmtree(run.WORK / "ref-cache", ignore_errors=True)
    cold = worker("kernels-small", 1.0, env, "ref-cold")["setup_s"]
    warm = [worker("kernels-small", 1.0, env, f"ref-warm-{index}")["setup_s"]
            for index in range(3)]
    return {"cold_setup_s": cold, "warm_setup_s": warm}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="perfbench reference figures")
    parser.add_argument("figure", choices=("engines", "teams", "warm-start"))
    parser.add_argument("--processes", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args(argv)
    try:
        if args.figure == "engines":
            report = engines(args.seconds)
        elif args.figure == "teams":
            report = teams(args.processes, args.seconds)
        else:
            report = warm_start()
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
