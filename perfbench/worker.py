"""One benchmark process: set the program up from empty caches, then measure.

``run.py`` starts this script in a fresh scratch directory (also its
``TMPDIR``) inside the checkout and reads the JSON it writes to ``--out``.
It is not meant to be run by hand.

Two phases exist:

* **in-process** (``kernels-*``): every function is compiled with
  ``repro.frontend.compile_cuda`` and run on the native engine through
  ``repro.runtime.make_executor``, round-robin;
* **service** (``serve-native``): a ``python -m repro serve --engine native``
  daemon answers two closed-loop ``ServiceClient`` threads.

An untraced process runs its workload's phase.  A traced process (``--trace
1``) runs both, the in-process one with outside-in layer timers and a bare
``NativeEngine`` next to every wrapped executor, so every workload reports
every per-layer metric; only the workload's own phase counts toward
``attempted``/``failed``, and a wrong output in the other phase clears
``correct``.

Inputs and NumPy references are made before ``repro`` is imported, so the
set-up clock covers only the program: import, compile, executor build and
the first dispatch of every function (which runs ``cc`` and dlopens).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import kernels as K
from probe import NOMINAL_NS, probe_ns
from stats import geomean, median, percentile

SOCKET = "serve.sock"
CLIENTS = 2
DAEMON_START_TIMEOUT_S = 60.0


class Function:
    """One benchmarked function with its inputs and expected outputs."""

    def __init__(self, name: str, variant: str, base: List,
                 expected: Optional[Dict[int, np.ndarray]]) -> None:
        self.name = name
        self.variant = variant
        self.base = base
        self.expected = expected
        self.label = f"{name.replace(' ', '_')}-{variant}"
        self.source = ""
        self.entry = ""
        self.module = None

    @property
    def oob(self) -> bool:
        return self.variant == "oob"

    def check(self, result: List) -> bool:
        return K.check(self.name, result, self.expected, self.base)


def make_functions(seed: int, workload: str, variants=K.VARIANTS) -> List[Function]:
    functions = []
    for spec in K.KERNELS:
        for variant in variants:
            base = K.make_inputs(seed, workload, spec.name, variant)
            functions.append(Function(spec.name, variant, base,
                                      spec.expected(variant, base)))
    if workload == "kernels-small":
        functions.append(Function("oob", "oob", K.oob_inputs(), None))
    return functions


def attach_sources(functions: List[Function]) -> None:
    from repro.rodinia.suite import BENCHMARKS

    for fn in functions:
        if fn.oob:
            fn.source, fn.entry = K.OOB_SOURCE, K.OOB_ENTRY
            continue
        bench = BENCHMARKS[fn.name]
        fn.source = bench.cuda_source if fn.variant == "cuda" else bench.omp_source
        fn.entry = bench.entry


def variants_agree(cuda: Function, cuda_result: List, omp: Function,
                   omp_result: List) -> bool:
    """The agreement property, for kernels whose variants share inputs."""
    return all(K.matches(cuda.name, omp_result[index], cuda_result[index], cuda.base)
               for index in cuda.expected)


def agreeing_pairs(functions: List[Function]) -> Dict[int, int]:
    """omp function index -> cuda function index, where the check applies."""
    pairs = {}
    for index, fn in enumerate(functions):
        if fn.variant != "omp" or not K.SPECS[fn.name].variants_agree:
            continue
        cuda = functions[index - 1]
        if (cuda.name == fn.name and cuda.variant == "cuda"
                and all(np.array_equal(a, b) for a, b in zip(cuda.base, fn.base))):
            pairs[index] = index - 1
    return pairs


class Tally:
    """Operations attempted and failed, plus whether side checks held."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.side_ok = True

    def count(self, ok: bool, counted: bool = True) -> None:
        if counted:
            self.attempted += 1
            self.failed += 0 if ok else 1
        elif not ok:
            self.side_ok = False


def probe_kind(workload: str) -> str:
    """The probe whose work mix resembles the workload's (see probe.py)."""
    return "stream" if workload == "kernels-large" else "glue"


def host_factor(probes: List[int], kind: str = "glue") -> float:
    """Scale that turns times measured alongside these probes into times at
    the nominal host speed."""
    return NOMINAL_NS[kind] / median(probes)


class Samples:
    """Latency samples per function, each with the round it was taken in.

    Two flat lists of ints per function: the bookkeeping creates no objects
    the garbage collector tracks, so it adds no collector pauses to what it
    measures.
    """

    def __init__(self) -> None:
        self.rounds: Dict[str, List[int]] = defaultdict(list)
        self.ns: Dict[str, List[int]] = defaultdict(list)

    def add(self, label: str, round_index: int, ns: float) -> None:
        self.rounds[label].append(round_index)
        self.ns[label].append(ns)

    def scaled(self, factor: float = 1.0) -> Dict[str, List[float]]:
        return {label: [ns * factor for ns in values]
                for label, values in self.ns.items()}

    def stream(self, probes: List[int], **extra) -> Dict:
        """Raw samples with their rounds and each round's probe time."""
        return {"rounds": dict(self.rounds), "ns": dict(self.ns),
                "probes": probes, **extra}


class Timers:
    """Outside-in spans: wrap a public function and sum its wall time."""

    def __init__(self) -> None:
        self.ns: Dict[str, List[int]] = defaultdict(list)

    def wrap(self, owner, attribute: str, label: str) -> None:
        original = getattr(owner, attribute)

        def timed(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                self.ns[label].append(time.perf_counter_ns() - start)

        setattr(owner, attribute, timed)


# ---------------------------------------------------------------------------
# In-process phase
# ---------------------------------------------------------------------------
def run_once(fn: Function, executor):
    """Run one operation on fresh inputs: (ok, elapsed ns, outputs).

    The out-of-bounds kernel is correct only when it raises ``IndexError``.
    """
    arguments = K.fresh_copy(fn.base)
    start = time.perf_counter_ns()
    try:
        executor.run(fn.entry, arguments)
    except IndexError:
        return fn.oob, time.perf_counter_ns() - start, arguments
    except Exception:  # noqa: BLE001 - a failed operation, never a crash
        return False, time.perf_counter_ns() - start, arguments
    elapsed = time.perf_counter_ns() - start
    return (not fn.oob and fn.check(arguments)), elapsed, arguments


def run_round(functions, executors, pairs, tally, counted, samples,
              round_index=0, first_dispatch=None):
    """One operation per function, in order; successful ones add samples."""
    results = {}
    for index, fn in enumerate(functions):
        ok, elapsed, results[index] = run_once(fn, executors[index])
        if ok and index in pairs:
            cuda = pairs[index]
            ok = variants_agree(functions[cuda], results[cuda], fn, results[index])
        tally.count(ok, counted)
        if first_dispatch is not None:
            first_dispatch.append(elapsed)
        elif ok and not fn.oob:
            samples.add(fn.label, round_index, elapsed)


def inprocess_phase(functions, seconds, tally, counted, trace, probe_kind):
    """Set up and measure the in-process workload; returns its raw figures."""
    timers = Timers()
    pairs = agreeing_pairs(functions)
    start = time.perf_counter()
    from repro.frontend import compile_cuda, driver
    from repro.runtime import NativeEngine, make_executor, native_available

    if trace:
        for attribute in ("parse", "generate_module", "verify"):
            timers.wrap(driver, attribute, "frontend")
        timers.wrap(driver, "cpuify", "transforms")
    attach_sources(functions)
    for fn in functions:
        fn.module = compile_cuda(fn.source, filename=f"{fn.label}.cu",
                                 cuda_lower=True, cache="shared")
    executors = [make_executor(fn.module, engine="native") for fn in functions]
    latencies = Samples()
    first_dispatch: List[int] = []
    run_round(functions, executors, pairs, tally, counted, latencies,
              first_dispatch=first_dispatch)
    setup_s = time.perf_counter() - start
    if not native_available():
        raise SystemExit("perfbench: no working `cc -fopenmp`; the native "
                         "engine would fall back to Python execution")

    bare = [NativeEngine(fn.module) for fn in functions] if trace else None
    bare_latencies = Samples()
    builds = Samples()
    probes: List[int] = []
    glue_probes: List[int] = []
    deadline = time.perf_counter() + seconds
    while True:
        rounds = len(probes)
        if trace:
            run_round(functions, bare, pairs, tally, counted, bare_latencies, rounds)
            for fn in functions:
                begin = time.perf_counter_ns()
                make_executor(fn.module, engine="native")
                builds.add("all", rounds, time.perf_counter_ns() - begin)
        run_round(functions, executors, pairs, tally, counted, latencies, rounds)
        probes.append(probe_ns(probe_kind))
        if probe_kind != "glue":
            glue_probes.append(probe_ns("glue"))
        if time.perf_counter() >= deadline:
            break
    result = {"setup_s": setup_s, "probe_kind": probe_kind, "probe_ns": probes,
              "glue_probe_ns": glue_probes or probes,
              "streams": [latencies.stream(probes)]}
    if trace:
        factor = host_factor(probes, probe_kind)
        result["latency_ns"] = latencies.scaled(factor)
        result["raw_latency_ns"] = latencies.scaled()
        result["bare_latency_ns"] = bare_latencies.scaled(factor)
        result["make_executor_ns"] = builds.scaled(factor)["all"]
        result["layers"] = setup_layers(functions, bare, timers, first_dispatch)
    return result


def setup_layers(functions, engines, timers, first_dispatch) -> Dict[str, float]:
    """Per-layer set-up figures, read from outside the program."""
    modules = {id(fn.module): fn.module for fn in functions}
    programs = {}
    for fn, engine in zip(functions, engines):
        programs[id(fn.module)] = engine.native_stats
    so_bytes = sum(path.stat().st_size for path in Path.cwd().rglob("*.so"))
    return {
        "frontend.parse_ms": sum(timers.ns["frontend"]) / 1e6,
        "transforms.cpuify_ms": sum(timers.ns["transforms"]) / 1e6,
        "transforms.ops": sum(sum(1 for _ in module.walk())
                              for module in modules.values()),
        "native.build_ms": sum(first_dispatch) / 1e6,
        "native.so_kb": so_bytes / 1024,
        "native.units": sum(stats["units_ready"] for stats in programs.values()),
        "native.regions": sum(stats["native_regions"] for stats in programs.values()),
        "native.fallback_regions": sum(stats["fallback_regions"]
                                       for stats in programs.values()),
        "native.simd_regions": sum(stats["simd_regions"]
                                   for stats in programs.values()),
    }


# ---------------------------------------------------------------------------
# Service phase
# ---------------------------------------------------------------------------
def start_daemon(src: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=src)
    log = open("daemon.log", "wb")
    try:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--engine", "native",
             "--socket", SOCKET],
            env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
    finally:
        log.close()


def wait_for_socket(daemon: subprocess.Popen) -> None:
    deadline = time.perf_counter() + DAEMON_START_TIMEOUT_S
    while not os.path.exists(SOCKET):
        if daemon.poll() is not None:
            raise SystemExit(f"perfbench: daemon exited with {daemon.returncode}; "
                             "see daemon.log")
        if time.perf_counter() > deadline:
            raise SystemExit("perfbench: daemon did not open its socket")
        time.sleep(0.002)


def stop_daemon(daemon: subprocess.Popen, client_cls) -> None:
    if daemon.poll() is None:
        try:
            with client_cls(SOCKET, timeout=10.0) as client:
                client.shutdown()
        except Exception:  # noqa: BLE001 - fall through to terminate
            pass
    try:
        daemon.wait(timeout=20.0)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.wait()


def peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc status")


class ClientRecord:
    """What one closed-loop client saw: checked requests and probes."""

    def __init__(self) -> None:
        self.rtt = Samples()
        self.server = Samples()
        self.probes: List[int] = []
        self.round_ns: List[int] = []
        self.results: List[bool] = []
        self.error: Optional[BaseException] = None


def client_loop(index: int, functions: List[Function], seed: int,
                deadline: float, record: ClientRecord) -> None:
    """Send whole rounds of the cuda kernels, in a seeded shuffled order,
    each request after the previous reply, until the deadline."""
    from repro.service import ServiceClient

    rng = np.random.default_rng([seed, 1000 + index])
    try:
        with ServiceClient(SOCKET, tenant=f"client{index}", timeout=60.0) as client:
            while True:
                round_index = len(record.probes)
                round_start = time.perf_counter_ns()
                for which in rng.permutation(len(functions)):
                    fn = functions[which]
                    start = time.perf_counter_ns()
                    try:
                        result = client.launch(fn.source, fn.entry, fn.base)
                    except Exception:  # noqa: BLE001 - a failed request
                        record.results.append(False)
                        continue
                    rtt = time.perf_counter_ns() - start
                    ok = fn.check(result.args)
                    record.results.append(ok)
                    if ok:
                        record.rtt.add(fn.label, round_index, rtt)
                        record.server.add(fn.label, round_index, result.latency_s * 1e9)
                record.round_ns.append(time.perf_counter_ns() - round_start)
                record.probes.append(probe_ns())
                if time.perf_counter() >= deadline:
                    return
    except BaseException as error:  # noqa: BLE001 - reported by the caller
        record.error = error


def service_phase(src, seed, seconds, tally, counted, trace):
    """Start a daemon, serve every cuda kernel once (set-up), then load it."""
    functions = make_functions(seed, "serve-native", variants=("cuda",))
    attach_sources(functions)
    from repro.service import ServiceClient, protocol

    timers = Timers()
    if trace:
        timers.wrap(protocol, "encode_args", "encode")
        timers.wrap(protocol, "decode_args", "decode")
    start = time.perf_counter()
    daemon = start_daemon(src)
    try:
        wait_for_socket(daemon)
        with ServiceClient(SOCKET, timeout=120.0) as client:
            for fn in functions:
                try:
                    ok = fn.check(client.launch(fn.source, fn.entry, fn.base).args)
                except Exception:  # noqa: BLE001 - a failed request
                    ok = False
                tally.count(ok, counted)
        setup_s = time.perf_counter() - start
        timers.ns.clear()

        records = [ClientRecord() for _ in range(CLIENTS)]
        deadline = time.perf_counter() + seconds
        threads = [threading.Thread(target=client_loop,
                                    args=(index, functions, seed, deadline,
                                          records[index]))
                   for index in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for record in records:
            if record.error is not None:
                raise record.error
        server_stats = None
        if trace:
            with ServiceClient(SOCKET, timeout=60.0) as client:
                server_stats = client.stats()
        rss_kb = peak_rss_kb(daemon.pid)
    finally:
        stop_daemon(daemon, ServiceClient)

    latencies: Dict[str, List[float]] = defaultdict(list)
    server_ns: Dict[str, List[float]] = defaultdict(list)
    streams = []
    for record in records:
        for ok in record.results:
            tally.count(ok, counted)
        streams.append(record.rtt.stream(record.probes, round_ns=record.round_ns))
        factor = host_factor(record.probes)
        for target, values in ((latencies, record.rtt.scaled(factor)),
                               (server_ns, record.server.scaled(factor))):
            for label, samples in values.items():
                target[label].extend(samples)
    all_probes = [sample for record in records for sample in record.probes]
    result = {"setup_s": setup_s, "probe_kind": "glue", "probe_ns": all_probes,
              "glue_probe_ns": all_probes, "streams": streams,
              "rss_kb": rss_kb}
    if trace:
        factor = host_factor(all_probes)
        admission, stream_stats = server_stats["admission"], server_stats["streams"]
        result["latency_ns"] = dict(latencies)
        result["layers"] = {
            "server_ns": dict(server_ns),
            "encode_ns": [ns * factor for ns in timers.ns["encode"]],
            "decode_ns": [ns * factor for ns in timers.ns["decode"]],
            "admission.peak_inflight": admission["peak_inflight"],
            "admission.peak_waiting": admission["peak_waiting"],
            "stream.dispatches": stream_stats["dispatches"],
            "stream.coalesced": stream_stats["coalesced"],
        }
    return result


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------
def p50s(latencies: Dict[str, List[float]]) -> Dict[str, float]:
    """Median of each function's samples, in µs."""
    return {label: percentile(samples, 0.5) / 1e3
            for label, samples in latencies.items()}


def trace_metrics(inproc, service) -> Dict[str, float]:
    """Every per-layer metric, from one traced in-process and service phase.

    Times are scaled to the nominal host speed like the end-to-end ones,
    except the two ``host.*`` figures, which are raw.
    """
    kernel_p50 = p50s(inproc["latency_ns"])
    metrics = dict(inproc["layers"])
    layers = service["layers"]
    metrics.update({
        "native.run_us": geomean(list(p50s(inproc["bare_latency_ns"]).values())),
        "resilience.run_us": geomean(list(kernel_p50.values())),
        "runtime.make_executor_us": median(inproc["make_executor_ns"]) / 1e3,
        "host.ref_us": median(inproc["probe_ns"]) / 1e3,
        "trace.setup_s": inproc["setup_s"],
        "host.raw_run_p50_us": geomean(list(p50s(inproc["raw_latency_ns"]).values())),
        "protocol.encode_us": median(layers["encode_ns"]) / 1e3,
        "protocol.decode_us": median(layers["decode_ns"]) / 1e3,
        "server.latency_p50_us": geomean(list(p50s(layers["server_ns"]).values())),
        "client.rtt_p50_us": geomean(list(p50s(service["latency_ns"]).values())),
    })
    # round trip minus the server's own latency: both transfers, the
    # client's encode/decode and the connection handler's framing.
    metrics["client.overhead_us"] = (metrics["client.rtt_p50_us"]
                                     - metrics["server.latency_p50_us"])
    for name in ("admission.peak_inflight", "admission.peak_waiting",
                 "stream.dispatches", "stream.coalesced"):
        metrics[name] = layers[name]
    for label, value in kernel_p50.items():
        metrics[f"kernel.{label}.p50_us"] = value
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tally = Tally()
    serving = args.workload == "serve-native"
    inproc_workload = "kernels-small" if serving else args.workload
    result: Dict = {}
    if not args.trace:
        if serving:
            result = service_phase(args.src, args.seed, args.seconds, tally, True, False)
        else:
            functions = make_functions(args.seed, args.workload)
            result = inprocess_phase(functions, args.seconds, tally, True, False,
                                     probe_kind(args.workload))
            result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        functions = make_functions(args.seed, inproc_workload)
        if serving:
            functions = [fn for fn in functions if not fn.oob]
        inproc = inprocess_phase(functions, args.seconds / 2, tally, not serving, True,
                                 probe_kind(inproc_workload))
        service = service_phase(args.src, args.seed, args.seconds / 2, tally,
                                serving, True)
        result = {"metrics": trace_metrics(inproc, service)}
    result.update({"attempted": tally.attempted, "failed": tally.failed,
                   "side_ok": tally.side_ok})
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
