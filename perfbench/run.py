#!/usr/bin/env python3
"""gaussfisher benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload closed_form_sweep --seed 1 --seconds 15 --trace 0

Run from the repository root (the library is imported from ``src/``). The
process builds its inputs from ``--seed``, runs whole rounds of user-level
calls for about ``--seconds``, checks every result against an independent
route outside the timed phase, prints a readable report and, as its last
line, one JSON object. With ``--trace 0`` that object carries the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run. A result file (and, when traced, the spans) goes to
``perfbench/results/``. See ``perfbench/README.md``.
"""

import argparse
import ctypes
import glob
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_SAMPLES = 7
SPAWN_REF = [sys.executable, "-c", "import numpy, scipy.linalg; print('ready', flush=True)"]
SPAWN_REF_S = 0.5
CHECK_CHUNK = 8000
PROBE_EVERY_NS = 2_000_000
WORKLOADS = ("closed_form_sweep", "cross_check", "fock_same_family",
             "fock_cross_family", "wide_domain")

END_TO_END_UNITS = {"setup_s": "s", "goodput_per_s": "1/s", "call_p50_ms": "ms",
                    "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "tolerances.current_us": "us",
    "closed_form.fidelity_special_us": "us",
    "closed_form.pair_invariants_us": "us",
    "closed_form.calls": "count",
    "core.distances_us": "us",
    "states.family_cov_us": "us",
    "states.to_state_us": "us",
    "states.rejected": "count",
    "core.compute_invariants_us": "us",
    "core.fidelity_two_mode_us": "us",
    "core.calls": "count",
    "geometry.qfi_closed_us": "us",
    "geometry.cramer_rao_us": "us",
    "geometry.jeffreys_prior_us": "us",
    "geometry.numeric_metric_ms": "ms",
    "curvature.scalar_closed_us": "us",
    "curvature.scalar_warped_us": "us",
    "curvature.section_curve_us": "us",
    "curvature.pipeline_ms": "ms",
    "fock.unitary_s": "s",
    "fock.conjugation_s": "s",
    "fock.family_dm_s": "s",
    "fock.uhlmann_s": "s",
    "fock.overlap_s": "s",
    "fock.calls": "count",
    "fock.dim": "count",
    "fock.dense_bytes": "bytes",
    "fock.trace_deficit_max": "1",
    "fock.unitarity_defect_max": "1",
    "check.misses": "count",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small pools and truncations, for the self-tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="build the inputs, print 'ready' and exit (set-up timing)")
    return p.parse_args(argv)


def import_library():
    """Put the checkout's ``src/`` first on the path; False if it is absent."""
    if not (SRC / "gaussfisher" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return True


# --- host facts ----------------------------------------------------------


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    libdir = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_facts():
    import mpmath
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    overrides = {k: v for k, v in os.environ.items() if k.startswith("GAUSSFISHER_")}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "gaussfisher_overrides": overrides,
        "tolerance_overrides_flag": bool(overrides),
    }


# --- host probe ------------------------------------------------------------

_PROBE_MATRIX = np.eye(4) * 0.5 + 0.1


def host_probe_ns():
    """Wall time of a fixed piece of work that calls no library code: 4x4
    numpy products and determinants mixed with Python float arithmetic,
    the instruction mix of the pooled workloads.

    The host shares its cores with other machines. When they are busy,
    interpreted Python and small numpy calls, the pooled workloads and this
    probe alike, slow by nearly one factor, up to about 1.9x, switching
    within a second. A round's time times the probe's reference time in
    ``PROBES`` over the probe's time around the round is the round's time
    at the host speed where the probe takes its reference time: for this
    probe, about its median on the 2-vCPU Xeon VM of the README's figures
    when no other load slowed it.
    """
    begin = time.perf_counter_ns()
    acc = 0.0
    for i in range(60):
        m = _PROBE_MATRIX @ _PROBE_MATRIX
        acc += float(m[0, 1]) + math.sqrt(i + 1.0) + float(np.linalg.det(m))
    return time.perf_counter_ns() - begin


def dense_probe_ns():
    """Wall time of two products of a fixed 1600 x 1600 complex matrix with
    itself, through OpenBLAS and its threads: the kind of work of a Fock
    round at d = 40, which slows far less than ``host_probe_ns`` when the
    host is busy. The matrix is made before the clock starts and dropped
    after, so it adds nothing to the peak memory of a Fock round."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((1600, 1600)) + 1j * rng.standard_normal((1600, 1600))
    begin = time.perf_counter_ns()
    for _ in range(2):
        m @ m
    return time.perf_counter_ns() - begin


# name: (probe, its time in ns at the reference host speed, untimed warm-up runs)
PROBES = {"host": (host_probe_ns, 300_000, 5), "dense": (dense_probe_ns, 700_000_000, 1)}


# --- phases --------------------------------------------------------------


def spawn_ready_s(cmd):
    """Seconds from spawning ``cmd`` to its first output line, 'ready'."""
    begin = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - begin
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"spawn of {cmd[1:]} failed: {line!r}")
    return elapsed


def measure_setup(args):
    """(set-up, reference) wall time pairs. A set-up is a fresh process
    from spawn to the first timed call; the reference, spawned just before
    it, is a fresh interpreter importing numpy and scipy.linalg, the bulk
    of the set-up's imports, and no library code."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    pairs = []
    for _ in range(SETUP_SAMPLES):
        ref = spawn_ready_s(SPAWN_REF)
        pairs.append((spawn_ready_s(cmd), ref))
    return pairs


class Phase:
    """Outcome of one timed phase: rounds and calls attempted, the raw and
    probe-scaled latencies of the rounds whose calls all passed, failures
    by cause, and the first result of each distinct call."""

    def __init__(self):
        self.attempted = 0
        self.passed = 0
        self.rounds = 0
        self.elapsed_ns = 0
        self.scaled_ns = 0.0
        self.latency = array("q")
        self.scaled = array("d")
        self.failures = Counter()
        self.first = {}
        self._executed = []

    @property
    def failed(self):
        return sum(self.failures.values())

    def seconds(self, scaled):
        """Seconds spent inside this phase's rounds, raw or probe-scaled."""
        return (self.scaled_ns if scaled else self.elapsed_ns) / 1e9

    def latencies_ns(self, scaled):
        """Sorted latencies of the rounds that passed, raw or probe-scaled."""
        out = np.array(self.scaled if scaled else self.latency, dtype=float)
        out.sort()
        return out

    def record(self, calls, outs, ns):
        self.rounds += 1
        self.elapsed_ns += ns
        self._executed.append([calls, outs, ns, None])

    def scale(self, factor):
        """Give the rounds recorded since the last call their scaled time."""
        for entry in reversed(self._executed):
            if entry[3] is not None:
                break
            entry[3] = entry[2] * factor
            self.scaled_ns += entry[3]

    def _passes(self, call, out):
        self.attempted += 1
        self.first.setdefault(id(call), (call, out))
        if isinstance(out, Exception):
            self.failures[f"{call.kind}: raised {type(out).__name__}"] += 1
            return False
        try:
            ok = call.passes(out)
        except Exception as exc:  # the reference route itself failed
            self.failures[f"{call.kind}: reference raised {type(exc).__name__}"] += 1
            return False
        if not ok:
            self.failures[f"{call.kind}: missed check"] += 1
            return False
        self.passed += 1
        return True

    def check(self):
        """Check every recorded call; keep the latency of each round whose
        calls all passed, and drop the results."""
        for calls, outs, ns, scaled_ns in self._executed:
            passed = [self._passes(call, out) for call, out in zip(calls, outs)]
            if all(passed):
                self.latency.append(ns)
                self.scaled.append(scaled_ns)
        self._executed.clear()


def timed_phase(rounds, seconds, tracer=None, probes=None, probe="host"):
    """Run whole rounds, wrapping around the pool, and stop before a step
    that would end past ``seconds`` (judged by the mean step so far); at
    least one step runs. Without a tracer a step is one round and one
    phase is returned. With one, a step runs its round twice, untraced and
    traced, alternating which goes first, and the phases (untraced, traced)
    are returned: both cover the same rounds, under the same host drift.
    The probe named by ``probe`` (see ``PROBES``) runs its warm-up
    untimed (its first run in a fresh process is slow), then before the
    first step, after the first step that ends ``PROBE_EVERY_NS`` after
    the last probe, and before and after every check. A round's scaled
    time is its time times the probe's reference time over the mean of
    the probes before and after it. Probe times are appended to
    ``probes`` if given.
    Results are checked every ``CHECK_CHUNK`` calls with the clock stopped;
    what is kept grows by 16 bytes per passed round."""
    from tracing import direct

    modes = (None,) if tracer is None else (None, tracer)
    phases = [Phase() for _ in modes]
    clock = time.perf_counter_ns
    budget = seconds * 1e9
    done = steps = pending = 0
    probe_ns, ref_ns, warmup = PROBES[probe]
    for _ in range(warmup):
        probe_ns()

    def take_probe():
        ns = probe_ns()
        if probes is not None:
            probes.append(ns)
        return ns, clock() + PROBE_EVERY_NS

    begin = clock()
    last, next_probe = take_probe()
    while True:
        calls = rounds[steps % len(rounds)]
        order = range(len(modes)) if steps % 2 == 0 else reversed(range(len(modes)))
        for m in order:
            outs = []
            t0 = clock()
            for call in calls:
                try:
                    outs.append(call.run(direct) if modes[m] is None
                                else modes[m].call(call.kind, call.run))
                except Exception as exc:  # a raise is a failed call, never retried
                    outs.append(exc)
            phases[m].record(calls, outs, clock() - t0)
        steps += 1
        pending += len(calls) * len(modes)
        timed = done + clock() - begin
        stop = timed + timed / steps > budget
        checking = stop or pending >= CHECK_CHUNK
        if checking or clock() >= next_probe:
            now, next_probe = take_probe()
            for phase in phases:
                phase.scale(2.0 * ref_ns / (last + now))
            last = now
        if checking:
            done, pending = timed, 0
            for phase in phases:
                phase.check()
            if stop:
                return phases[0] if tracer is None else tuple(phases)
            begin = clock()
            last, next_probe = take_probe()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- end-to-end run --------------------------------------------------------


def end_to_end(wl, args):
    pairs = measure_setup(args)
    setup = [s for s, _ in pairs]
    probes = array("q")
    phase = timed_phase(wl.rounds, args.seconds, probes=probes, probe=wl.probe)
    rss = peak_rss_mb()
    ordered, raw = phase.latencies_ns(True), phase.latencies_ns(False)
    n = ordered.size
    beyond_p99 = n - math.ceil(0.99 * n)
    seconds = phase.seconds(True)
    rows = {
        "setup_s": (statistics.median(s / r for s, r in pairs) * SPAWN_REF_S, "s",
                    f"median of {len(pairs)} set-ups over their reference spawn, "
                    f"times {SPAWN_REF_S:g} s; raw {statistics.median(setup):.6g} s, "
                    f"reference {statistics.median(r for _, r in pairs):.6g} s"),
        "goodput_per_s": (phase.passed / seconds, "1/s",
                          f"{phase.passed} passed calls in {seconds:.3f} scaled s; "
                          f"raw {phase.passed / phase.seconds(False):.6g}/s"),
        "call_p50_ms": (float(np.median(ordered)) / 1e6, "ms",
                        f"scaled median of {n} passed rounds; "
                        f"raw {np.median(raw) / 1e6:.6g} ms"),
        "call_p99_ms": (float(np.percentile(ordered, 99)) / 1e6, "ms",
                        f"scaled, {n} passed rounds, {beyond_p99} beyond")
        if beyond_p99 >= 10 else (None, "ms", f"not reported: {beyond_p99} of {n} "
                                              "rounds beyond, ten needed"),
        "failed_frac": (phase.failed / phase.attempted, "1",
                        f"{phase.failed} of {phase.attempted} calls"),
        "peak_rss_mb": (rss, "MB", "workload process, up to the end of the checks"),
    }
    probe_us = np.asarray(probes) / 1e3
    print(f"{wl.probe} probe: {probe_us.size} samples, median {np.median(probe_us):.1f} us, "
          f"p90 {np.percentile(probe_us, 90):.1f} us, reference "
          f"{PROBES[wl.probe][1] / 1e3:g} us; round times scaled by it")
    extra = {"rounds": phase.rounds, "elapsed_s": phase.seconds(False),
             "probe": wl.probe, "probe_median_us": float(np.median(probe_us)),
             "probe_p90_us": float(np.percentile(probe_us, 90)),
             "setup_samples_s": setup, "spawn_ref_samples_s": [r for _, r in pairs],
             "failures": dict(phase.failures)}
    return rows, phase.attempted, phase.failed, extra


# --- traced run ------------------------------------------------------------


def isolated_us(fn, arg_list, repeats=5):
    """Median over ``repeats`` passes of the mean per-call time, in us."""
    times = []
    for _ in range(repeats):
        begin = time.perf_counter_ns()
        for a in arg_list:
            fn(*a)
        times.append((time.perf_counter_ns() - begin) / len(arg_list) / 1e3)
    return statistics.median(times)


PER_LAYER_SPANS = {
    # metric name: (span name, unit scale from ns)
    "closed_form.fidelity_special_us": ("closed_form.fidelity_special", 1e-3),
    "closed_form.pair_invariants_us": ("closed_form.pair_invariants", 1e-3),
    "core.distances_us": ("core.distances", 1e-3),
    "states.to_state_us": ("states.to_state", 1e-3),
    "core.fidelity_two_mode_us": ("core.fidelity_two_mode", 1e-3),
    "geometry.qfi_closed_us": ("geometry.qfi_closed", 1e-3),
    "geometry.cramer_rao_us": ("geometry.cramer_rao", 1e-3),
    "geometry.jeffreys_prior_us": ("geometry.jeffreys_prior", 1e-3),
    "geometry.numeric_metric_ms": ("geometry.numeric_metric", 1e-6),
    "curvature.scalar_closed_us": ("curvature.scalar_closed", 1e-3),
    "curvature.scalar_warped_us": ("curvature.scalar_warped", 1e-3),
    "curvature.section_curve_us": ("curvature.section_curve", 1e-3),
    "curvature.pipeline_ms": ("curvature.scalar_curvature_pipeline", 1e-6),
    "fock.family_dm_s": ("fock.family_dm", 1e-9),
    "fock.uhlmann_s": ("fock.uhlmann_fidelity", 1e-9),
    "fock.overlap_s": ("fock.overlap_fock", 1e-9),
}


def fock_stages(wl, phase, family_dm_s):
    """Fock metrics beyond the spans. Each unitary the traced calls built is
    rebuilt once and timed on its own; conjugation time is derived as
    family_dm minus unitary. Dimension and dense bytes are computed from
    array sizes: five complex D x D arrays per pair (two density matrices,
    two unitaries, one Uhlmann product)."""
    from gaussfisher import fock

    if not wl.fock_dims:
        return {k: 0.0 for k in ("fock.unitary_s", "fock.conjugation_s", "fock.dim",
                                 "fock.dense_bytes", "fock.trace_deficit_max",
                                 "fock.unitarity_defect_max")}
    times, defects = [], []
    for call, _ in phase.first.values():
        for fn, fn_args in call.unitaries:
            begin = time.perf_counter()
            u = fn(*fn_args)
            times.append(time.perf_counter() - begin)
            defects.append(fock.unitarity_defect(u))
    unitary_s = statistics.fmean(times)
    dim = max(wl.fock_dims) ** 2
    return {
        "fock.unitary_s": unitary_s,
        "fock.conjugation_s": family_dm_s - unitary_s,
        "fock.dim": dim,
        "fock.dense_bytes": 5 * 16 * dim**2,
        "fock.trace_deficit_max": max((out[2] for _, out in phase.first.values()
                                       if not isinstance(out, Exception)), default=0.0),
        "fock.unitarity_defect_max": max(defects),
    }


def traced(wl, args):
    """Untraced and traced runs of each round, interleaved, for ``--seconds``."""
    from tracing import Tracer

    tracer = Tracer()
    plain, phase = timed_phase(wl.rounds, args.seconds, tracer, probe=wl.probe)
    failures = plain.failures + phase.failures

    spans = tracer.summary()
    layer = {}
    for metric, (span, scale) in PER_LAYER_SPANS.items():
        entry = spans.get(span)
        layer[metric] = entry["self_ns"] / entry["count"] * scale if entry else 0.0
    for module in ("closed_form", "core", "fock"):
        layer[module + ".calls"] = sum(v["count"] for k, v in spans.items()
                                       if k.startswith(module + "."))
    layer["states.rejected"] = spans.get("states.to_state", {}).get(
        "errors", {}).get("ValidationError", 0)
    layer["check.misses"] = sum(v for k, v in failures.items() if k.endswith("missed check"))
    layer["trace.overhead_pct"] = 100.0 * (phase.seconds(True) / plain.seconds(True) - 1.0)
    for metric in ("tolerances.current_us", "states.family_cov_us",
                   "core.compute_invariants_us"):
        fn, arg_list = wl.isolated.get(metric, (None, None))
        layer[metric] = isolated_us(fn, arg_list) if fn else 0.0
    layer.update(fock_stages(wl, phase, layer["fock.family_dm_s"]))

    RESULTS.mkdir(exist_ok=True)
    tracer.save(RESULTS / f"{wl.name}-spans.npz")
    extra = {"untraced_s": plain.seconds(False), "traced_s": phase.seconds(False),
             "rounds_each": phase.rounds, "spans": len(tracer), "peak_rss_mb": peak_rss_mb(),
             "failures": dict(failures)}
    return layer, plain.attempted + phase.attempted, plain.failed + phase.failed, extra


# --- output ------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not import_library():
        print(f"error: no gaussfisher sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.BUILDERS[args.workload](args.seed, tiny=args.tiny)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    facts = host_facts()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("host " + json.dumps({k: v for k, v in facts.items()
                                if k != "gaussfisher_overrides"}))
    if facts["tolerance_overrides_flag"]:
        print("WARNING tolerance overrides in effect, the checks change: "
              + json.dumps(facts["gaussfisher_overrides"]))

    if args.trace:
        layer, attempted, failed, extra = traced(wl, args)
        metrics = {k: {"value": layer[k], "unit": unit} for k, unit in LAYER_UNITS.items()}
        for k, unit in LAYER_UNITS.items():
            print(f"{k:34s} {layer[k]:.6g} {unit}")
    else:
        rows, attempted, failed, extra = end_to_end(wl, args)
        metrics = {k: {"value": rows[k][0], "unit": unit}
                   for k, unit in END_TO_END_UNITS.items()}
        for k, (value, unit, note) in rows.items():
            shown = "-" if value is None else f"{value:.6g} {unit}"
            print(f"{k:16s} {shown:24s} ({note})")
    print("queue wait: 0 s by construction (one process, closed loop, no queues)")
    for cause, count in sorted(extra["failures"].items()):
        print(f"failure {count} x {cause}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": facts, "metrics": metrics, "detail": extra}
    if not args.trace:
        record["report"] = {k: {"value": v, "unit": u, "note": note}
                            for k, (v, u, note) in rows.items()}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
