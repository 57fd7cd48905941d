"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the
repository root. They use the ``--tiny`` sizes, so the whole file runs in
about a minute."""

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.import_library()

import workloads  # noqa: E402
from gaussfisher import closed_form, curvature  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_injected_wrong_fidelity_counts_as_failed(monkeypatch):
    true_fidelity = closed_form.fidelity_special
    monkeypatch.setattr(closed_form, "fidelity_special",
                        lambda a, b: true_fidelity(a, b) * (1.0 + 1e-6))
    wl = workloads.closed_form_sweep(seed=4, tiny=True)
    phase = run.timed_phase(wl.rounds, 0.05)
    pairs = phase.attempted // 4
    assert phase.rounds >= 1
    assert phase.failures == {"pair: missed check": pairs}
    assert phase.passed == phase.attempted - pairs


def test_raise_counts_as_failed_and_is_not_retried(monkeypatch):
    calls = []

    def broken(a, b):
        calls.append(1)
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(closed_form, "fidelity_special", broken)
    wl = workloads.closed_form_sweep(seed=4, tiny=True)
    phase = run.timed_phase(wl.rounds, 0.05)
    assert phase.failures == {"pair: raised ZeroDivisionError": len(calls)}
    assert phase.attempted == 4 * len(calls)


def test_wrong_figure_point_fails_its_row(monkeypatch):
    true_section = curvature.section_curve
    monkeypatch.setattr(curvature, "section_curve",
                        lambda *a: true_section(*a) * (1.0 + 1e-9))
    wl = workloads.closed_form_sweep(seed=4, tiny=True)
    phase = run.timed_phase(wl.rounds, 0.05)
    assert phase.failures["figure_row: missed check"] >= 1
    assert set(phase.failures) == {"figure_row: missed check"}


def test_traced_phase_interleaves_the_same_rounds():
    wl = workloads.closed_form_sweep(seed=4, tiny=True)
    plain, traced = run.timed_phase(wl.rounds, 0.2, Tracer())
    assert plain.rounds == traced.rounds >= 1
    assert plain.attempted == traced.attempted == plain.passed


@pytest.mark.parametrize("make, probe", [(workloads.cross_check, "host"),
                                            (workloads.fock_cross_family, "dense")])
def test_round_times_scale_by_their_probe(monkeypatch, make, probe):
    wl = make(seed=4, tiny=True)
    assert wl.probe == probe
    ref = run.PROBES[probe][1]
    monkeypatch.setitem(run.PROBES, probe, (lambda: 2 * ref, ref, 0))
    probes = []
    phase = run.timed_phase(wl.rounds, 0.05, probes=probes, probe=probe)
    assert len(probes) >= 2 and set(probes) == {2 * ref}
    assert list(phase.latencies_ns(True)) == pytest.approx(
        list(phase.latencies_ns(False) / 2))
    assert phase.seconds(True) == pytest.approx(phase.seconds(False) / 2)


def test_same_seed_same_inputs():
    first = workloads.cross_check(seed=9, tiny=True)
    second = workloads.cross_check(seed=9, tiny=True)
    for r1, r2 in zip(first.rounds, second.rounds):
        for c1, c2 in zip(r1, r2):
            assert repr(c1.reference()) == repr(c2.reference())


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()

    def body(t):
        t("inner", time.sleep, 0.02)
        time.sleep(0.01)

    tracer.call("outer", body)
    summary = tracer.summary()
    inner_ns = summary["inner"]["self_ns"]
    outer_ns = summary["call.outer"]["self_ns"]
    assert inner_ns >= 0.02e9
    assert 0.01e9 <= outer_ns < 0.02e9
    assert list(tracer.parent) == [-1, 0] and list(tracer.call_id) == [0, 0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(name, trace):
    proc = _bench("--workload", name, "--seed", "2", "--seconds", "0.5",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        report = "\n".join(lines[:-1])
        for row in ("setup_s", "goodput_per_s", "call_p50_ms", "call_p99_ms",
                    "failed_frac", "peak_rss_mb"):
            assert f"\n{row} " in report


def test_wide_domain_probe_runs():
    proc = _bench("--workload", "wide_domain", "--seed", "2", "--seconds", "0.5", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench("--workload", "closed_form_sweep", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
