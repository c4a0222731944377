"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest perfbench -q

The smoke tests run every workload at a tiny scale (``--scale 0.05``);
the seed-invariance tests run the real workload sizes and take about two
minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def tiny(workload: str, trace: int, seed: int = 0) -> dict:
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                     "--trace", str(trace), "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(WORKLOADS)) == len(WORKLOADS)
    metric_names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(metric_names)) == len(metric_names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    out = tiny(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in out["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
    if trace:
        share = out["metrics"]["trace.self_share"]["value"]
        assert abs(1.0 - share) <= 0.05


def test_self_times_sum_to_the_traced_wall_time():
    from tracer import Tracer

    def busy(seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: busy(0.03))
    outer = tracer.wrap("outer", lambda: (busy(0.02), inner(), busy(0.01)))
    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    assert tracer.calls("outer") == 1 and tracer.calls("inner") == 1
    assert tracer.self_seconds("inner") == pytest.approx(0.03, abs=0.01)
    assert tracer.self_seconds("outer") == pytest.approx(0.03, abs=0.01)
    assert tracer.total_self_seconds() == pytest.approx(wall, rel=0.05)


def test_host_speed_scales_by_the_samples_around_a_region():
    from hostspeed import REFERENCE_S, HostSpeed

    host = HostSpeed()
    host.samples = [(0.0, 1.0, 0.3), (5.0, 6.0, 0.5), (9.0, 10.0, 0.2)]
    assert host.scale(1.0, 5.0) == pytest.approx(REFERENCE_S / 0.4)
    assert host.scale(6.5, 8.0) == pytest.approx(REFERENCE_S / 0.35)
    assert host.median_loop_seconds() == 0.3


def test_host_calibration_flags_work_in_flight():
    import threading
    from hostspeed import HostSpeed

    host = HostSpeed()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert any("threads alive" in p for p in host.sample())
    finally:
        stop.set()
        thread.join()
    busy = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        time.sleep(0.2)
        assert any(str(busy.pid) in p for p in host.sample())
    finally:
        busy.kill()
        busy.wait()


def test_tracer_restores_every_entry_point():
    from tracer import ENTRY_POINTS, Tracer
    import importlib

    def resolve(module_name: str, attr_path: str):
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)

    before = [resolve(m, a) for m, a, _ in ENTRY_POINTS]
    with Tracer():
        during = [resolve(m, a) for m, a, _ in ENTRY_POINTS]
    after = [resolve(m, a) for m, a, _ in ENTRY_POINTS]
    assert all(b is not d for b, d in zip(before, during))
    assert all(b is a for b, a in zip(before, after))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- seed invariance at the real workload sizes ------------------------------


def test_stream_rebuild_count_is_the_same_on_seeds_0_to_3(tmp_path, monkeypatch):
    from workloads import StreamWorkload
    from repro import Birch

    monkeypatch.chdir(tmp_path)  # the stream checkpoints to relative paths
    rebuilds = []
    for seed in range(4):
        workload = StreamWorkload("stream_ds1o", seed, 1.0)
        estimator = Birch(workload.config(traced=False))
        for lo in range(0, workload.n, 1_000):
            estimator.partial_fit(workload.points[lo : lo + 1_000])
        rebuilds.append(estimator.rebuilds)
    assert len(set(rebuilds)) == 1, rebuilds
    assert rebuilds[0] > 0


def test_fit_ds1_makes_no_rebuilds():
    from workloads import FitWorkload, fit_config
    from repro import Birch

    for seed in range(2):
        workload = FitWorkload("fit_ds1", seed, 1.0, n_jobs=1)
        assert Birch(fit_config(1, traced=False)).fit(workload.points).rebuilds == 0
