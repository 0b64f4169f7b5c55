"""Tests of the benchmark itself: metric names, oracles, determinism.

    python3 -m pytest -q perfbench
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run                                                  # noqa: E402
import workloads as W                                       # noqa: E402
from spans import OFF, Tracer                               # noqa: E402

from hamstat.checks import run_suite                        # noqa: E402
from hamstat.finitetype import lax_integrate                # noqa: E402
from hamstat.weierstrass import immerse                     # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_follow_grammar(bench):
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics + bench["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_are_deterministic(name, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    wl_a, wl_b = W.WORKLOADS[name](str(a)), W.WORKLOADS[name](str(b))
    first = wl_a.fingerprint(wl_a.generate(3))
    assert first == wl_b.fingerprint(wl_b.generate(3))
    assert first != wl_b.fingerprint(wl_b.generate(4))


def test_explore_oracle_rejects_sheared_evaluator():
    spec = W.design_spec(1.0, 1j, (1, 1), False)
    shear = np.eye(4)
    shear[2, 0] = 0.01

    def sheared(z):
        return immerse(spec, z) @ shear.T

    good = run_suite(lambda z: immerse(spec, z), spec.lattice, 32, spec=spec)
    bad = run_suite(sheared, spec.lattice, 32, spec=spec)
    assert W.report_ratio(good) <= 1.0
    assert W.report_ratio(bad) > 1.0


def test_explore_oracle_counts_mesh_faces(tmp_path):
    wl = W.Explore(str(tmp_path))
    item = wl.generate(1)[0]
    out = wl.run(item, OFF)
    assert W.mesh_counts(item.mesh_path) == (W.MESH_GRID ** 2,) * 2
    with open(item.mesh_path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(item.mesh_path, "wb") as fh:
        fh.writelines(lines[:-1])              # drop one face
    assert not wl.check(item, out).passed
    out = wl.run(item, OFF)
    assert wl.check(item, out).passed
    assert not run.judge(wl, item, out).passed    # its meshes are gone


def test_roundtrip_oracle_rejects_perturbed_immersion(tmp_path):
    wl = W.Roundtrip(str(tmp_path))
    item = wl.generate(1)[0]
    got = wl.run(item, OFF)
    assert wl.check(item, got).passed
    nudged = got.copy()
    nudged[1, 2, 0] += 1e-6
    assert not wl.check(item, nudged).passed


def test_factor_oracle_rejects_nudged_coefficient(tmp_path):
    wl = W.Factor(str(tmp_path))
    item = wl.generate(1)[0]
    u, b, gm, gp = wl.run(item, OFF)
    assert wl.check(item, (u, b, gm, gp)).passed
    u.trans[0] = u.trans[0] + 1e-6
    assert not wl.check(item, (u, b, gm, gp)).passed
    gp.rot[-1] = gp.rot[-1] + 1e-9
    assert not wl.check(item, wl.run(item, OFF)[:3] + (gp,)).passed


def test_flow_oracle_rejects_skipped_step(tmp_path):
    wl = W.Flow(str(tmp_path))
    item = wl.generate(1)[2]                    # the degree-6 rhombic seed
    res, drifts = wl.run(item, OFF)
    assert wl.check(item, (res, drifts)).passed
    lat = item.seed.spec.lattice
    p1, p2 = item.waypoints
    step = lat.diameter() / W.FLOW_STEPS_PER_DIAMETER
    short = p2 - step * (p2 - p1) / abs(p2 - p1)
    skipped = lax_integrate(item.seed.field, [p1, short], lattice=lat)
    skipped.points[-1] = p2
    assert not wl.check(item, (skipped, drifts)).passed


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner", points=3):
            pass
        with tr.span("inner"):
            pass
    own = tr.self_times()
    outer, first, second = tr.spans
    assert first.parent == second.parent == 0 and outer.parent is None
    assert math.isclose(own[0], outer.duration - first.duration
                        - second.duration)
    assert first.to_dict()["points"] == 3


def test_end_to_end_weighs_the_pool_evenly():
    """An input that ran twice counts once: the metrics do not depend on
    where in the pool the run stopped."""
    ok = W.Verdict(0.01)
    def metrics(ref):
        n = len(ref)
        return run.end_to_end(2, ref, ref, ref, [ok] * n, [1.0], [0.5])[0]

    three, four = metrics([1.0, 3.0, 1.0]), metrics([1.0, 3.0, 1.0, 3.0])
    for name in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
        assert three[name] == four[name]
    assert three["ops_per_s"] == 0.5 and three["op_p50_ms"] == 1e3


def test_clock_scales_segments_by_their_bursts(monkeypatch):
    """Each segment of an op is divided by the mean speed of the bursts on
    either side of it."""
    speeds = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(run.probe, "speed", lambda reps: next(speeds))
    cpu = iter([0.0, 1.0, 1.0, 1.0, 4.0, 4.0])
    monkeypatch.setattr(run.probe.time, "process_time", lambda: next(cpu))
    clock = run.probe.Clock(0.05, 25, min_segment=0.5)
    clock.start()
    with clock.span("layer"):
        pass                                   # 1 s, then a burst
    got = clock.stop()                         # 3 s more
    assert got[0] == 4.0 and clock.speeds == [1.0, 3.0, 2.0]
    assert got[2] == 1.0 / 2.0 + 3.0 / 2.5


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "factor",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == run.END_TO_END_UNITS


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
