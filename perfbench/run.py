#!/usr/bin/env python3
"""hamstat benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

The inputs come from ``--seed`` alone.  After set-up the workload's ops run
back to back for ``--seconds`` seconds, and at least once for every input
of the pool; each op is timed from call to return and checked by its
oracle after the timer stops.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run record (input hash, pool,
versions, tail percentile, machine speed, wall-clock figures).

Times are CPU seconds of the process, scaled to the reference machine by
the speed the probe in ``probe.py`` measures between ops and inside long
ones (see README.md): the host is shared, and its speed changes by half
from one second to the next.

``--trace 0`` reports the end-to-end metrics of the workload.  ``--trace 1``
is the traced run: for every workload, starting with the named one, it
runs each op untraced and then again with spans around each call into a
layer, and reports the per-layer metrics, the share of op time the spans
cover and the traced/untraced time ratio.  The spans are written to
``.perfbench/`` when the run ends.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with an error.  ``HAMSTAT_THREADS`` is
removed from the environment and BLAS is held to one thread, so the
program runs single-threaded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

# one BLAS thread, so every layer runs single-threaded (set before numpy
# loads, which importing the probe does)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import probe                                                # noqa: E402
from spans import OFF, Tracer                               # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("explore", "roundtrip", "factor", "flow")
SETUP_SAMPLES = 4             # the run's own set-up plus three fresh processes
PROBE_SHARE = 0.05            # probe CPU time between ops / op CPU time
MAX_PROBES = 25               # probes in one burst, at most
MIN_SEGMENT_S = 0.2           # op CPU seconds before a burst inside an op
SETUP_PROBES = 25             # probes after a set-up
MIN_COVERAGE = 0.95

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "accuracy_margin_digits": "digits", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "weierstrass.spec_load_ms": "ms",
    "weierstrass.immerse_ms": "ms",
    "weierstrass.immerse_calls": "count",
    "weierstrass.immerse_points": "count",
    "weierstrass.immerse_ns_per_point_term": "ns",
    "checks.run_suite_ms": "ms",
    "checks.self_ms": "ms",
    "checks.richardson_ratio": "ratio",
    "cli.mesh_ms": "ms",
    "cli.family_ms": "ms",
    "cli.bytes_written": "bytes",
    "weierstrass.lift_samples_ms": "ms",
    "weierstrass.lift_samples_calls": "count",
    "loops.extract_ms": "ms",
    "loops.extract_self_ms": "ms",
    "loops.reconstruct_ms": "ms",
    "loops.integrand_calls": "count",
    "loops.integrand_points": "count",
    "loops.potential_eval_ms": "ms",
    "loops.quadrature_self_ms": "ms",
    "loops.iwasawa_ms": "ms",
    "loops.birkhoff_ms": "ms",
    "finitetype.flow_ms": "ms",
    "finitetype.rk_steps": "count",
    "finitetype.rk_stage_us": "us",
    "finitetype.invariants_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    **{f"trace.coverage.{w}": "ratio" for w in WORKLOADS},
    **{f"trace.overhead_ratio.{w}": "ratio" for w in WORKLOADS},
}


def locate_program():
    """Put the checkout's ``src`` first on the import path."""
    src = ROOT / "src"
    if not (src / "hamstat" / "__init__.py").is_file():
        raise SystemExit(f"error: no hamstat sources under {src}")
    sys.path.insert(0, str(src))


def set_up(name: str, seed: int, workdir: str):
    """Import the program, generate the inputs, run one untimed op.  The
    set-up time is CPU seconds scaled by the machine speed measured right
    after it."""
    t0 = time.process_time()
    import workloads                       # loads numpy and hamstat
    wl = workloads.WORKLOADS[name](workdir)
    items = wl.generate(seed)
    wl.run(items[0], OFF)
    cpu = time.process_time() - t0
    return wl, items, cpu / probe.speed(SETUP_PROBES)


def setup_in_fresh_process(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def judge(wl, item, out):
    from workloads import Verdict
    if isinstance(out, BaseException):
        return Verdict(math.inf, {"error": repr(out)})
    try:
        return wl.check(item, out)
    except Exception as exc:           # an oracle that cannot run rejects
        return Verdict(math.inf, {"error": repr(exc)})


def timed_op(wl, item, tr=OFF, op_id=0):
    """One op of the traced run, timed (wall clock) from call to return,
    then judged by the oracle."""
    if tr.enabled:
        tr.op = op_id
    t0 = time.perf_counter()
    try:
        with tr.span("op"):
            out = wl.run(item, tr)
    except (Exception, SystemExit) as exc:     # the CLI exits on errors
        out = exc
    return time.perf_counter() - t0, judge(wl, item, out)


def measure(wl, items, seconds):
    """Closed loop over the pool, in order: each op starts once the previous
    op and its check are done, until the first op boundary after
    ``seconds`` at which every input of the pool has run.  The clock runs
    probe bursts between ops and inside long ones, and gives each op's CPU
    time, wall time and time at reference speed."""
    clock = probe.Clock(PROBE_SHARE, MAX_PROBES, MIN_SEGMENT_S)
    times, verdicts = [], []
    start = time.perf_counter()
    while (len(times) < len(items)
           or time.perf_counter() - start < seconds):
        item = items[len(times) % len(items)]
        clock.start()
        try:
            out = wl.run(item, clock)
        except (Exception, SystemExit) as exc:     # the CLI exits on errors
            out = exc
        times.append(clock.stop())
        verdicts.append(judge(wl, item, out))
    cpu, wall, ref = (list(t) for t in zip(*times))
    return cpu, wall, ref, verdicts, clock.speeds


def measure_traced(wl, items, seconds):
    """Each op twice, untraced and traced, so that both sides see the same
    inputs and the same machine load; the side that goes first alternates,
    since a repeated op can run faster.  Covers the whole pool at least
    once, so the layer numbers average over the same mix as the timed
    run."""
    tr = Tracer()
    plain, traced, verdicts = [], [], []
    start = time.perf_counter()
    while (len(plain) < len(items)
           or time.perf_counter() - start < seconds):
        i = len(plain)
        item = items[i % len(items)]
        if i % 2:
            plain.append(timed_op(wl, item)[0])
        latency, verdict = timed_op(wl, item, tr, i)
        if not i % 2:
            plain.append(timed_op(wl, item)[0])
        traced.append(latency)
        verdicts.append(verdict)
    return tr, plain, traced, verdicts


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten ops beyond it; the median
    when fewer than 20 ops ran."""
    return 50.0 if n < 20 else 100.0 * (n - 10) / n


def weighted_quantile(values, weights, q: float) -> float:
    """The smallest value whose cumulative weight reaches the share q."""
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    acc = 0.0
    for v, w in pairs:
        acc += w
        if acc >= q * total * (1 - 1e-12):
            return v
    return pairs[-1][0]


def end_to_end(pool_size, ref, cpu, wall, verdicts, speeds, setup_samples):
    """The end-to-end metrics of one timed run.

    ``ref`` holds the op times at reference speed, ``cpu`` and ``wall``
    the unscaled ones, ``speeds`` the speeds of the run's probe bursts.
    The pool's inputs differ in cost and a run ends on a time limit, so an
    input that ran k times weighs 1/k: every statistic is over the pool as
    a whole, whatever the mix the run happened to end on."""
    slot = [i % pool_size for i in range(len(ref))]
    runs = [slot.count(k) for k in range(pool_size)]
    weights = [1.0 / runs[k] for k in slot]
    slot_median = [statistics.median(r for r, k in zip(ref, slot) if k == j)
                   for j in range(pool_size)]
    passed = sum(v.passed for v in verdicts)
    margins = [-math.log10(v.ratio) for v in verdicts
               if v.passed and v.ratio > 0]
    pct = tail_percentile(len(ref))
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": passed / len(ref) * pool_size / sum(slot_median),
        "op_p50_ms": 1e3 * weighted_quantile(ref, weights, 0.5),
        "op_tail_ms": 1e3 * weighted_quantile(ref, weights, pct / 100),
        "accuracy_margin_digits":
            statistics.median(margins) if margins else 0.0,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {
        "tail_percentile": pct, "ops": len(ref),
        "machine_speed": statistics.median(speeds),
        "setup_samples_s": setup_samples,
        "min_margin_digits": min(margins) if margins else None,
        "wall_ops_per_s": len(wall) / sum(wall),
        "wall_op_p50_ms": 1e3 * statistics.median(wall),
        "cpu_share": sum(cpu) / sum(wall)}


def layer_metrics(wl, tr: Tracer, verdicts) -> tuple[dict, float]:
    """Per-op layer numbers of one workload's traced ops, and the share of
    op time inside the spans directly under each op."""
    spans = tr.spans
    own = tr.self_times()
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
    missing = [name for name in wl.layers if not by_name[name]]
    if missing:
        raise SystemExit(f"error: {wl.name}: spans never fired: {missing}")
    ops = by_name["op"]
    n = len(ops)
    op_ids = set(ops)
    op_time = sum(spans[i].duration for i in ops)
    coverage = sum(s.duration for s in spans if s.parent in op_ids) / op_time

    def ms(name):
        return 1e3 * sum(spans[i].duration for i in by_name[name]) / n

    def self_ms(name):
        return 1e3 * sum(own[i] for i in by_name[name]) / n

    def count(name, key=None):
        idx = by_name[name]
        return (len(idx) if key is None
                else sum(spans[i].counts.get(key, 0) for i in idx)) / n

    if wl.name == "explore":
        point_terms = sum(spans[i].counts["points"] * spans[i].counts["terms"]
                          for i in by_name["weierstrass.immerse"])
        out = {
            "weierstrass.spec_load_ms": ms("weierstrass.spec_load"),
            "weierstrass.immerse_ms": ms("weierstrass.immerse"),
            "weierstrass.immerse_calls": count("weierstrass.immerse"),
            "weierstrass.immerse_points": count("weierstrass.immerse", "points"),
            "weierstrass.immerse_ns_per_point_term":
                1e6 * n * ms("weierstrass.immerse") / point_terms,
            "checks.run_suite_ms": ms("checks.run_suite"),
            "checks.self_ms": self_ms("checks.run_suite"),
            "checks.richardson_ratio":
                sum(v.info["richardson"] for v in verdicts)
                / sum(v.info["reports"] for v in verdicts),
            "cli.mesh_ms": ms("cli.mesh"),
            "cli.family_ms": ms("cli.family"),
            "cli.bytes_written": sum(v.info["bytes"] for v in verdicts) / n,
        }
    elif wl.name == "roundtrip":
        out = {
            "weierstrass.lift_samples_ms": ms("weierstrass.lift_samples"),
            "weierstrass.lift_samples_calls": count("weierstrass.lift_samples"),
            "loops.extract_ms": ms("loops.extract"),
            "loops.extract_self_ms": self_ms("loops.extract"),
            "loops.reconstruct_ms": ms("loops.reconstruct"),
            "loops.integrand_calls": count("loops.potential_eval", "integrand"),
            "loops.integrand_points": count("loops.potential_eval", "points"),
            "loops.potential_eval_ms": ms("loops.potential_eval"),
            "loops.quadrature_self_ms": self_ms("loops.reconstruct"),
        }
    elif wl.name == "factor":
        out = {"loops.iwasawa_ms": ms("loops.iwasawa"),
               "loops.birkhoff_ms": ms("loops.birkhoff")}
    else:
        steps = count("finitetype.flow", "steps")
        out = {
            "finitetype.flow_ms": ms("finitetype.flow"),
            "finitetype.rk_steps": steps,
            "finitetype.rk_stage_us": 1e3 * ms("finitetype.flow") / (4 * steps),
            "finitetype.invariants_ms": ms("finitetype.invariants"),
        }
    return out, coverage


def timed_run(args, workdir):
    wl, items, own_setup = set_up(args.workload, args.seed, workdir)
    cpu, wall, ref, verdicts, speeds = measure(wl, items, args.seconds)
    setups = [own_setup] + [setup_in_fresh_process(args.workload, args.seed)
                            for _ in range(SETUP_SAMPLES - 1)]
    metrics, detail = end_to_end(len(items), ref, cpu, wall, verdicts,
                                 speeds, setups)
    failed = sum(not v.passed for v in verdicts)
    record = {"workload": args.workload, "seed": args.seed,
              "input_hash": wl.fingerprint(items),
              "pool": [it.slot for it in items],
              **detail, "errors": [v.info["error"] for v in verdicts
                                   if "error" in v.info][:3]}
    return metrics, END_TO_END_UNITS, record, len(verdicts), failed


def traced_run(args, workdir):
    order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    metrics, record = {}, {"seed": args.seed, "input_hash": {}}
    attempted = failed = 0
    untraced_total = traced_total = 0.0
    all_spans = {}
    for name in order:
        wl, items, _ = set_up(name, args.seed, workdir)
        tr, plain, traced, verdicts = measure_traced(
            wl, items, args.seconds / len(order))
        layers, coverage = layer_metrics(wl, tr, verdicts)
        if coverage < MIN_COVERAGE:
            raise SystemExit(f"error: {name}: spans cover {coverage:.3f} of "
                             f"op time, below {MIN_COVERAGE}")
        metrics.update(layers)
        metrics[f"trace.coverage.{name}"] = coverage
        metrics[f"trace.overhead_ratio.{name}"] = sum(traced) / sum(plain)
        untraced_total += sum(plain)
        traced_total += sum(traced)
        attempted += len(verdicts)
        failed += sum(not v.passed for v in verdicts)
        record["input_hash"][name] = wl.fingerprint(items)
        all_spans[name] = [s.to_dict() for s in tr.spans]
    metrics["trace.coverage"] = min(metrics[f"trace.coverage.{w}"]
                                    for w in WORKLOADS)
    metrics["trace.overhead_ratio"] = traced_total / untraced_total
    out_dir = ROOT / ".perfbench"
    with open(out_dir / f"spans-seed{args.seed}.json", "w",
              encoding="utf-8") as fh:
        json.dump(all_spans, fh)
    return metrics, PER_LAYER_UNITS, record, attempted, failed


def run_record(hamstat_threads):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "HAMSTAT_THREADS": hamstat_threads,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout's git metadata, if it has any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only time one set-up (used for setup_s samples)")
    args = ap.parse_args(argv)
    hamstat_threads = os.environ.pop("HAMSTAT_THREADS", None)
    locate_program()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=ROOT / ".perfbench")
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": set_up(args.workload, args.seed,
                                                workdir)[2]}))
            return 0
        run = traced_run if args.trace else timed_run
        metrics, units, record, attempted, failed = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["run"] = run_record(hamstat_threads)
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
