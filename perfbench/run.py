"""symvar benchmark: one workload per run, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

A run builds the workload's inputs from ``--seed`` (set-up, repeated and
timed), then repeats whole rounds of the workload's operations until
``--seconds`` have passed, checking every output.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` installs the span tracer, runs one traced
round between untraced ones and prints the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a full record (environment, per-operation
latencies, certificate digests, span summary) goes to ``perfbench/out/``.
``--smoke`` runs every workload at its smallest size, traced and untraced,
and checks that every metric named in ``BENCHMARK.json`` is printed with its
unit and that every output check ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _cap_blas_threads():
    """One BLAS thread; must run before numpy is imported.  The load is one
    client in one process, and on the 128-cell solves of ``pde`` two
    OpenBLAS threads on two cores ran slower and noisier than one."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


NPROC = _cap_blas_threads()
sys.path.insert(0, str(ROOT / "src"))

import symvar  # noqa: E402

if Path(symvar.__file__).resolve().parent != ROOT / "src" / "symvar":
    sys.exit(f"symvar imported from {symvar.__file__}, not from this checkout")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import LAYER_METRICS, LAYERS, ENGINES, Tracer  # noqa: E402
from workloads import WORKLOADS, Recorder, SpeedProbe  # noqa: E402

SETUP_REPS = 3            # set-up runs at least this often ...
SETUP_MIN_SECONDS = 1.0   # ... and until this much set-up time has passed
SETUP_MAX_REPS = 200
# End-to-end times are reported at a fixed machine speed: each measured
# time is multiplied by REF_SECONDS over the reference-kernel time sampled
# during it (or just before and just after it, for a call shorter than the
# sampling interval).  The 2-core machine this was built on switches between
# speed regimes up to 1.75x apart, several times a second or once in
# minutes; across them most of symvar's operations keep their ratio to the
# reference kernel within about 4% (README.md gives the figures and the
# exception, ``pde``).
REF_SECONDS = 0.0025

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
    "verify_p50_s": "s", "peak_rss_mb": "MB",
}


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(load_at_start):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_cap": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_at_start": load_at_start,
    }


def at_ref(seconds, ref):
    """``seconds`` measured at reference-kernel time ``ref``, expressed at
    the fixed machine speed REF_SECONDS."""
    return seconds * REF_SECONDS / ref


# ---------------------------------------------------------------------------

def _round(wl, state, speed, tracer=None):
    """One round: (wall seconds without the probes, probe span, recorder)."""
    rec = Recorder(speed=speed, tracer=tracer)
    mark = speed.mark()
    if tracer is None:
        wl.run_round(state, rec)
    else:
        with tracer:
            wl.run_round(state, rec)
    return (*speed.since(mark), rec)


def _setup(wl, speed):
    """Repeated set-up: ([(seconds, probe span)], last state)."""
    times, state = [], None
    while (len(times) < SETUP_REPS
           or (sum(t for t, _ in times) < SETUP_MIN_SECONDS
               and len(times) < SETUP_MAX_REPS)):
        mark = speed.mark()
        state = wl.setup()
        times.append(speed.since(mark))
    return times, state


# Per-layer metrics read straight off the tracer: inclusive span seconds,
# call counts, and counters under other names.
SPAN_SECONDS = (
    "funcspace.make_grid", "funcspace.riesz_from_euclidean",
    "rearrange.approx_symmetrize", "rearrange.is_family_fixed",
    "principles.sample_inequality", "principles.estimate_inf",
    "principles.check_symmetry", "principles.verify_certificate",
    "descent.minimize_multistart", "slopes.strong_slope",
    "applications.drop_membership", "applications.dual_norm",
    "applications.lower_derivative",
)
CALL_COUNTS = (
    "funcspace.make_grid", "funcspace.riesz_from_euclidean",
    "rearrange.approx_symmetrize", "rearrange.polarize",
    "descent.minimize_multistart", "applications.drop_membership",
    "applications.petal_membership",
)
COUNTERS = {
    "funcspace.functional_evals": "funcspace.Functional.__call__",
    "funcspace.gridfunction_new": "funcspace.GridFunction.__init__",
    "funcspace.norm.calls": "funcspace.norm",
    "rearrange.word_len": "rearrange.word_len",
    "rearrange.stuck": "rearrange.stuck",
    "principles.sample_inequality.samples":
        "principles.sample_inequality.samples",
    "cli.bytes_written": "cli.bytes_written",
}


def _summary_at_ref(tracer, phases):
    """Tracer summary with the seconds of each phase scaled to the fixed
    machine speed; ``phases`` is [(op ids, reference seconds)]."""
    out = {"incl_s": Counter(), "self_s": Counter(),
           "layer_self_s": Counter()}
    for ops, ref in phases:
        summ = tracer.summary(ops)
        for key, acc in out.items():
            for name, v in summ[key].items():
                acc[name] += at_ref(v, ref)
    return out


def _layer_metrics(tracer, wl, state, phases, traced_wall, untraced_walls):
    summ = _summary_at_ref(tracer, phases)
    counts, self_s, errors = tracer.counts, summ["self_s"], tracer.errors()
    m = {f"{n}.s": summ["incl_s"][n] for n in SPAN_SECONDS}
    m.update({f"{n}.calls": counts[n] for n in CALL_COUNTS})
    m.update({k: counts[n] for k, n in COUNTERS.items()})
    samples = counts["principles.sample_inequality.samples"]
    m["principles.sample_inequality.us_per_sample"] = (
        1e6 * m["principles.sample_inequality.s"] / samples if samples else 0.0)
    m["principles.engine.self_s"] = sum(self_s[n] for n in ENGINES)
    drops = counts["applications.drop_membership"]
    m["applications.drop_membership.ball_norms_per_query"] = (
        counts["applications.ball_norm"] / drops if drops else 0.0)
    m["cli.run_config.self_s"] = self_s["cli.run_config"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = summ["layer_self_s"][layer]
        m[f"{layer}.errors"] = errors.get(layer, 0)
    m["trace_overhead"] = traced_wall / statistics.median(untraced_walls)
    m = {k: m[k] for k in LAYER_METRICS}     # print in BENCHMARK.json order

    cross = {name: {"expected": want, "measured": m[name], "ok": m[name] == want}
             for name, want in wl.expected_counts(state).items()}
    return m, cross


def _shares(tracer):
    """Share of each function's self time, and of its inclusive time, in
    the traced set-up and in the traced round."""
    out = {}
    for phase, ops in (("setup", {"setup"}), ("round", None)):
        if ops is None:
            ops = {r[4] for r in tracer.spans} - {"setup"}
        summ = tracer.summary(ops)
        total = sum(summ["self_s"].values()) or 1.0
        top = sorted(summ["self_s"].items(), key=lambda kv: -kv[1])
        incl = sorted(summ["incl_s"].items(), key=lambda kv: -kv[1])
        out[phase] = {"self_s_total": total,
                      "functions": {k: round(v / total, 4) for k, v in top
                                    if v / total >= 0.001},
                      "inclusive": {k: round(v / total, 4) for k, v in incl
                                    if v / total >= 0.01},
                      "layers": {k: round(v / total, 4) for k, v in
                                 summ["layer_self_s"].items()}}
    return out


def _timed_rounds(wl, state, seconds, speed, tracer):
    """Whole rounds until ``seconds`` have passed (at least one).  With a
    tracer, the second round is the traced one; the others run bare."""
    rounds, traced = [], None
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(_round(wl, state, speed))
        if tracer is not None and traced is None:
            if hasattr(wl, "instrument"):
                wl.instrument(state, tracer)
            traced = _round(wl, state, speed, tracer)
        if time.perf_counter() >= deadline:
            return rounds, traced


def run(workload, seed, seconds, trace, smoke=False):
    """One benchmark run in this process; returns (result, record)."""
    load = list(os.getloadavg())
    workdir = OUT / f"work-{os.getpid()}"
    wl = WORKLOADS[workload](seed, smoke, workdir)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "smoke": smoke, "environment": environment(load),
              "loop": "closed, one client, one process"}
    speed = SpeedProbe()
    # spans are timed on the probe-free clock, so probes that land inside
    # them do not count
    tracer = Tracer(clock=speed.clock) if trace else None
    try:
        with speed:
            if trace:
                tracer.op = "setup"
                mark = speed.mark()
                with tracer:
                    state = wl.setup()
                setup_times = [speed.since(mark)]
            else:
                setup_times, state = _setup(wl, speed)
            rounds, traced = _timed_rounds(wl, state, seconds, speed, tracer)
        digests = rounds[0][2].digests
        replay = [{"kind": kind, "sha256": digest, "ok": ok}
                  for kind, digest, ok in wl.replay(state, digests)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    recs = [r for _, _, r in rounds] + ([traced[2]] if traced else [])
    ops = [op for r in recs for op in r.ops]
    checks = {}
    for r in recs:
        for k, v in r.checks.items():
            checks[k] = checks.get(k, 0) + v
    checks["replay"] = len(replay)
    failures = [f for r in recs for f in r.failures]
    failures += [f"replay {r['kind']}: bytes differ" for r in replay
                 if not r["ok"]]
    # every round replays the same inputs, so its outputs must repeat
    failures += [f"round {i}: output digests differ from round 0"
                 for i, r in enumerate(recs[1:], 1) if r.digests != digests]
    attempted = len(ops) + len(replay)
    failed = sum(not op.ok for op in ops) + sum(not r["ok"] for r in replay)

    def scaled(seconds, span):
        return at_ref(seconds, speed.ref(span))

    # end-to-end numbers come from the untraced rounds only
    walls = [w for w, _, _ in rounds]
    untraced = [op for _, _, r in rounds for op in r.ops]
    primary = [op for op in untraced if op.kind == "primary"]
    verify = [op for op in untraced if op.kind == "verify"]
    report = {"fail_ratio": failed / attempted, "op_samples": len(primary),
              "verify_samples": len(verify), "rounds": len(rounds),
              "timed_s": sum(walls),
              "reference_kernel_s": statistics.median(speed.samples),
              "reference_kernel_samples": len(speed.samples)}

    if trace:
        phases = [({"setup"}, speed.ref(setup_times[0][1])),
                  ({r[4] for r in tracer.spans} - {"setup"},
                   speed.ref(traced[1]))]
        metrics, cross = _layer_metrics(
            tracer, wl, state, phases, scaled(*traced[:2]),
            [scaled(w, span) for w, span, _ in rounds])
        units = LAYER_METRICS
        record["cross_checks"] = cross
        record["shares"] = _shares(tracer)
        failures += [f"trace count {k}: expected {v['expected']}, measured "
                     f"{v['measured']}" for k, v in cross.items()
                     if not v["ok"]]
        record["spans"] = tracer.spans
    else:
        walls_at_ref = [scaled(w, span) for w, span, _ in rounds]
        metrics = {
            "setup_s": statistics.median(scaled(t, span)
                                         for t, span in setup_times),
            "wall_s": statistics.median(walls_at_ref),
            "ops_per_s": len(primary) / sum(walls_at_ref),
            "op_p50_s": statistics.median(scaled(op.seconds, op.span)
                                          for op in primary),
            "verify_p50_s": statistics.median(scaled(op.seconds, op.span)
                                              for op in verify),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report.update({
            "raw_setup_s": statistics.median(t for t, _ in setup_times),
            "raw_wall_s": statistics.median(walls),
            "raw_ops_per_s": len(primary) / sum(walls),
            "raw_op_p50_s": statistics.median(op.seconds for op in primary),
            "raw_verify_p50_s": statistics.median(op.seconds
                                                  for op in verify),
        })
        units = END_TO_END

    record.update({
        "setup_times_s": [[t, speed.ref(span)] for t, span in setup_times],
        "rounds": [[w, speed.ref(span)] for w, span, _ in rounds],
        "ops": [[op.kind, op.name, op.seconds, speed.ref(op.span), op.ok]
                for op in ops],
        "checks": checks,
        "checks_not_run": sorted(set(wl.checks) - {k for k, v in
                                                   checks.items() if v}),
        "failures": failures, "replay": replay, "digests": digests,
        "report": report, "reference_kernel_samples_s": speed.samples,
    })
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record["result"] = result
    return result, record


def _write_record(record):
    OUT.mkdir(exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}-"
            f"trace{record['trace']}{'-smoke' if record['smoke'] else ''}")
    spans = record.pop("spans", None)
    if spans is not None:
        (OUT / f"{name}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"],
             "spans": spans}))
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1))


def _print_human(result, record):
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} | python {env['python']} numpy "
          f"{env['numpy']} scipy {env['scipy']} | nproc {env['nproc']} | "
          f"{env['blas']} threads={env['blas_threads']} | load "
          f"{env['loadavg_at_start']}")
    for k, v in result["metrics"].items():
        print(f"{k:52s} {v['value']:.6g} {v['unit']}")
    for k, v in record["report"].items():
        print(f"{k:52s} {v:.6g}")
    for f in record["failures"]:
        print(f"FAILED: {f}")


def smoke():
    """Every workload at its smallest size, untraced and traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
    for name in names:
        for trace in (0, 1):
            result, record = run(name, 0, 0.0, trace, smoke=True)
            _write_record(record)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: metrics/units differ "
                                f"from BENCHMARK.json: {got} vs {want[trace]}")
            if record["checks_not_run"]:
                problems.append(f"{name}: checks not run "
                                f"{record['checks_not_run']}")
            problems += [f"{name}: {f}" for f in record["failures"]]
            print(f"smoke {name} trace={trace}: {len(result['metrics'])} "
                  f"metrics, checks {record['checks']}")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print(json.dumps({"smoke_ok": not problems, "problems": len(problems)}))
    return 0 if not problems else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    _write_record(record)
    _print_human(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
