"""graspslip benchmark: train, eval and replay16 workloads.

    python3 bench/run.py [--workload train|eval|replay16|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the repository root. The package is imported from ``src/`` of
the same checkout. BLAS and OpenMP are pinned to one thread before numpy
loads. With ``--trace 0`` the run prints the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it prints the per-layer metrics, taken
from a separate traced pass after the untraced one, and writes that
pass's spans to .bench_spans/<workload>-seed<N>.json. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
benchmark cannot run here (no package source, no BENCHMARK.json).
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_spans"
SETUP_REPEATS = 11
PROBE_ITERS = 20000
TRACED_OPS = {"train": 1, "eval": 1, "replay16": 2}

END_TO_END = {"throughput_per_s", "heldout_success", "setup_s"}
LAYER_STATS = {"calls", "s", "self_s", "us_p50", "us_p99", "steps_per_call", "clipped_frac"}
LAYER_EXTRAS = {"trace.overhead_frac", "trace.missing", "evaluation.heldout_ahead_drop"}


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        _die(f"cannot read BENCHMARK.json: {exc}")
    for m in spec["end_to_end"]:
        if m["name"] not in END_TO_END:
            _die(f"end-to-end metric {m['name']!r} is not measured here")
    for m in spec["per_layer"]:
        if m["name"] not in LAYER_EXTRAS and m["name"].rsplit(".", 1)[-1] not in LAYER_STATS:
            _die(f"per-layer metric {m['name']!r} has no known statistic")
    return spec


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "graspslip" / "__init__.py").is_file():
        _die(f"no package source at {src / 'graspslip'}")
    sys.path[:0] = [str(src), str(BENCH)]
    import graspslip

    if Path(graspslip.__file__).resolve().parent != (src / "graspslip").resolve():
        _die(f"imported graspslip from {graspslip.__file__}, not from {src}")


def host_probe_us() -> float:
    """Mean time of one fixed (512 x 139) float64 mat-vec; context only."""
    import numpy as np

    rng = np.random.default_rng(0)
    w, x = rng.standard_normal((512, 139)), rng.standard_normal(139)
    t0 = time.perf_counter()
    for _ in range(PROBE_ITERS):
        w @ x
    return (time.perf_counter() - t0) / PROBE_ITERS * 1e6


def context() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, layer_spans: set) -> dict:
    import workloads as wl
    from graspslip import evaluation

    tally = wl.Tally()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        workdir = wl.make_workdir(WORK_ROOT)
        try:
            t0 = time.perf_counter()
            inputs = wl.setup(seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        finally:
            wl.remove_workdir(workdir)
    for message in wl.check_setup(inputs):
        tally.fail(0, f"setup: {message}")

    workload = wl.WORKLOADS[name](inputs, seed)
    wl.repeat(workload, tally, seconds=seconds)

    # Held-out quality of variant C after one epoch: the train workload's
    # first fit, or one untimed fit for the workloads that do not train.
    fitted, report = getattr(workload, "first", None), None
    try:
        if fitted is None:
            tally.attempted += 1
            fitted, _ = evaluation.fit_variant("C", inputs.train, wl.train_config(seed))
        report = evaluation.evaluate_model(fitted, inputs.heldout, wl.WINDOW_LEN)
    except Exception as exc:  # reported as a failed operation
        tally.fail(1, f"quality fit: {type(exc).__name__}: {exc}")

    result = {
        "workload": workload,
        "tally": tally,
        "throughput_per_s": statistics.median(tally.rates) if tally.rates else 0.0,
        "heldout_success": report.success_rate if report else 0.0,
        "heldout_ahead_drop": (report.ahead_drop_rate or 0.0) if report else 0.0,
        "setup_s": statistics.median(setup_times),
    }
    if trace:
        tracer, traced_rate = traced_pass(name, seed, tally)
        result["spans"], result["stats"] = tracer.spans, tracer.stats()
        # Span names a per-layer metric asks for that the package no longer has.
        result["missing"] = sorted(layer_spans - tracer.installed)
        result["overhead_frac"] = (result["throughput_per_s"] / traced_rate - 1.0
                                   if traced_rate else 0.0)
    return result


def traced_pass(name: str, seed: int, tally):
    """Trace one set-up and TRACED_OPS operations; (tracer, median rate)."""
    import workloads as wl
    from spans import Tracer

    traced = wl.Tally()
    tracer = Tracer()
    workdir = wl.make_workdir(WORK_ROOT)
    try:
        with tracer:
            with tracer.span("bench.setup"):
                inputs = wl.setup(seed, workdir)
            with tracer.paused():
                workload = wl.WORKLOADS[name](inputs, seed)
            wl.repeat(workload, traced, n_ops=TRACED_OPS[name],
                      span=lambda: tracer.span("bench.op"), untraced=tracer.paused)
    finally:
        wl.remove_workdir(workdir)
    tally.attempted += traced.attempted
    tally.failed += traced.failed
    tally.errors += [f"traced: {m}" for m in traced.errors]
    return tracer, statistics.median(traced.rates) if traced.rates else 0.0


def layer_value(name: str, stats: dict, extras: dict) -> float:
    if name in extras:
        return extras[name]
    span, stat = name.rsplit(".", 1)
    s = stats.get(span, {})
    calls = s.get("calls", 0)
    if stat == "steps_per_call":
        return s.get("steps", 0) / calls if calls else 0.0
    if stat == "clipped_frac":
        return s.get("clipped", 0) / calls if calls else 0.0
    return s.get(stat, 0)


def metrics_of(result: dict, spec: dict, trace: bool) -> dict:
    if not trace:
        return {m["name"]: {"value": result[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]}
    extras = {
        "trace.overhead_frac": result["overhead_frac"],
        "trace.missing": len(result["missing"]),
        "evaluation.heldout_ahead_drop": result["heldout_ahead_drop"],
    }
    return {m["name"]: {"value": layer_value(m["name"], result["stats"], extras),
                        "unit": m["unit"]}
            for m in spec["per_layer"]}


def report_lines(name: str, result: dict, metrics: dict) -> list[str]:
    workload, tally = result["workload"], result["tally"]
    lines = [f"workload {name}: {len(tally.rates)} timed operations; "
             f"throughput_per_s is {workload.alias} ({workload.unit} per second)"]
    for metric, m in metrics.items():
        lines.append(f"  {metric:<42} {m['value']:>14.6g} {m['unit']}")
    if "stats" in result:
        if result["missing"]:
            lines.append("  missing (no longer in the package): " + ", ".join(result["missing"]))
        lines.append("  spans by self time:")
        top = sorted(result["stats"].items(), key=lambda kv: -kv[1]["self_s"])
        for span, s in top[:15]:
            lines.append(f"    {span:<36} calls {s['calls']:>8}  self {s['self_s']:9.4f} s"
                         f"  total {s['s']:9.4f} s")
    lines.append(f"  operations: {tally.attempted} attempted, {tally.failed} failed")
    lines += [f"  FAILED: {e}" for e in tally.errors]
    return lines


def main(argv=None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        names = [args.workload]
    _import_package()
    layer_spans = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
                   if m["name"] not in LAYER_EXTRAS}

    ctx = context()
    probe_start = host_probe_us()
    print(f"graspslip benchmark: workloads {','.join(names)} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), layer_spans)
            wmetrics = metrics_of(result, spec, bool(args.trace))
            print("\n".join(report_lines(name, result, wmetrics)))
            tally = result["tally"]
            correct = correct and tally.failed == 0 and not tally.errors
            attempted += tally.attempted
            failed += tally.failed
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in wmetrics.items()})
            if "spans" in result:
                SPANS_DIR.mkdir(exist_ok=True)
                with open(SPANS_DIR / f"{name}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
                    json.dump({k: result[k] for k in ("spans", "stats", "missing")}, fh)
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    ctx["host_probe_us"] = {"start": probe_start, "end": host_probe_us()}
    print("context: " + json.dumps(ctx, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
