"""Command-line front end wiring the whole pipeline.

Subcommands:
    gen-data    synthesize a force or pressure dataset directory
    convert     CSV (one row per step, one column per force channel) -> trace file
    train       fit one variant on a dataset, write checkpoint + history
    eval        evaluate checkpoint(s), write report JSON + tables
    cross-eval  train-per-condition / test-per-condition matrix
    simulate    streamed replay: event log, controller trajectory, latency
    grad-check  finite-difference verification of the training gradients

Exit codes: 0 ok; 1 user error (bad flags, paths, file formats);
2 numeric failure (divergence, failed grad check, strict-latency miss).

Every run writes run_manifest.json (resolved config, input digests, the
numpy and BLAS builds and the runtime OpenBLAS core; no timestamps) into
its output directory, and output files are written atomically. The
default --out comes from $GRASPSLIP_OUT_DIR when set.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from graspslip import __version__
from graspslip import data as gdata
from graspslip import evaluation as geval
from graspslip import models as gmodels
from graspslip import nn
from graspslip import stream as gstream
from graspslip.ioutil import (
    INTEGER, Rule, atomic_write_json, atomic_write_text, blas_record, sha256_bytes, sha256_file,
)
from graspslip.signal import FREQ_HZ, NormStats

GRAD_TOLERANCE = 1e-4


# argparse types of the numeric flags that set no TrainConfig field, each from its Rule.
_count = Rule(int, lambda v: v >= 1, ">= 1").parse
_natural = Rule(int, lambda v: v >= 0, ">= 0").parse
_positive = Rule(float, lambda v: v > 0, "> 0").parse
_holdout = Rule(float, lambda v: 0 <= v < 1, "in [0, 1)").parse
_channel = Rule(int, lambda v: 0 <= v < gdata.FORCE_CHANNELS,
                f"in 0..{gdata.FORCE_CHANNELS - 1}").parse
_channels = Rule(int, lambda v: 1 <= v <= gdata.FORCE_CHANNELS,
                 f"in 1..{gdata.FORCE_CHANNELS}").parse


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the documented user-error code is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _out_dir(args) -> str:
    out = args.out or os.environ.get("GRASPSLIP_OUT_DIR")
    if not out:
        raise ValueError("--out is required (or set GRASPSLIP_OUT_DIR)")
    os.makedirs(out, exist_ok=True)
    return out


def _digest_dataset(path) -> str:
    """sha256 over ``name:sha256`` of the manifest (when present) and of
    every set file the loader reads."""
    manifest, files = gdata.dataset_files(path)
    parts = [f"{os.path.basename(p)}:{sha256_file(p)}"
             for p in ([manifest] if manifest else []) + files]
    return sha256_bytes("\n".join(parts).encode("utf-8"))


def _write_run_manifest(out_dir, command: str, args, inputs: dict) -> None:
    manifest = {
        "command": command,
        "config": {k: v for k, v in vars(args).items() if k not in ("func", "out")},
        "inputs": inputs,
        "package_version": __version__,
        **blas_record(),
    }
    atomic_write_json(os.path.join(out_dir, "run_manifest.json"), manifest)


def _train_config(args) -> gmodels.TrainConfig:
    return gmodels.TrainConfig(**{f: getattr(args, s.flag[2:].replace("-", "_"))
                                  for f, s in gmodels.TRAIN_SETTINGS.items()})


def _add_setting(p: argparse.ArgumentParser, field: str, **kwargs) -> None:
    """TrainConfig ``field``'s flag: its rule types the text, its default is the field's."""
    s = gmodels.TRAIN_SETTINGS[field]
    p.add_argument(s.flag, type=s.rule.parse,
                   default=getattr(gmodels.TrainConfig, field), **kwargs)


def _add_window_knobs(p: argparse.ArgumentParser) -> None:
    """How sets become labeled windows: length, label source, channel."""
    _add_setting(p, "window_len")
    p.add_argument("--labels", choices=gdata.LABELS, default="detect",
                   help="label source: drop detection or synthetic ground truth")
    p.add_argument("--channel", type=_channel, default=0)


def _add_train_knobs(p: argparse.ArgumentParser) -> None:
    for field in ("seed", "epochs", "lr", "lstm_units", "clip_norm", "threshold"):
        _add_setting(p, field, help="global gradient norm cap" if field == "clip_norm" else None)
    _add_window_knobs(p)


# -- subcommands -------------------------------------------------------------


def cmd_gen_data(args) -> int:
    profile = gdata.PROFILES[args.profile]
    if args.failure_fraction is not None and "failure_fraction" not in profile:
        raise ValueError("--failure-fraction applies to the force profile only")
    given = {"n_steps": args.steps, "freq_hz": args.freq_hz, "failure_fraction": args.failure_fraction}
    shape = {key: default if given[key] is None else given[key] for key, default in profile.items()}
    # so that run_manifest.json records the values used
    args.steps, args.freq_hz, args.failure_fraction = map(shape.get, given)
    gdata.SET_LENGTH[args.profile].check("--steps", args.steps)
    recs = gdata.GENERATORS[args.profile](args.sets, args.seed, **shape) if args.sets > 0 else []
    out = _out_dir(args)
    existing = [f for f in os.listdir(out) if not f.startswith(".")]
    if existing and not args.force:
        raise ValueError(f"output dir {out} is not empty (use --force to overwrite)")
    gdata.save_force_dataset(recs, out, kind=args.profile)
    _write_run_manifest(out, "gen-data", args, inputs={})
    print(f"wrote {args.sets} {args.profile} set(s) to {out}")
    return 0


def cmd_convert(args) -> int:
    grasp = gdata.convert_csv(
        args.src, args.dst,
        freq_hz=args.freq_hz, outcome=args.outcome, direction=args.direction,
        object_id=args.object, weight=args.weight, force_level=args.force_level,
    )
    print(f"converted {args.src} -> {args.dst} ({grasp.n_steps} steps)")
    return 0


def _split(args, sets):
    """(train sets, held-out sets) of the seeded --holdout split; at
    --holdout 0 every set trains and none is held out (None)."""
    if args.holdout <= 0:
        return sets, None
    return gdata.split(sets, 1.0 - args.holdout, seed=args.seed)


def cmd_train(args) -> int:
    out = _out_dir(args)
    sets = gdata.load_force_dataset(args.data)
    config = _train_config(args)
    train_sets, val_sets = _split(args, sets)
    model, history = geval.fit_variant(
        args.variant, train_sets, config,
        val_sets=val_sets, labels=args.labels, channel=args.channel,
    )
    ckpt_path = os.path.join(out, "checkpoint.gslp")
    gmodels.save_checkpoint(model, ckpt_path)
    lines = ["epoch,mean_loss,val_success"]
    for rec in history:
        val = "" if rec.val_success is None else f"{rec.val_success:.6f}"
        lines.append(f"{rec.epoch},{rec.mean_loss:.9f},{val}")
    atomic_write_text(os.path.join(out, "history.csv"), "\n".join(lines) + "\n")
    _write_run_manifest(
        out, "train", args, inputs={"dataset": _digest_dataset(args.data)}
    )
    final = history[-1].mean_loss if history else float("nan")
    print(
        f"trained variant {gmodels.get_variant(args.variant).tag} "
        f"({len(history)} epochs, final loss {final:.6f}) -> {ckpt_path}"
    )
    return 0


def cmd_eval(args) -> int:
    out = _out_dir(args)
    sets = gdata.load_force_dataset(args.data)
    held_out = _split(args, sets)[1]
    eval_sets, side = (sets, "all") if held_out is None else (held_out, "test")
    if not eval_sets:
        raise ValueError("no sets to evaluate")
    if args.dump_set is not None and not (0 <= args.dump_set < len(eval_sets)):
        raise ValueError(f"--dump-set {args.dump_set} out of range (0..{len(eval_sets) - 1})")
    checkpoints = {}  # (variant tag, file name), which name a checkpoint's outputs -> (path, model)
    for path in args.checkpoint:
        model = gmodels.load_checkpoint(path)
        key = model.variant.tag, os.path.splitext(os.path.basename(path))[0]
        if key in checkpoints:
            raise ValueError(f"--checkpoint {checkpoints[key][0]} and {path} would both write "
                             f"eval_{'_'.join(key)}.json")
        checkpoints[key] = path, model
    inputs = {"dataset": _digest_dataset(args.data)}
    table_rows = []
    for (tag, name), (ckpt_path, model) in checkpoints.items():
        report = geval.evaluate_model(
            model, eval_sets, args.window_len, args.channel, labels=args.labels
        )
        atomic_write_json(os.path.join(out, f"eval_{tag}_{name}.json"), dataclasses.asdict(report))
        inputs[f"checkpoint:{tag}:{name}"] = sha256_file(ckpt_path)
        table_rows.append((tag, model.variant.name, report))
        if args.dump_set is not None:
            geval.write_prediction_dump(
                model, eval_sets[args.dump_set],
                os.path.join(out, f"plotdata_{tag}_{name}.csv"), args.channel, labels=args.labels,
            )

    csv_lines = ["variant,name,success_rate,ahead_drop_rate,window_success_rate,n_windows"]
    txt_lines = [f"evaluated on {len(eval_sets)} set(s), side={side}"]
    for tag, name, rep in table_rows:
        adr = "" if rep.ahead_drop_rate is None else f"{rep.ahead_drop_rate:.6f}"
        csv_lines.append(
            f"{tag},{name},{rep.success_rate:.6f},{adr},"
            f"{rep.window_success_rate:.6f},{rep.n_windows}"
        )
        adr_txt = "n/a" if rep.ahead_drop_rate is None else f"{rep.ahead_drop_rate:.4f}"
        txt_lines.append(
            f"{tag} {name:<18} success {rep.success_rate:.4f}   ahead-drop {adr_txt}"
        )
    atomic_write_text(os.path.join(out, "table.csv"), "\n".join(csv_lines) + "\n")
    atomic_write_text(os.path.join(out, "table.txt"), "\n".join(txt_lines) + "\n")
    _write_run_manifest(out, "eval", args, inputs=inputs)
    print("\n".join(txt_lines))
    return 0


def cmd_cross_eval(args) -> int:
    out = _out_dir(args)
    sets = gdata.load_force_dataset(args.data)
    config = _train_config(args)
    matrix = geval.cross_condition_matrix(
        sets, args.variant, config,
        condition=args.condition, ratio=args.ratio,
        labels=args.labels, channel=args.channel,
    )
    atomic_write_json(os.path.join(out, "matrix.json"), matrix)
    names = matrix["rows"]
    cells = {row: [f"{v:.4f}" if isinstance(v, float) else str(v)
                   for v in map(matrix["cells"][row].get, names)] for row in names}
    # Two spaces past the widest name or cell keep every column apart.
    width = max(8, max(len(t) for t in [*names, *sum(cells.values(), [])]) + 2)
    lines = ["train\\test".ljust(width) + "".join(n.rjust(width) for n in names)]
    lines += [row.ljust(width) + "".join(t.rjust(width) for t in cells[row]) for row in names]
    atomic_write_text(os.path.join(out, "matrix.txt"), "\n".join(lines) + "\n")
    _write_run_manifest(
        out, "cross-eval", args, inputs={"dataset": _digest_dataset(args.data)}
    )
    print("\n".join(lines))
    return 0


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    model = gmodels.load_checkpoint(args.checkpoint)
    sets = gdata.load_force_dataset(args.data)
    if not (0 <= args.set < len(sets)):
        raise ValueError(f"--set {args.set} out of range (0..{len(sets) - 1})")
    grasp = sets[args.set]
    inputs = {"checkpoint": sha256_file(args.checkpoint), "dataset": _digest_dataset(args.data)}
    traces = [grasp.channel(c) for c in range(args.channels)]
    events = gstream.replay(traces, model, timing=not args.no_timing)
    gstream.write_event_log(events, os.path.join(out, "events.csv"))
    state = gstream.grip_controller(events)
    gstream.write_trajectory(state, os.path.join(out, "trajectory.csv"))
    report = gstream.latency_report(events)
    atomic_write_json(os.path.join(out, "latency.json"), report)
    _write_run_manifest(out, "simulate", args, inputs=inputs)
    print(
        f"{len(events)} events, {state.slip_events} slip event(s), "
        f"final currents pj={state.pj_ma:g} mA mj={state.mj_ma:g} mA"
    )
    print(
        f"latency p95 {report['per_sensor_ms']['p95']:.3f} ms/sensor "
        f"(budget {report['budget_ms']:g} ms): "
        + ("ok" if report["pass"] else "OVER BUDGET")
    )
    if args.strict_latency and not report["pass"]:
        return 2
    return 0


def _gradcheck_model(variant: gmodels.ModelVariant, hidden: int, seed: int) -> gmodels.GraspModel:
    rng = np.random.default_rng(seed)
    lstms = [nn.LstmParams.init(dim, hidden, rng, scale=0.3) for dim in variant.stream_dims]
    head = nn.FcHead.init(hidden * variant.n_streams, rng, scale=0.3)
    return gmodels.GraspModel(variant, lstms, head, stats=NormStats(0.0, 1.0))


def cmd_grad_check(args) -> int:
    if not args.variants:
        raise ValueError("--variants must name at least one variant")
    worst_overall = 0.0
    failed = False
    for tag in args.variants:
        variant = gmodels.get_variant(tag)
        worst = 0.0
        for inst in range(args.instances):
            seed = args.seed + 1000 * inst
            model = _gradcheck_model(variant, args.hidden, seed)
            rng = np.random.default_rng(seed + 1)
            feats = [rng.normal(0.0, 1.0, size=(args.steps, dim)) for dim in variant.stream_dims]
            labels = rng.integers(0, 2, size=args.steps)
            worst = max(worst, nn.grad_check(model, feats, labels))
        verdict = "ok" if worst < args.tolerance else "FAIL"
        print(f"variant {variant.tag} ({variant.name}): max rel err {worst:.3e} {verdict}")
        worst_overall = max(worst_overall, worst)
        failed = failed or worst >= args.tolerance
    print(f"overall max rel err {worst_overall:.3e} (tolerance {args.tolerance:g})")
    return 2 if failed else 0


# -- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="graspslip", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"graspslip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen-data", help="synthesize a dataset directory")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--sets", type=_natural, default=40)
    p.add_argument("--profile", choices=gdata.PROFILES, default="force")
    p.add_argument("--steps", type=INTEGER.parse, default=None)
    p.add_argument("--freq-hz", type=FREQ_HZ.parse, default=None)
    p.add_argument("--failure-fraction", type=gdata.FAILURE_FRACTION.parse,
                   default=None, help="share of failure sets (force profile; default "
                   f"{gdata.PROFILES['force']['failure_fraction']})")
    p.add_argument("--force", action="store_true",
                   help="overwrite a non-empty output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("convert", help="CSV -> trace file")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--freq-hz", type=FREQ_HZ.parse, default=gdata.PROFILES["force"]["freq_hz"])
    p.add_argument("--outcome", choices=gdata.OUTCOMES, default="failure")
    p.add_argument("--direction", choices=gdata.DIRECTIONS, default="back")
    p.add_argument("--object", type=_natural, default=0)
    p.add_argument("--weight", type=_natural, default=0)
    p.add_argument("--force-level", type=_natural, default=0)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="fit one variant, write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--holdout", type=_holdout, default=0.0,
                   help="held-out fraction (seeded split; also drives early stop)")
    _add_train_knobs(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate checkpoint(s) on a dataset")
    p.add_argument("--checkpoint", action="append", required=True,
                   help="repeatable: one table row per checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--holdout", type=_holdout, default=0.0,
                   help="evaluate the held-out side of train's seeded split (0: all sets)")
    _add_setting(p, "seed", help="split seed; must match the train run to stay disjoint")
    _add_window_knobs(p)
    p.add_argument("--dump-set", type=INTEGER.parse, default=None,
                   help="also write per-step plot data for this set index")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cross-eval", help="condition x condition matrix")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--condition", choices=gdata.CONDITIONS, default="direction")
    p.add_argument("--ratio", type=gdata.RATIO.parse, default=gdata.TRAIN_RATIO)
    _add_train_knobs(p)
    p.set_defaults(func=cmd_cross_eval)

    p = sub.add_parser("simulate", help="streamed replay with grip controller")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset dir (with --set) or one trace file")
    p.add_argument("--set", type=INTEGER.parse, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--channels", type=_channels, default=1)
    p.add_argument("--strict-latency", action="store_true",
                   help="exit 2 when p95 latency misses the 4 ms budget")
    p.add_argument("--no-timing", action="store_true",
                   help="write zero latencies for reproducible logs")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("grad-check", help="verify gradients by finite differences")
    p.add_argument("--variants", default="ABCD",
                   help="variant tags to check, e.g. AC")
    p.add_argument("--hidden", type=_count, default=4)
    p.add_argument("--steps", type=_count, default=12)
    p.add_argument("--instances", type=_count, default=3)
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--tolerance", type=_positive, default=GRAD_TOLERANCE)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args) or 0)
    except nn.TrainingDiverged as exc:
        print(f"graspslip: numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"graspslip: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
