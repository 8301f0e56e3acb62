import hashlib
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from graspslip import cli, data, ioutil, models
from graspslip.stream import read_event_log


def run(*argv):
    return cli.main(list(argv))


def digest_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        p = os.path.join(root, name)
        if os.path.isfile(p):
            with open(p, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "force"
    code = run("gen-data", "--out", str(out), "--sets", "6", "--seed", "3")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("run") / "train_b"
    code = run(
        "train", "--data", str(dataset_dir), "--variant", "B", "--out", str(out),
        "--epochs", "2", "--units", "8", "--seed", "0", "--labels", "truth",
    )
    assert code == 0
    return out


# -- gen-data -------------------------------------------------------------


def test_gen_data_writes_dataset(dataset_dir):
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    assert manifest["n_sets"] == 6
    assert len(manifest["files"]) == 6
    assert (dataset_dir / "run_manifest.json").exists()
    sets = data.load_force_dataset(dataset_dir)
    assert len(sets) == 6


def test_gen_data_matches_library_generator(dataset_dir):
    sets = data.load_force_dataset(dataset_dir)
    expected = data.synth_force_dataset(6, seed=3)
    for a, b in zip(sets, expected):
        np.testing.assert_array_equal(a.as_matrix(), b.as_matrix())
        assert a.outcome == b.outcome


def test_gen_data_reruns_are_byte_identical(tmp_path, dataset_dir):
    again = tmp_path / "force2"
    assert run("gen-data", "--out", str(again), "--sets", "6", "--seed", "3") == 0
    a = digest_tree(dataset_dir)
    b = digest_tree(again)
    a.pop("run_manifest.json")  # records the out path itself
    b.pop("run_manifest.json")
    assert a == b


def test_gen_data_refuses_nonempty_dir(tmp_path, capsys):
    out = tmp_path / "busy"
    out.mkdir()
    (out / "keep.txt").write_text("x")
    assert run("gen-data", "--out", str(out), "--sets", "1") == 1
    assert "not empty" in capsys.readouterr().err
    assert run("gen-data", "--out", str(out), "--sets", "1", "--force") == 0


def test_gen_data_zero_sets_manifest_only(tmp_path):
    out = tmp_path / "empty"
    assert run("gen-data", "--out", str(out), "--sets", "0") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_sets"] == 0 and manifest["files"] == []
    assert data.load_force_dataset(out) == []


def test_gen_data_zero_pressure_runs_writes_a_pressure_manifest(tmp_path):
    assert run("gen-data", "--out", str(tmp_path), "--profile", "pressure", "--sets", "0") == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest == {"format": "graspslip-trace v1", "kind": "pressure", "files": [],
                        "n_sets": 0, "n_steps": None, "freq_hz": None}


def test_run_manifest_records_numpy_and_its_blas(tmp_path):
    assert run("gen-data", "--out", str(tmp_path), "--sets", "0") == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["numpy_version"] == np.__version__
    assert manifest["blas"] == {"name": blas["name"], "version": blas["version"],
                                "openblas_core": ioutil.openblas_core_name()}


def test_run_manifest_records_the_openblas_core_the_run_loaded(tmp_path):
    # OPENBLAS_CORETYPE acts only on the child, so this host's own pick
    # cannot hide a reader that ignores the override.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "graspslip", "gen-data", "--out", str(tmp_path), "--sets", "0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    core = json.loads((tmp_path / "run_manifest.json").read_text())["blas"]["openblas_core"]
    cpu = set()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = set(fh.read().split())
    if core != "Haswell" and not {"avx2", "fma"} <= cpu:
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell loaded {core}; this CPU lacks AVX2/FMA")
    assert core == "Haswell"


@pytest.fixture(scope="module")
def pressure_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "press"
    assert run(
        "gen-data", "--out", str(out), "--profile", "pressure",
        "--sets", "2", "--steps", "400",
    ) == 0
    return out


def test_gen_data_pressure_profile(pressure_dir):
    manifest = json.loads((pressure_dir / "manifest.json").read_text())
    assert manifest == {
        "format": "graspslip-trace v1", "kind": "pressure",
        "files": ["run_0000.txt", "run_0001.txt"], "n_sets": 2, "n_steps": 400, "freq_hz": 71.0,
    }
    run0 = data.read_recording(pressure_dir / "run_0000.txt")
    assert run0.kind == "pressure" and run0.n_steps == 400
    # odd-indexed runs drop back to the zero-position count; even ones hold
    run1 = data.read_recording(pressure_dir / "run_0001.txt")
    level = run0.initial[0] + 200.0
    assert data.detect_drop(run0.channel(0), eps_drop=level, arm_level=level + 200.0) is None
    level = run1.initial[0] + 200.0
    assert data.detect_drop(run1.channel(0), eps_drop=level, arm_level=level + 200.0) is not None


def test_gen_data_pressure_honours_and_records_freq_hz(tmp_path, pressure_dir):
    config = json.loads((pressure_dir / "run_manifest.json").read_text())["config"]
    assert config["freq_hz"] == 71.0  # the rate the files carry
    out = tmp_path / "press50"
    assert run("gen-data", "--out", str(out), "--profile", "pressure", "--sets", "1",
               "--steps", "100", "--freq-hz", "50") == 0
    assert data.read_recording(out / "run_0000.txt").freq_hz == 50.0
    assert json.loads((out / "run_manifest.json").read_text())["config"]["freq_hz"] == 50.0


def test_gen_data_records_the_failure_fraction_used(dataset_dir, pressure_dir):
    def config(d):
        return json.loads((d / "run_manifest.json").read_text())["config"]
    assert config(dataset_dir)["failure_fraction"] == 0.5
    assert config(pressure_dir)["failure_fraction"] is None


def test_gen_data_negative_sets_exits_1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "neg"
    assert run("gen-data", "--out", str(out), "--sets", "-3") == 1
    assert "argument --sets: must be >= 0, got '-3'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--failure-fraction", "1.5"], "argument --failure-fraction: must be in [0, 1]"),
    (["--failure-fraction", "nan"], "argument --failure-fraction: must be in [0, 1]"),
    (["--steps", "100"], "--steps must be >= 242 for the force profile"),
    (["--profile", "pressure", "--steps", "12"], "--steps must be >= 21 for the pressure profile"),
    (["--sets", "0", "--failure-fraction", "1.5"],
     "argument --failure-fraction: must be in [0, 1], got '1.5'"),
    (["--sets", "0", "--failure-fraction", "nan"],
     "argument --failure-fraction: must be in [0, 1], got 'nan'"),
    (["--profile", "pressure", "--sets", "1", "--steps", "30", "--failure-fraction", "7"],
     "argument --failure-fraction: must be in [0, 1], got '7'"),
    (["--profile", "pressure", "--failure-fraction", "-0.5"],
     "argument --failure-fraction: must be in [0, 1], got '-0.5'"),
    (["--profile", "pressure", "--steps", "100", "--failure-fraction", "0"],
     "--failure-fraction applies to the force profile only"),
    (["--profile", "pressure", "--steps", "100", "--failure-fraction", "1"],
     "--failure-fraction applies to the force profile only"),
], ids=["fraction-1.5", "fraction-nan", "force-steps", "pressure-steps", "zero-sets-fraction-1.5",
        "zero-sets-fraction-nan", "pressure-fraction-7", "pressure-fraction-negative",
        "pressure-fraction-0", "pressure-fraction-1"])
def test_gen_data_bad_values_exit_1_and_write_nothing(flags, message, tmp_path, capsys):
    out = tmp_path / "bad"
    assert run("gen-data", "--out", str(out), "--sets", "2", *flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_shortest_steps_per_profile(tmp_path):
    for profile, steps in cli.GEN_MIN_STEPS.items():
        out = tmp_path / profile
        # every force set a failure, so each draws its latest drop
        fraction = ["--failure-fraction", "1"] if profile == "force" else []
        assert run("gen-data", "--out", str(out), "--profile", profile, "--sets", "4",
                   *fraction, "--steps", str(steps)) == 0
        recs = [data.read_recording(f) for f in data.dataset_files(str(out))[1]]
        assert [r.n_steps for r in recs] == [steps] * 4


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    target = tmp_path / "via-env"
    monkeypatch.setenv("GRASPSLIP_OUT_DIR", str(target))
    assert run("gen-data", "--sets", "1") == 0
    assert (target / "manifest.json").exists()


def test_missing_out_dir_is_user_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("GRASPSLIP_OUT_DIR", raising=False)
    assert run("gen-data", "--sets", "1") == 1
    assert "--out is required" in capsys.readouterr().err


# -- convert -----------------------------------------------------------------


def test_convert_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    matrix = rng.integers(0, 2000, size=(40, 16))
    src = tmp_path / "raw.csv"
    src.write_text("\n".join(",".join(map(str, row)) for row in matrix) + "\n")
    dst = tmp_path / "trace.txt"
    assert run("convert", "--src", str(src), "--dst", str(dst), "--outcome", "success") == 0
    grasp = data.read_recording(dst)
    np.testing.assert_array_equal(grasp.as_matrix(), matrix)
    assert grasp.outcome == "success"


def test_convert_sample_too_large_exits_1_and_writes_nothing(tmp_path, capsys):
    src = tmp_path / "raw.csv"
    src.write_text(",".join(["1e20"] * 16) + "\n" + ",".join(["5"] * 16) + "\n")
    dst = tmp_path / "trace.txt"
    assert run("convert", "--src", str(src), "--dst", str(dst)) == 1
    assert "sample 1e+20 at step 0, channel 0 does not fit a 64-bit integer" in capsys.readouterr().err
    assert not dst.exists()


@pytest.mark.parametrize("freq", ["nan", "inf", "0", "-3"])
def test_convert_freq_hz_out_of_range_exits_1_and_writes_nothing(freq, tmp_path, capsys):
    src = tmp_path / "raw.csv"
    src.write_text(",".join(["5"] * 16) + "\n")
    dst = tmp_path / "trace.txt"
    assert run("convert", "--src", str(src), "--dst", str(dst), "--freq-hz", freq) == 1
    assert f"argument --freq-hz: must be > 0, got '{freq}'" in capsys.readouterr().err
    assert not dst.exists()


def test_convert_missing_source(tmp_path, capsys):
    assert run("convert", "--src", str(tmp_path / "none.csv"), "--dst", str(tmp_path / "o.txt")) == 1
    assert "error:" in capsys.readouterr().err


# -- train ----------------------------------------------------------------------


def test_train_outputs(trained_dir, dataset_dir):
    ckpt = trained_dir / "checkpoint.gslp"
    assert ckpt.exists()
    model = models.load_checkpoint(ckpt)
    assert model.variant.tag == "B"
    assert model.stats is not None
    history = (trained_dir / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,mean_loss,val_success"
    assert len(history) == 3  # header + 2 epochs
    manifest = json.loads((trained_dir / "run_manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["seed"] == 0
    assert manifest["config"]["variant"] == "B"
    assert "dataset" in manifest["inputs"]
    assert "timestamp" not in json.dumps(manifest)


def test_train_rerun_is_byte_identical(tmp_path, dataset_dir, trained_dir):
    out = tmp_path / "again"
    assert run(
        "train", "--data", str(dataset_dir), "--variant", "B", "--out", str(out),
        "--epochs", "2", "--units", "8", "--seed", "0", "--labels", "truth",
    ) == 0
    assert (out / "checkpoint.gslp").read_bytes() == (trained_dir / "checkpoint.gslp").read_bytes()
    assert (out / "history.csv").read_text() == (trained_dir / "history.csv").read_text()


def test_train_with_holdout_tracks_validation(tmp_path, dataset_dir):
    out = tmp_path / "val"
    assert run(
        "train", "--data", str(dataset_dir), "--variant", "B", "--out", str(out),
        "--epochs", "2", "--units", "8", "--labels", "truth", "--holdout", "0.34",
    ) == 0
    rows = (out / "history.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[2] != "" for row in rows)


def test_train_missing_dataset(tmp_path, capsys):
    assert run(
        "train", "--data", str(tmp_path / "none"), "--variant", "B",
        "--out", str(tmp_path / "o"),
    ) == 1
    assert "no such dataset" in capsys.readouterr().err


def test_train_rejects_nan_threshold(tmp_path, dataset_dir, capsys):
    assert run(
        "train", "--data", str(dataset_dir), "--variant", "A",
        "--out", str(tmp_path / "o"), "--threshold", "nan",
    ) == 1
    assert "threshold" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--clip-norm", "nan"], "argument --clip-norm: must be > 0, got 'nan'"),
    (["--clip-norm", "inf"], "argument --clip-norm: must be > 0, got 'inf'"),
    (["--clip-norm", "0"], "argument --clip-norm: must be > 0, got '0'"),
    (["--clip-norm", "-1"], "argument --clip-norm: must be > 0, got '-1'"),
    (["--holdout", "1.5"], "argument --holdout: must be in [0, 1), got '1.5'"),
    (["--holdout", "1"], "argument --holdout: must be in [0, 1), got '1'"),
    (["--holdout", "-0.2"], "argument --holdout: must be in [0, 1), got '-0.2'"),
], ids=["clip-nan", "clip-inf", "clip-0", "clip-negative", "holdout-1.5", "holdout-1", "holdout-negative"])
def test_train_rejects_out_of_range_values_before_any_output(flags, named, tmp_path,
                                                             dataset_dir, capsys):
    out = tmp_path / "o"
    assert run("train", "--data", str(dataset_dir), "--variant", "A", "--out", str(out),
               "--epochs", "1", "--units", "4", *flags) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, named", [
    ("train", ["--epochs", "-1"], "argument --epochs: must be >= 0, got '-1'"),
    ("train", ["--units", "0"], "argument --units: must be >= 1, got '0'"),
    ("train", ["--lr", "0"], "argument --lr: must be > 0, got '0'"),
    ("train", ["--lr", "inf"], "argument --lr: must be > 0, got 'inf'"),
    ("train", ["--lr", "nan"], "argument --lr: must be > 0, got 'nan'"),
    ("train", ["--window-len", "20"], "argument --window-len: must be > 20 (the STFT window), "
                                      "got '20'"),
    ("train", ["--channel", "16"], "argument --channel: must be in 0..15, got '16'"),
    ("train", ["--channel", "-1"], "argument --channel: must be in 0..15, got '-1'"),
    ("train", ["--seed", "-1"], "argument --seed: must be >= 0, got '-1'"),
    ("train", ["--threshold", "1"], "argument --threshold: must be in (0, 1), got '1'"),
    ("train", ["--threshold", "0"], "argument --threshold: must be in (0, 1), got '0'"),
    ("cross-eval", ["--window-len", "10"], "argument --window-len: must be > 20"),
    ("cross-eval", ["--epochs", "-2"], "argument --epochs: must be >= 0, got '-2'"),
    ("eval", ["--window-len", "10"], "argument --window-len: must be > 20 (the STFT window), "
                                     "got '10'"),
    ("eval", ["--channel", "16"], "argument --channel: must be in 0..15, got '16'"),
    ("eval", ["--seed", "-1"], "argument --seed: must be >= 0, got '-1'"),
    ("simulate", ["--channels", "17"], "argument --channels: must be in 1..16, got '17'"),
    ("simulate", ["--channels", "0"], "argument --channels: must be in 1..16, got '0'"),
    ("gen-data", ["--seed", "-1"], "argument --seed: must be >= 0, got '-1'"),
    *(("gen-data", ["--freq-hz", f], f"argument --freq-hz: must be > 0, got '{f}'")
      for f in ("nan", "inf", "0", "-3")),
    *(("convert", [flag, "-1"], f"argument {flag}: must be >= 0, got '-1'")
      for flag in ("--object", "--weight", "--force-level")),
], ids=["epochs-negative", "units-0", "lr-0", "lr-inf", "lr-nan", "window-len-20", "channel-16",
        "channel-negative", "seed-negative", "threshold-1", "threshold-0", "cross-window-len-10",
        "cross-epochs-negative", "eval-window-len-10", "eval-channel-16", "eval-seed-negative",
        "channels-17", "channels-0", "gen-seed-negative", "gen-freq-nan", "gen-freq-inf",
        "gen-freq-0", "gen-freq-negative", "convert-object-negative", "convert-weight-negative",
        "convert-force-level-negative"])
def test_numeric_flags_out_of_range_exit_1_before_any_output(command, flags, named, tmp_path,
                                                             dataset_dir, trained_dir, capsys):
    checkpoint = str(trained_dir / "checkpoint.gslp")
    fit = ["--data", str(dataset_dir), "--variant", "A", "--epochs", "1", "--units", "4"]
    src = tmp_path / "raw.csv"
    src.write_text(",".join(["5"] * 16) + "\n")
    base = {
        "convert": ["--src", str(src)],
        "gen-data": ["--sets", "1"],
        "train": fit,
        "cross-eval": fit,
        "eval": ["--checkpoint", checkpoint, "--data", str(dataset_dir)],
        "simulate": ["--checkpoint", checkpoint, "--data", str(dataset_dir)],
    }[command]
    out = tmp_path / "o"
    assert run(command, *base, "--dst" if command == "convert" else "--out", str(out), *flags) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_run_manifest_refuses_a_non_finite_value(tmp_path):
    args = cli.build_parser().parse_args(["grad-check"])
    args.tolerance = float("nan")
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_run_manifest(str(tmp_path), "grad-check", args, inputs={})
    assert not (tmp_path / "run_manifest.json").exists()


def test_train_does_not_mutate_dataset(tmp_path, dataset_dir):
    before = digest_tree(dataset_dir)
    out = tmp_path / "t"
    assert run(
        "train", "--data", str(dataset_dir), "--variant", "A", "--out", str(out),
        "--epochs", "1", "--units", "4", "--labels", "truth",
    ) == 0
    assert digest_tree(dataset_dir) == before


def test_dataset_digest_covers_the_set_files_the_loader_reads(tmp_path, dataset_dir):
    ds = tmp_path / "ds"
    ds.mkdir()
    for name in os.listdir(dataset_dir):
        (ds / name).write_bytes((dataset_dir / name).read_bytes())

    def train_digest():
        out = tmp_path / "o"
        assert run("train", "--data", str(ds), "--variant", "A", "--out", str(out),
                   "--epochs", "0", "--units", "2", "--labels", "truth") == 0
        return json.loads((out / "run_manifest.json").read_text())["inputs"]["dataset"]

    before = train_digest()
    assert train_digest() == before
    path = ds / "set_0000.txt"
    lines = path.read_text().splitlines()
    row = lines.index("data") + 1
    first, rest = lines[row].split(" ", 1)
    lines[row] = f"{int(first) + 1} {rest}"
    path.write_text("\n".join(lines) + "\n")
    assert train_digest() != before

    # Without a manifest, dot-files the loader skips do not count either.
    (ds / "manifest.json").unlink()
    listed = cli._digest_dataset(str(ds))
    (ds / ".scratch.txt").write_text("not a trace\n")
    assert cli._digest_dataset(str(ds)) == listed


# -- eval ------------------------------------------------------------------------


def test_eval_outputs(tmp_path, dataset_dir, trained_dir):
    out = tmp_path / "eval"
    code = run(
        "eval", "--checkpoint", str(trained_dir / "checkpoint.gslp"),
        "--data", str(dataset_dir), "--out", str(out),
        "--labels", "truth", "--holdout", "0.34",
    )
    assert code == 0
    report = json.loads((out / "eval_B_checkpoint.json").read_text())
    assert 0.0 <= report["success_rate"] <= 1.0
    table = (out / "table.csv").read_text().splitlines()
    assert table[0].startswith("variant,name,success_rate")
    assert len(table) == 2
    assert table[1].startswith("B,stft-lstm,")
    assert "side=test" in (out / "table.txt").read_text()


def test_eval_multiple_checkpoints(tmp_path, dataset_dir, trained_dir):
    c1 = tmp_path / "b1.gslp"
    c2 = tmp_path / "b2.gslp"
    src = (trained_dir / "checkpoint.gslp").read_bytes()
    c1.write_bytes(src)
    c2.write_bytes(src)
    out = tmp_path / "eval2"
    assert run(
        "eval", "--checkpoint", str(c1), "--checkpoint", str(c2),
        "--data", str(dataset_dir), "--out", str(out), "--labels", "truth",
    ) == 0
    table = (out / "table.csv").read_text().splitlines()
    assert len(table) == 3
    assert (out / "eval_B_b1.json").exists() and (out / "eval_B_b2.json").exists()


def test_eval_dump_set_writes_plot_data(tmp_path, dataset_dir, trained_dir):
    out = tmp_path / "dump"
    assert run(
        "eval", "--checkpoint", str(trained_dir / "checkpoint.gslp"),
        "--data", str(dataset_dir), "--out", str(out),
        "--labels", "truth", "--dump-set", "0",
    ) == 0
    plot = (out / "plotdata_B_checkpoint.csv").read_text().splitlines()
    assert plot[0] == "step,force_mn,label_unstable,p_unstable,predicted_unstable"
    assert len(plot) == 1 + data.load_force_dataset(dataset_dir)[0].n_steps


@pytest.mark.parametrize("index", ["6", "-1"])
def test_eval_dump_set_out_of_range_fails_before_any_output(tmp_path, dataset_dir, trained_dir,
                                                            index, capsys):
    out = tmp_path / "dump"
    assert run(
        "eval", "--checkpoint", str(trained_dir / "checkpoint.gslp"),
        "--data", str(dataset_dir), "--out", str(out),
        "--labels", "truth", "--dump-set", index,
    ) == 1
    assert f"--dump-set {index} out of range (0..5)" in capsys.readouterr().err
    assert not list(out.glob("eval_*.json")) and not list(out.glob("plotdata_*"))


def test_eval_rejects_baseline_checkpoint(tmp_path, dataset_dir, capsys):
    # A naive-Bayes checkpoint as older versions wrote it; its digest checks out.
    path = tmp_path / "nb.gslp"
    models.write_blob(path, {"kind": "nb", "n_features": 4}, [
        ("means", np.zeros((2, 4))), ("variances", np.ones((2, 4))), ("log_priors", np.zeros(2)),
    ])
    assert run(
        "eval", "--checkpoint", str(path), "--data", str(dataset_dir),
        "--out", str(tmp_path / "o"),
    ) == 1
    assert "unknown checkpoint kind 'nb'" in capsys.readouterr().err


def test_eval_missing_checkpoint(tmp_path, dataset_dir, capsys):
    assert run(
        "eval", "--checkpoint", str(tmp_path / "none.gslp"),
        "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
    ) == 1


def test_eval_checkpoint_without_variant_exits_1(tmp_path, dataset_dir, trained_dir, capsys):
    header, arrays = models.read_blob(trained_dir / "checkpoint.gslp")
    del header["variant"], header["arrays"]
    ckpt = tmp_path / "novariant.gslp"
    models.write_blob(ckpt, header, sorted(arrays.items()))
    assert run(
        "eval", "--checkpoint", str(ckpt),
        "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
    ) == 1
    assert "variant" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "simulate"])
@pytest.mark.parametrize("name, index, value", [
    ("fc.b", (1,), -np.inf), ("lstm0.w_i", (2, 3), np.nan),
], ids=["bias-minus-inf", "kernel-nan"])
def test_checkpoint_with_non_finite_value_exits_1_and_writes_nothing(
        tmp_path, dataset_dir, trained_dir, capsys, command, name, index, value):
    # A -inf unstable bias gives p_unstable = 0 at every step, a NaN kernel
    # entry flags every step; the digest of either file checks out.
    header, arrays = models.read_blob(trained_dir / "checkpoint.gslp")
    arrays[name][index] = value
    ckpt = tmp_path / "bad.gslp"
    models.write_blob(ckpt, header, sorted(arrays.items()))
    out = tmp_path / "o"
    assert run(command, "--checkpoint", str(ckpt), "--data", str(dataset_dir),
               "--out", str(out)) == 1
    assert f"array {name!r} holds {value} at index {index}" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_eval_deeply_nested_checkpoint_header_exits_1(tmp_path, dataset_dir, capsys):
    # The digest checks out, but decoding the header overflows the stack.
    meta = b"[" * 200_000
    payload = models.CKPT_MAGIC + struct.pack("<II", models.CKPT_VERSION, len(meta)) + meta
    ckpt = tmp_path / "nested.gslp"
    ckpt.write_bytes(payload + hashlib.sha256(payload).hexdigest().encode("ascii"))
    assert run(
        "eval", "--checkpoint", str(ckpt),
        "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
    ) == 1
    assert "unreadable header" in capsys.readouterr().err


@pytest.mark.parametrize("manifest", [
    "{}", '{"files": 5}', '{"files": [3]}', '{"files": ["../set_0000.txt"]}',
    '{"files": ["sub/set_0000.txt"]}', '{"files": [""]}', "[]", "[" * 200_000,
    '{"files": ["set_0000.txt", "set_0000.txt"]}',
], ids=["no-files", "files-int", "name-int", "parent-dir", "subdir", "empty-name",
        "not-object", "nested", "listed-twice"])
def test_eval_hostile_dataset_manifest_exits_1(tmp_path, dataset_dir, trained_dir,
                                                manifest, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "set_0000.txt").write_bytes((dataset_dir / "set_0000.txt").read_bytes())
    (ds / "manifest.json").write_text(manifest)
    assert run(
        "eval", "--checkpoint", str(trained_dir / "checkpoint.gslp"),
        "--data", str(ds), "--out", str(tmp_path / "o"),
    ) == 1
    assert "manifest.json" in capsys.readouterr().err


def test_eval_nonfinite_freq_dataset_exits_1(tmp_path, dataset_dir, trained_dir, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    text = (dataset_dir / "set_0000.txt").read_text()
    assert "\nfreq_hz 16.7\n" in text
    (ds / "set_0000.txt").write_text(text.replace("\nfreq_hz 16.7\n", "\nfreq_hz inf\n", 1))
    assert run(
        "eval", "--checkpoint", str(trained_dir / "checkpoint.gslp"),
        "--data", str(ds), "--out", str(tmp_path / "o"),
    ) == 1
    assert "freq_hz must be finite" in capsys.readouterr().err


def test_eval_bad_header_value_exits_1_naming_the_file(tmp_path, dataset_dir, trained_dir,
                                                        capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    text = (dataset_dir / "set_0000.txt").read_text()
    assert "\nobject " in text
    lines = text.splitlines()
    ln = next(i for i, line in enumerate(lines, start=1) if line.startswith("object "))
    lines[ln - 1] = "object x"
    (ds / "set_0000.txt").write_text("\n".join(lines) + "\n")
    assert run(
        "eval", "--checkpoint", str(trained_dir / "checkpoint.gslp"),
        "--data", str(ds), "--out", str(tmp_path / "o"),
    ) == 1
    assert f"set_0000.txt:{ln}: object must be an integer, got 'x'" in capsys.readouterr().err


def test_eval_holdout_out_of_range_exits_1(tmp_path, dataset_dir, trained_dir, capsys):
    out = tmp_path / "o"
    assert run("eval", "--checkpoint", str(trained_dir / "checkpoint.gslp"),
               "--data", str(dataset_dir), "--out", str(out), "--holdout", "1") == 1
    assert "argument --holdout: must be in [0, 1), got '1'" in capsys.readouterr().err
    assert not out.exists()


# -- cross-eval -------------------------------------------------------------------


@pytest.mark.parametrize("ratio", ["2", "0", "1", "nan"])
def test_cross_eval_ratio_out_of_range_exits_1(ratio, tmp_path, dataset_dir, capsys):
    out = tmp_path / "o"
    assert run("cross-eval", "--data", str(dataset_dir), "--variant", "B",
               "--out", str(out), "--ratio", ratio) == 1
    assert f"argument --ratio: must be in (0, 1), got '{ratio}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def xeval_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("run") / "xeval"
    code = run(
        "cross-eval", "--data", str(dataset_dir), "--variant", "B",
        "--out", str(out), "--condition", "outcome",
        "--epochs", "1", "--units", "4", "--labels", "truth",
    )
    assert code == 0
    return out


def test_cross_eval_outputs(xeval_dir):
    matrix = json.loads((xeval_dir / "matrix.json").read_text())
    assert matrix["condition"] == "outcome"
    assert matrix["rows"] == sorted(matrix["rows"])
    txt = (xeval_dir / "matrix.txt").read_text()
    assert txt.startswith("train\\test")
    for name in matrix["rows"]:
        assert name in txt


def test_cross_eval_text_keeps_error_cells_apart(xeval_dir):
    # Truth labels leave the all-success row with one class, so its fit
    # fails and every cell of that row holds the long error text.
    matrix = json.loads((xeval_dir / "matrix.json").read_text())
    names = matrix["rows"]
    assert any(str(v).startswith("error: ") for v in matrix["cells"]["success"].values())
    lines = (xeval_dir / "matrix.txt").read_text().splitlines()
    assert re.split(r" {2,}", lines[0]) == ["train\\test", *names]
    for row, line in zip(names, lines[1:], strict=True):
        want = [f"{v:.4f}" if isinstance(v, float) else v
                for v in map(matrix["cells"][row].get, names)]
        assert re.split(r" {2,}", line) == [row, *want]


def test_cross_eval_scoring_error_fills_rows_and_exits_0(tmp_path, short_top_sets):
    sets, error = short_top_sets
    data.save_force_dataset(sets, tmp_path / "data")
    out = tmp_path / "o"
    assert run("cross-eval", "--data", str(tmp_path / "data"), "--variant", "B",
               "--out", str(out), "--window-len", "300", "--epochs", "1", "--units", "4") == 0
    matrix = json.loads((out / "matrix.json").read_text())
    assert matrix["cells"] == {row: {"back": error, "top": error} for row in ("back", "top")}
    lines = (out / "matrix.txt").read_text().splitlines()
    assert [re.split(r" {2,}", line) for line in lines] == [
        ["train\\test", "back", "top"], ["back", error, error], ["top", error, error]]


def _refuse_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def test_json_artifacts_are_strict_and_in_one_format(dataset_dir, trained_dir, pressure_dir,
                                                      xeval_dir):
    paths = sorted(p for d in (dataset_dir, trained_dir, pressure_dir, xeval_dir)
                   for p in d.rglob("*.json"))
    assert len(paths) == 7  # 4 run manifests, 2 dataset manifests, the matrix
    for p in paths:
        text = p.read_text()
        obj = json.loads(text, parse_constant=_refuse_constant)
        assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n", p


# -- simulate ----------------------------------------------------------------------


def test_simulate_outputs(tmp_path, dataset_dir, trained_dir, capsys):
    out = tmp_path / "sim"
    code = run(
        "simulate", "--checkpoint", str(trained_dir / "checkpoint.gslp"),
        "--data", str(dataset_dir), "--set", "0", "--channels", "2",
        "--out", str(out), "--no-timing",
    )
    assert code == 0
    events = read_event_log(out / "events.csv")
    sets = data.load_force_dataset(dataset_dir)
    assert len(events) == 2 * sets[0].n_steps
    assert {e.channel for e in events} == {0, 1}
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "step,pj_ma,mj_ma"
    latency = json.loads((out / "latency.json").read_text())
    assert latency["pass"] is True  # zeroed latencies beat any budget
    assert "final currents" in capsys.readouterr().out


def test_simulate_reruns_identical_without_timing(tmp_path, dataset_dir, trained_dir):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert run(
            "simulate", "--checkpoint", str(trained_dir / "checkpoint.gslp"),
            "--data", str(dataset_dir), "--set", "1",
            "--out", str(out), "--no-timing",
        ) == 0
        outs.append(out)
    assert (outs[0] / "events.csv").read_bytes() == (outs[1] / "events.csv").read_bytes()
    assert (outs[0] / "trajectory.csv").read_bytes() == (outs[1] / "trajectory.csv").read_bytes()


def test_simulate_single_trace_file(tmp_path, trained_dir):
    grasp = data.synth_grasp(5, data.SynthParams(slip_onset=200, drop_step=260))
    trace_path = tmp_path / "one.txt"
    data.write_recording(grasp, trace_path)
    out = tmp_path / "sim"
    assert run(
        "simulate", "--checkpoint", str(trained_dir / "checkpoint.gslp"),
        "--data", str(trace_path), "--out", str(out), "--no-timing",
        "--strict-latency",
    ) == 0
    assert (out / "events.csv").exists()


def test_simulate_needs_input(tmp_path, trained_dir, capsys):
    assert run(
        "simulate", "--checkpoint", str(trained_dir / "checkpoint.gslp"),
        "--out", str(tmp_path / "o"),
    ) == 1
    assert "the following arguments are required: --data" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "simulate"])
def test_pressure_data_is_rejected_naming_the_file(tmp_path, pressure_dir, trained_dir,
                                                    command, capsys):
    ckpt = str(trained_dir / "checkpoint.gslp")
    argv = {
        "train": ["--data", str(pressure_dir), "--variant", "B"],
        "eval": ["--checkpoint", ckpt, "--data", str(pressure_dir)],
        "simulate": ["--checkpoint", ckpt, "--data", str(pressure_dir / "run_0001.txt")],
    }[command]
    assert run(command, *argv, "--out", str(tmp_path / "o")) == 1
    name = "run_0001.txt" if command == "simulate" else "run_0000.txt"
    assert f"{name}: not a force trace file (kind 'pressure')" in capsys.readouterr().err


def test_simulate_set_out_of_range(tmp_path, dataset_dir, trained_dir, capsys):
    assert run(
        "simulate", "--checkpoint", str(trained_dir / "checkpoint.gslp"),
        "--data", str(dataset_dir), "--set", "99", "--out", str(tmp_path / "o"),
    ) == 1
    assert "out of range" in capsys.readouterr().err


# -- grad-check -----------------------------------------------------------------------


def test_grad_check_passes(capsys):
    code = run("grad-check", "--variants", "A", "--instances", "1",
               "--steps", "6", "--hidden", "3")
    assert code == 0
    out = capsys.readouterr().out
    assert "variant A (lstm): max rel err" in out
    assert "ok" in out


def test_grad_check_impossible_tolerance(capsys):
    code = run("grad-check", "--variants", "A", "--instances", "1",
               "--steps", "6", "--hidden", "3", "--tolerance", "1e-12")
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("flags, named", [
    (["--tolerance", "nan"], "argument --tolerance: must be > 0, got 'nan'"),
    (["--tolerance", "inf"], "argument --tolerance: must be > 0, got 'inf'"),
    (["--tolerance", "0"], "argument --tolerance: must be > 0, got '0'"),
    (["--tolerance", "-0.001"], "argument --tolerance: must be > 0, got '-0.001'"),
    (["--instances", "0"], "argument --instances: must be >= 1, got '0'"),
    (["--steps", "0"], "argument --steps: must be >= 1, got '0'"),
    (["--hidden", "0"], "argument --hidden: must be >= 1, got '0'"),
    (["--hidden", "-2"], "argument --hidden: must be >= 1, got '-2'"),
    (["--variants", ""], "--variants must name at least one variant"),
], ids=["tol-nan", "tol-inf", "tol-0", "tol-negative", "instances-0", "steps-0",
        "hidden-0", "hidden-negative", "no-variants"])
def test_grad_check_that_would_check_nothing_exits_1(flags, named, capsys):
    assert run("grad-check", "--variants", "A", "--instances", "1", "--steps", "6",
               "--hidden", "3", *flags) == 1
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""


def test_grad_check_out_of_memory_is_a_user_error():
    # 10**7 hidden units ask for a (10**7, 10**7 + 1) float64 gate block,
    # 728 TiB: more than a user address space holds, so it fails at once
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "graspslip", "grad-check", "--variants", "A",
         "--instances", "1", "--steps", "1", "--hidden", "10000000"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("graspslip: error: Unable to allocate"), proc.stderr
    assert "Traceback" not in proc.stderr


# -- parser behavior ---------------------------------------------------------------------


def test_unknown_subcommand_is_user_error(capsys):
    assert run("frobnicate") == 1


def test_unknown_flag_is_user_error(capsys):
    assert run("gen-data", "--does-not-exist") == 1


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "COMMAND" in capsys.readouterr().out


def test_version_exits_zero(capsys):
    assert run("--version") == 0


def test_module_entry_point():
    import graspslip.__main__  # noqa: F401  (import must not execute main)
