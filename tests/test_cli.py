import csv
import ctypes
import json
import math
import multiprocessing
import os
import platform
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dmdn
from dmdn import analysis, cli, formats, optimize, pipeline, stages
from dmdn.analysis import cpsnr
from dmdn.cli import build_parser, main
from dmdn.image import ColorImage, GrayImage
from dmdn.mosaic import mosaick
from dmdn.noise import NoiseSpec, RngStream, add_awgn, noisy_mosaics
from dmdn.pipeline import PRESET_NAMES, PipelineParams, PipelineSpec, preset, run_pipeline

from conftest import count_calls, dm_key, make_natural, reference_pipeline


@pytest.fixture()
def dataset_dir(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    for i in range(2):
        img = make_natural(40 + i, size=64)
        formats.write_image(d / f"img{i}.ppm", img)
    return d


def run(*argv):
    return main([str(a) for a in argv])


def test_mosaic_noise_demosaic_denoise_chain(tmp_path, dataset_dir):
    src = dataset_dir / "img0.ppm"
    cfa = tmp_path / "v.pfm"
    assert run("mosaic", "--input", src, "--out", cfa) == 0
    assert cfa.exists() and (tmp_path / "v.manifest.json").exists()
    assert formats.read_image(cfa).phase == "RGGB"

    noisy = tmp_path / "vn.pfm"
    assert run("noise", "--input", cfa, "--sigma", 10, "--seed", 3, "--out", noisy) == 0
    assert formats.read_image(noisy).phase == "RGGB"

    dem = tmp_path / "u.ppm"
    assert run("demosaic", "--input", noisy, "--method", "ha", "--out", dem) == 0
    assert isinstance(formats.read_image(dem), ColorImage)

    den = tmp_path / "d.ppm"
    assert run("denoise", "--input", dem, "--method", "dct8", "--sigma", 10, "--out", den) == 0
    assert den.exists()

    den_cfa = tmp_path / "dc.pfm"
    assert run("denoise", "--input", noisy, "--method", "dct8", "--sigma", 10, "--cfa", "--out", den_cfa) == 0
    assert formats.read_image(den_cfa).phase == "RGGB"


def test_preset_prints_parameters(capsys):
    assert run("pipeline", "preset", "--name", "dm15dn", "--sigma", 20) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"alpha": 0.0, "beta": 1.0, "sigma1": 0.0, "sigma2": 30.0}


def test_pipeline_run_records_cpsnr_and_timings(tmp_path, dataset_dir):
    src = dataset_dir / "img0.ppm"
    cfa = tmp_path / "v.pfm"
    run("mosaic", "--input", src, "--out", cfa)
    out = tmp_path / "restored.ppm"
    assert (
        run(
            "pipeline", "run", "--input", cfa, "--alpha", 0.5, "--beta", 1.0,
            "--sigma1", 5, "--sigma2", 10, "--truth", src, "--out", out,
        )
        == 0
    )
    manifest = json.loads((tmp_path / "restored.manifest.json").read_text())
    assert manifest["aggregate_metrics"]["cpsnr"] > 20.0
    assert set(manifest["timings"]) == {"dn1", "dm", "dn2"}


def test_single_stage_commands_time_the_write_apart(tmp_path, monkeypatch):
    src = tmp_path / "img.ppm"
    formats.write_image(src, make_natural(5, size=32))
    cfa = tmp_path / "v.pfm"
    assert run("mosaic", "--input", src, "--out", cfa) == 0
    write_image = formats.write_image

    def slow_write(path, img):
        time.sleep(0.05)
        write_image(path, img)

    monkeypatch.setattr(formats, "write_image", slow_write)
    for argv, name in (
        (("mosaic", "--input", src), "mosaic"),
        (("noise", "--input", cfa, "--sigma", 10), "noise"),
        (("demosaic", "--input", cfa), "dm"),
        (("denoise", "--input", cfa, "--method", "dct8", "--sigma", 10, "--cfa"), "dn"),
        (("denoise", "--input", src, "--method", "dct8", "--sigma", 10), "dn"),
    ):
        out = tmp_path / f"{argv[0]}.pfm"
        assert run(*argv, "--out", out) == 0
        timings = json.loads(out.with_name(f"{argv[0]}.manifest.json").read_text())["timings"]
        assert set(timings) == {name, "write"}
        assert timings[name] < 0.05 <= timings["write"]


def test_eval_csv_shape_and_bitexact_rerun(tmp_path, dataset_dir):
    out_dir = tmp_path / "evalrun"
    args = (
        "eval", "--dataset", dataset_dir, "--sigmas", "5,20",
        "--seed", 9, "--out", out_dir,
    )
    assert run(*args) == 0
    csv_path = out_dir / "eval.csv"
    with csv_path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sigma", "method", "alpha", "beta", "sigma1", "sigma2", "mean_cpsnr"]
    assert len(rows) == 1 + 2 * 3  # two sigmas x three presets

    manifest_path = out_dir / "eval.manifest.json"
    before = json.loads(manifest_path.read_text())
    assert run("rerun", "--manifest", manifest_path) == 0
    after = json.loads(manifest_path.read_text())
    assert before["aggregate_metrics"] == after["aggregate_metrics"]
    assert before["per_image_metrics"] == after["per_image_metrics"]


def test_rerun_from_another_directory_rewrites_original_outputs(tmp_path, dataset_dir, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("eval", "--dataset", "data", "--sigmas", "5", "--seed", 2, "--out", "evalrun") == 0
    out_dir = tmp_path / "evalrun"
    before = json.loads((out_dir / "eval.manifest.json").read_text())

    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    manifest_copy = elsewhere / "m.json"
    manifest_copy.write_text(json.dumps(before))
    for p in out_dir.iterdir():
        p.unlink()
    monkeypatch.chdir(elsewhere)
    assert run("rerun", "--manifest", "m.json") == 0

    assert sorted(p.name for p in elsewhere.iterdir()) == ["m.json"]
    assert (out_dir / "eval.csv").exists()
    after = json.loads((out_dir / "eval.manifest.json").read_text())
    assert before["aggregate_metrics"] == after["aggregate_metrics"]
    assert before["per_image_metrics"] == after["per_image_metrics"]


def test_rerun_replays_the_recorded_argv_in_the_recorded_directory(tmp_path, monkeypatch):
    recorded, caller, elsewhere = (tmp_path / name for name in ("recorded", "caller", "elsewhere"))
    for d in (recorded, caller, elsewhere):
        d.mkdir()
    truth = make_natural(3, size=32)
    formats.write_image(elsewhere / "truth.ppm", truth)  # the absolute path
    formats.write_image(recorded / "v.pfm", mosaick(truth, "RGGB"))
    monkeypatch.chdir(recorded)
    # `--in` and `--tr` are prefixes argparse resolves; `--out=` is the `=` form
    argv = ["pipeline", "run", "--in", "v.pfm", "--tr", str(elsewhere / "truth.ppm"), "--out=r.ppm",
            "--alpha", "0.5", "--beta", "1", "--sigma1", "5", "--sigma2", "5", "--dn1", "dct8"]
    assert main(argv) == 0
    before = json.loads((recorded / "r.manifest.json").read_text())
    assert before["command"] == argv and before["cwd"] == str(recorded)
    restored = (recorded / "r.ppm").read_bytes()
    (elsewhere / "m.json").write_text(json.dumps(before))
    for name in ("r.ppm", "r.manifest.json"):
        (recorded / name).unlink()

    monkeypatch.chdir(caller)
    assert run("rerun", "--manifest", elsewhere / "m.json") == 0
    assert Path.cwd() == caller
    assert list(caller.iterdir()) == []
    assert sorted(p.name for p in elsewhere.iterdir()) == ["m.json", "truth.ppm"]
    assert (recorded / "r.ppm").read_bytes() == restored
    after = json.loads((recorded / "r.manifest.json").read_text())
    assert (after["command"], after["cwd"]) == (before["command"], before["cwd"])
    assert after["aggregate_metrics"] == before["aggregate_metrics"]

    for command, code in (
        (["demosaic", "--input", "v.pfm", "--bogus"], 2),
        (["demosaic", "--input", "missing.pfm", "--out", "u.ppm"], 3),
        (["demosaic", "--input", str(elsewhere / "truth.ppm"), "--out", "u.ppm"], 4),  # not a CFA
    ):
        manifest = elsewhere / f"exit{code}.json"
        manifest.write_text(json.dumps({"command": command, "cwd": str(recorded)}))
        if code == 2:
            with pytest.raises(SystemExit, match="2"):
                run("rerun", "--manifest", manifest)
        else:
            assert run("rerun", "--manifest", manifest) == code
        assert Path.cwd() == caller


def test_rerun_in_a_missing_recorded_directory_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    formats.write_image(tmp_path / "truth.ppm", make_natural(3, size=16))
    gone = tmp_path / "gone"
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"command": ["mosaic", "--input", "truth.ppm", "--out", "v.pfm"], "cwd": str(gone)}))
    assert run("rerun", "--manifest", manifest) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: ") and str(gone) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "truth.ppm"]
    assert Path.cwd() == tmp_path


def test_eval_jobs_parallel_matches_serial(tmp_path, dataset_dir, monkeypatch):
    monkeypatch.setattr(stages, "usable_cpus", lambda: 2)  # two workers even on a one-CPU host
    for argv, out_name, files in (
        (("eval", "--sigmas", "10,20"), "eval", ["eval/eval.csv"]),
        (("pipeline", "sweep-k", "--sigma", 20, "--k-list", "1,1.5"), "sweep.csv", ["sweep.csv"]),
        (("tune", "--sigma", 20, "--max-evals", 16), "tune", ["tune/tune_result.json", "tune/trace.csv"]),
    ):
        outputs = []
        for jobs in (1, 2):
            root = tmp_path / f"jobs{jobs}"
            assert run(*argv, "--dataset", dataset_dir, "--seed", 4, "--jobs", jobs, "--out", root / out_name) == 0
            assert multiprocessing.active_children() == []
            first = root / files[0]
            manifest = json.loads(first.with_name(first.stem + ".manifest.json").read_text())
            assert manifest["workers"] == jobs
            assert manifest["worker_cpu_s"] >= 0.0
            assert {"dm", "dn2"} <= set(manifest["timings"])  # the workers' stages, at every --jobs
            outputs.append(
                ([(root / f).read_bytes() for f in files], manifest.get("per_image_metrics"), manifest["aggregate_metrics"])
            )
        assert outputs[0] == outputs[1]


def test_a_dead_worker_exits_3_without_a_traceback(tmp_path, dataset_dir, monkeypatch, capsys):
    monkeypatch.setattr(stages, "usable_cpus", lambda: 2)
    parent = os.getpid()

    def die(*args):
        if os.getpid() != parent:  # only ever in a worker: in this process it would end the session
            os._exit(1)
        pytest.fail("score_specs ran in the command's process")

    monkeypatch.setattr(cli, "score_specs", die)
    out = tmp_path / "sweep.csv"
    assert run("pipeline", "sweep-k", "--dataset", dataset_dir, "--sigma", 20, "--jobs", 2, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "worker process ended abruptly" in err and "Traceback" not in err
    assert multiprocessing.active_children() == []
    assert not out.exists()


def test_recorded_seeds_are_the_seeds_used(tmp_path, dataset_dir):
    assert run("eval", "--dataset", dataset_dir, "--sigmas", "10,20", "--seed", 9, "--phase", "GBRG",
               "--out", tmp_path / "e") == 0
    manifest = json.loads((tmp_path / "e" / "eval.manifest.json").read_text())
    name = "img1.ppm"  # the second image: its seed is derived, not the master seed
    truth = formats.read_image(dataset_dir / name)
    noisy = add_awgn(mosaick(truth, "GBRG"), NoiseSpec(20.0, manifest["per_image_seeds"][name]))
    restored = run_pipeline(noisy, PipelineSpec(preset("dmdn", 20.0)))
    assert cpsnr(restored, truth) == manifest["per_image_metrics"][name]["dmdn_sigma20"]
    # Every image x sigma x preset score is its pipeline's, run stage by stage with no reuse.
    names = sorted(manifest["per_image_metrics"])
    images = [formats.read_image(dataset_dir / n) for n in names]
    sigmas = [10.0, 20.0]
    for i, k, v in noisy_mosaics(images, sigmas, 9, "GBRG"):
        sigma = sigmas[k]
        for preset_name in PRESET_NAMES:
            spec = PipelineSpec(preset(preset_name, sigma))
            score = manifest["per_image_metrics"][names[i]][f"{preset_name}_sigma{sigma:g}"]
            assert score == cpsnr(reference_pipeline(v, spec), images[i])


def test_eval_demosaics_once_for_dmdn_and_dm15dn(tmp_path, dataset_dir, monkeypatch):
    calls = count_calls(monkeypatch, pipeline, "denoise_cfa", "demosaic")
    assert run("eval", "--dataset", dataset_dir, "--sigmas", "5,20", "--jobs", 1, "--out", tmp_path / "e") == 0
    # Per (image, sigma) task: one DM per run of presets with one DM key, and DN1 for dndm alone.
    keys = [dm_key(preset(name, 20.0)) for name in PRESET_NAMES]
    per_task = 1 + sum(a != b for a, b in zip(keys, keys[1:]))
    assert per_task == 2 and calls == {"denoise_cfa": 4, "demosaic": 2 * 2 * per_task}


@pytest.mark.parametrize(
    "argv, directory",
    [
        (("tune", "--sigma", 10, "--max-evals", 8), True),
        (("eval", "--sigmas", "10"), True),
        (("pipeline", "sweep-k", "--sigma", 10, "--k-list", "1"), False),
        (("rmse-table", "--sigmas", "10"), False),
    ],
    ids=["tune", "eval", "sweep-k", "rmse-table"],
)
def test_unusable_out_fails_before_any_work(tmp_path, dataset_dir, monkeypatch, capsys, argv, directory):
    def never(*args, **kwargs):
        pytest.fail("the command started its work")

    for module, name in ((cli, "_load_dataset"), (cli, "noisy_mosaics"), (cli, "tune_pipeline"),
                         (analysis, "noisy_mosaics")):
        monkeypatch.setattr(module, name, never)
    work = tmp_path / "work"
    work.mkdir()
    (work / "file").write_text("x")
    (work / "dir").mkdir()
    unusable = [work / "file" / "out", work / "file" / "a" / "out"]  # an ancestor is a regular file
    unusable.append(work / ("file" if directory else "dir"))  # the wrong kind of entry already exists
    for out in unusable:
        assert run(*argv, "--dataset", dataset_dir, "--out", out) == 3
        assert f"error: --out {out}: " in capsys.readouterr().err
    assert sorted(p.name for p in work.iterdir()) == ["dir", "file"]
    assert list((work / "dir").iterdir()) == [] and (work / "file").read_text() == "x"


def test_sweep_k_csv(tmp_path, dataset_dir):
    out = tmp_path / "sweep.csv"
    args = ("pipeline", "sweep-k", "--dataset", dataset_dir, "--sigma", 20, "--k-list", "0.0,1.0,1.5", "--seed", 2)
    assert run(*args, "--out", out) == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "mean_cpsnr"]
    assert [r[0] for r in rows[1:]] == ["0.0", "1.0", "1.5"]
    # Each row is the mean over the images of the k's pipeline, run stage by stage.
    images = [formats.read_image(dataset_dir / f"img{i}.ppm") for i in range(2)]
    captures = list(noisy_mosaics(images, [20.0], 2))
    for k, row in zip((0.0, 1.0, 1.5), rows[1:]):
        spec = PipelineSpec(PipelineParams(0.0, 1.0, 0.0, k * 20.0))
        scores = [cpsnr(reference_pipeline(v, spec), images[i]) for i, _, v in captures]
        assert row[1] == f"{math.fsum(scores) / len(scores):.6f}"


def test_eval_and_sweep_k_manifests_keep_their_layout(tmp_path, dataset_dir):
    assert run("eval", "--dataset", dataset_dir, "--sigmas", 20, "--out", tmp_path / "e") == 0
    assert run("pipeline", "sweep-k", "--dataset", dataset_dir, "--sigma", 20, "--k-list", "1,1.5",
               "--out", tmp_path / "k.csv") == 0
    head = ["command", "cwd", "subcommand", "config", "outputs", "env", "master_seed", "per_image_seeds"]
    tail = ["per_image_metrics", "aggregate_metrics", "timings", "workers", "worker_cpu_s"]
    for manifest, components, timings in (
        (tmp_path / "e" / "eval.manifest.json", ["components"], ["total", "dn1", "dm", "dn2"]),
        (tmp_path / "k.manifest.json", [], ["total", "dm", "dn2"]),  # dmdn at every k: no DN1
    ):
        payload = json.loads(manifest.read_text())
        assert list(payload) == head + components + tail
        assert list(payload["timings"]) == timings


def test_rmse_table_csv(tmp_path, dataset_dir):
    out = tmp_path / "rmse.csv"
    assert (
        run("rmse-table", "--dataset", dataset_dir, "--method", "ha",
            "--sigmas", "0,10", "--seed", 5, "--out", out)
        == 0
    )
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sigma", "mean_rmse"]
    assert float(rows[2][1]) >= float(rows[1][1])
    timings = json.loads((tmp_path / "rmse.manifest.json").read_text())["timings"]
    assert list(timings) == ["rmse_table", "dm"] and timings["dm"] > 0.0


def test_stats_csv_layout(tmp_path, dataset_dir):
    src = dataset_dir / "img0.ppm"
    cfa = tmp_path / "v.pfm"
    run("mosaic", "--input", src, "--out", cfa)
    noisy = tmp_path / "vn.pfm"
    run("noise", "--input", cfa, "--sigma", 20, "--seed", 1, "--out", noisy)
    dem = tmp_path / "u.pfm"
    run("demosaic", "--input", noisy, "--out", dem)
    out = tmp_path / "stats.csv"
    assert (
        run("stats", "--estimate", dem, "--truth", src, "--space", "yc1c2",
            "--crop", 8, "--lags", 2, "--out", out)
        == 0
    )
    with out.open() as fh:
        rows = [r for r in csv.reader(fh)]
    assert rows[0][:2] == ["table", "channel"]
    assert len(rows[0]) == 2 + 9  # 3x3 lags
    kinds = {r[0] for r in rows if r and r[0] != "table"}
    assert kinds == {"covariance", "correlation", "cross_covariance", "cross_correlation"}
    y_corr = next(r for r in rows if r[:2] == ["correlation", "Y"])
    assert float(y_corr[2]) == pytest.approx(1.0)
    assert set(json.loads((tmp_path / "stats.manifest.json").read_text())["timings"]) == {"stats"}


def test_tune_outputs(tmp_path, capsys):
    d = tmp_path / "data"
    d.mkdir()
    for i in range(2):
        formats.write_image(d / f"img{i}.ppm", make_natural(60 + i, size=32))
    out_dir = tmp_path / "tuned"
    args = ("tune", "--dataset", d, "--sigma", 10, "--max-evals", 64, "--seed", 3, "--out")
    assert run(*args, out_dir) == 0
    result = json.loads((out_dir / "tune_result.json").read_text())
    # One summary line on stderr: how the search stopped, what it cost and found.
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    summary = (
        f"tune: {result['termination']} after {result['evaluations']} evaluations in "
        f"{result['generations']} generations, best CPSNR {result['best_cpsnr']:.4f} dB, "
    )
    assert err.startswith(summary) and err.endswith(" s\n")
    float(err[len(summary):-3])  # the wall seconds
    assert set(result["best_params"]) == {"alpha", "beta", "sigma1", "sigma2"}
    assert result["termination"] in ("max_evals", "stagnation")
    with (out_dir / "trace.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["generation", "best_cpsnr", "mean_cpsnr", "step_size", "condition", "evaluations"]
    assert len(rows) == 1 + result["generations"]
    assert float(rows[1][3]) == optimize.INITIAL_STEP and float(rows[1][4]) == 1.0
    assert all(float(r[3]) > 0.0 and float(r[4]) >= 1.0 for r in rows[1:])
    assert int(rows[-1][5]) == result["evaluations"]
    bests = [float(r[1]) for r in rows[1:]]
    assert all(x <= y for x, y in zip(bests, bests[1:]))


@pytest.mark.parametrize("extra", [("--estimate",), ("--truth",), ("--estimate", "--truth")])
def test_stats_rejects_residual_with_estimate_or_truth_before_reading_any_file(tmp_path, capsys, extra):
    missing = tmp_path / "missing.pfm"  # exit 4, not 3: no file is read
    argv = [arg for flag in ("--residual", *extra) for arg in (flag, missing)]
    assert run("stats", *argv, "--out", tmp_path / "s.csv") == 4
    assert "stats needs either --residual alone or both --estimate and --truth" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_exit_codes(tmp_path, capsys):
    # missing file -> I/O error
    assert run("demosaic", "--input", tmp_path / "nope.pfm", "--out", tmp_path / "x.ppm") == 3
    # malformed image -> I/O error
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P6\n4 4\n255\nxx")
    assert run("demosaic", "--input", bad, "--out", tmp_path / "x.ppm") == 3
    bad.write_bytes(b"PF\n2 2\nnan\n" + bytes(48))  # a non-finite PFM scale names no byte order
    assert run("noise", "--input", bad, "--sigma", 5, "--out", tmp_path / "x.pfm") == 3
    assert not (tmp_path / "x.pfm").exists()
    # domain error -> 4
    img = tmp_path / "img.ppm"
    formats.write_image(img, make_natural(1, size=16))
    assert run("noise", "--input", img, "--sigma", -5, "--seed", 0, "--out", tmp_path / "o.ppm") == 4
    capsys.readouterr()
    for argv in (("noise",), ("denoise", "--method", "dct8"), ("denoise", "--method", "nlmeans")):
        assert run(*argv, "--input", img, "--sigma", "inf", "--out", tmp_path / "o.ppm") == 4
        assert "sigma must be in [0, 255], got inf" in capsys.readouterr().err
    assert not (tmp_path / "o.ppm").exists()
    # a noise level outside the [0, 255] sigma scale
    assert run("noise", "--input", img, "--sigma", "1e300", "--out", tmp_path / "x.pfm") == 4
    assert not (tmp_path / "x.pfm").exists()
    assert run("denoise", "--input", img, "--method", "nlmeans", "--sigma", "1e300", "--out", tmp_path / "o.ppm") == 4
    assert run("noise", "--input", img, "--sigma", 256, "--out", tmp_path / "o.ppm") == 4
    assert not (tmp_path / "o.ppm").exists()
    assert "sigma must be in [0, 255], got 256.0" in capsys.readouterr().err
    assert run("noise", "--input", img, "--sigma", 255, "--out", tmp_path / "o.ppm") == 0
    assert run("stats", "--residual", img, "--crop", 2, "--lags", -1, "--out", tmp_path / "s.csv") == 4
    assert run("stats", "--residual", img, "--crop", -1, "--out", tmp_path / "s.csv") == 4
    data = tmp_path / "data"
    data.mkdir()
    formats.write_image(data / "img.ppm", make_natural(1, size=16))
    assert run("tune", "--dataset", data, "--sigma", 10, "--max-evals", 0, "--out", tmp_path / "t") == 4
    assert not (tmp_path / "t").exists()  # budget below one generation
    assert run("tune", "--dataset", data, "--sigma", "1e200", "--max-evals", 8, "--out", tmp_path / "t") == 4
    assert not (tmp_path / "t").exists()
    assert run("pipeline", "sweep-k", "--dataset", data, "--sigma", "1e300", "--k-list", 0, "--out", tmp_path / "k.csv") == 4
    assert run("rmse-table", "--dataset", data, "--sigmas", "1e300", "--out", tmp_path / "r.csv") == 4
    assert not (tmp_path / "k.csv").exists() and not (tmp_path / "r.csv").exists()
    for sigmas in ("20,20", "20,20.0000001"):  # repeated noise level (same label)
        assert run("eval", "--dataset", data, "--sigmas", sigmas, "--out", tmp_path / "e") == 4
    assert not (tmp_path / "e").exists()
    capsys.readouterr()
    # a repeated label would keep only one of two manifest metrics
    for flag, argv in (
        ("--k-list", ("pipeline", "sweep-k", "--sigma", 5, "--k-list", "1,1.0000001", "--out", tmp_path / "k.csv")),
        ("--sigmas", ("rmse-table", "--sigmas", "5,5.0000001", "--out", tmp_path / "r.csv")),
    ):
        assert run(*argv, "--dataset", data) == 4
        assert f"{flag} repeats a" in capsys.readouterr().err
    assert not (tmp_path / "k.csv").exists() and not (tmp_path / "r.csv").exists()
    cfa = tmp_path / "v.pfm"
    assert run("mosaic", "--input", img, "--out", cfa) == 0
    assert run("stats", "--estimate", cfa, "--truth", img, "--out", tmp_path / "s.csv") == 4  # gray estimate
    # a missing truth, or one of another size, leaves no pipeline output behind
    other_size = tmp_path / "big.ppm"
    formats.write_image(other_size, make_natural(1, size=32))
    for truth, code in ((tmp_path / "nope.ppm", 3), (other_size, 4)):
        assert run("pipeline", "run", "--input", cfa, "--alpha", 0.5, "--beta", 1, "--sigma1", 5,
                   "--sigma2", 10, "--truth", truth, "--out", tmp_path / "p.ppm") == code
        assert not (tmp_path / "p.ppm").exists() and not (tmp_path / "p.manifest.json").exists()
    # output path the writers cannot serve, malformed sidecar -> I/O error
    assert run("demosaic", "--input", cfa, "--out", tmp_path / "x.png") == 3
    assert run("noise", "--input", cfa, "--sigma", 5, "--out", tmp_path / "n.ppm") == 3  # gray CFA as .ppm
    assert run("demosaic", "--input", cfa, "--out", tmp_path / "x.pgm") == 3  # color result as .pgm
    for sidecar in (b"phase RGGB\n", b"\xffphase=RGGB\n", b"phase=XYZW\n"):
        (tmp_path / "v.pfm.meta").write_bytes(sidecar)
        assert run("demosaic", "--input", cfa, "--out", tmp_path / "x.ppm") == 3
    # unknown flag or malformed list value -> argparse exits with 2
    for argv in (
        ("demosaic", "--frobnicate"),
        ("eval", "--dataset", tmp_path, "--sigmas", "a", "--out", tmp_path / "e"),
        ("rmse-table", "--dataset", tmp_path, "--sigmas", "5,", "--out", tmp_path / "r.csv"),
        ("pipeline", "sweep-k", "--dataset", tmp_path, "--sigma", 5, "--k-list", "1,x", "--out", tmp_path / "k.csv"),
        ("eval", "--dataset", tmp_path, "--jobs", 0, "--out", tmp_path / "e"),
        ("pipeline", "sweep-k", "--dataset", tmp_path, "--sigma", 5, "--jobs", -3, "--out", tmp_path / "k.csv"),
        ("noise", "--input", img, "--sigma", 5, "--seed", 2**64, "--out", tmp_path / "n.ppm"),  # aliases seed 0
        ("eval", "--dataset", tmp_path, "--seed", -1, "--out", tmp_path / "e"),  # aliases 2**64 - 1
        ("noise", "--input", img, "--poisson", "--sigma", 20, "--out", tmp_path / "p.ppm"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2


def test_cfa_inputs_need_a_gray_file_with_its_sidecar(tmp_path, capsys):
    gray = tmp_path / "g.pfm"
    formats.write_image(gray, GrayImage(make_natural(1, size=16).planes[1]))
    for argv in (("demosaic",), ("pipeline", "run", "--alpha", 0, "--beta", 1, "--sigma1", 0, "--sigma2", 0)):
        assert run(*argv, "--input", gray, "--out", tmp_path / "x.ppm") == 3
        assert f"{gray}.meta" in capsys.readouterr().err
    color = tmp_path / "c.pfm"
    formats.write_image(color, make_natural(1, size=16))
    (tmp_path / "c.pfm.meta").write_text("phase=RGGB\n")  # a stray sidecar does not make it a CFA
    assert run("demosaic", "--input", color, "--out", tmp_path / "x.ppm") == 4
    assert "CFA file must be a gray image" in capsys.readouterr().err
    assert not (tmp_path / "x.ppm").exists()


def test_gray_output_over_a_cfa_file_drops_its_sidecar(tmp_path, capsys):
    gray = tmp_path / "g.pfm"
    formats.write_image(gray, GrayImage(make_natural(1, size=16).planes[1]))
    cfa = tmp_path / "v.pfm"
    formats.write_image(tmp_path / "c.ppm", make_natural(1, size=16))
    assert run("mosaic", "--input", tmp_path / "c.ppm", "--out", cfa) == 0
    assert run("noise", "--input", gray, "--sigma", 3, "--out", cfa) == 0
    assert type(formats.read_image(cfa)) is GrayImage
    assert run("demosaic", "--input", cfa, "--out", tmp_path / "u.ppm") == 3
    assert f"{cfa}.meta: missing CFA phase sidecar" in capsys.readouterr().err


def test_manifests_are_strict_json(tmp_path):
    # a flat image at sigma 0 is restored exactly: every CPSNR is infinite
    data = tmp_path / "flat"
    data.mkdir()
    formats.write_image(data / "flat.ppm", ColorImage(np.full((3, 16, 16), 128.0)))
    assert run("eval", "--dataset", data, "--sigmas", 0, "--out", tmp_path / "e") == 0
    assert run("pipeline", "sweep-k", "--dataset", data, "--sigma", 0, "--k-list", "1,2", "--out", tmp_path / "k.csv") == 0

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    for manifest in (tmp_path / "e" / "eval.manifest.json", tmp_path / "k.manifest.json"):
        payload = json.loads(manifest.read_text(), parse_constant=reject)
        assert set(payload["aggregate_metrics"].values()) == {None}
        for scores in payload["per_image_metrics"].values():
            assert set(scores.values()) == {None}


def test_manifest_records_environment(tmp_path, dataset_dir):
    out = tmp_path / "v.pfm"
    assert run("mosaic", "--input", dataset_dir / "img0.ppm", "--out", out) == 0
    env = json.loads((tmp_path / "v.manifest.json").read_text())["env"]
    assert env == {
        "dmdn": dmdn.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": "-".join((platform.system(), platform.release(), platform.machine())),
        "usable_cpus": stages.usable_cpus(),
        "malloc": cli._reuse_freed_memory(),  # the same thresholds again, or None without mallopt
    }
    if env["malloc"] is not None:
        assert env["malloc"] == {"mmap_threshold": cli.MMAP_THRESHOLD, "trim_threshold": cli.TRIM_THRESHOLD}


class _FakeLibc:
    """A `ctypes.CDLL(None)` whose `mallopt` refuses the listed parameters and records each call."""

    def __init__(self, refused):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return int(param not in refused)

        self.mallopt = mallopt


@pytest.mark.parametrize(
    "refused, in_force, calls",
    (
        ((-3,), None, 1),  # M_MMAP_THRESHOLD refused: nothing set, the trim threshold not tried
        ((-1,), {"mmap_threshold": cli.MMAP_THRESHOLD}, 2),  # the mmap threshold stays in force alone
        ((), {"mmap_threshold": cli.MMAP_THRESHOLD, "trim_threshold": cli.TRIM_THRESHOLD}, 2),
    ),
)
def test_reuse_freed_memory_returns_the_thresholds_in_force(monkeypatch, refused, in_force, calls):
    libc = _FakeLibc(refused)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert cli._reuse_freed_memory() == in_force
    assert libc.calls == [(-3, cli.MMAP_THRESHOLD), (-1, cli.TRIM_THRESHOLD)][:calls]


def test_reuse_freed_memory_without_mallopt_sets_nothing(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert cli._reuse_freed_memory() is None


def _has_mallinfo2() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallinfo2")
    except (OSError, TypeError):
        return False


# Prints how many mmapped bytes a new 2 MiB array adds, after `import dmdn.cli`
# and, with the argument "main", one run of the command.
_MMAPPED_BYTES_OF_NEW_ARRAY = """
import ctypes, sys
import numpy as np
import dmdn.cli

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2
if sys.argv[1:] == ["main"]:
    dmdn.cli.main(["pipeline", "preset", "--name", "dmdn", "--sigma", "5"])
before = mallinfo2().hblkhd
array = np.ones(2 << 20, dtype=np.uint8)
print(mallinfo2().hblkhd - before)
"""


@pytest.mark.skipif(not _has_mallinfo2(), reason="needs glibc's mallinfo2")
def test_command_process_keeps_freed_memory_on_the_heap():
    src = str(Path(cli.__file__).resolve().parents[1])

    def mmapped_bytes(*argv):
        result = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + _MMAPPED_BYTES_OF_NEW_ARRAY, *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        return int(result.stdout.split()[-1])

    assert mmapped_bytes("main") == 0  # the command's process: a heap block
    assert mmapped_bytes() >= 2 << 20  # import alone leaves glibc's default: an mmap


def test_rerun_requires_recorded_command(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"config": {}}))
    assert run("rerun", "--manifest", manifest) == 4


@pytest.mark.parametrize(
    "content",
    [
        b"{not json",
        b"\xff\xfe{}",
        b"[1, 2]",
        {"command": 5},
        {"command": "pipeline preset --name DM&DN --sigma 5"},
        {"command": ["demosaic", "--input", "v.pfm", "--out", "u.ppm"], "cwd": 5},
        {"command": ["rerun", "--manifest", "m.json"]},  # itself, from tmp_path
    ],
    ids=["json", "utf8", "list", "command-int", "command-str", "cwd-int", "self-rerun"],
)
def test_rerun_rejects_malformed_manifest(tmp_path, capsys, monkeypatch, content):
    monkeypatch.chdir(tmp_path)
    manifest = tmp_path / "m.json"
    manifest.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    assert run("rerun", "--manifest", manifest) == 3
    assert capsys.readouterr().err.startswith(f"error: {manifest}: ")


def test_each_image_noise_field_is_drawn_once(tmp_path, dataset_dir, monkeypatch):
    draws = []
    normals = RngStream.normals
    monkeypatch.setattr(RngStream, "normals", lambda self, n: draws.append(n) or normals(self, n))
    assert run("rmse-table", "--dataset", dataset_dir, "--sigmas", "0,5,20", "--out", tmp_path / "r.csv") == 0
    assert len(draws) == 2  # one field per image, not one per (image, sigma)
    draws.clear()
    assert run("eval", "--dataset", dataset_dir, "--sigmas", "5,20", "--out", tmp_path / "e") == 0
    assert len(draws) == 2  # not one per (image, sigma, preset)


def _forbid_work(monkeypatch):
    """Fail the test if the command loads its dataset or runs a pipeline stage."""
    for module, name in ((cli, "_load_dataset"), (cli, "run_pipeline"), (pipeline, "demosaic_stage"),
                         (pipeline, "denoise_stage")):
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("the command started its work"))


def test_eval_checks_every_preset_before_running_a_pipeline(tmp_path, dataset_dir, monkeypatch, capsys):
    _forbid_work(monkeypatch)
    # dm15dn at sigma 200 asks for sigma2 = 300
    assert run("eval", "--dataset", dataset_dir, "--sigmas", "5,200", "--out", tmp_path / "e") == 4
    assert "sigma2 must be in [0, 255], got 300.0" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_sweep_k_checks_every_factor_before_loading_the_dataset(tmp_path, dataset_dir, monkeypatch, capsys):
    _forbid_work(monkeypatch)
    for sigma, k_list, message in (
        (200, "1,1.5", "sigma2 must be in [0, 255], got 300.0"),
        (0, "-1", "k values must be >= 0"),  # k * sigma = -0.0 is in range: only the k rule rejects it
    ):
        argv = ("pipeline", "sweep-k", "--dataset", dataset_dir, "--sigma", sigma, f"--k-list={k_list}")
        assert run(*argv, "--out", tmp_path / "k.csv") == 4
        assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.parametrize("argv", [
    ("pipeline", "sweep-k", "--sigma", 300, "--k-list", 0),
    ("tune", "--sigma", 300),
    ("rmse-table", "--sigmas", "5,300"),
])
def test_dataset_commands_check_sigma_before_loading_the_dataset(tmp_path, monkeypatch, capsys, argv):
    _forbid_work(monkeypatch)
    assert run(*argv, "--dataset", tmp_path / "missing", "--out", tmp_path / "out") == 4
    assert "sigma must be in [0, 255], got 300.0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_readme_cli_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("dmdn ")
    ]
    assert len(commands) == 13
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # exits 2 on an unknown or missing flag
