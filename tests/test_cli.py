import csv
import json
import shlex
from pathlib import Path

import pytest

from dmdn import cli, formats
from dmdn.cli import build_parser, main
from dmdn.image import ColorImage
from dmdn.mosaic import read_cfa
from dmdn.noise import RngStream

from conftest import make_natural


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
    assert read_cfa(cfa).phase == "RGGB"

    noisy = tmp_path / "vn.pfm"
    assert run("noise", "--input", cfa, "--sigma", 10, "--seed", 3, "--out", noisy) == 0
    assert read_cfa(noisy).phase == "RGGB"

    dem = tmp_path / "u.ppm"
    assert run("demosaic", "--input", noisy, "--method", "ha", "--out", dem) == 0
    assert isinstance(formats.read_image(dem), ColorImage)

    den = tmp_path / "d.ppm"
    assert run("denoise", "--input", dem, "--method", "dct8", "--sigma", 10, "--out", den) == 0
    assert den.exists()

    den_cfa = tmp_path / "dc.pfm"
    assert run("denoise", "--input", noisy, "--method", "dct8", "--sigma", 10, "--cfa", "--out", den_cfa) == 0
    assert read_cfa(den_cfa).phase == "RGGB"


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


def test_rerun_absolutizes_only_path_flags():
    from dmdn.cli import _absolute_argv

    argv = [
        "pipeline", "run", "--input", "v.pfm", "--truth=t.ppm", "--out", "/abs/r.ppm",
        "--sigma1", "5", "--dn1", "dct8", "--tr", "u.ppm",
    ]
    assert _absolute_argv(argv, "/rec") == [
        "pipeline", "run", "--input", "/rec/v.pfm", "--truth=/rec/t.ppm", "--out", "/abs/r.ppm",
        "--sigma1", "5", "--dn1", "dct8", "--tr", "/rec/u.ppm",
    ]


def test_eval_jobs_parallel_matches_serial(tmp_path, dataset_dir):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = ("eval", "--dataset", dataset_dir, "--sigmas", "10", "--seed", 4)
    assert run(*base, "--jobs", 1, "--out", serial) == 0
    assert run(*base, "--jobs", 4, "--out", parallel) == 0
    a = json.loads((serial / "eval.manifest.json").read_text())["aggregate_metrics"]
    b = json.loads((parallel / "eval.manifest.json").read_text())["aggregate_metrics"]
    assert a == b


def test_sweep_k_csv(tmp_path, dataset_dir):
    out = tmp_path / "sweep.csv"
    assert (
        run(
            "pipeline", "sweep-k", "--dataset", dataset_dir, "--sigma", 20,
            "--k-list", "0.0,1.0,1.5", "--seed", 2, "--out", out,
        )
        == 0
    )
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "mean_cpsnr"]
    assert [r[0] for r in rows[1:]] == ["0.0", "1.0", "1.5"]


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


def test_tune_outputs(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    for i in range(2):
        formats.write_image(d / f"img{i}.ppm", make_natural(60 + i, size=32))
    out_dir = tmp_path / "tuned"
    assert (
        run("tune", "--dataset", d, "--sigma", 10, "--max-evals", 64,
            "--seed", 3, "--out", out_dir)
        == 0
    )
    result = json.loads((out_dir / "tune_result.json").read_text())
    assert set(result["best_params"]) == {"alpha", "beta", "sigma1", "sigma2"}
    assert result["termination"] in ("max_evals", "stagnation")
    with (out_dir / "trace.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["generation", "best_cpsnr", "mean_cpsnr"]
    assert len(rows) == 1 + result["generations"]
    bests = [float(r[1]) for r in rows[1:]]
    assert all(x <= y for x, y in zip(bests, bests[1:]))


def test_exit_codes(tmp_path, capsys):
    # missing file -> I/O error
    assert run("demosaic", "--input", tmp_path / "nope.pfm", "--out", tmp_path / "x.ppm") == 3
    # malformed image -> I/O error
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P6\n4 4\n255\nxx")
    assert run("demosaic", "--input", bad, "--out", tmp_path / "x.ppm") == 3
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
        ("noise", "--input", img, "--poisson", "--sigma", 20, "--out", tmp_path / "p.ppm"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2


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


def test_eval_checks_every_preset_before_running_a_pipeline(tmp_path, dataset_dir, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_pipeline", lambda *a, **k: pytest.fail("a pipeline ran"))
    # dm15dn at sigma 200 asks for sigma2 = 300
    assert run("eval", "--dataset", dataset_dir, "--sigmas", "5,200", "--out", tmp_path / "e") == 4
    assert "sigma2 must be in [0, 255], got 300.0" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


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
