from __future__ import annotations

import json
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

import snnkit.cli
import snnkit.denoise
from snnkit.cli import build_parser, main
from snnkit.core import make_instance
from snnkit.generators import cartoon_fixture
from snnkit.io import load_json, save_instance
from snnkit.metric import EuclideanSpace, LatticeBox
from snnkit.ppm import save_ppm


@pytest.fixture()
def inst_path(tmp_path):
    inst = make_instance(EuclideanSpace(1), np.array([[0.0], [5.0], [10.0]]),
                         np.array([[1.0], [9.0]]), edges=[(0, 1)])
    p = tmp_path / "inst.json"
    save_instance(p, inst)
    return p


def test_oracle_subcommand(inst_path, tmp_path, capsys):
    out = tmp_path / "opt.json"
    assert main(["oracle", str(inst_path), "-o", str(out)]) == 0
    doc = load_json(out)
    assert doc["total"] == pytest.approx(8.0)
    assert doc["label_ids"] == [1, 1]
    assert "total" in capsys.readouterr().out


def test_solve_subcommand_exact(inst_path, tmp_path):
    out = tmp_path / "a.json"
    assert main(["solve", str(inst_path), "--stage2", "exact",
                 "-o", str(out)]) == 0
    doc = load_json(out)
    # pruning drops the middle label, so the restricted optimum is 10
    assert doc["total"] == pytest.approx(10.0)


def test_gap_subcommand(inst_path, tmp_path, capsys):
    out = tmp_path / "gap.json"
    assert main(["gap", str(inst_path), "-o", str(out)]) == 0
    doc = load_json(out)
    assert doc["schema"] == "pruning-report/1"
    assert doc["alpha"] == pytest.approx(1.25)
    assert "alpha" in capsys.readouterr().out


def test_rplus_subcommand(inst_path, tmp_path):
    out = tmp_path / "r.json"
    assert main(["rplus", str(inst_path), "-o", str(out)]) == 0
    doc = load_json(out)
    assert doc["total"] >= 8.0 - 1e-9


def test_lowerbound_subcommand(tmp_path, capsys):
    out = tmp_path / "lb.json"
    assert main(["lowerbound", "--k", "4", "--mult", "2",
                 "-o", str(out)]) == 0
    doc = load_json(out)
    assert doc["schema"] == "snn-instance/1"
    txt = capsys.readouterr().out
    assert "alpha" in txt
    # the emitted instance can be fed straight back in
    assert main(["gap", str(out)]) == 0


def test_lowerbound_k8_computes_the_exact_alpha(tmp_path, capsys):
    # 16^8 labelings exceed the enumeration guard; branch and bound closes
    out = tmp_path / "hard.json"
    assert main(["lowerbound", "--k", "8", "-o", str(out)]) == 0
    assert "exact alpha: 1.444444 (opt 27.0 -> pruned 39.0)" in capsys.readouterr().out
    assert load_json(out)["schema"] == "snn-instance/1"


def test_node_budget_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(snnkit.cli, "_NODE_BUDGET", 1)
    assert main(["lowerbound", "--k", "4"]) == 3
    assert "budget of 1 nodes" in capsys.readouterr().err


def _readme_cli_lines() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    return [ln.split("#", 1)[0] for ln in block.splitlines() if ln.startswith("snn ")]


def test_readme_cli_examples_parse():
    lines = _readme_cli_lines()
    assert len(lines) >= 5
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # a working directory with the README's inputs, so outputs land there
    shutil.copytree(Path(__file__).resolve().parent / "fixtures", tmp_path / "tests" / "fixtures")
    save_ppm(tmp_path / "photo.ppm", cartoon_fixture())
    monkeypatch.chdir(tmp_path)
    for line in _readme_cli_lines():
        assert main(shlex.split(line)[1:]) == 0, line
    assert {"out.json", "hard.json", "run-denoised.ppm", "run-patched.ppm"} <= \
        {p.name for p in tmp_path.iterdir()}


def test_denoise_single_run(tmp_path, capsys):
    img = tmp_path / "img.ppm"
    save_ppm(img, cartoon_fixture(10, 10))
    assert main(["denoise", str(img), "--space", "image",
                 "--density", "0.05",
                 "--out-prefix", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out-denoised.ppm").exists()
    assert "total" in capsys.readouterr().out


def test_denoise_fixture_experiment(tmp_path, capsys):
    assert main(["denoise", "fixture", "--space", "both",
                 "--out-prefix", str(tmp_path / "exp")]) == 0
    doc = load_json(tmp_path / "exp-report.json")
    assert doc["schema"] == "denoise-report/2"
    assert doc["empirical_gap"] > 0
    out = capsys.readouterr().out
    assert "gap (est.)" in out
    assert f"certified: image ÷ LB ≤ {doc['certified_factor']:.4f}" in out


def test_denoise_experiment_solves_each_label_space_once(tmp_path, monkeypatch):
    calls = {"denoise_pixels": 0, "relax": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    pixels = counted("denoise_pixels", snnkit.denoise.denoise_pixels)
    monkeypatch.setattr(snnkit.denoise, "denoise_pixels", pixels)
    monkeypatch.setattr(snnkit.cli, "denoise_pixels", pixels)
    monkeypatch.setattr(snnkit.denoise, "relax", counted("relax", snnkit.denoise.relax))
    img = tmp_path / "img.ppm"
    save_ppm(img, cartoon_fixture(16, 16))
    assert main(["denoise", str(img), "--space", "both",
                 "--out-prefix", str(tmp_path / "exp")]) == 0
    assert calls == {"denoise_pixels": 2, "relax": 1}
    for part in ("noisy", "full", "image"):
        assert (tmp_path / f"exp-{part}.ppm").exists()
    assert load_json(tmp_path / "exp-report.json")["schema"] == "denoise-report/2"


def test_denoise_patches_subcommand(tmp_path, capsys):
    img = tmp_path / "img.ppm"
    save_ppm(img, np.random.default_rng(0).integers(
        0, 256, (12, 16, 3), dtype=np.uint8))
    assert main(["denoise-patches", str(img),
                 "--out-prefix", str(tmp_path / "p")]) == 0
    assert (tmp_path / "p-patched.ppm").exists()
    assert (tmp_path / "p-noisy.ppm").exists()
    assert load_json(tmp_path / "p-report.json")["schema"] == "patch-report/2"


def test_missing_file_exits_2(tmp_path):
    assert main(["oracle", str(tmp_path / "nope.json")]) == 2


def test_bad_json_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["oracle", str(p)]) == 2


def test_wrong_schema_exits_2(tmp_path):
    p = tmp_path / "schema.json"
    p.write_text(json.dumps({"schema": "other/1"}))
    assert main(["solve", str(p)]) == 2


def test_non_finite_query_exits_2(inst_path, tmp_path):
    doc = load_json(inst_path)
    doc["queries"][0][0] = float("nan")
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(doc))
    assert main(["oracle", str(p)]) == 2


def test_fractional_edge_endpoint_exits_2(inst_path, tmp_path, capsys):
    doc = load_json(inst_path)
    doc["edges"][0][1] += 0.5
    p = tmp_path / "frac.json"
    p.write_text(json.dumps(doc))
    assert main(["solve", str(p)]) == 2
    assert "edge endpoint must be an integer" in capsys.readouterr().err


def test_boolean_coordinates_and_weights_exit_2(tmp_path, capsys):
    doc = {"schema": "snn-instance/1", "space": {"kind": "euclidean", "dim": 1},
           "labels": [[0.0], [True]], "queries": [[False], [2.0]], "edges": [[0, 1]],
           "kappa": [True, 1], "lambda": [True]}
    p = tmp_path / "bool.json"
    p.write_text(json.dumps(doc))
    assert main(["solve", str(p)]) == 2
    assert "must be numbers" in capsys.readouterr().err


def test_denoise_full_prints_the_lower_bound(capsys):
    assert main(["denoise", "fixture", "--space", "full", "--noise", "none"]) == 0
    assert "certified lower bound on the cube optimum" in capsys.readouterr().out


def test_guard_exit_3(tmp_path):
    # enumerating a full 256^3 lattice per query overflows the guard
    inst = make_instance(EuclideanSpace(3), LatticeBox(0, 255, 3),
                         np.array([[0.0, 0.0, 0.0], [9.0, 9.0, 9.0],
                                   [4.0, 4.0, 4.0]]),
                         edges=[(0, 1), (1, 2)])
    p = tmp_path / "big.json"
    save_instance(p, inst)
    assert main(["oracle", str(p)]) == 3


def test_corrupt_ppm_exits_2(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P6\n2 2\n255\nxx")
    assert main(["denoise", str(p)]) == 2
