import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import satsynth
from satsynth.cli import main
from satsynth.generator import HistogramSpec, TailSpec
from satsynth.schema import CategoricalSchema
from satsynth.table import SparseContingencyTable, read_table, write_table


@pytest.fixture
def workdir(tmp_path):
    schema = CategoricalSchema([("A", ["a1", "a2", "a3"]), ("B", ["b1", "b2"])])
    (tmp_path / "schema.json").write_text(schema.to_json())
    micro = "A,B\n" + "\n".join(
        ["a1,b1"] * 5 + ["a1,b2"] * 3 + ["a2,b1"] * 2 + ["a3,b2"]
    ) + "\n"
    (tmp_path / "micro.csv").write_text(micro)
    return tmp_path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def test_aggregate_roundtrip(workdir, capsys):
    out = workdir / "table.csv"
    code = run("aggregate", "--microdata", workdir / "micro.csv",
               "--schema", workdir / "schema.json", "--out", out)
    assert code == 0
    table = read_table(str(out))
    assert table.n == 11
    assert table[(0, 0)] == 5


def test_aggregate_unknown_category_names_row(workdir, capsys):
    bad = workdir / "bad.csv"
    bad.write_text("A,B\na1,b1\na9,b1\n")
    code = run("aggregate", "--microdata", bad,
               "--schema", workdir / "schema.json", "--out", workdir / "x.csv")
    assert code == 1
    err = capsys.readouterr().err
    assert "record 2" in err and "a9" in err


def test_aggregate_missing_schema_file(workdir, capsys):
    assert run("aggregate", "--microdata", workdir / "micro.csv",
               "--schema", workdir / "nope.json", "--out", workdir / "x.csv") == 1
    assert capsys.readouterr().err == f"error: {workdir / 'nope.json'}: {os.strerror(errno.ENOENT)}\n"


def test_aggregate_missing_microdata_file(workdir, capsys):
    assert run("aggregate", "--microdata", workdir / "nope.csv",
               "--schema", workdir / "schema.json", "--out", workdir / "x.csv") == 1
    assert capsys.readouterr().err == f"error: {workdir / 'nope.csv'}: {os.strerror(errno.ENOENT)}\n"


def test_generate_escsub_missing_spec_file(tmp_path, capsys):
    assert run("generate-escsub", "--spec", tmp_path / "nope.json", "--seed", 1,
               "--out", tmp_path / "t.csv") == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'nope.json'}: {os.strerror(errno.ENOENT)}\n"


def test_cli_import_leaves_scipy_stats_unloaded():
    src = Path(satsynth.__file__).resolve().parents[1]
    code = "import sys, satsynth.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120)
    assert proc.stdout.strip() == "False"


def _fresh_python(code: str) -> str:
    src = Path(satsynth.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120)
    return proc.stdout.strip()


def test_generating_a_table_and_its_tau2_leaves_scipy_special_unloaded():
    code = ("import sys, satsynth.cli\n"
            "from satsynth.generator import esc_like_spec, generate_table, scaled_spec\n"
            "from satsynth.taumetrics import tau2_of_table\n"
            "tau2_of_table(generate_table(scaled_spec(esc_like_spec(), 5000), 1))\n"
            "print('scipy.special' in sys.modules)")
    assert _fresh_python(code) == "False"


def test_first_special_function_call_from_two_threads_draws_as_one_thread():
    code = ("import sys\n"
            "from satsynth.generator import esc_like_spec, generate_table, scaled_spec\n"
            "from satsynth.models import CountModelSpec\n"
            "from satsynth.synthesis import SynthesisJob, synthesize\n"
            "table = generate_table(scaled_spec(esc_like_spec(), 20000), 1)\n"
            "job = SynthesisJob(CountModelSpec('nbi', 1.0, 0.05), 7)\n"
            "loaded = 'scipy.special' in sys.modules\n"
            "two = synthesize(table, job, threads=2, chunk_cells=1024)[0].table\n"
            "one = synthesize(table, job, threads=1)[0].table\n"
            "print(loaded, two.same_contents(one), one.num_nonzero > 0)")
    assert _fresh_python(code) == "False True True"


def test_table_that_is_not_utf8_prints_an_error(tmp_path, capsys):
    schema = CategoricalSchema([("A", ["a1", "a2"])])
    path = tmp_path / "t.csv"
    write_table(SparseContingencyTable(schema, [0, 1], [3, 4]), path)
    path.write_bytes(path.read_bytes().replace(b"a2,", b"a\xff2,"))
    assert run("tune", "--table", path, "--family", "nbi", "--sigma", 1, "--target", "match-zeros") == 1
    assert "error: line 6: not valid UTF-8" in capsys.readouterr().err


def test_generate_spec_and_synthesize_determinism(tmp_path, capsys):
    spec = HistogramSpec({1: 60, 2: 25, 3: 10}, TailSpec(4, 5, 30), num_cells=400)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert run("generate-escsub", "--spec", spec_path, "--seed", 9, "--out", t1) == 0
    assert run("generate-escsub", "--spec", spec_path, "--seed", 9, "--out", t2) == 0
    assert t1.read_bytes() == t2.read_bytes()

    out1, out2 = tmp_path / "syn1", tmp_path / "syn2"
    for threads, out in ((1, out1), (3, out2)):
        assert run("synthesize", "--table", t1, "--family", "nbi", "--sigma", 1.0,
                   "--alpha", 0.05, "--m", 2, "--seed", 11,
                   "--threads", threads, "--chunk-cells", 64, "--out-dir", out) == 0
    for r in (0, 1):
        name = "t1.synth.nbi.r%d.csv" % r
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    sidecar = json.loads((out1 / "t1.synth.nbi.r0.csv.provenance.json").read_text())
    assert sidecar == {"family": "nbi", "sigma": 1.0, "alpha": 0.05,
                       "m": 2, "master_seed": 11, "replicate": 0}
    wall = capsys.readouterr().out
    assert "wall time" in wall


def test_tune_match_zeros_json(tmp_path, capsys):
    schema = CategoricalSchema([("cell", [f"c{i}" for i in range(100)])])
    table = SparseContingencyTable.from_dict(schema, {(i,): 1 for i in range(50)})
    path = tmp_path / "t.csv"
    write_table(table, str(path))
    assert run("tune", "--table", path, "--family", "poisson", "--target", "match-zeros") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["alpha_star"] == pytest.approx(0.458675, abs=1e-6)
    assert abs(data["residual"]) < 1e-12
    assert data["target"] == "match-zeros" and data["family"] == "poisson"
    assert run("tune", "--table", path, "--family", "nbi", "--sigma", 1, "--target", "tau4", "--p", 0.9) == 0
    assert json.loads(capsys.readouterr().out)["p"] == 0.9


def test_tune_p_out_of_range(tmp_path, capsys):
    schema = CategoricalSchema([("cell", ["c0", "c1"])])
    table = SparseContingencyTable.from_dict(schema, {(0,): 1})
    path = tmp_path / "t.csv"
    write_table(table, str(path))
    code = run("tune", "--table", path, "--family", "poisson", "--target", "tau4", "--p", 1.5)
    assert code == 1
    assert "p must lie in" in capsys.readouterr().err
    assert run("tune", "--table", path, "--family", "poisson", "--target", "tau4") == 1
    assert capsys.readouterr().err == "error: p must lie in (0, 1]\n"


def test_tune_infeasible_p_reports_maximum(tmp_path, capsys):
    schema = CategoricalSchema([("cell", [f"c{i}" for i in range(40)])])
    counts = {(i,): 1 for i in range(10)}
    counts.update({(i + 10,): 2 for i in range(10)})
    table = SparseContingencyTable.from_dict(schema, counts)
    path = tmp_path / "t.csv"
    write_table(table, str(path))
    code = run("tune", "--table", path, "--family", "poisson", "--target", "tau4", "--p", 0.999)
    assert code == 1
    assert "achievable maximum" in capsys.readouterr().err


def test_metrics_uses_sidecar_and_writes_aligned_reports(tmp_path):
    spec = HistogramSpec({1: 100, 2: 40}, None, num_cells=1000)
    table_path = tmp_path / "orig.csv"
    (tmp_path / "spec.json").write_text(spec.to_json())
    run("generate-escsub", "--spec", tmp_path / "spec.json", "--seed", 3, "--out", table_path)
    run("synthesize", "--table", table_path, "--family", "pig", "--sigma", 0.5,
        "--alpha", 0.01, "--m", 3, "--seed", 21, "--out-dir", tmp_path / "syn")
    syn = sorted((tmp_path / "syn").glob("*.csv"))
    assert len(syn) == 3
    code = run("metrics", "--table", table_path, "--synthetic", *syn,
               "--k-max", 2, "--out-prefix", tmp_path / "tau")
    assert code == 0
    analytic = (tmp_path / "tau.analytic.csv").read_text().splitlines()
    empirical = (tmp_path / "tau.empirical.csv").read_text().splitlines()
    # aligned layouts: same header row and same k column
    a_head = [l for l in analytic if not l.startswith("#")][0]
    e_head = [l for l in empirical if not l.startswith("#")][0]
    assert a_head == e_head == "k,tau1,tau2,tau3,tau4"
    a = json.loads((tmp_path / "tau.analytic.json").read_text())
    assert a["family"] == "pig" and a["sigma"] == 0.5 and a["alpha"] == 0.01


def test_evaluate_table_layout(tmp_path):
    spec = HistogramSpec({1: 50, 2: 20}, None, num_cells=500)
    (tmp_path / "spec.json").write_text(spec.to_json())
    orig = tmp_path / "orig.csv"
    run("generate-escsub", "--spec", tmp_path / "spec.json", "--seed", 5, "--out", orig)
    run("synthesize", "--table", orig, "--family", "poisson", "--alpha", 0.0,
        "--m", 1, "--seed", 2, "--out-dir", tmp_path / "syn")
    syn = sorted((tmp_path / "syn").glob("*.csv"))
    out = tmp_path / "within.csv"
    code = run("evaluate", "--table", orig, "--synthetic", *syn,
               "--p-list", "0.5,1,5,10,50", "--out", out)
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "block,p,proportion"
    assert len(lines) == 1 + 10  # two blocks x five p values
    # proportions are monotone in p within each block
    vals = [float(l.split(",")[2]) for l in lines[1:6]]
    assert vals == sorted(vals)


def test_frontier_original_against_itself(tmp_path):
    schema = CategoricalSchema([("A", ["a1", "a2", "a3"]), ("B", ["b1", "b2", "b3"])])
    rng = np.random.default_rng(8)
    counts = {(i, j): int(rng.integers(1, 40)) for i in range(3) for j in range(3)}
    counts[(0, 0)] = 1  # keep a unique so tau4(1) is defined
    table = SparseContingencyTable.from_dict(schema, counts)
    path = tmp_path / "orig.csv"
    write_table(table, str(path))
    out = tmp_path / "frontier.csv"
    code = run("frontier", "--table", path, "--synthetic", path, "--out", out)
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["utility"]) == 1.0
    assert float(row["privacy"]) == 0.0
    assert float(row["trimmed_pct_diff"]) == 0.0
    sidecar = json.loads((tmp_path / "frontier.csv.json").read_text())
    assert sidecar["rows"][0]["privacy"] == 0.0


def test_frontier_level_outside_unit_interval_is_a_typed_error(tmp_path, capsys):
    schema = CategoricalSchema([("A", ["a1", "a2"]), ("B", ["b1", "b2"])])
    table = SparseContingencyTable.from_dict(schema, {(0, 0): 1, (0, 1): 5, (1, 0): 7, (1, 1): 3})
    path = tmp_path / "orig.csv"
    write_table(table, str(path))
    for level in ("1", "0", "1.5"):
        assert run("frontier", "--table", path, "--synthetic", path, "--level", level,
                   "--out", tmp_path / "f.csv") == 1
        assert "error: level must lie in (0, 1)" in capsys.readouterr().err


def test_config_file_defaults_and_flag_priority(tmp_path, capsys):
    schema = CategoricalSchema([("cell", [f"c{i}" for i in range(100)])])
    table = SparseContingencyTable.from_dict(schema, {(i,): 1 for i in range(50)})
    path = tmp_path / "t.csv"
    write_table(table, str(path))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# defaults\ntable={path}\nfamily=poisson\ntarget=match-zeros\nsigma=0\n")
    assert run("tune", "--config", cfg) == 0
    base = json.loads(capsys.readouterr().out)
    assert base["family"] == "poisson"
    # flag overrides the config value
    assert run("tune", "--config", cfg, "--family", "nbi", "--sigma", "1.0") == 0
    over = json.loads(capsys.readouterr().out)
    assert over["family"] == "nbi" and over["sigma"] == 1.0
    # a config value skips argparse's choices: the family is printed as it is coerced
    cfg.write_text(f"table={path}\nfamily=NBI\ntarget=match-zeros\nsigma=1\n")
    assert run("tune", "--config", cfg) == 0
    assert json.loads(capsys.readouterr().out)["family"] == "nbi"


def test_config_flag_without_path_is_a_typed_error(capsys):
    assert run("tune", "--config") == 1
    assert "error: --config needs a file path" in capsys.readouterr().err


def test_missing_config_and_table_files_are_typed_errors(tmp_path, capsys):
    assert run("tune", "--config", tmp_path / "nope.cfg") == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'nope.cfg'}: {os.strerror(errno.ENOENT)}\n"
    assert run("tune", "--table", tmp_path / "nope.csv", "--family", "poisson",
               "--target", "match-zeros") == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'nope.csv'}: {os.strerror(errno.ENOENT)}\n"
    assert run("metrics", "--table", tmp_path / "nope.csv", "--synthetic", tmp_path / "x.csv",
               "--out-prefix", tmp_path / "tau") == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'nope.csv'}: {os.strerror(errno.ENOENT)}\n"


@pytest.mark.parametrize(
    "sidecar",
    ["{not json", json.dumps({"family": "nbi", "sigma": 1.0, "alpha": 0.0, "m": 1, "master_seed": 3})],
    ids=["not-json", "field-missing"],
)
def test_malformed_provenance_sidecar_is_a_typed_error(tmp_path, capsys, sidecar):
    schema = CategoricalSchema([("A", ["a1", "a2"]), ("B", ["b1", "b2"])])
    table = SparseContingencyTable.from_dict(schema, {(0, 0): 1, (0, 1): 5, (1, 0): 7, (1, 1): 3})
    orig, syn = tmp_path / "orig.csv", tmp_path / "syn.csv"
    write_table(table, str(orig))
    write_table(table, str(syn))
    (tmp_path / "syn.csv.provenance.json").write_text(sidecar)
    for argv in (("metrics", "--out-prefix", tmp_path / "tau"),
                 ("evaluate", "--out", tmp_path / "within.csv"),
                 ("frontier", "--out", tmp_path / "frontier.csv")):
        assert run(*argv, "--table", orig, "--synthetic", syn) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "syn.csv.provenance.json" in err, err
        assert "malformed provenance sidecar" in err


def _small_table(tmp_path) -> Path:
    schema = CategoricalSchema([("A", ["a1", "a2"]), ("B", ["b1", "b2"])])
    path = tmp_path / "orig.csv"
    write_table(SparseContingencyTable.from_dict(schema, {(0, 0): 1, (0, 1): 5, (1, 0): 7}), path)
    return path


def test_evaluate_p_list_that_is_not_numbers_is_a_typed_error(tmp_path, capsys):
    path = _small_table(tmp_path)
    assert run("evaluate", "--table", path, "--synthetic", path, "--p-list", "a",
               "--out", tmp_path / "within.csv") == 1
    assert "error: --p-list must be comma-separated numbers, got 'a'" in capsys.readouterr().err


def test_evaluate_empty_p_list_is_a_typed_error(tmp_path, capsys):
    # wrote a report with a header and no rows, and exited 0
    path = _small_table(tmp_path)
    assert run("evaluate", "--table", path, "--synthetic", path, "--p-list", ",",
               "--out", tmp_path / "within.csv") == 1
    assert capsys.readouterr().err == "error: --p-list must hold at least one number, got ','\n"
    assert not (tmp_path / "within.csv").exists()


def test_config_value_that_does_not_parse_is_a_typed_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=abc\n")
    assert run("generate-escsub", "--config", cfg, "--out", tmp_path / "t.csv") == 1
    assert "error: config seed='abc' is not a valid int" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_generate_escsub_seed_outside_64_bits_is_a_typed_error(tmp_path, capsys, seed):
    spec = tmp_path / "spec.json"
    spec.write_text(HistogramSpec({1: 2}, None, num_cells=5).to_json())
    assert run("generate-escsub", "--spec", spec, "--seed", seed, "--out", tmp_path / "t.csv") == 1
    assert f"error: seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize("extra,message", [
    ('"num_cells": "5"', "num_cells must be an integer"),
    ('"num_cells": 5.0', "num_cells must be an integer"),
    ('"num_cells": true', "num_cells must be an integer"),
    ('"num_cells": 5, "tail": 5', "malformed histogram spec"),
    ('"num_cells": 5, "tail": {"start": 3}', "malformed histogram spec"),
    ('"schema": {"vars": []}', "malformed histogram spec"),
])
def test_malformed_spec_is_a_typed_error(tmp_path, capsys, extra, message):
    spec = tmp_path / "spec.json"
    spec.write_text('{"cells_per_size": {"1": 2}, %s}' % extra)
    assert run("generate-escsub", "--spec", spec, "--seed", 1, "--out", tmp_path / "t.csv") == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_generate_escsub_zero_cells_is_refused(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(HistogramSpec({1: 2}, None, num_cells=5).to_json())
    out = tmp_path / "t.csv"
    assert run("generate-escsub", "--spec", spec, "--cells", 0, "--seed", 1, "--out", out) == 1
    assert "error: num_cells must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["microdata", "schema", "spec", "config"])
def test_input_file_that_is_not_utf8_is_a_typed_error(workdir, capsys, bad):
    files = {"microdata": workdir / "micro.csv", "schema": workdir / "schema.json",
             "spec": workdir / "spec.json", "config": workdir / "run.cfg"}
    files["spec"].write_text(HistogramSpec({1: 2}, None, num_cells=5).to_json())
    files["config"].write_text("# defaults\n")
    files[bad].write_bytes(files[bad].read_bytes() + b"\xff\n")
    if bad in ("spec", "config"):
        argv = ["generate-escsub", "--spec", files["spec"], "--seed", 1]
    else:
        argv = ["aggregate", "--microdata", files["microdata"], "--schema", files["schema"]]
    argv += ["--out", workdir / "out.csv"] + (["--config", files["config"]] if bad == "config" else [])
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not valid UTF-8" in err, err


def test_frontier_cap_that_is_not_finite_is_a_typed_error(tmp_path, capsys):
    path = _small_table(tmp_path)
    for cap in ("nan", "inf"):
        assert run("frontier", "--table", path, "--synthetic", path, "--cap", cap,
                   "--out", tmp_path / "f.csv") == 1
        assert f"error: cap must be positive and finite, got {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,path,code", [
    ("tune --table {dir} --family poisson --target match-zeros", "{dir}", errno.EISDIR),
    ("tune --config {dir}", "{dir}", errno.EISDIR),
    ("metrics --table {orig} --synthetic {dir} --out-prefix {tmp}/tau", "{dir}", errno.EISDIR),
    ("metrics --table {orig} --synthetic {syn} --out-prefix {tmp}/tau", "{syn}.provenance.json", errno.EISDIR),
    ("aggregate --microdata {dir} --schema {dir} --out {tmp}/x.csv", "{dir}", errno.EISDIR),
    ("generate-escsub --cells 10 --seed 1 --out {dir}", "{dir}", errno.EISDIR),
    ("generate-escsub --cells 10 --seed 1 --out {tmp}/nope/t.csv", "{tmp}/nope/t.csv", errno.ENOENT),
    ("evaluate --table {orig} --synthetic {orig} --out {tmp}/nope/w.csv", "{tmp}/nope/w.csv", errno.ENOENT),
    ("metrics --table {orig} --synthetic {orig} --family poisson --out-prefix {tmp}/nope/tau",
     "{tmp}/nope/tau.analytic.csv", errno.ENOENT),
    ("frontier --table {orig} --synthetic {orig} --out {tmp}/nope/f.csv", "{tmp}/nope/f.csv", errno.ENOENT),
    ("synthesize --table {orig} --family poisson --seed 1 --out-dir {orig}", "{orig}", errno.EEXIST),
], ids=["tune-table-dir", "tune-config-dir", "metrics-synthetic-dir", "metrics-sidecar-dir",
        "aggregate-dir", "generate-out-dir", "generate-out-parent", "evaluate-out-parent",
        "metrics-out-parent", "frontier-out-parent", "synthesize-out-dir-file"])
def test_file_error_is_one_error_line(tmp_path, capsys, argv, path, code):
    names = {"tmp": tmp_path, "orig": _small_table(tmp_path), "syn": tmp_path / "syn.csv",
             "dir": tmp_path / "dir"}
    names["dir"].mkdir()
    names["syn"].write_bytes(names["orig"].read_bytes())
    (tmp_path / "syn.csv.provenance.json").mkdir()
    assert run(*(token.format(**names) for token in argv.split())) == 1
    assert capsys.readouterr().err == f"error: {path.format(**names)}: {os.strerror(code)}\n"


def test_synthesize_nbi_where_one_over_sigma_overflows_writes_counts(tmp_path):
    # exited 0 with an empty replicate: every NBI count was 0 at sigma = 1e-310
    src = Path(satsynth.__file__).resolve().parents[1]
    argv = ["synthesize", "--table", _small_table(tmp_path), "--family", "nbi", "--sigma", "1e-310",
            "--seed", 1, "--out-dir", tmp_path / "syn"]
    subprocess.run([sys.executable, "-m", "satsynth.cli", *map(str, argv)], capture_output=True,
                   env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120)
    assert read_table(tmp_path / "syn" / "orig.synth.nbi.r0.csv").n > 0


@pytest.mark.parametrize("sigma,target", [("1e-300", ["match-zeros"]), ("1e300", ["tau4", "--p", "0.3"])])
def test_tune_at_extreme_pig_dispersion_is_a_typed_error(tmp_path, capsys, sigma, target):
    path = _small_table(tmp_path)
    assert run("tune", "--table", path, "--family", "pig", "--sigma", sigma, "--target", *target) == 1
    err = capsys.readouterr().err
    assert err == f"error: sigma must be > 0 and keep the PIG auxiliary c in float64, got {float(sigma):g}\n"


def test_metrics_at_huge_pig_dispersion_writes_finite_values(tmp_path):
    path = _small_table(tmp_path)
    assert run("metrics", "--table", path, "--synthetic", path, "--family", "pig", "--sigma", "1e300",
               "--alpha", 1, "--out-prefix", tmp_path / "tau") == 0
    values = json.loads((tmp_path / "tau.analytic.json").read_text())["values"]
    assert all(math.isfinite(v) for row in values for v in row.values() if v is not None)
    # p(1 | mean 1) = exp(1/sigma - c) / (c * sigma) with c = sqrt(2 / sigma)
    assert values[1]["tau3"] == pytest.approx(1.0 / math.sqrt(2e300), rel=1e-12)


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_metrics_with_a_huge_k_max_is_one_error_line(tmp_path):
    # was killed for memory with no error line; the 1 GiB address space makes
    # a regression fail fast with a MemoryError instead of filling the machine
    src = Path(satsynth.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    cli = [sys.executable, "-m", "satsynth.cli"]
    table = tmp_path / "t.csv"
    subprocess.run([*cli, "generate-escsub", "--seed", "1", "--cells", "2000", "--out", str(table)],
                   env=env, check=True, capture_output=True, timeout=120)
    subprocess.run([*cli, "synthesize", "--table", str(table), "--family", "nbi", "--sigma", "1",
                    "--alpha", "0.01", "--seed", "1", "--out-dir", str(tmp_path / "syn")],
                   env=env, check=True, capture_output=True, timeout=120)
    proc = subprocess.run([*cli, "metrics", "--table", str(table), "--synthetic",
                           str(tmp_path / "syn" / "t.synth.nbi.r0.csv"), "--k-max", "100000000",
                           "--out-prefix", str(tmp_path / "tau")],
                          env=env, capture_output=True, text=True, timeout=120,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: k_report must be >= 0 and at most the limit 1048576, got 100000000\n"
