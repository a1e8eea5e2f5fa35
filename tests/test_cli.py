import errno
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import satsynth
from satsynth import synthesis
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


_SCIPY_FREE_RUN = """\
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # any scipy import now raises ImportError
else:
    import scipy.linalg, scipy.special
from satsynth.cli import main
out = []
for argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out.append([main(argv), buf.getvalue()])
print(json.dumps(out))
"""


def test_tune_metrics_evaluate_and_frontier_run_without_scipy(tmp_path):
    """Each command gives the same exit code, output and files with scipy
    unimportable as with it loaded; only synthesize's samplers need it."""
    table = tmp_path / "t.csv"
    assert run("generate-escsub", "--seed", 1, "--cells", 1000, "--out", table) == 0
    assert run("synthesize", "--table", table, "--family", "nbi", "--sigma", 1, "--alpha", 0.05,
               "--m", 2, "--seed", 3, "--out-dir", tmp_path / "syn") == 0
    synthetic = ["--synthetic", *(str(tmp_path / "syn" / f"t.synth.nbi.r{r}.csv") for r in (0, 1))]
    commands = [["tune", "--table", str(table), "--family", family, "--sigma", "0.5", *target]
                for family in ("poisson", "nbi", "pig")
                for target in (["--target", "match-zeros"], ["--target", "tau4", "--p", "0.3"])]
    commands += [["metrics", "--table", str(table), *synthetic, "--out-prefix", "tau"],
                 ["evaluate", "--table", str(table), *synthetic, "--out", "within.csv"],
                 ["frontier", "--table", str(table), *synthetic, "--out", "frontier.csv"]]
    src = Path(satsynth.__file__).resolve().parents[1]
    runs = {}
    for mode in ("blocked", "loaded"):
        (tmp_path / mode).mkdir()
        proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN, mode, json.dumps(commands)],
                              cwd=tmp_path / mode, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120)
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / mode).iterdir())}
        runs[mode] = json.loads(proc.stdout), files
    assert [code for code, _ in runs["blocked"][0]] == [0] * len(commands)
    assert len(runs["blocked"][1]) == 8  # two metrics reports in CSV and JSON; evaluate's and frontier's, each with a sidecar
    assert runs["blocked"] == runs["loaded"]


def test_first_special_function_call_from_two_threads_draws_as_one_thread():
    code = ("import sys\n"
            "from satsynth.generator import esc_like_spec, generate_table, scaled_spec\n"
            "from satsynth.models import CountModelSpec\n"
            "from satsynth import synthesis\n"
            "from satsynth.synthesis import SynthesisJob, synthesize\n"
            "table = generate_table(scaled_spec(esc_like_spec(), 20000), 1)\n"
            "job = SynthesisJob(CountModelSpec('nbi', 1.0, 0.05), 7)\n"
            "loaded = 'scipy.special' in sys.modules\n"
            "default, synthesis.PIECE_CELLS = synthesis.PIECE_CELLS, 1024\n"
            "two = synthesize(table, job, threads=2)[0].table\n"
            "synthesis.PIECE_CELLS = default\n"
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


def test_generate_spec_and_synthesize_determinism(tmp_path, capsys, monkeypatch):
    spec = HistogramSpec({1: 60, 2: 25, 3: 10}, TailSpec(4, 5, 30), num_cells=400)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert run("generate-escsub", "--spec", spec_path, "--seed", 9, "--out", t1) == 0
    assert run("generate-escsub", "--spec", spec_path, "--seed", 9, "--out", t2) == 0
    assert t1.read_bytes() == t2.read_bytes()

    out1, out2 = tmp_path / "syn1", tmp_path / "syn2"
    monkeypatch.setattr(synthesis, "PIECE_CELLS", 64)
    for threads, out in ((1, out1), (3, out2)):
        assert run("synthesize", "--table", t1, "--family", "nbi", "--sigma", 1.0,
                   "--alpha", 0.05, "--m", 2, "--seed", 11,
                   "--threads", threads, "--out-dir", out) == 0
    for r in (0, 1):
        name = "t1.synth.nbi.r%d.csv" % r
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    sidecar = json.loads((out1 / "t1.synth.nbi.r0.csv.provenance.json").read_text())
    assert sidecar == {"family": "nbi", "sigma": 1.0, "alpha": 0.05,
                       "m": 2, "master_seed": 11, "replicate": 0, "stream": 2}
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


def test_metrics_refuses_replicates_of_different_models(tmp_path, capsys):
    # exited 0, and both reports named the last sidecar's model: family=nbi sigma=5.0 alpha=0.3
    path = _small_table(tmp_path)
    for family, sigma, alpha in (("poisson", 0, 0), ("nbi", 5, 0.3)):
        assert run("synthesize", "--table", path, "--family", family, "--sigma", sigma, "--alpha", alpha,
                   "--seed", 1, "--out-dir", tmp_path / family) == 0
    capsys.readouterr()
    reps = [tmp_path / "poisson" / "orig.synth.poisson.r0.csv", tmp_path / "nbi" / "orig.synth.nbi.r0.csv"]
    assert run("metrics", "--table", path, "--synthetic", *reps, "--out-prefix", tmp_path / "tau") == 1
    assert capsys.readouterr().err == (
        "error: replicates of different models (family, sigma, alpha): "
        "('nbi', 5.0, 0.3), ('poisson', 0.0, 0.0)\n"
    )
    assert not (tmp_path / "tau.empirical.csv").exists()


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


def test_frontier_refuses_a_replicate_of_another_schema_as_metrics_and_evaluate_do(tmp_path, capsys):
    # a projection of the other table raised KeyError for a category the original lacks
    small, other = tmp_path / "small.csv", tmp_path / "small1k.csv"
    assert run("generate-escsub", "--seed", 1, "--cells", 2000, "--out", small) == 0
    assert run("generate-escsub", "--seed", 2, "--cells", 1000, "--out", other) == 0
    capsys.readouterr()
    for argv in (["metrics", "--out-prefix", tmp_path / "m", "--family", "poisson"],
                 ["evaluate", "--out", tmp_path / "e.csv"],
                 ["frontier", "--variables", "cell", "--out", tmp_path / "f.csv"]):
        assert run(*argv, "--table", small, "--synthetic", other) == 1
        assert capsys.readouterr().err == "error: synthetic table schema does not match the original\n"


def test_metrics_with_a_bad_alpha_names_alpha(tmp_path, capsys):
    path = _small_table(tmp_path)
    for family, sigma in (("poisson", "0"), ("nbi", "1"), ("pig", "1")):
        for alpha in ("-1", "nan", "inf"):
            assert run("metrics", "--table", path, "--synthetic", path, "--family", family, "--sigma", sigma,
                       "--alpha", alpha, "--out-prefix", tmp_path / "m") == 1
            assert capsys.readouterr().err == "error: alpha must be finite and >= 0\n"


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


_GOOD_SIDECAR = {"family": "nbi", "sigma": 1.0, "alpha": 0.0, "m": 2, "master_seed": 3, "replicate": 0}


@pytest.mark.parametrize(
    "field, value",
    [("sigma", "1"), ("sigma", [1]), ("sigma", math.nan), ("sigma", -1), ("sigma", True), ("m", "2"),
     ("family", "nb"), ("family", 2), ("alpha", math.inf), ("master_seed", 2**64), ("replicate", 2), ("m", 0),
     ("sigma", 10**400)],
)
def test_provenance_field_of_the_wrong_type_or_domain_is_one_error_line(tmp_path, capsys, field, value):
    # "sigma": "1" ended metrics in a TypeError traceback
    schema = CategoricalSchema([("A", ["a1", "a2"]), ("B", ["b1", "b2"])])
    table = SparseContingencyTable.from_dict(schema, {(0, 0): 1, (0, 1): 5, (1, 0): 7, (1, 1): 3})
    orig, syn = tmp_path / "orig.csv", tmp_path / "syn.csv"
    write_table(table, str(orig))
    write_table(table, str(syn))
    (tmp_path / "syn.csv.provenance.json").write_text(json.dumps({**_GOOD_SIDECAR, field: value}))
    assert run("metrics", "--table", orig, "--synthetic", syn, "--out-prefix", tmp_path / "tau") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {tmp_path / 'syn.csv.provenance.json'}: "), err
    assert re.search(rf"malformed provenance sidecar: .*\b{field}\b", err), err


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


@pytest.mark.parametrize("p_list", ["1,inf", "1e309"])
def test_evaluate_p_that_is_not_finite_is_one_error_line(tmp_path, capsys, p_list):
    # inf was taken, and the report's .json sidecar held "p": Infinity, which is not JSON
    path = _small_table(tmp_path)
    assert run("evaluate", "--table", path, "--synthetic", path, "--p-list", p_list,
               "--out", tmp_path / "within.csv") == 1
    assert capsys.readouterr().err == "error: p values must be positive finite percentages\n"
    assert not (tmp_path / "within.csv.json").exists()


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


@pytest.mark.parametrize("command", ["metrics", "evaluate", "frontier"])
def test_config_synthetic_paths_are_split_on_whitespace(tmp_path, capsys, command):
    # the value was one string, read a character at a time: "error: /: Is a directory"
    path = _small_table(tmp_path)
    out = {"metrics": "--out-prefix", "evaluate": "--out", "frontier": "--out"}[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"synthetic = {path}  {path}\nfamily = poisson\n")
    assert run(command, "--config", cfg, "--table", path, out, tmp_path / "report") == 0
    assert capsys.readouterr().err == ""
    if command == "metrics":
        assert "replicates=2" in (tmp_path / "report.empirical.csv").read_text()


@pytest.mark.parametrize("line,message", [
    ("target = banana", "config target='banana' is not one of match-zeros, tau4"),
    ("family = gamma", "config family='gamma' is not one of poisson, nbi, pig"),
])
def test_config_value_outside_a_flags_choices_is_a_typed_error(tmp_path, capsys, line, message):
    # target=banana skipped argparse's choices and ran match-zeros with exit 0
    path = _small_table(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"table = {path}\nfamily = nbi\nsigma = 1\ntarget = match-zeros\n{line}\n")
    code = run("tune", "--config", cfg)
    err = capsys.readouterr().err
    assert (code, err.count("\n")) == (1, 1) and err.startswith(f"error: {message}"), err


def test_config_key_that_is_no_commands_flag_is_one_error_line(tmp_path, capsys):
    # a misspelled key was dropped: tune exited 0 and printed sigma 0.0 with the Poisson-limit alpha*
    path = _small_table(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"table = {path}\nfamily = nbi\nsgima = 1\ntarget = match-zeros\n")
    assert run("tune", "--config", cfg) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: config key 'sgima' is not a flag of any command\n")


@pytest.mark.parametrize("key", ["help", "config"])
def test_config_key_naming_help_or_config_is_one_error_line(tmp_path, capsys, key):
    # both are dests of every command's parser: help = 1 became the -h action's default and was ignored
    path = _small_table(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"table = {path}\nfamily = nbi\nsigma = 1\ntarget = match-zeros\n{key} = 1\n")
    assert run("tune", "--config", cfg) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: config key {key!r} is not a flag of any command\n")


@pytest.mark.parametrize("line,message", [
    ("include_capped = maybe", "config include_capped='maybe' is not one of 1, true, yes, on, 0, false, no, off"),
    ("synthetic =", "config synthetic needs at least one value"),
])
def test_config_store_true_word_or_empty_path_list_is_a_typed_error(tmp_path, capsys, line, message):
    path = _small_table(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    # a bad config value is refused even where a flag would override it, as a bad int is
    assert run("frontier", "--config", cfg, "--table", path, "--synthetic", path, "--out", tmp_path / "f.csv") == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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
    # a misspelled tail was ignored: the table came out without it
    ('"num_cells": 5, "tails": {"start": 2, "cells": 1, "total": 3}', "malformed histogram spec: unknown keys ['tails']"),
])
def test_malformed_spec_is_a_typed_error(tmp_path, capsys, extra, message):
    spec = tmp_path / "spec.json"
    spec.write_text('{"cells_per_size": {"1": 2}, %s}' % extra)
    assert run("generate-escsub", "--spec", spec, "--seed", 1, "--out", tmp_path / "t.csv") == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ('{"cells_per_size": {"1": 2.5}, "num_cells": 5}', "sizes and cell counts must be nonnegative integers, got 2.5"),
    ('{"cells_per_size": {"1": true}, "num_cells": 5}', "sizes and cell counts must be nonnegative integers, got True"),
    ('{"cells_per_size": {"1": 2, "01": 1}, "num_cells": 5}',
     "malformed histogram spec: two cells_per_size keys name one size"),
    ('{"cells_per_size": {}, "tail": {"start": 2.7, "cells": 1, "total": 3.9}, "num_cells": 5}',
     "tail start must be an integer >= 1, got 2.7"),
    ('{"cells_per_size": {"1": 2, "1": 3}, "num_cells": 5}', "malformed histogram spec: repeated keys ['1']"),
    ('{"cells_per_size": {"1": 2}, "num_cells": 5, "num_cells": 6}',
     "malformed histogram spec: repeated keys ['num_cells']"),
])
def test_spec_values_that_are_not_json_integers_are_refused(tmp_path, capsys, text, message):
    # 2.5 and true were cut to 2 and 1 cells, a tail of start 2.7 and total 3.9 to 2 and 3, "01" overwrote "1",
    # and json.loads kept the last of two equal keys: each run exited 0
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert run("generate-escsub", "--spec", spec, "--seed", 1, "--out", tmp_path / "t.csv") == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_generate_escsub_zero_cells_is_refused(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(HistogramSpec({1: 2}, None, num_cells=5).to_json())
    out = tmp_path / "t.csv"
    assert run("generate-escsub", "--spec", spec, "--cells", 0, "--seed", 1, "--out", out) == 1
    assert "error: num_cells must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["--cells", "--spec"])
def test_generate_escsub_refuses_a_schema_less_table_above_2_to_the_20_cells(tmp_path, capsys, monkeypatch, source):
    # resolved_schema made one label per cell: 2**22 cells took about 1 GB, and 5e7 a MemoryError
    def refuse(spec):
        raise AssertionError(f"built a {spec.total_cells}-label schema")

    monkeypatch.setattr(HistogramSpec, "resolved_schema", refuse)
    spec = tmp_path / "spec.json"
    spec.write_text('{"cells_per_size": {"1": 2}, "num_cells": 1048577}')
    argv = ["--cells", 2**20 + 1] if source == "--cells" else ["--spec", spec]
    out = tmp_path / "t.csv"
    assert run("generate-escsub", *argv, "--seed", 1, "--out", out) == 1
    assert capsys.readouterr().err == (
        "error: num_cells must be an integer >= 1, and num_cells without a schema must be <= 2**20 "
        "(one label per cell), got 1048577\n"
    )
    assert not out.exists()
    HistogramSpec({1: 2}, None, num_cells=2**20)


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


def test_synthesize_refused_by_its_checks_leaves_no_out_dir(tmp_path, capsys):
    # --out-dir was made before synthesize checked threads, so the refused run left it behind
    out = tmp_path / "newdir"
    assert run("synthesize", "--table", _small_table(tmp_path), "--family", "poisson", "--seed", 1,
               "--threads", 257, "--out-dir", out) == 1
    assert capsys.readouterr().err == "error: threads must be an integer in [1, 256], got 257\n"
    assert not out.exists()


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
