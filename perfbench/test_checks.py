"""The benchmark's output checks must be able to fail.

Each test feeds a check a deliberately broken output and requires the
operation to be recorded as failed, next to a control that passes.  Run
from the root of a checkout with ``python -m pytest perfbench``.
"""

import numpy as np
import pytest

from harness import Tally, use_source

use_source()

import satsynth as S  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def small():
    table = S.generate_table(S.scaled_spec(S.esc_like_spec(), 200_000), seed=5)
    return table, S.tau2_of_table(table)


def job(family="nbi", sigma=1.0, alpha=0.02, seed=17):
    return S.SynthesisJob(S.CountModelSpec(family, sigma=sigma, alpha=alpha), master_seed=seed)


def record(table, dist, claimed, syn):
    run = workloads.Run("test", seed=0, seconds=0.0, trace=False)
    live = table.num_cells - table.num_structural_zeros
    ok = workloads.record_replicate(run, "synthesize", table, dist, claimed, syn, 1, live, {})
    return ok, run.tally


def test_drift_check_fails_a_replicate_drawn_at_the_wrong_alpha(small):
    table, dist = small
    right = S.synthesize(table, job(alpha=0.02))[0].table
    wrong = S.synthesize(table, job(alpha=0.05))[0].table
    assert checks.drift(table, dist, job(alpha=0.02), right)[1] == []
    worst, problems = checks.drift(table, dist, job(alpha=0.02), wrong)
    assert problems and worst > checks.DRIFT_SE_LIMIT
    ok, tally = record(table, dist, job(alpha=0.02), wrong)
    assert not ok and (tally.attempted, tally.failed) == (1, 1)
    ok, tally = record(table, dist, job(alpha=0.02), right)
    assert ok and (tally.attempted, tally.failed) == (1, 0)


def test_nsyn_check_fails_a_table_with_one_count_doubled():
    schema = S.CategoricalSchema([("cell", [f"c{i}" for i in range(1000)])])
    counts = np.ones(50, dtype=np.int64)
    counts[7] = 20_000
    table = S.SparseContingencyTable(schema, np.arange(50, dtype=np.uint64) * 20, counts)
    dist = S.tau2_of_table(table)
    claimed = job("poisson", sigma=0.0, alpha=0.0)
    syn = S.synthesize(table, claimed)[0].table
    doubled = syn.count.copy()
    doubled[np.argmax(doubled)] *= 2
    broken = S.SparseContingencyTable(schema, syn.index, doubled)
    assert checks.check_nsyn(table, claimed, syn.n) == []
    assert checks.check_nsyn(table, claimed, broken.n)
    ok, tally = record(table, dist, claimed, broken)
    assert not ok and tally.failed == 1
    assert any("n_syn" in p for p in tally.problems)


def test_cli_readback_fails_a_truncated_csv(small, tmp_path):
    table, _ = small
    path = tmp_path / "esc.synth.nbi.r0.csv"
    S.write_table(table, str(path))
    stdout = f"synthesized m=1 replicate(s) of {table.num_cells} cells in 0.10s wall time; n_syn: {table.n}\n"
    printed, problems = checks.synthesize_readback(stdout, [path])
    assert printed == [table.n] and problems == []
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
    _, problems = checks.synthesize_readback(stdout, [path])
    tally = Tally()
    assert not tally.record("cli synthesize", problems)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_tuning_check_fails_an_alpha_off_target(small):
    _, dist = small
    a0 = S.alpha_star_match_zeros(dist, "pig", 1.0)
    a4 = S.solve_alpha_for_tau4_target(dist, "pig", 1.0, 0.3).alpha_star
    assert checks.check_tuning(dist, "pig", 1.0, a0, a4, 0.3) == []
    assert len(checks.check_tuning(dist, "pig", 1.0, a0 * (1 + 1e-6), a4 * (1 + 1e-6), 0.3)) == 2


def test_counts_must_repeat_across_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    counts = {"synthesis.nonzero_out_nbi": 238404, "synthesis.digest_nbi": "b849b948ba45231f"}
    assert harness.check_counts_record("occupied", 1, counts) == []
    assert harness.check_counts_record("occupied", 1, dict(counts)) == []
    changed = counts | {"synthesis.nonzero_out_nbi": 238405}
    assert len(harness.check_counts_record("occupied", 1, changed)) == 1
