import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from satsynth import sampling, synthesis
from satsynth.cli import main
from satsynth.errors import FormatError, ValidationError
from satsynth.generator import esc_like_spec, generate_table, scaled_spec
from satsynth.models import CountModelSpec
from satsynth.schema import CategoricalSchema
from satsynth.synthesis import (
    Provenance,
    SynthesisJob,
    SyntheticTable,
    expected_grand_total,
    synthesize,
)
from satsynth.sampling import draw_counts, uniform_block, uniform_rows
from satsynth.table import SparseContingencyTable
from satsynth.taumetrics import tau2_of_table
from satsynth.tuning import alpha_star_match_zeros

from oracles import draw_counts_unscreened


def line_schema(k: int) -> CategoricalSchema:
    return CategoricalSchema([("cell", [f"c{i}" for i in range(k)])])


def small_table() -> SparseContingencyTable:
    schema = CategoricalSchema([("A", ["a", "b", "c", "d"]), ("B", ["w", "x", "y", "z"])])
    counts = {(0, 0): 3, (0, 3): 1, (1, 1): 7, (2, 2): 2, (3, 0): 1}
    return SparseContingencyTable.from_dict(schema, counts, structural=[(3, 3)])


def test_alpha_zero_keeps_all_zero_cells_zero():
    table = small_table()
    job = SynthesisJob(CountModelSpec("nbi", sigma=2.0, alpha=0.0), master_seed=5, m=4)
    for rep in synthesize(table, job):
        extra = np.setdiff1d(rep.table.index, table.index)
        assert extra.size == 0


def test_structural_zeros_fixed_even_with_alpha():
    table = small_table()
    job = SynthesisJob(CountModelSpec("poisson", alpha=5.0), master_seed=9, m=6)
    for rep in synthesize(table, job):
        assert rep.table[(3, 3)] == 0
        assert np.array_equal(rep.table.structural, table.structural)


def test_single_unique_cell_poisson_rate():
    table = SparseContingencyTable.from_dict(line_schema(1), {(0,): 1})
    job = SynthesisJob(CountModelSpec("poisson"), master_seed=17, m=4000)
    reps = synthesize(table, job)
    stayed = sum(1 for r in reps if r.table[(0,)] == 1)
    p = math.exp(-1)
    se = math.sqrt(p * (1 - p) / len(reps))
    assert abs(stayed / len(reps) - p) < 3 * se


def test_expected_grand_total():
    table = small_table()
    assert expected_grand_total(table, SynthesisJob(CountModelSpec("poisson"), master_seed=0)) == table.n
    job = SynthesisJob(CountModelSpec("poisson", alpha=0.02), master_seed=0)
    assert expected_grand_total(table, job) == pytest.approx(table.n + 0.02 * table.num_random_zeros)
    one = SparseContingencyTable.from_dict(line_schema(1), {(0,): 7})
    assert expected_grand_total(one, SynthesisJob(CountModelSpec("nbi", sigma=3.0), master_seed=1)) == 7.0


def test_deterministic_across_threads_and_chunking(monkeypatch):
    schema = line_schema(5000)
    rng = np.random.default_rng(0)
    idx = np.sort(rng.choice(5000, 800, replace=False))
    table = SparseContingencyTable(schema, idx, rng.integers(1, 30, 800))
    job = SynthesisJob(CountModelSpec("pig", sigma=1.0, alpha=0.05), master_seed=123, m=2)
    monkeypatch.setattr(synthesis, "PIECE_CELLS", 512)
    base = synthesize(table, job, threads=1)
    for threads, chunk in ((1, 5000), (4, 512), (3, 100), (2, 977)):
        monkeypatch.setattr(synthesis, "PIECE_CELLS", chunk)
        other = synthesize(table, job, threads=threads)
        for a, b in zip(base, other):
            assert a.table.same_contents(b.table), (threads, chunk)


def test_replicates_differ_and_seeds_matter():
    table = small_table()
    job = SynthesisJob(CountModelSpec("poisson", alpha=0.5), master_seed=1, m=2)
    r0, r1 = synthesize(table, job)
    assert not r0.table.same_contents(r1.table)
    other = synthesize(table, SynthesisJob(CountModelSpec("poisson", alpha=0.5), master_seed=2, m=1))[0]
    assert not r0.table.same_contents(other.table)


def test_per_cell_unbiasedness_over_replicates():
    table = small_table()
    m = 10_000
    job = SynthesisJob(CountModelSpec("nbi", sigma=0.8, alpha=0.1), master_seed=33, m=m)
    reps = synthesize(table, job)
    k = table.num_cells
    sums = np.zeros(k)
    sq = np.zeros(k)
    for r in reps:
        dense = r.table.to_dense().ravel().astype(float)
        sums += dense
        sq += dense**2
    means = sums / m
    variances = sq / m - means**2
    dense_mu = table.to_dense().ravel().astype(float)
    mu = np.where(dense_mu > 0, dense_mu, 0.1)
    mu[table.structural.astype(np.int64)] = 0.0
    se = np.sqrt(np.maximum(variances, 1e-12) / m)
    live = mu > 0
    assert np.all(np.abs(means[live] - mu[live]) < 4 * se[live])
    assert not means[~live].any()


def test_cells_uncorrelated_across_replicates():
    table = small_table()
    m = 4000
    job = SynthesisJob(CountModelSpec("poisson", alpha=0.0), master_seed=77, m=m)
    reps = synthesize(table, job)
    a = np.array([r.table[(0, 0)] for r in reps], dtype=float)
    b = np.array([r.table[(1, 1)] for r in reps], dtype=float)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4 / math.sqrt(m)


def test_poisson_grand_total_dispersion():
    # with independent Poisson cells the replicate totals are Poisson(n)
    schema = line_schema(64)
    counts = {(i,): 8 for i in range(64)}
    table = SparseContingencyTable.from_dict(schema, counts)
    m = 400
    job = SynthesisJob(CountModelSpec("poisson"), master_seed=55, m=m)
    totals = np.array([r.n_syn for r in synthesize(table, job)], dtype=float)
    disp = (m - 1) * totals.var(ddof=1) / totals.mean()
    lo, hi = stats.chi2.ppf([0.0005, 0.9995], m - 1)
    assert lo < disp < hi


def test_nbi_where_one_over_sigma_overflows_synthesizes_the_poisson_limit():
    # gammaincinv(1/sigma = inf, u) made every screen threshold NaN, and n_syn was 0 of 47,207
    table = generate_table(scaled_spec(esc_like_spec(), 20_000), 1)
    job = SynthesisJob(CountModelSpec("nbi", sigma=1e-310), master_seed=1)
    n_syn = synthesize(table, job)[0].n_syn
    assert abs(n_syn - expected_grand_total(table, job)) <= 6.0 * math.sqrt(table.n)  # Var(n_syn) = n


def test_provenance_roundtrip_and_fields():
    table = small_table()
    job = SynthesisJob(CountModelSpec("pig", sigma=2.0, alpha=0.02), master_seed=4, m=3)
    reps = synthesize(table, job)
    assert [r.provenance.replicate for r in reps] == [0, 1, 2]
    p = reps[1].provenance
    assert Provenance.from_json(p.to_json()) == p
    assert p.family == "pig" and p.m == 3 and p.master_seed == 4


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@example(field="m", value=1)  # the smallest m; replicate 0 stays in range
@example(field="family", value="NBI")  # read as CountModelSpec reads it, and stored in lower case
@given(field=st.sampled_from(["family", "sigma", "alpha", "m", "master_seed", "replicate"]), value=_JSON_VALUES)
def test_provenance_sidecar_field_parses_into_its_domain_or_is_a_format_error(field, value):
    fields = {"family": "nbi", "sigma": 1.0, "alpha": 0.0, "m": 2, "master_seed": 3, "replicate": 0, field: value}
    try:
        p = Provenance.from_json(json.dumps(fields))
    except FormatError as exc:
        assert re.match(rf"malformed provenance sidecar: .*\b{field}\b", str(exc)), exc
        return
    SynthesisJob(CountModelSpec(p.family, p.sigma, p.alpha), master_seed=p.master_seed, m=p.m)
    assert p.family == (value.lower() if field == "family" else "nbi")
    assert type(p.replicate) is int and 0 <= p.replicate < p.m


def test_job_validation():
    with pytest.raises(ValidationError):
        SynthesisJob(CountModelSpec("poisson"), master_seed=0, m=0)
    table = small_table()
    job = SynthesisJob(CountModelSpec("poisson"), master_seed=0)
    with pytest.raises(ValidationError):
        synthesize(table, job, threads=0)


@pytest.mark.parametrize("m", [1.5, 2.0, "2"])
def test_fractional_replicate_count_is_refused(m):
    # 1.5 passed m >= 1 and reached range() as a raw TypeError
    with pytest.raises(ValidationError, match="m must be an integer"):
        SynthesisJob(CountModelSpec("poisson"), master_seed=0, m=m)
    assert SynthesisJob(CountModelSpec("poisson"), master_seed=0, m=np.int64(2)).m == 2


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("threads", [1.5, 2.0])
def test_fractional_threads_are_refused(alpha, threads):
    # threads=1.5 reached range() or the thread pool as a raw TypeError
    job = SynthesisJob(CountModelSpec("poisson", alpha=alpha), master_seed=0)
    with pytest.raises(ValidationError, match="threads must be an integer"):
        synthesize(small_table(), job, threads=threads)


def test_more_threads_than_the_bound_are_refused_before_a_pool_is_built(monkeypatch):
    # synthesize submitted one piece per thread, up to nnz of them, to a pool of `threads` workers
    pools = []
    real = synthesis.ThreadPoolExecutor

    def recorder(*args, **kwargs):
        pools.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(synthesis, "ThreadPoolExecutor", recorder)
    table = small_table()  # 5 occupied cells: at most 5 pieces, hence threads, at alpha = 0
    job = SynthesisJob(CountModelSpec("poisson"), master_seed=0)
    with pytest.raises(ValidationError, match=r"threads must be an integer in \[1, 256\], got 257"):
        synthesize(table, job, threads=257)
    assert pools == []
    assert synthesize(table, job, threads=256)[0].table.same_contents(synthesize(table, job)[0].table)
    assert pools == [{"max_workers": 256}, {"max_workers": 1}]


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_master_seed_outside_64_bits_is_refused(seed):
    # 2**64 used to give the replicate of seed 0, and -1 that of 2**64 - 1
    with pytest.raises(ValidationError, match="master_seed must be in"):
        SynthesisJob(CountModelSpec("poisson"), master_seed=seed)
    SynthesisJob(CountModelSpec("poisson"), master_seed=2**64 - 1)


def test_cli_synthesize_refuses_a_negative_seed(tmp_path, capsys):
    from satsynth.table import write_table

    path = tmp_path / "t.csv"
    write_table(small_table(), str(path))
    code = main(["synthesize", "--table", str(path), "--family", "poisson", "--seed", "-1",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "error: master_seed must be in [0, 2**64)" in capsys.readouterr().err


def test_cli_synthesize_refuses_too_many_threads(tmp_path, capsys, monkeypatch):
    from satsynth.table import write_table

    monkeypatch.setattr(synthesis, "ThreadPoolExecutor", None)  # building a pool would raise a TypeError
    path = tmp_path / "t.csv"
    write_table(small_table(), str(path))
    code = main(["synthesize", "--table", str(path), "--family", "poisson", "--seed", "1", "--threads", "257",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: threads must be an integer in [1, 256], got 257\n"


def test_an_alpha_star_replicate_screens_each_piece_once(monkeypatch):
    # _chunk_draw screened the random zeros at alpha, then draw_counts screened the candidates again
    calls = {"screen": 0, "cap": 0}
    screen, cap = sampling.may_draw_nonzero, sampling._cap_table

    def counted_screen(*args):
        calls["screen"] += 1
        return screen(*args)

    def counted_cap(*args):
        calls["cap"] += 1
        return cap(*args)

    monkeypatch.setattr(sampling, "may_draw_nonzero", counted_screen)
    monkeypatch.setattr(synthesis, "may_draw_nonzero", counted_screen)
    monkeypatch.setattr(sampling, "_cap_table", counted_cap)
    monkeypatch.setattr(synthesis, "PIECE_CELLS", 1 << 12)
    table = generate_table(scaled_spec(esc_like_spec(), 20_000), 1)
    alpha = alpha_star_match_zeros(tau2_of_table(table), "nbi", 1.0)
    synthesize(table, SynthesisJob(CountModelSpec("nbi", sigma=1.0, alpha=alpha), master_seed=1))
    pieces = math.ceil(table.num_cells / synthesis.PIECE_CELLS)
    assert pieces == 5 and calls == {"screen": pieces, "cap": pieces}


@pytest.mark.parametrize("family,sigma,seed", [("poisson", 0.0, 11), ("nbi", 1.0, 12), ("pig", 1.0, 13)])
def test_screened_synthesis_equals_unscreened_draws_at_alpha_star(monkeypatch, family, sigma, seed):
    k = 60_000
    rng = np.random.default_rng(seed)
    cells = rng.choice(k, 6_100, replace=False)
    idx, structural = np.sort(cells[:6_000]), np.sort(cells[6_000:])
    table = SparseContingencyTable(line_schema(k), idx, rng.geometric(0.3, idx.size), structural)
    alpha = alpha_star_match_zeros(tau2_of_table(table), family, sigma)
    mu = np.full(k, alpha)
    mu[structural] = 0.0
    mu[idx] = table.count
    want = draw_counts_unscreened(family, mu, sigma, uniform_block(seed, 0, 0, k))
    job = SynthesisJob(CountModelSpec(family, sigma=sigma, alpha=alpha), master_seed=seed)
    monkeypatch.setattr(synthesis, "PIECE_CELLS", 1 << 14)
    for threads in (1, 2):
        syn = synthesize(table, job, threads=threads)[0].table
        got = np.zeros(k, dtype=np.int64)
        got[syn.index.astype(np.int64)] = syn.count
        np.testing.assert_array_equal(got, want)


@st.composite
def _small_jobs(draw):
    """A random line table with occupied cells and structural zeros, a model and a piece size."""
    k = draw(st.integers(1, 120))
    cells = np.array(draw(st.permutations(range(k))), dtype=np.int64)
    n_occ = draw(st.integers(0, k))
    n_struct = draw(st.integers(0, k - n_occ))
    idx, structural = np.sort(cells[:n_occ]), np.sort(cells[n_occ:n_occ + n_struct])
    counts = draw(st.lists(st.integers(1, 200), min_size=n_occ, max_size=n_occ))
    table = SparseContingencyTable(line_schema(k), idx, np.array(counts, dtype=np.int64), structural)
    family = draw(st.sampled_from(["poisson", "nbi", "pig"]))
    sigma = 0.0 if family == "poisson" else draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0, 4.0, 1e3]))
    alpha = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(0.5, 50.0)))
    job = SynthesisJob(CountModelSpec(family, sigma=sigma, alpha=alpha),
                       master_seed=draw(st.integers(0, 2**64 - 1)), m=2)
    return table, job, draw(st.integers(1, k + 10))


@settings(max_examples=60, deadline=None)
@given(_small_jobs())
def test_synthesis_equals_unscreened_draws_on_random_tables(case):
    table, job, piece_cells = case
    k = table.num_cells
    mu = np.full(k, job.model.alpha)
    mu[table.structural.astype(np.int64)] = 0.0
    mu[table.index.astype(np.int64)] = table.count
    family, sigma = job.model.family.value, job.model.sigma
    want = [draw_counts_unscreened(family, mu, sigma, uniform_block(job.master_seed, r, 0, k))
            for r in range(job.m)]
    for threads in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "PIECE_CELLS", piece_cells)
            reps = synthesize(table, job, threads=threads)
        for r, rep in enumerate(reps):
            got = np.zeros(k, dtype=np.int64)
            got[rep.table.index.astype(np.int64)] = rep.table.count
            np.testing.assert_array_equal(got, want[r], err_msg=f"threads={threads} replicate {r}")


# SHA-256 of replicate 0's (index as <u8, count as <i8) at master seed 1 on the 200,000-cell
# stand-in table of seed 1, taken before the zero-cell pre-screen.  The alpha* values are that
# table's match-zeros pseudocounts at the time, pinned so that only the draw path is tested.
_STREAM_V1_DIGESTS = [
    ("poisson", 0.0, 0.0, "aab549769bfbd6432c16dcab0db9badb188330776bf5e57f3fbe091f914a0670"),
    ("poisson", 0.0, 0.016999376315571708, "c5d05d3f7db8261948d48758a9c7301cad27a53bac4378291c032dbac5f21938"),
    ("nbi", 1.0, 0.0, "097077b81e19ca25f2f9b0a5968423cf01802326926eac63b2f41e45ac3e0788"),
    ("nbi", 1.0, 0.03130325542044621, "858cb95046059c55c7ee5d43e097d417d1317ab652657674225a7773ba447430"),
    ("pig", 1.0, 0.0, "8b1af68e1b45d905a5cb6de70807958230033dbf4fab9b08ab47d5dcc7646e82"),
    ("pig", 1.0, 0.02734836268247698, "6724ee634d1589cff529da3e39d2ed495423af00f1bc9a82f44a09f3c84cfec9"),
]


@pytest.fixture(scope="module")
def stand_in_table():
    return generate_table(scaled_spec(esc_like_spec(), 200_000), 1)


@pytest.mark.parametrize("family,sigma,alpha,digest", _STREAM_V1_DIGESTS)
def test_stream_v1_draws_do_not_drift(stand_in_table, family, sigma, alpha, digest):
    job = SynthesisJob(CountModelSpec(family, sigma=sigma, alpha=alpha), master_seed=1)
    syn = synthesize(stand_in_table, job)[0].table
    got = hashlib.sha256(syn.index.astype("<u8").tobytes() + syn.count.astype("<i8").tobytes()).hexdigest()
    assert got == digest


def test_alpha_zero_never_fills_a_whole_chunk_of_uniforms(monkeypatch):
    starts = []
    block = synthesis.uniform_block

    def counted(master_seed, stream, start, n):
        starts.append(start)
        return block(master_seed, stream, start, n)

    monkeypatch.setattr(synthesis, "uniform_block", counted)
    monkeypatch.setattr(synthesis, "PIECE_CELLS", 5)
    table = small_table()
    for family, sigma in (("poisson", 0.0), ("nbi", 1.0), ("pig", 1.0)):
        for threads in (1, 2):
            synthesize(table, SynthesisJob(CountModelSpec(family, sigma, 0.0), 3, m=2), threads)
    assert starts == []
    synthesize(table, SynthesisJob(CountModelSpec("nbi", 1.0, 0.5), 3, m=2))
    assert sorted(starts) == [0, 0, 5, 5, 10, 10, 15, 15]


def _count_pieces(monkeypatch) -> list:
    calls = []
    draw = synthesis._chunk_draw

    def counted(*args):
        calls.append(args[5:7])  # (replicate, start)
        return draw(*args)

    monkeypatch.setattr(synthesis, "_chunk_draw", counted)
    return calls


@pytest.mark.parametrize("family,sigma", [("poisson", 0.0), ("nbi", 1.0), ("pig", 1.0)])
def test_alpha_zero_is_deterministic_across_threads_and_pieces(monkeypatch, family, sigma):
    rng = np.random.default_rng(1)
    idx = np.sort(rng.choice(5000, 300, replace=False))
    table = SparseContingencyTable(line_schema(5000), idx, rng.integers(1, 30, idx.size), [idx[0] + 1])
    job = SynthesisJob(CountModelSpec(family, sigma=sigma, alpha=0.0), master_seed=77, m=2)
    base = synthesize(table, job)
    for threads in (1, 2, 3, 4):
        for chunk in (1, 7, idx.size, idx.size + 1):
            monkeypatch.setattr(synthesis, "PIECE_CELLS", chunk)
            for a, b in zip(base, synthesize(table, job, threads=threads)):
                assert a.table.same_contents(b.table), (threads, chunk)


def test_alpha_zero_on_a_2_to_the_60_cell_table_draws_only_the_occupied_rows(monkeypatch):
    schema = CategoricalSchema([(f"v{j}", ["0", "1"]) for j in range(60)])
    rng = np.random.default_rng(5)
    idx = np.unique(rng.integers(0, 2**60, 1_000, dtype=np.uint64))
    table = SparseContingencyTable(schema, idx, rng.integers(1, 50, idx.size))
    job = SynthesisJob(CountModelSpec("nbi", sigma=1.0, alpha=0.0), master_seed=3, m=2)
    want = [draw_counts("nbi", table.count, 1.0, uniform_rows(3, r, idx)) for r in range(2)]
    calls = _count_pieces(monkeypatch)
    for threads, chunk in ((1, 64), (3, 64), (3, synthesis.PIECE_CELLS)):
        calls.clear()
        monkeypatch.setattr(synthesis, "PIECE_CELLS", chunk)
        reps = synthesize(table, job, threads=threads)
        for r, rep in enumerate(reps):
            keep = want[r] > 0
            np.testing.assert_array_equal(rep.table.index, idx[keep])
            np.testing.assert_array_equal(rep.table.count, want[r][keep])
            assert sum(c[0] == r for c in calls) <= max(threads, math.ceil(idx.size / chunk))


def test_alpha_zero_with_no_or_few_occupied_rows(monkeypatch):
    job = SynthesisJob(CountModelSpec("pig", sigma=1.0, alpha=0.0), master_seed=9, m=2)
    empty = SparseContingencyTable(line_schema(50), [], [], [3, 4])
    for threads in (1, 3):
        for rep in synthesize(empty, job, threads=threads):
            assert rep.table.num_nonzero == 0
            np.testing.assert_array_equal(rep.table.structural, [3, 4])

    few = SparseContingencyTable(line_schema(50), [10, 40], [30, 60])
    want = [draw_counts("pig", few.count, 1.0, uniform_rows(9, r, few.index)) for r in range(2)]
    calls = _count_pieces(monkeypatch)
    for rep, counts in zip(synthesize(few, job, threads=4), want):
        np.testing.assert_array_equal(rep.table.counts_at(few.index), counts)
        assert rep.table.num_nonzero == np.count_nonzero(counts)
    assert sorted(calls) == [(0, 0), (0, 1), (1, 0), (1, 1)]  # one row a piece, none empty


def test_alpha_above_zero_on_a_2_to_the_60_cell_table_is_a_typed_error():
    # a list of every PIECE_CELLS range of 2**60 cells would raise MemoryError
    schema = CategoricalSchema([(f"v{j}", ["0", "1"]) for j in range(60)])
    table = SparseContingencyTable(schema, [5, 2**59], [3, 1])
    job = SynthesisJob(CountModelSpec("nbi", sigma=1.0, alpha=0.01), master_seed=3, m=1)
    with pytest.raises(ValidationError, match=r"2\*\*40 cells; alpha = 0 has no such limit"):
        synthesize(table, job)
    at_zero = SynthesisJob(CountModelSpec("nbi", sigma=1.0, alpha=0.0), master_seed=3, m=1)
    assert synthesize(table, at_zero)[0].table.num_cells == 2**60


def test_full_scale_nbi_match_zeros_at_two_threads_stays_under_30_mib():
    # each worker holds one piece's uniforms: 2**16 cells of 4 words, 2 MiB;
    # at 2**18-cell pieces the traced peak was 43 MiB
    table = generate_table(esc_like_spec(), 1)
    alpha = alpha_star_match_zeros(tau2_of_table(table), "nbi", 1.0)
    job = SynthesisJob(CountModelSpec("nbi", 1.0, alpha), master_seed=1)
    tracemalloc.start()
    try:
        synthesize(table, job, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20


def test_full_scale_nbi_match_zeros_at_two_threads_stays_under_13_mib():
    # each piece computes its own 2 MiB of uniforms and drops them when it ends;
    # a per-thread buffer that lived for the whole call peaked at 14.5 MiB
    table = generate_table(esc_like_spec(), 1)
    alpha = alpha_star_match_zeros(tau2_of_table(table), "nbi", 1.0)
    job = SynthesisJob(CountModelSpec("nbi", 1.0, alpha), master_seed=1)
    tracemalloc.start()
    try:
        synthesize(table, job, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13 * 2**20
