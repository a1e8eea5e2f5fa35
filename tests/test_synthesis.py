import hashlib
import json
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from satsynth import sampling, synthesis
from satsynth.cli import main
from satsynth.errors import FormatError, ValidationError
from satsynth.generator import esc_like_spec, generate_table, scaled_spec
from satsynth.models import CountModelSpec, Family, logpmf, pmf
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
from satsynth.taumetrics import MAX_PMF_ENTRIES, tau2_of_table
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


def test_sidecar_names_stream_2_and_one_without_stream_reads_as_stream_1():
    prov = synthesize(small_table(), SynthesisJob(CountModelSpec("nbi", 1.0, 0.5), master_seed=4))[0].provenance
    fields = json.loads(prov.to_json())
    assert fields["stream"] == synthesis.STREAM_VERSION == 2 and Provenance.from_json(prov.to_json()) == prov
    del fields["stream"]
    assert Provenance.from_json(json.dumps(fields)) == Provenance(**fields, stream=1)


@pytest.mark.parametrize("stream", [3, 0, "2", 2.0, None])
def test_sidecar_stream_outside_the_known_versions_is_a_format_error(stream):
    fields = {"family": "nbi", "sigma": 1.0, "alpha": 0.0, "m": 2, "master_seed": 3, "replicate": 0, "stream": stream}
    with pytest.raises(FormatError, match=r"malformed provenance sidecar: stream must be"):
        Provenance.from_json(json.dumps(fields))


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


@pytest.mark.parametrize("field", ["m", "master_seed"])
def test_job_integers_are_the_ones_its_sidecar_carries(field):
    # m=np.int64(2) synthesized, then to_json raised a raw TypeError; m=True or master_seed=True wrote
    # a sidecar that from_json refuses; threads=True ran as one thread
    job = SynthesisJob(CountModelSpec("poisson"), **{"master_seed": 1, field: np.int64(2)})
    assert type(getattr(job, field)) is int
    prov = synthesize(small_table(), job)[0].provenance
    assert Provenance.from_json(prov.to_json()) == prov
    with pytest.raises(ValidationError, match=f"{field} must be"):
        SynthesisJob(CountModelSpec("poisson"), **{"master_seed": 1, field: True})
    with pytest.raises(ValidationError, match="threads must be an integer"):
        synthesize(small_table(), job, threads=True)


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


@pytest.mark.parametrize("seed", [2.5, True, np.float64(3.0)])
def test_generate_table_refuses_a_seed_that_is_not_an_integer(seed):
    # 2.5 raised a raw TypeError, and True gave seed 1's table
    spec = scaled_spec(esc_like_spec(), 1_000)
    with pytest.raises(ValidationError, match="seed must be in"):
        generate_table(spec, seed)
    assert generate_table(spec, np.uint64(3)).same_contents(generate_table(spec, 3))


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


def test_an_alpha_star_replicate_screens_only_the_occupied_pieces_once_each(monkeypatch):
    # stream v1 screened every cell, in 2**16-cell pieces; v2 reaches the random zeros by skipping,
    # and NBI's screen builds its bucket bounds once per piece of occupied rows
    builds = []
    cap = sampling._cap_table

    def counted_cap(sigma):
        builds.append(sigma)
        return cap(sigma)

    monkeypatch.setattr(sampling, "_cap_table", counted_cap)
    monkeypatch.setattr(synthesis, "PIECE_CELLS", 1 << 10)
    table = generate_table(scaled_spec(esc_like_spec(), 20_000), 1)
    alpha = alpha_star_match_zeros(tau2_of_table(table), "nbi", 1.0)
    synthesize(table, SynthesisJob(CountModelSpec("nbi", sigma=1.0, alpha=alpha), master_seed=1))
    pieces = math.ceil(table.num_nonzero / synthesis.PIECE_CELLS)
    assert pieces == 2 and builds == [1.0] * pieces


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("family,sigma", [("poisson", 0.0), ("nbi", 1.0), ("pig", 1.0)])
def test_alpha_star_leaves_every_occupied_cell_its_alpha_zero_count(family, sigma, seed):
    table = generate_table(scaled_spec(esc_like_spec(), 60_000), 1)
    alpha = alpha_star_match_zeros(tau2_of_table(table), family, sigma)
    at_zero, at_star = (synthesize(table, SynthesisJob(CountModelSpec(family, sigma, a), master_seed=seed))[0].table
                        for a in (0.0, alpha))
    np.testing.assert_array_equal(at_star.counts_at(table.index), at_zero.counts_at(table.index))
    escapes = np.setdiff1d(at_star.index, table.index)
    assert escapes.size == at_star.num_nonzero - at_zero.num_nonzero > 0
    assert np.intersect1d(escapes, table.structural).size == 0


_ESCAPE_LAW_GRID = [(family, sigma, alpha)
                    for family, sigmas in (("poisson", [0.0]), ("nbi", [0.1, 1.0, 4.0]), ("pig", [0.1, 1.0, 4.0]))
                    for sigma in sigmas for alpha in (1e-12, 1e-6, 0.03, 1.0, 20.0)]


def _escape_probability(family: str, sigma: float, alpha: float) -> float:
    """1 - pmf(0 | alpha) from each family's closed form for pmf(0): PIG's logpmf(0) sums
    terms that cancel, so it is good to about 1e-16 absolutely, not relatively."""
    log_q = {"poisson": -alpha, "nbi": -math.log1p(sigma * alpha) / (sigma or 1.0),
             "pig": -2.0 * alpha / (1.0 + math.sqrt(1.0 + 2.0 * sigma * alpha))}[family]
    return -math.expm1(log_q)


@pytest.mark.parametrize("family,sigma,alpha", _ESCAPE_LAW_GRID)
def test_escape_count_cdf_steps_are_the_zero_truncated_pmf(family, sigma, alpha):
    table = SparseContingencyTable(line_schema(100), [3], [2])
    law = synthesis._escapes(table, Family.coerce(family), sigma, alpha)
    p = _escape_probability(family, sigma, alpha)
    assert -math.expm1(law.log_q) == pytest.approx(p, rel=1e-13)
    k = np.arange(1, law.cdf.size + 1)
    want = pmf(family, k, alpha, sigma) / p
    # a step below the CDF's ulp keeps only the summation's absolute accuracy
    np.testing.assert_allclose(np.diff(law.cdf, prepend=0.0), want, rtol=1e-12, atol=2.0**-50)
    assert law.cdf[-1] == 1.0 and abs(want.sum() - 1.0) < 1e-12  # the mass past the CDF's end is negligible


@pytest.mark.parametrize("family,sigma,alpha", [("poisson", 0.0, 0.1), ("nbi", 1.0, 0.2), ("pig", 2.0, 0.5)])
def test_each_blocks_escape_count_is_binomial(monkeypatch, family, sigma, alpha):
    monkeypatch.setattr(synthesis, "ZERO_BLOCK_ESCAPES", 64)
    rng = np.random.default_rng(3)
    cells = rng.choice(22_000, 2_000, replace=False)
    table = SparseContingencyTable(line_schema(22_000), np.sort(cells[:1_900]), rng.integers(1, 9, 1_900),
                                   np.sort(cells[1_900:]))
    zeros, p = table.num_random_zeros, -math.expm1(logpmf(family, 0, alpha, sigma))
    width = math.ceil(64 / p)
    taken = np.union1d(table.index, table.structural)
    counts = []  # escapes per (replicate, block)
    for rep in synthesize(table, SynthesisJob(CountModelSpec(family, sigma, alpha), master_seed=8, m=60)):
        escapes = np.setdiff1d(rep.table.index, table.index)
        ranks = escapes - np.searchsorted(taken, escapes).astype(np.uint64)  # rank among the random zeros
        counts.append(np.bincount((ranks // np.uint64(width)).astype(np.int64), minlength=-(-zeros // width)))
    counts = np.array(counts)
    full = counts[:, :zeros // width].ravel()
    observed = np.bincount(full, minlength=width + 1)
    expected = stats.binom.pmf(np.arange(width + 1), width, p) * full.size
    lo, hi = stats.binom.ppf([1e-3, 1 - 1e-3], width, p).astype(int)  # the tails pooled into two bins
    obs = np.r_[observed[:lo].sum(), observed[lo:hi + 1], observed[hi + 1:].sum()]
    exp = np.r_[expected[:lo].sum(), expected[lo:hi + 1], expected[hi + 1:].sum()]
    assert stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue > 1e-4
    n_last = zeros % width  # the last block is short
    assert abs(counts[:, -1].mean() - n_last * p) < 5 * math.sqrt(n_last * p * (1 - p) / len(counts))


@pytest.mark.parametrize("family,sigma", [("poisson", 0.0), ("nbi", 1.0), ("pig", 1.0)])
def test_alpha_above_zero_is_deterministic_across_threads_and_pieces(monkeypatch, family, sigma):
    rng = np.random.default_rng(2)
    cells = rng.choice(200_000, 20_100, replace=False)
    table = SparseContingencyTable(line_schema(200_000), np.sort(cells[:20_000]), rng.integers(1, 30, 20_000),
                                   np.sort(cells[20_000:]))
    job = SynthesisJob(CountModelSpec(family, sigma=sigma, alpha=0.5), master_seed=77, m=2)
    law = synthesis._escapes(table, Family.coerce(family), sigma, 0.5)
    assert -(-law.zeros // law.width) >= 3  # several blocks of random zeros
    base = synthesize(table, job)
    for threads in (1, 2, 3):
        for chunk in (7, 1000, table.num_nonzero + 1):
            monkeypatch.setattr(synthesis, "PIECE_CELLS", chunk)
            for a, b in zip(base, synthesize(table, job, threads=threads)):
                assert a.table.same_contents(b.table), (threads, chunk)


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
    alpha = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(0.5, 50.0)))
    # the escape-count CDF runs to about 80 sigma * alpha: 8e6 entries, a minute of PIG's pmf, at 1e3 * 50
    sigmas = [0.0, 1e-3, 0.5, 1.0, 4.0] + [1e3] * (alpha < 1e-3)
    sigma = 0.0 if family == "poisson" else draw(st.sampled_from(sigmas))
    job = SynthesisJob(CountModelSpec(family, sigma=sigma, alpha=alpha),
                       master_seed=draw(st.integers(0, 2**64 - 1)), m=2)
    return table, job, draw(st.integers(1, k + 10))


@settings(max_examples=60, deadline=None)
@given(_small_jobs())
def test_synthesis_equals_unscreened_draws_on_random_tables(case):
    # stream v2: at every alpha an occupied cell draws from its own counter block; escapes land on random zeros
    table, job, piece_cells = case
    family, sigma = job.model.family.value, job.model.sigma
    want = [draw_counts_unscreened(family, table.count, sigma, uniform_rows(job.master_seed, r, table.index))
            for r in range(job.m)]
    random_zeros = np.setdiff1d(np.arange(table.num_cells, dtype=np.uint64), np.union1d(table.index, table.structural))
    first = None
    for threads in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "PIECE_CELLS", piece_cells)
            reps = synthesize(table, job, threads=threads)
        for r, rep in enumerate(reps):
            np.testing.assert_array_equal(rep.table.counts_at(table.index), want[r], err_msg=f"replicate {r}")
            escapes = np.setdiff1d(rep.table.index, table.index)
            assert np.isin(escapes, random_zeros).all() and (job.model.alpha > 0 or escapes.size == 0)
        first = first or reps
        assert all(a.table.same_contents(b.table) for a, b in zip(first, reps))


# SHA-256 of replicate 0's (index as <u8, count as <i8) at master seed 1 on the 200,000-cell
# stand-in table of seed 1, taken before the zero-cell pre-screen.  Stream v2 keeps every
# alpha = 0 draw, so these pins still hold.
_STREAM_V1_DIGESTS = [
    ("poisson", 0.0, 0.0, "aab549769bfbd6432c16dcab0db9badb188330776bf5e57f3fbe091f914a0670"),
    ("nbi", 1.0, 0.0, "097077b81e19ca25f2f9b0a5968423cf01802326926eac63b2f41e45ac3e0788"),
    ("pig", 1.0, 0.0, "8b1af68e1b45d905a5cb6de70807958230033dbf4fab9b08ab47d5dcc7646e82"),
]
# The same digests at alpha > 0 under stream v2, where the random zeros escape by geometric
# skipping.  The alpha* values are that table's match-zeros pseudocounts when stream v1 was
# pinned, so that only the draw path is tested.
_STREAM_V2_DIGESTS = [
    ("poisson", 0.0, 0.016999376315571708, "ddd825dbdd7d9daebbd7f2d47c768758a88ed55ef265f21a53085f15ce4dfe84"),
    ("nbi", 1.0, 0.03130325542044621, "e042126f0785fc239f4b7982ac69a1e82542fc43daad31a797dce33ef92ad495"),
    ("pig", 1.0, 0.02734836268247698, "cb9f3e7ad194765f5827d727683d2c5c11cff4294715783f6011384addc79c88"),
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


@pytest.mark.parametrize("family,sigma,alpha,digest", _STREAM_V2_DIGESTS)
def test_stream_v2_draws_do_not_drift(stand_in_table, family, sigma, alpha, digest):
    job = SynthesisJob(CountModelSpec(family, sigma=sigma, alpha=alpha), master_seed=1)
    assert synthesis.STREAM_VERSION == 2
    for threads in (1, 2):
        syn = synthesize(stand_in_table, job, threads=threads)[0].table
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
    # at alpha > 0 only the random zeros' one block (per replicate) reads uniform_block, past every cell's block
    synthesize(table, SynthesisJob(CountModelSpec("nbi", 1.0, 0.5), 3, m=2))
    assert starts == [2**64, 2**64]


def _count_pieces(monkeypatch) -> list:
    calls = []
    draw = synthesis._occupied

    def counted(*args):
        calls.append((args[6], args[3]))  # (replicate, start)
        return draw(*args)

    monkeypatch.setattr(synthesis, "_occupied", counted)
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


def _table_of_2_to_the_60_cells() -> SparseContingencyTable:
    schema = CategoricalSchema([(f"v{j}", ["0", "1"]) for j in range(60)])
    rng = np.random.default_rng(5)
    idx = np.unique(rng.integers(0, 2**60, 1_000, dtype=np.uint64))
    return SparseContingencyTable(schema, idx, rng.integers(1, 50, idx.size), [2**60 - 1])


def test_tiny_alpha_on_a_2_to_the_60_cell_table_finishes_in_under_a_second():
    # stream v1 drew every cell at alpha > 0, so it refused tables beyond 2**40 cells
    table = _table_of_2_to_the_60_cells()
    job = SynthesisJob(CountModelSpec("nbi", sigma=1.0, alpha=1e-15), master_seed=3)
    synthesize(small_table(), job)  # the samplers' imports are not the table's cost
    start = time.perf_counter()
    syn = synthesize(table, job)[0].table
    assert time.perf_counter() - start < 1.0
    at_zero = synthesize(table, SynthesisJob(CountModelSpec("nbi", sigma=1.0, alpha=0.0), master_seed=3))[0].table
    np.testing.assert_array_equal(syn.counts_at(table.index), at_zero.counts_at(table.index))
    escapes = np.setdiff1d(syn.index, table.index)
    expect = table.num_random_zeros * -math.expm1(logpmf("nbi", 0, 1e-15, 1.0))  # about 1,150
    assert abs(escapes.size - expect) < 6 * math.sqrt(expect)
    assert escapes[-1] < 2**60 - 1  # the structural zero stays zero


def test_a_job_expecting_more_escapes_than_the_bound_is_refused_before_it_draws(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew uniforms before refusing the job")

    monkeypatch.setattr(synthesis, "uniform_rows", no_draws)
    monkeypatch.setattr(synthesis, "uniform_block", no_draws)
    job = SynthesisJob(CountModelSpec("nbi", sigma=1.0, alpha=0.5), master_seed=3)
    with pytest.raises(ValidationError, match=r"alpha = 0\.5 expects 3\.8\d*e\+17 of the \d+ random zeros to escape, "
                                              r"above the 268435456 \(2\*\*28\) a replicate may hold"):
        synthesize(_table_of_2_to_the_60_cells(), job)


@settings(max_examples=300, deadline=None)
@example(p=5e-324, zeros=2**64 - 1, last=True)
@example(p=5e-324, zeros=2**64 - 1, last=False)
@example(p=1.0, zeros=2**64 - 1, last=True)
@example(p=1.0 - 2**-53, zeros=1, last=False)
@given(p=st.floats(5e-324, 1.0), zeros=st.integers(1, 2**64 - 1), last=st.booleans())
def test_escape_gaps_never_overflow_nor_pass_the_last_rank(p, zeros, last):
    width = math.ceil(min(2.0**62, synthesis.ZERO_BLOCK_ESCAPES / p))  # as synthesis._escapes sets it
    with np.errstate(divide="ignore"):  # p = 1: log pmf(0) is -inf
        # no taken cells: each random zero's cell is its rank
        law = synthesis._Escapes(zeros, float(np.log1p(-p)), np.ones(1), width, np.zeros(0, np.uint64))
    block = -(-zeros // width) - 1 if last else 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN or inf cast to uint64 warns
        ranks, counts = law.draw(7, 0, block)
    lo, hi = block * width, min(zeros, (block + 1) * width)
    assert ranks.dtype == np.uint64 and counts.dtype == np.int64 and ranks.size == counts.size
    assert (counts == 1).all() and ranks.size <= hi - lo
    if ranks.size:
        assert lo <= int(ranks[0]) and int(ranks[-1]) < hi and (np.diff(ranks.astype(object)) > 0).all()


@st.composite
def _rank_map_tables(draw):
    """A 1-3-variable table of occupied cells, structural zeros and random zeros: structural zeros
    on the first or last cell and in runs, and occupied sets from empty to nearly full."""
    levels = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    k = math.prod(levels)
    status = np.array(draw(st.lists(st.sampled_from("ors"), min_size=k, max_size=k)))  # occupied, random, structural
    fill = draw(st.sampled_from(["as drawn", "empty", "nearly full"]))
    if fill == "empty":
        status[status == "o"] = "r"
    elif fill == "nearly full":
        status[status == "r"] = "o"
        status[draw(st.lists(st.integers(0, k - 1), max_size=2))] = "r"
    for start, length in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(1, k)), max_size=3)):
        status[start:start + length] = "s"
    for end in (0, -1):
        if draw(st.booleans()):
            status[end] = "s"
    schema = CategoricalSchema([(f"v{j}", [str(i) for i in range(n)]) for j, n in enumerate(levels)])
    occupied = np.flatnonzero(status == "o")
    return SparseContingencyTable(schema, occupied, np.ones(occupied.size, np.int64), np.flatnonzero(status == "s"))


@settings(max_examples=150, deadline=None)
@given(table=_rank_map_tables(), block_escapes=st.integers(1, 8))
def test_every_random_zero_escapes_to_its_own_cell_at_poisson_alpha_50(table, block_escapes):
    # a random zero stays zero with probability e**-50, so the escapes are exactly the random zeros
    # and any slip of the rank-to-cell map shows; blocks of a few ranks cut the runs at their edges
    want = np.setdiff1d(np.arange(table.num_cells, dtype=np.uint64), np.union1d(table.index, table.structural))
    job = SynthesisJob(CountModelSpec("poisson", alpha=50.0), master_seed=5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis, "ZERO_BLOCK_ESCAPES", block_escapes)
        for threads in (1, 3):
            rep = synthesize(table, job, threads=threads)[0].table
            np.testing.assert_array_equal(np.setdiff1d(rep.index, table.index), want, err_msg=f"threads {threads}")


@pytest.mark.parametrize("family,sigma,alpha", [("poisson", 0.0, 1e8), ("nbi", 1e6, 100.0), ("pig", 1e6, 100.0)])
def test_an_escape_count_cdf_past_max_pmf_entries_is_a_validation_error(family, sigma, alpha):
    table = SparseContingencyTable(line_schema(10), [3], [5])
    job = SynthesisJob(CountModelSpec(family, sigma=sigma, alpha=alpha), master_seed=1)
    with pytest.raises(ValidationError, match=re.escape(f"an escape's count at alpha = {alpha:g} needs over {MAX_PMF_ENTRIES}")):
        synthesize(table, job)


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


@pytest.mark.parametrize("family", ["poisson", "nbi", "pig"])
def test_full_scale_alpha_zero_at_two_threads_stays_under_13_mib(family):
    # the occupied rows' pieces of 2**15 rows; at 2**16 rows the traced NBI peak was 14.7-18.6 MiB
    table = generate_table(esc_like_spec(), 1)
    job = SynthesisJob(CountModelSpec(family, 1.0, 0.0), master_seed=1)
    tracemalloc.start()
    try:
        synthesize(table, job, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13 * 2**20
