import math

import numpy as np
import pytest

from satsynth import models, taumetrics
from satsynth.errors import UndefinedResultError, ValidationError
from satsynth.generator import ESC_LIKE_CELL_SIZE_FREQUENCIES, ESC_LIKE_TAIL
from satsynth.models import CountModelSpec
from satsynth.schema import CategoricalSchema
from satsynth.synthesis import SynthesisJob, synthesize
from satsynth.table import CellSizeDistribution, SparseContingencyTable
from satsynth.taumetrics import (
    MAX_K_REPORT,
    MAX_PMF_ENTRIES,
    TauCurve,
    TauReport,
    tau1_expected,
    tau4_expected,
    tau_analytic,
    tau_empirical,
)

from oracles import tau4_reduced

ALL_ONES = CellSizeDistribution.from_proportions({1: 1.0})
HALF_ZERO_HALF_ONE = CellSizeDistribution.from_proportions({0: 0.5, 1: 0.5})


def table2_reference_dist() -> CellSizeDistribution:
    """Published 12-bucket histogram with the >= 11 tail folded into one size."""
    cells = dict(ESC_LIKE_CELL_SIZE_FREQUENCIES)
    cells[ESC_LIKE_TAIL["start"]] = ESC_LIKE_TAIL["cells"]
    return CellSizeDistribution.from_counts(cells)


def test_tau1_all_ones_poisson():
    assert tau1_expected(ALL_ONES, "poisson", 0.0, 0.0, 1) == pytest.approx(math.exp(-1), rel=1e-14)


def test_tau1_zero_dominates_tau2_zero_when_alpha_zero():
    for fam, sigma in (("poisson", 0.0), ("nbi", 1.0), ("pig", 1.0)):
        t1 = tau1_expected(table2_reference_dist(), fam, sigma, 0.0, 0)
        assert t1 >= table2_reference_dist().proportion(0)


def test_tau3_constants():
    tau3 = lambda fam, sigma, k: tau_analytic(ALL_ONES, fam, sigma, 0.0, k_report=1).tau3[k]
    assert tau3("poisson", 0.0, 1) == pytest.approx(math.exp(-1), abs=5e-5)
    # sigma=1, k=1: (sigma k)^k / (1 + sigma k)^(k + 1/sigma) with unit gamma factor
    assert tau3("nbi", 1.0, 1) == pytest.approx(0.25, rel=1e-14)
    for fam in ("poisson", "nbi", "pig"):
        assert tau3(fam, 1.0, 0) == 1.0


def test_tau4_all_ones_is_one():
    for fam, sigma in (("poisson", 0.0), ("nbi", 1.0), ("pig", 2.0)):
        assert tau4_expected(ALL_ONES, fam, sigma, 0.0, 1) == pytest.approx(1.0, rel=1e-12)


def test_tau4_zero_term_vanishes_with_alpha_zero():
    assert tau4_expected(HALF_ZERO_HALF_ONE, "poisson", 0.0, 0.0, 1) == pytest.approx(1.0, rel=1e-12)


def test_bayes_identity_analytic():
    dist = table2_reference_dist()
    for fam, sigma in (("poisson", 0.0), ("nbi", 1.0), ("pig", 1.0)):
        for alpha in (0.0, 0.02):
            rep = tau_analytic(dist, fam, sigma, alpha, k_report=3)
            for i in range(4):
                lhs = rep.tau4[i] * rep.tau1[i]
                rhs = rep.tau3[i] * rep.tau2[i]
                assert lhs == pytest.approx(rhs, abs=1e-12)


def test_reduced_tau4_matches_bayes_quotient():
    dist = table2_reference_dist()
    for fam in ("nbi", "pig", "poisson"):
        for sigma in (0.1, 1.0, 10.0):
            for alpha in (0.0, 0.02):
                for k in range(6):
                    bayes = tau4_expected(dist, fam, sigma, alpha, k)
                    reduced = tau4_reduced(dist, fam, sigma, alpha, k)
                    assert reduced == pytest.approx(bayes, rel=1e-10), (fam, sigma, alpha, k)


def test_tau1_sums_to_one_over_sizes():
    dist = table2_reference_dist()
    for fam, sigma in (("poisson", 0.0), ("nbi", 1.0), ("pig", 1.0)):
        for alpha in (0.0, 0.02):
            vals = tau_analytic(dist, fam, sigma, alpha, k_report=600).tau1
            assert vals.sum() >= 1 - 1e-9, (fam, sigma, alpha, vals.sum())
            # the range route must agree with the scalar route
            for k in (0, 1, 3):
                assert vals[k] == pytest.approx(
                    tau1_expected(dist, fam, sigma, alpha, k), rel=1e-12
                )


def test_poisson_limit_of_analytic_taus():
    dist = table2_reference_dist()
    for k in range(4):
        base1 = tau1_expected(dist, "poisson", 0.0, 0.02, k)
        base4 = tau4_expected(dist, "poisson", 0.0, 0.02, k)
        for fam in ("nbi", "pig"):
            assert tau1_expected(dist, fam, 1e-9, 0.02, k) == pytest.approx(base1, abs=1e-6)
            assert tau4_expected(dist, fam, 1e-9, 0.02, k) == pytest.approx(base4, abs=1e-6)


def test_tau4_unique_risk_nonincreasing_in_sigma():
    dist = table2_reference_dist()
    sigmas = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    for fam in ("nbi", "pig"):
        vals = [tau4_expected(dist, fam, s, 0.0, 1) for s in sigmas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), (fam, vals)


def test_tau4_decreasing_in_alpha_at_fixed_sigma():
    dist = table2_reference_dist()
    for fam, sigma in (("poisson", 0.0), ("nbi", 1.0), ("pig", 1.0)):
        vals = [tau4_expected(dist, fam, sigma, a, 1) for a in (0.0, 0.005, 0.01, 0.02, 0.05)]
        assert all(a > b for a, b in zip(vals, vals[1:])), (fam, vals)


def test_tau4_undefined_when_unreachable():
    with pytest.raises(UndefinedResultError):
        tau4_expected(CellSizeDistribution.from_proportions({0: 1.0}), "poisson", 0.0, 0.0, 1)


def test_tau4_expected_has_one_method():
    # the cancelled-ratio route is the test oracle ``tau4_reduced``, not a method
    with pytest.raises(ValidationError, match="method must be 'bayes'"):
        tau4_expected(ALL_ONES, "poisson", 0.0, 0.0, 1, method="reduced")


# -- empirical ---------------------------------------------------------------


def grid_table(num_cells: int, counts: dict[int, int]) -> SparseContingencyTable:
    schema = CategoricalSchema([("cell", [f"c{i}" for i in range(num_cells)])])
    return SparseContingencyTable.from_dict(schema, {(i,): c for i, c in counts.items()})


def test_empirical_identity_synthesis():
    table = grid_table(50, {0: 1, 1: 2, 2: 2, 3: 5})
    rep = tau_empirical(table, table, k_report=5)
    for i, k in enumerate(rep.ks):
        if rep.tau2[i] > 0:
            assert rep.tau3[i] == 1.0
            assert rep.tau4[i] == 1.0
    assert rep.tau1[1] == rep.tau2[1]


def test_empirical_zero_stays_zero_with_alpha_zero():
    table = grid_table(300, {i: 1 + (i % 3) for i in range(60)})
    job = SynthesisJob(CountModelSpec("nbi", sigma=1.0, alpha=0.0), master_seed=3, m=5)
    reps = synthesize(table, job)
    rep = tau_empirical(table, reps, k_report=3)
    assert rep.tau3[0] == 1.0


def test_empirical_tau3_one_matches_poisson_rate():
    table = grid_table(1000, {i: 1 for i in range(400)})
    m = 200
    job = SynthesisJob(CountModelSpec("poisson"), master_seed=10, m=m)
    reps = synthesize(table, job)
    rep = tau_empirical(table, reps, k_report=1)
    p = math.exp(-1)
    se = math.sqrt(p * (1 - p) / (400 * m))
    assert abs(rep.tau3[1] - p) < 3 * se


def test_empirical_converges_to_analytic():
    table = grid_table(2000, {i: 1 + (i % 4) for i in range(800)})
    from satsynth.taumetrics import tau2_of_table

    dist = tau2_of_table(table)
    spec = CountModelSpec("nbi", sigma=0.5, alpha=0.01)
    errs = []
    for m in (8, 64):
        reps = synthesize(table, SynthesisJob(spec, master_seed=42, m=m))
        emp = tau_empirical(table, reps, k_report=2)
        ana = tau_analytic(dist, "nbi", 0.5, 0.01, k_report=2)
        errs.append(abs(emp.tau1[1] - ana.tau1[1]))
    # O(1/sqrt(m)): eightfold replicates should cut the error roughly by half or better
    assert errs[1] < errs[0] * 1.2  # allow noise, must not grow


def test_empirical_absent_bucket_is_nan():
    table = grid_table(10, {0: 5})
    rep = tau_empirical(table, table, k_report=3)
    assert math.isnan(rep.tau3[1])
    assert math.isnan(rep.tau4[1])


def test_empirical_rejects_negative_k_report():
    table = grid_table(10, {0: 5, 1: 1})
    with pytest.raises(ValidationError, match="k_report"):
        tau_empirical(table, table, k_report=-1)


@pytest.mark.parametrize("k_report", [2.5, True, np.float64(3.0)])
def test_k_report_that_is_not_an_integer_is_refused(k_report):
    # 2.5 raised a raw TypeError from np.bincount, and True was taken as 1
    table = grid_table(10, {0: 5, 1: 1})
    with pytest.raises(ValidationError, match="^k_report must be >= 0 and at most the limit"):
        tau_empirical(table, table, k_report=k_report)
    with pytest.raises(ValidationError, match="^k_report must be >= 0 and at most the limit"):
        tau_analytic(HALF_ZERO_HALF_ONE, "nbi", 1.0, 0.1, k_report=k_report)
    assert tau_empirical(table, table, k_report=np.int64(2)).ks.tolist() == [0, 1, 2]


@pytest.mark.parametrize("k_report", [MAX_K_REPORT + 1, 10**18])
def test_k_report_above_its_limit_is_refused_before_allocation(k_report):
    # 10**18 reports would ask numpy for an 8-EB array: the check runs first
    table = grid_table(10, {0: 5, 1: 1})
    message = f"k_report must be >= 0 and at most the limit {MAX_K_REPORT}, got {k_report}"
    with pytest.raises(ValidationError, match=message):
        tau_empirical(table, table, k_report=k_report)
    with pytest.raises(ValidationError, match=message):
        tau_analytic(HALF_ZERO_HALF_ONE, "nbi", 1.0, 0.1, k_report=k_report)


def test_analytic_pmf_matrix_above_its_limit_is_refused():
    means = 100  # alpha and 99 occupied sizes
    dist = CellSizeDistribution.from_counts({0: 1, **{j: 1 for j in range(1, means)}})
    limit = MAX_PMF_ENTRIES // means - 1  # (limit + 1) * means entries fit, one more row does not
    tau_analytic(dist, "poisson", 0.0, 0.1, k_report=0)
    with pytest.raises(ValidationError, match=f"at most the limit {limit}, got {limit + 1}"):
        tau_analytic(dist, "poisson", 0.0, 0.1, k_report=limit + 1)


def test_pig_k_report_above_its_bessel_bound_is_refused_before_any_ladder_row(monkeypatch):
    # PIG's tau3 steps K_{k-1/2} up to order k_report at k_report + 1 arguments; the ladder's own bound of
    # MAX_PMF_ENTRIES (order, argument) cells keeps 8,191 x 8,192 and refuses 8,192 x 8,193, where the pmf
    # matrix's limit on 4 sizes would allow 2**20: hours of rows
    def no_rows(t):
        raise AssertionError("stepped a ladder row")
        yield

    def no_pmf_range(*args):
        raise AssertionError("built the pmf matrix")

    dist = CellSizeDistribution.from_counts({0: 50, 1: 5, 2: 3, 7: 1})
    limit = 8191
    assert limit * (limit + 1) <= MAX_PMF_ENTRIES < (limit + 1) * (limit + 2)
    monkeypatch.setattr(models, "_rows", no_rows)
    monkeypatch.setattr(taumetrics, "pmf_range", no_pmf_range)
    for k_report in (limit + 1, MAX_K_REPORT):
        message = f"^the Bessel ladder would step {k_report} orders at {k_report + 1} arguments, above {MAX_PMF_ENTRIES} "
        with pytest.raises(ValidationError, match=message):
            tau_analytic(dist, "pig", 1.0, 0.5, k_report=k_report)
    with pytest.raises(AssertionError, match="stepped a ladder row"):  # PIG at its bound
        tau_analytic(dist, "pig", 1.0, 0.5, k_report=limit)
    for family, sigma in (("nbi", 1.0), ("pig", 1e-320)):  # NBI and PIG's Poisson limit step no ladder
        with pytest.raises(AssertionError, match="built the pmf matrix"):
            tau_analytic(dist, family, sigma, 0.5, k_report=limit + 1)


@pytest.mark.parametrize("alpha", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("family,sigma", [("poisson", 0.0), ("nbi", 1.0), ("pig", 1.0)])
def test_alpha_outside_its_domain_is_refused_at_every_evaluation(family, sigma, alpha):
    dist = table2_reference_dist()
    curve = TauCurve(dist, family, sigma, 1)
    for evaluate in (curve.tau1, curve.tau4):
        with pytest.raises(ValidationError):
            evaluate(alpha)
    with pytest.raises(ValidationError):
        tau1_expected(dist, family, sigma, alpha, 1)
    with pytest.raises(ValidationError):
        tau4_expected(dist, family, sigma, alpha, 1)
    with pytest.raises(ValidationError, match="^alpha must be finite and >= 0$"):  # not a bad mu
        tau_analytic(dist, family, sigma, alpha)


def test_alpha_that_overflows_pig_c_names_the_mean_not_sigma():
    # was "sigma must be > 0 and keep the PIG auxiliary c in float64, got 1"
    dist = table2_reference_dist()
    for evaluate in (lambda: tau_analytic(dist, "pig", 1.0, 1e308), lambda: TauCurve(dist, "pig", 1.0, 1).tau4(1e308)):
        with pytest.raises(ValidationError, match=r"^mu = 1e\+308 overflows the PIG auxiliary c at sigma = 1$"):
            evaluate()


def test_empirical_undefined_when_every_cell_is_structural():
    schema = CategoricalSchema([("cell", ["c0", "c1"])])
    table = SparseContingencyTable.from_dict(schema, {}, structural=[(0,), (1,)])
    with pytest.raises(UndefinedResultError, match="structural"):
        tau_empirical(table, table)


def test_empirical_rejects_schema_mismatch():
    a = grid_table(10, {0: 1})
    b = grid_table(11, {0: 1})
    with pytest.raises(ValidationError):
        tau_empirical(a, b)


def test_empirical_rejects_counts_on_structural_zeros():
    # a table of the same schema whose counts fill the original's structural zeros
    # reported tau1(0) = -2 and tau1(1) = 3
    schema = CategoricalSchema([("V", ["a", "b", "c"])])
    original = SparseContingencyTable.from_dict(schema, {(0,): 1}, structural=[(1,), (2,)])
    synthetic = SparseContingencyTable.from_dict(schema, {(0,): 1, (1,): 1, (2,): 1})
    with pytest.raises(ValidationError, match="structural zeros"):
        tau_empirical(original, synthetic, k_report=1)
    with pytest.raises(ValidationError, match="structural zeros"):
        tau_empirical(original, [original, synthetic], k_report=1)


def test_structural_zeros_outside_every_bucket():
    schema = CategoricalSchema([("cell", [f"c{i}" for i in range(10)])])
    table = SparseContingencyTable.from_dict(schema, {(0,): 2}, structural=[(9,)])
    rep = tau_empirical(table, table, k_report=2)
    assert rep.tau2[0] == pytest.approx(8 / 9)

    from satsynth.taumetrics import tau2_of_table

    assert tau2_of_table(table).proportion(0) == pytest.approx(8 / 9)


def test_report_serialization_roundtrip():
    dist = HALF_ZERO_HALF_ONE
    rep = tau_analytic(dist, "poisson", 0.0, 0.0, k_report=2)
    text = rep.to_csv(header_comments=["demo"])
    assert text.splitlines()[0] == "# demo"
    assert "tau4" in text.splitlines()[3]
    parsed = rep.to_json()
    assert '"mode": "analytic"' in parsed
