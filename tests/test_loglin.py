import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgWarning

from oracles import MarginSpec, fit_loglinear_dense, ipf_fit
from satsynth.errors import ConvergenceError, ValidationError
from satsynth.generator import esc_like_spec, generate_table
from satsynth.loglin import (
    LoglinFit,
    all_two_way_terms,
    build_design,
    fit_loglinear,
    poisson_loglik,
)
from satsynth.models import CountModelSpec
from satsynth.schema import CategoricalSchema
from satsynth.synthesis import SynthesisJob, synthesize
from satsynth.table import SparseContingencyTable
from satsynth.taumetrics import tau2_of_table
from satsynth.tuning import alpha_star_match_zeros

pytestmark = pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")


def two_by_two(a, b, c, d):
    schema = CategoricalSchema([("A", ["a1", "a2"]), ("B", ["b1", "b2"])])
    return SparseContingencyTable.from_dict(
        schema, {(0, 0): a, (0, 1): b, (1, 0): c, (1, 1): d}
    )


def random_table(rng, sizes, zero_frac=0.0):
    schema = CategoricalSchema(
        [(f"v{i}", [f"c{j}" for j in range(s)]) for i, s in enumerate(sizes)]
    )
    k = schema.num_cells
    counts = rng.integers(1, 30, k)
    if zero_frac:
        counts[rng.random(k) < zero_frac] = 0
    flat = {tuple(schema.coords_of(i)): int(c) for i, c in enumerate(counts) if c > 0}
    return SparseContingencyTable.from_dict(schema, flat)


def test_ipf_independence_closed_form():
    table = two_by_two(10, 20, 30, 40)
    fitted = ipf_fit(table, MarginSpec([("A",), ("B",)]), tol=1e-10)
    np.testing.assert_allclose(fitted, [[12.0, 18.0], [28.0, 42.0]], rtol=1e-9)


def test_ipf_saturated_returns_observed():
    table = two_by_two(7, 3, 5, 11)
    fitted = ipf_fit(table, MarginSpec([("A", "B")]))
    np.testing.assert_allclose(fitted, table.to_dense().astype(float), atol=1e-12)


def test_ipf_two_way_margins_match():
    rng = np.random.default_rng(21)
    table = random_table(rng, (3, 4, 2))
    spec = MarginSpec([("v0", "v1"), ("v0", "v2"), ("v1", "v2")])
    fitted = ipf_fit(table, spec, tol=1e-9)
    observed = table.to_dense().astype(float)
    for pair, axis in ((("v0", "v1"), 2), (("v0", "v2"), 1), (("v1", "v2"), 0)):
        np.testing.assert_allclose(
            fitted.sum(axis=axis), observed.sum(axis=axis), atol=1e-8
        )


def test_ipf_nonconvergence_reports_discrepancy():
    rng = np.random.default_rng(4)
    table = random_table(rng, (3, 3, 3))
    spec = MarginSpec([("v0", "v1"), ("v0", "v2"), ("v1", "v2")])
    with pytest.raises(ConvergenceError, match="discrepancy"):
        ipf_fit(table, spec, tol=1e-13, max_iter=1)


def test_ipf_tolerance_is_relative_to_the_margins():
    # an absolute tol below the rounding floor of margins near 1e7 never converged
    rng = np.random.default_rng(21)
    table = random_table(rng, (3, 4, 2), zero_frac=0.2)
    scaled = SparseContingencyTable(table.schema, table.index, table.count * 10**6)
    spec = MarginSpec([("v0", "v1"), ("v0", "v2"), ("v1", "v2")])
    small = ipf_fit(table, spec, tol=1e-12, max_iter=5000)
    big = ipf_fit(scaled, spec, tol=1e-12, max_iter=5000)
    np.testing.assert_allclose(big, small * 1e6, rtol=1e-10)


def test_design_column_counts():
    schema = CategoricalSchema(
        [("e", [f"e{i}" for i in range(20)]), ("a", [f"a{i}" for i in range(19)]), ("l", [f"l{i}" for i in range(7)])]
    )
    x, labels = build_design(schema, all_two_way_terms(schema))
    assert x.shape == (2660, 608)
    assert len(labels) == 608
    assert labels[0] == "(Intercept)"


def test_intercept_only_closed_form():
    schema = CategoricalSchema([("one", ["only"])])
    table = SparseContingencyTable.from_dict(schema, {(0,): 7})
    fit = fit_loglinear(table, [], tol=1e-12)
    assert fit.coefficients["(Intercept)"] == pytest.approx(math.log(7), rel=1e-10)
    assert fit.standard_errors["(Intercept)"] == pytest.approx(1 / math.sqrt(7), rel=1e-8)


def test_irls_independence_matches_ipf():
    table = two_by_two(10, 20, 30, 40)
    fit = fit_loglinear(table, [("A",), ("B",)])
    np.testing.assert_allclose(fit.fitted, [[12.0, 18.0], [28.0, 42.0]], rtol=1e-8)


def test_ipf_irls_agreement_on_random_tables():
    rng = np.random.default_rng(2718)
    for trial in range(20):
        ndim = int(rng.integers(2, 5))
        sizes = tuple(int(s) for s in rng.integers(2, 4, ndim))
        table = random_table(rng, sizes)
        names = table.schema.names
        if ndim == 2 or rng.random() < 0.4:
            margins = [(n,) for n in names]
        else:
            margins = [tuple(p) for p in __import__("itertools").combinations(names, 2)]
        spec = MarginSpec(margins)
        fitted_ipf = ipf_fit(table, spec, tol=1e-10, max_iter=5000)
        fit = fit_loglinear(table, spec.model_terms(), tol=1e-9)
        np.testing.assert_allclose(
            fit.fitted, fitted_ipf, rtol=1e-6, atol=1e-6, err_msg=f"trial {trial} sizes {sizes}"
        )


def test_score_vanishes_and_matches_finite_difference():
    rng = np.random.default_rng(5)
    table = random_table(rng, (3, 3))
    terms = [("v0",), ("v1",), ("v0", "v1")]
    fit = fit_loglinear(table, terms, tol=1e-10)
    x, labels = build_design(table.schema, terms)
    y = table.to_dense().astype(float).ravel()
    beta = np.array([fit.coefficients[l] for l in labels])
    score = x.T @ (y - np.exp(x @ beta))
    assert np.abs(score).max() < 1e-8

    # finite-difference gradient of the log-likelihood
    eps = 1e-6
    for j in range(len(beta)):
        bp, bm = beta.copy(), beta.copy()
        bp[j] += eps
        bm[j] -= eps
        fd = (
            poisson_loglik(y, np.exp(x @ bp)) - poisson_loglik(y, np.exp(x @ bm))
        ) / (2 * eps)
        assert fd == pytest.approx(score[j], abs=2e-4 * max(1.0, abs(fd)))


def test_standard_errors_match_finite_difference_hessian():
    rng = np.random.default_rng(9)
    table = random_table(rng, (2, 3))
    terms = [("v0",), ("v1",)]
    fit = fit_loglinear(table, terms, tol=1e-12)
    x, labels = build_design(table.schema, terms)
    y = table.to_dense().astype(float).ravel()
    beta = np.array([fit.coefficients[l] for l in labels])

    eps = 1e-5
    p = beta.size
    hess = np.zeros((p, p))
    for j in range(p):
        bp, bm = beta.copy(), beta.copy()
        bp[j] += eps
        bm[j] -= eps
        gp = x.T @ (y - np.exp(x @ bp))
        gm = x.T @ (y - np.exp(x @ bm))
        hess[:, j] = (gp - gm) / (2 * eps)
    cov = np.linalg.inv(-hess)
    for j, l in enumerate(labels):
        assert fit.standard_errors[l] == pytest.approx(math.sqrt(cov[j, j]), rel=1e-4)


def test_adding_terms_never_decreases_loglik():
    rng = np.random.default_rng(31)
    table = random_table(rng, (3, 3, 2))
    base = fit_loglinear(table, [("v0",), ("v1",), ("v2",)])
    bigger = fit_loglinear(table, [("v0",), ("v1",), ("v2",), ("v0", "v1")])
    assert bigger.loglik >= base.loglik - 1e-9


def test_divergent_terms_hit_cap_and_flagged():
    schema = CategoricalSchema([("A", ["a1", "a2"]), ("B", ["b1", "b2"])])
    # empty a2/b2 margin cell drives the interaction to -infinity
    table = SparseContingencyTable.from_dict(schema, {(0, 0): 10, (0, 1): 5, (1, 0): 7})
    fit = fit_loglinear(table, [("A",), ("B",), ("A", "B")], cap=20.0)
    assert "A=a2:B=b2" in fit.cap_hit
    assert fit.coefficients["A=a2:B=b2"] == -20.0
    assert math.isinf(fit.standard_errors["A=a2:B=b2"])
    ivs = fit.intervals()
    assert math.isinf(ivs["A=a2:B=b2"].length)


def test_singular_information_on_a_ray_gives_infinite_standard_errors():
    """A fit that stops on a ray to infinity where the information has lost
    rank: coefficients along the ray get infinite standard errors, and one
    off it keeps its closed form.  With B and C interacting, B=b2 is the log
    odds of b2 against b1 at C=c1, where the counts are 2 and 4."""
    schema = CategoricalSchema([("A", ["a1", "a2"]), ("B", ["b1", "b2"]), ("C", ["c1", "c2", "c3"])])
    table = SparseContingencyTable.from_dict(schema, {(0, 1, 2): 2, (1, 0, 0): 2, (1, 1, 0): 4, (1, 1, 2): 5})
    fit = fit_loglinear(table, [("A",), ("B",), ("C",), ("A", "C"), ("B", "C")])
    on_ray = {name for name, se in fit.standard_errors.items() if math.isinf(se)} - fit.cap_hit
    assert on_ray  # infinite without being held at -cap
    assert fit.standard_errors["B=b2"] == pytest.approx(math.sqrt(1 / 2 + 1 / 4), rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_design_has_full_column_rank(data):
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4), label="sizes")
    names = [f"v{i}" for i in range(len(sizes))]
    schema = CategoricalSchema([(n, [f"c{j}" for j in range(s)]) for n, s in zip(names, sizes)])
    terms = data.draw(
        st.lists(
            st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True).flatmap(st.permutations),
            max_size=8,
        ),
        label="terms",
    )
    x, labels = build_design(schema, terms)
    assert x.shape == (schema.num_cells, len(labels))
    assert np.linalg.matrix_rank(x) == x.shape[1]


def test_design_rejects_terms_that_alias_columns():
    schema = CategoricalSchema([("A", ["a1", "a2"]), ("B", ["b1", "b2"])])
    with pytest.raises(ValidationError, match="nonempty"):
        build_design(schema, [("A",), ()])
    with pytest.raises(ValidationError, match="repeats a variable"):
        build_design(schema, [("A",), ("A", "A")])
    with pytest.raises(ValidationError, match="repeats a variable"):
        fit_loglinear(two_by_two(1, 2, 3, 4), [("B", "A", "B")])


def test_intervals_require_level_strictly_inside_unit_interval():
    fit = fit_loglinear(two_by_two(10, 20, 30, 40), [("A",), ("B",)])
    for level in (0.0, 1.0, 1.5, -0.5, math.nan, 1.0 - 2.0**-53):  # the last rounds 0.5 + level / 2 up to 1
        with pytest.raises(ValidationError, match="level"):
            fit.intervals(level)
    assert all(math.isfinite(iv.length) and iv.length > 0 for iv in fit.intervals(0.999).values())


def test_cap_must_be_positive_and_finite():
    for cap in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="cap must be positive and finite"):
            fit_loglinear(two_by_two(10, 20, 30, 40), [("A",), ("B",)], cap=cap)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, "x", True])
def test_tol_outside_its_domain_is_refused_before_any_step(tol):
    # -1 and nan ran 200 IRLS steps into a ConvergenceError, "x" raised a raw UFuncTypeError and True was taken as 1
    with pytest.raises(ValidationError, match="^tol must be finite and >= 0$"):
        fit_loglinear(two_by_two(10, 20, 30, 40), [("A",), ("B",)], tol=tol)


def test_the_dense_cap_is_checked_before_the_dense_table_is_formed(monkeypatch):
    # frontier without --variables on the full-scale table traced 55.5 MB in to_dense before the cap refused it
    schema = CategoricalSchema([("A", [str(i) for i in range(400)]), ("B", [str(i) for i in range(400)])])
    table = SparseContingencyTable.from_dict(schema, {(0, 0): 1})

    def refuse():
        raise AssertionError("to_dense ran before the cap")

    monkeypatch.setattr(SparseContingencyTable, "to_dense", lambda self: refuse())
    with pytest.raises(ValidationError, match="^160000 cells exceeds the dense design cap 100000$"):
        fit_loglinear(table, [("A",), ("B",)])


def test_margin_spec_closure_and_validation():
    spec = MarginSpec([("A", "B"), ("B", "C")])
    got = set(spec.model_terms())
    assert got == {("A",), ("B",), ("C",), ("A", "B"), ("B", "C")}
    with pytest.raises(ValidationError):
        MarginSpec([()])
    with pytest.raises(ValidationError):
        MarginSpec([("A", "A")])


def test_intervals_use_the_stdlib_normal_quantile_within_3_ulp_of_ndtri():
    from statistics import NormalDist

    from scipy import special

    fit = fit_loglinear(random_table(np.random.default_rng(5), (3, 2)), [("v0",), ("v1",)])
    for level in (0.5, 0.9, 0.95, 0.99, 0.999):
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
        ref = float(special.ndtri(0.5 + level / 2.0))
        assert abs(z - ref) <= 3 * math.ulp(ref), level
        for name, iv in fit.intervals(level).items():
            est, se = fit.coefficients[name], fit.standard_errors[name]
            assert (iv.lower, iv.upper) == (est - z * se, est + z * se)


def test_intervals_leave_scipy_stats_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import satsynth

    src = Path(satsynth.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from satsynth.loglin import fit_loglinear\n"
        "from satsynth.schema import CategoricalSchema\n"
        "from satsynth.table import SparseContingencyTable\n"
        "s = CategoricalSchema([('A', ['a1', 'a2']), ('B', ['b1', 'b2'])])\n"
        "t = SparseContingencyTable.from_dict(s, {(0, 0): 4, (0, 1): 3, (1, 0): 2, (1, 1): 6})\n"
        "fit_loglinear(t, [('A',), ('B',)]).intervals()\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120)
    assert proc.stdout.strip() == "False"


@st.composite
def sparse_tables_and_terms(draw):
    """A 1-3-variable table with sampling zeros and often a zero margin,
    and a hierarchical model: every main effect plus some interactions."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="sizes")
    names = [f"v{i}" for i in range(len(sizes))]
    schema = CategoricalSchema([(n, [f"c{j}" for j in range(s)]) for n, s in zip(names, sizes)])
    k = schema.num_cells
    cell = st.one_of(st.just(0), st.integers(1, 5), st.integers(1, 60))
    counts = draw(st.lists(cell, min_size=k, max_size=k), label="counts")
    if sum(counts) == 0:
        counts[draw(st.integers(0, k - 1))] = draw(st.integers(1, 60))
    flat = {schema.coords_of(i): c for i, c in enumerate(counts) if c}
    pairs = [tuple(p) for p in itertools.combinations(names, 2)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True), label="interactions") if pairs else []
    return SparseContingencyTable.from_dict(schema, flat), [(n,) for n in names] + chosen


def _rounding_floor(fit, x: np.ndarray, labels: list[str]) -> np.ndarray:
    """How far rounding alone leaves an IRLS fit from its MLE, per coefficient.

    Each step solves ``I beta = X'W z`` for the whole of ``beta``, not for an
    increment.  The right-hand side, of magnitude ``r = |X|' (mu (1 + |X| |beta|))``,
    is formed with relative error about eps, and a backward-stable Cholesky
    solve perturbs ``I`` by about ``eps |I|``, which adds ``eps |I| |beta|``,
    the same ``r`` again.  So the step lands within ``eps |I^-1| r`` of the
    MLE and no closer, however small its score: about 5e-8 where the
    standard errors reach 1e2 and the capped terms sit at -20, 1e-11 where
    they are near 1.
    """
    beta = np.array([fit.coefficients[l] for l in labels])
    free = np.array([l not in fit.cap_hit for l in labels])
    mu = fit.fitted.ravel()
    xf = x[:, free]
    floor = np.zeros(len(labels))
    floor[free] = np.finfo(np.float64).eps * (
        np.abs(np.linalg.inv((xf.T * mu) @ xf)) @ (xf.T @ (mu * (1.0 + x @ np.abs(beta))))
    )
    return floor


_INTERCEPTS_TWO_FLOORS_APART = (  # the fits' intercepts differ by 1.02e-8 at tol = 1e-10
    SparseContingencyTable(
        CategoricalSchema([("v0", ["c0", "c1", "c2", "c3"]), ("v1", ["c0", "c1"]), ("v2", ["c0", "c1", "c2", "c3"])]),
        [1, 2, 7, 8, 11, 14, 16, 19, 20, 22, 23, 25, 27, 28, 30],
        [1, 1, 1, 1, 1, 1, 1, 1, 4, 41, 58, 40, 1, 2, 1],
    ),
    [("v0",), ("v1",), ("v2",), ("v0", "v2"), ("v0", "v1"), ("v1", "v2")],
)


@settings(max_examples=300, deadline=None)
@given(sparse_tables_and_terms())
@example(_INTERCEPTS_TWO_FLOORS_APART)
def test_fit_matches_the_dense_irls_oracle(case):
    table, terms = case

    def dense(tol):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)  # the oracle's solve warns near the boundary
            return fit_loglinear_dense(table, terms, tol=tol)

    fit = fit_loglinear(table, terms)
    try:
        ref = dense(1e-8)
    except (ConvergenceError, np.linalg.LinAlgError):
        return  # the oracle itself fails; the fit above converged
    # where an estimate runs off to infinity, each fit stops once the cell means on
    # that ray fall below its score bound, which leaves up to about tol * n of loglik
    assert fit.loglik >= ref.loglik - 1e-9 * abs(ref.loglik) - 1e-8 * table.n

    x, labels = build_design(table.schema, terms)
    zero_margin = {l for l, m in zip(labels, x.T @ table.to_dense().ravel()) if m == 0}
    if not ref.cap_hit <= zero_margin:
        return  # the oracle capped a term whose estimate it only chased towards -inf
    if max(se for se in ref.standard_errors.values() if se < math.inf) > 1e3:
        # no finite MLE: both fits stopped on a ray to infinity, at different points,
        # once a cell's mean fell to about tol, where the standard error is about 1e4
        return
    # an interior MLE: at tol = 1e-10 each fit lies within about 1e-9 of it, or
    # within its rounding floor where that is larger (an ill-conditioned fit)
    fit, ref = fit_loglinear(table, terms, tol=1e-10), dense(1e-10)
    assert fit.cap_hit == ref.cap_hit
    floor = _rounding_floor(fit, x, labels) + _rounding_floor(ref, x, labels)
    for name, apart in zip(labels, floor):
        assert abs(fit.coefficients[name] - ref.coefficients[name]) <= 1e-8 + apart, name
        se, ref_se = fit.standard_errors[name], ref.standard_errors[name]
        assert se == ref_se or abs(se - ref_se) <= 1e-8 * ref_se, name


def demo_frontier_table():
    """The three-variable table of ``demos/04_risk_utility_frontier.py``."""
    rng = np.random.default_rng(41)
    schema = CategoricalSchema(
        [
            ("ethnicity", [f"e{i}" for i in range(6)]),
            ("age", [f"y{i}" for i in range(5)]),
            ("language", [f"l{i}" for i in range(4)]),
        ]
    )
    counts = rng.poisson(np.exp(rng.normal(0.6, 1.1, schema.num_cells)))
    return SparseContingencyTable(
        schema, np.flatnonzero(counts).astype(np.uint64), counts[counts > 0].astype(np.int64)
    )


@pytest.mark.parametrize(
    "sigma, replicate, best_loglik, n_capped",
    # the maximum over coefficients >= -cap, which L-BFGS-B with those bounds
    # also reaches.  Dense IRLS stopped at -1143.9993 (15 terms capped) and
    # -439.7960 (27 capped): wild steps sank finite estimates past -cap and it
    # held them there.  Step-halving alone reaches -149.3439 and -211.6107.
    [(2.0, 2, -149.3439, 6), (10.0, 1, -161.6203, 15)],
)
def test_boundary_fits_reach_the_better_likelihood(sigma, replicate, best_loglik, n_capped):
    table = demo_frontier_table()
    job = SynthesisJob(CountModelSpec("nbi", sigma=sigma, alpha=0.0), master_seed=13, m=3)
    syn = synthesize(table, job)[replicate].table
    fit = fit_loglinear(syn, all_two_way_terms(syn.schema), cap=20.0)
    assert abs(fit.loglik - best_loglik) <= 1e-3
    assert len(fit.cap_hit) == n_capped
    for name in fit.cap_hit:
        assert fit.coefficients[name] == -20.0
        assert math.isinf(fit.standard_errors[name])


def test_full_scale_projection_fits_in_few_steps_like_the_dense_oracle():
    """The ``frontier`` command's fits on the full-scale table: the original's
    three-variable projection and an NBI match-zeros replicate's."""
    table = generate_table(esc_like_spec(), 1)
    alpha = alpha_star_match_zeros(tau2_of_table(table), "nbi", 1.0)
    job = SynthesisJob(CountModelSpec("nbi", sigma=1.0, alpha=alpha), master_seed=1)
    variables = ["ethnicity", "age", "language"]
    terms = all_two_way_terms(table.project(variables).schema)
    for source in (table, synthesize(table, job)[0].table):
        proj = source.project(variables)
        fit = fit_loglinear(proj, terms, max_iter=5)
        ref = fit_loglinear_dense(proj, terms)
        assert fit.cap_hit == ref.cap_hit
        for name, est in fit.coefficients.items():
            assert abs(est - ref.coefficients[name]) <= 1e-8, name
        # the margins run to 1e6, where an absolute tol of 1e-11 was below rounding
        spec = MarginSpec([t for t in terms if len(t) == 2])
        np.testing.assert_allclose(ipf_fit(proj, spec, tol=1e-11), fit.fitted, rtol=1e-6)


def test_many_binary_variables_fit_like_the_dense_oracle_in_design_sized_memory():
    """All two-way terms over 12 binary variables: a cell switches on about 24
    columns, whose pairs outnumber the dense design's entries, so X' W X comes
    from the design.  Peak memory stays within a few copies of the design; a
    grid of pair keys over cells x slots x slots alone would take 79."""
    table = random_table(np.random.default_rng(5), [2] * 12)
    terms = all_two_way_terms(table.schema)
    design_bytes = table.num_cells * (1 + 12 + 66) * 8
    tracemalloc.start()
    try:
        fit = fit_loglinear(table, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * design_bytes
    ref = fit_loglinear_dense(table, terms)
    assert fit.cap_hit == ref.cap_hit == frozenset()
    for name, est in fit.coefficients.items():
        assert abs(est - ref.coefficients[name]) <= 1e-8, name
        assert abs(fit.standard_errors[name] - ref.standard_errors[name]) <= 1e-8 * ref.standard_errors[name], name
