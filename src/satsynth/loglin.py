"""Desk-scale log-linear analysis of contingency tables.

Two routes to fitted counts under a margin/interaction specification:

* :func:`ipf_fit` — iterative proportional scaling until every named
  margin of the fitted table matches the observed margin; fast, no
  coefficients.
* :func:`fit_loglinear` — Poisson maximum likelihood by iteratively
  reweighted least squares on a treatment-coded dense design, yielding
  coefficients and standard errors for confidence-interval work.

Both are deliberately dense and small-scale: the package's synthesis
mechanism never needs them, they exist to score specific utility of
synthetic tables on low-dimensional margins.  Terms whose maximum
likelihood estimate diverges to -infinity (zero fitted margins) are
frozen at a large negative cap and flagged.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import linalg, special

from .errors import ConvergenceError, ValidationError
from .evaluation import Interval
from .schema import CategoricalSchema
from .table import SparseContingencyTable

MAX_DENSE_CELLS = 100_000
MAX_TERMS = 2_000

Term = tuple[str, ...]


@dataclass(frozen=True)
class MarginSpec:
    """The margins a fit must preserve, as variable-name subsets."""

    terms: tuple[Term, ...]

    def __init__(self, terms: Sequence[Sequence[str]]):
        norm: list[Term] = []
        seen = set()
        for t in terms:
            tt = tuple(t)
            if not tt:
                raise ValidationError("margin terms must be nonempty")
            if len(set(tt)) != len(tt):
                raise ValidationError(f"margin term {tt} repeats a variable")
            key = frozenset(tt)
            if key not in seen:
                seen.add(key)
                norm.append(tt)
        if not norm:
            raise ValidationError("need at least one margin term")
        object.__setattr__(self, "terms", tuple(norm))

    def validate_against(self, schema: CategoricalSchema) -> None:
        names = set(schema.names)
        for t in self.terms:
            missing = set(t) - names
            if missing:
                raise ValidationError(f"margin term {t} references unknown variables {sorted(missing)}")

    def model_terms(self) -> list[Term]:
        """Hierarchical closure: every nonempty subset of every margin."""
        out: dict[frozenset, Term] = {}
        for t in self.terms:
            for r in range(1, len(t) + 1):
                for sub in itertools.combinations(t, r):
                    out.setdefault(frozenset(sub), sub)
        return sorted(out.values(), key=lambda s: (len(s), s))


def ipf_fit(
    table: SparseContingencyTable,
    spec: MarginSpec,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> np.ndarray:
    """Fitted counts matching every margin in ``spec`` within ``tol``.

    Returns a dense array shaped like the schema.  Structural zeros are
    pinned at zero by a zero start value.  A specification naming all
    variables at once reproduces the observed counts exactly.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    spec.validate_against(table.schema)
    if table.num_cells > MAX_DENSE_CELLS:
        raise ValidationError(
            f"table has {table.num_cells} cells; dense fitting capped at {MAX_DENSE_CELLS}"
        )
    if table.n == 0:
        raise ValidationError("cannot fit an empty table")
    observed = table.to_dense().astype(np.float64)
    shape = table.schema.shape
    fitted = np.ones(shape, dtype=np.float64)
    if table.structural.size:
        flat = fitted.reshape(-1)
        flat[table.structural.astype(np.int64)] = 0.0

    positions = {n: i for i, n in enumerate(table.schema.names)}
    axes_per_term = [
        tuple(sorted(set(range(len(shape))) - {positions[v] for v in t}))
        for t in spec.terms
    ]
    obs_margins = [observed.sum(axis=ax, keepdims=True) for ax in axes_per_term]

    worst = math.inf
    for _ in range(max_iter):
        for ax, target in zip(axes_per_term, obs_margins):
            current = fitted.sum(axis=ax, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(current > 0.0, target / np.where(current > 0, current, 1.0), 1.0)
            fitted *= ratio
        worst = max(
            float(np.abs(fitted.sum(axis=ax, keepdims=True) - target).max())
            for ax, target in zip(axes_per_term, obs_margins)
        )
        if worst <= tol:
            return fitted
    raise ConvergenceError(
        f"margins not matched after {max_iter} sweeps; worst discrepancy {worst:.3g}"
    )


# -- design construction -----------------------------------------------------------


def build_design(
    schema: CategoricalSchema, terms: Sequence[Sequence[str]]
) -> tuple[np.ndarray, list[str]]:
    """Treatment-coded dense design for an intercept plus the given terms.

    Each variable's first category is the reference level, so a term over
    variables with l_1, ..., l_r categories contributes
    (l_1 - 1) * ... * (l_r - 1) columns.  Each column is a distinct
    tensor product of the per-variable basis {1, 1[x = a] for a != ref},
    so the design has full column rank; an empty term (a copy of the
    intercept) or one that repeats a variable would break that and is
    refused.
    """
    k = schema.num_cells
    if k > MAX_DENSE_CELLS:
        raise ValidationError(f"{k} cells exceeds the dense design cap {MAX_DENSE_CELLS}")
    coords = schema.coords_of_array(np.arange(k, dtype=np.uint64))
    cols: list[np.ndarray] = [np.ones(k, dtype=np.float64)]
    labels: list[str] = ["(Intercept)"]
    seen: set[frozenset] = set()
    for term in terms:
        term = tuple(term)
        if not term:
            raise ValidationError("model terms must be nonempty; the intercept is always included")
        if len(set(term)) != len(term):
            raise ValidationError(f"model term {term} repeats a variable")
        key = frozenset(term)
        if key in seen:
            continue
        seen.add(key)
        var_pos = [schema.variable_index(v) for v in term]
        cats = [schema.variables[i][1] for i in var_pos]
        nonref = [range(1, len(c)) for c in cats]
        for combo in itertools.product(*nonref):
            col = np.ones(k, dtype=np.float64)
            parts = []
            for pos, ordinal, cat_list, name in zip(var_pos, combo, cats, term):
                col *= coords[:, pos] == ordinal
                parts.append(f"{name}={cat_list[ordinal]}")
            cols.append(col)
            labels.append(":".join(parts))
    if len(labels) > MAX_TERMS:
        raise ValidationError(f"{len(labels)} parameters exceeds the dense cap {MAX_TERMS}")
    return np.column_stack(cols), labels


@dataclass(frozen=True)
class LoglinFit:
    """Poisson log-linear fit: coefficients, their SEs, fitted counts.

    ``cap_hit`` lists terms frozen at the negative cap (their true
    estimates are -infinity); those carry infinite standard errors.
    """

    coefficients: dict[str, float]
    standard_errors: dict[str, float]
    fitted: np.ndarray
    converged: bool
    cap_hit: frozenset[str]
    loglik: float
    terms: tuple[Term, ...] = field(default_factory=tuple)

    def intervals(self, level: float = 0.95) -> dict[str, Interval]:
        if not 0.0 < level < 1.0:
            raise ValidationError(f"level must lie in (0, 1), got {level}")
        z = float(special.ndtri(0.5 + level / 2.0))  # what stats.norm.ppf evaluates
        out = {}
        for name, est in self.coefficients.items():
            se = self.standard_errors[name]
            if math.isinf(se):
                out[name] = Interval(-math.inf, math.inf)
            else:
                out[name] = Interval(est - z * se, est + z * se)
        return out

    def to_csv(self, header_comments: Sequence[str] = ()) -> str:
        buf = io.StringIO()
        for line in header_comments:
            buf.write(f"# {line}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["term", "estimate", "se", "capped"])
        for name, est in self.coefficients.items():
            se = self.standard_errors[name]
            writer.writerow([name, repr(est), "inf" if math.isinf(se) else repr(se), int(name in self.cap_hit)])
        return buf.getvalue()


def fit_loglinear(
    table: SparseContingencyTable,
    terms: Sequence[Sequence[str]],
    cap: float = 20.0,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> LoglinFit:
    """Poisson ML fit of an intercept-plus-terms model by IRLS.

    ``terms`` are variable-name tuples (mains and interactions).  The
    score at the optimum is driven below ``tol`` componentwise for all
    unfrozen terms; standard errors come from the inverse observed
    information.
    """
    if cap <= 0:
        raise ValidationError("cap must be positive")
    if max_iter < 1:
        raise ValidationError("max_iter must be >= 1")
    if table.n == 0:
        raise ValidationError("cannot fit an empty table")
    x, labels = build_design(table.schema, terms)
    y = table.to_dense().astype(np.float64).ravel()

    # a zero observed margin sends the term's estimate to -infinity;
    # freeze such terms at -cap immediately and fit the rest around them
    frozen = (x.T @ y) == 0.0
    beta = np.zeros(x.shape[1])
    beta[frozen] = -cap
    free = ~frozen

    converged = False
    grad_norm = math.inf
    eta = np.log(y + 0.5)  # warm start near the saturated predictor
    mu = y + 0.5
    for _ in range(max_iter):
        w = mu
        offset = x[:, frozen] @ beta[frozen] if frozen.any() else 0.0
        z = eta + (y - mu) / mu - offset
        xf = x[:, free]
        xtw = xf.T * w
        lhs, rhs = xtw @ xf, xtw @ z
        try:
            beta[free] = linalg.solve(lhs, rhs, assume_a="pos")
        except linalg.LinAlgError:
            # weighted design collapsed (e.g. a separated pattern on its
            # way to the cap); take the minimum-norm step instead
            beta[free] = linalg.lstsq(lhs, rhs)[0]
        sank = free & (beta < -cap)
        if sank.any():  # heading for -infinity despite a nonzero margin
            beta[sank] = -cap
            frozen |= sank
            free = ~frozen
        eta = np.clip(x @ beta, -700.0, 700.0)
        mu = np.exp(eta)
        score = x.T @ (y - mu)
        grad_norm = float(np.abs(score[free]).max()) if free.any() else 0.0
        if grad_norm < tol:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"IRLS did not converge in {max_iter} iterations; last score norm {grad_norm:.3g}"
        )

    se = np.full(beta.size, math.inf)
    if free.any():
        info = (x[:, free].T * mu) @ x[:, free]
        cov = linalg.inv(info)
        se[free] = np.sqrt(np.diag(cov))
    loglik = poisson_loglik(y, mu)
    return LoglinFit(
        coefficients=dict(zip(labels, beta.tolist())),
        standard_errors=dict(zip(labels, se.tolist())),
        fitted=mu.reshape(table.schema.shape),
        converged=converged,
        cap_hit=frozenset(l for l, f in zip(labels, frozen) if f),
        loglik=loglik,
        terms=tuple(tuple(t) for t in terms),
    )


def all_two_way_terms(schema: CategoricalSchema) -> list[Term]:
    """Mains plus every two-variable interaction."""
    names = schema.names
    terms: list[Term] = [(n,) for n in names]
    terms.extend(itertools.combinations(names, 2))
    return terms


def poisson_loglik(y: np.ndarray, mu: np.ndarray) -> float:
    """Poisson log-likelihood, for comparing nested fits."""
    y = np.asarray(y, dtype=np.float64).ravel()
    mu = np.asarray(mu, dtype=np.float64).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(y > 0, y * np.log(np.where(mu > 0, mu, 1.0)), 0.0)
    if np.any((mu == 0) & (y > 0)):
        return -math.inf
    lg = np.array([math.lgamma(v + 1) for v in y])
    return float(np.sum(term - mu - lg))
