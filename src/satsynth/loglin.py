"""Desk-scale log-linear analysis of contingency tables.

:func:`fit_loglinear` fits an intercept-plus-terms Poisson model by
maximum likelihood, through iteratively reweighted least squares on a
treatment-coded design, and yields coefficients and standard errors for
confidence-interval work.

It works on the dense table and is capped at desk scale: the
package's synthesis mechanism never needs it; it exists to score
specific utility of synthetic tables on low-dimensional margins.
Each cell switches on at most one design column per term, and
:func:`fit_loglinear` runs its products over those active columns
alone; it forms the dense design only where the cells' pairs of active
columns outnumber its entries.  Terms whose maximum likelihood estimate
diverges to -infinity (zero fitted margins) are frozen at a large
negative cap and flagged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, ValidationError, integer
from .evaluation import Interval
from .schema import CategoricalSchema
from .table import SparseContingencyTable

MAX_DENSE_CELLS = 100_000
MAX_TERMS = 2_000
MAX_HALVINGS = 60

Term = tuple[str, ...]


# -- design construction -----------------------------------------------------------


def _design_slots(schema: CategoricalSchema, terms: Sequence[Sequence[str]]) -> tuple[np.ndarray, list[str]]:
    """Each cell's nonzero design columns, and the column labels.

    Slot 0 is the intercept and slot ``j`` the one column term ``j`` can
    switch on, or -1 where one of the term's variables sits at its
    reference level; every nonzero of the design is a 1.
    """
    k = schema.num_cells
    if k > MAX_DENSE_CELLS:
        raise ValidationError(f"{k} cells exceeds the dense design cap {MAX_DENSE_CELLS}")
    coords = schema.coords_of_array(np.arange(k, dtype=np.uint64))
    slots: list[np.ndarray] = [np.zeros(k, dtype=np.int64)]
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
        nonref = coords[:, var_pos] - 1  # ordinal among the non-reference levels
        on = (nonref >= 0).all(axis=1)
        slot = np.full(k, -1, dtype=np.int64)
        if on.any():
            slot[on] = len(labels) + np.ravel_multi_index(tuple(nonref[on].T), [len(c) - 1 for c in cats])
        slots.append(slot)
        for combo in itertools.product(*(range(1, len(c)) for c in cats)):
            labels.append(":".join(f"{name}={c[o]}" for name, c, o in zip(term, cats, combo)))
    if len(labels) > MAX_TERMS:
        raise ValidationError(f"{len(labels)} parameters exceeds the dense cap {MAX_TERMS}")
    return np.column_stack(slots), labels


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
    slots, labels = _design_slots(schema, terms)
    rows, which = np.nonzero(slots >= 0)
    x = np.zeros((slots.shape[0], len(labels)))
    x[rows, slots[rows, which]] = 1.0
    return x, labels


@dataclass(frozen=True)
class LoglinFit:
    """Poisson log-linear fit: coefficients, their SEs, fitted counts.

    ``cap_hit`` lists terms frozen at the negative cap (their true
    estimates are -infinity); those carry infinite standard errors.
    """

    coefficients: dict[str, float]
    standard_errors: dict[str, float]
    fitted: np.ndarray
    cap_hit: frozenset[str]
    loglik: float

    def intervals(self, level: float = 0.95) -> dict[str, Interval]:
        from statistics import NormalDist  # here, not at import: it adds ~4 ms to CLI start-up
        if not (0.0 < level and 0.5 + level / 2.0 < 1.0):  # the largest float below 1 rounds up to 1 here
            raise ValidationError(f"level must lie in (0, 1) with 0.5 + level / 2 below 1, got {level!r}")
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
        out = {}
        for name, est in self.coefficients.items():
            se = self.standard_errors[name]
            if math.isinf(se):
                out[name] = Interval(-math.inf, math.inf)
            else:
                out[name] = Interval(est - z * se, est + z * se)
        return out


def fit_loglinear(
    table: SparseContingencyTable,
    terms: Sequence[Sequence[str]],
    cap: float = 20.0,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> LoglinFit:
    """Poisson ML fit of an intercept-plus-terms model by IRLS.

    ``terms`` are variable-name tuples (mains and interactions).  Each row
    of the treatment-coded design holds at most one 1 per term, so
    ``X beta`` and ``X' v`` are sums over every cell's active columns, and
    so is ``X' W X`` over their pairs unless those outnumber the entries
    of the dense design, which is then formed for ``X' W X`` alone.
    ``X' W X`` is Cholesky-factored once per step.  A step
    that raises the Poisson deviance beyond rounding is halved until it
    does not (Marschner 2011, glm2).  The fit maximises the likelihood
    over coefficients no lower than ``-cap``: a term with a zero observed
    margin starts there, one that a step takes past it is held there, and
    a held term whose score points back up is let go again.  The terms
    left at ``-cap`` form ``cap_hit``.  The fit is within its bounds when
    every other term's score is at most ``tol * max(1, margin)``, with
    ``margin`` the term's observed total, and the last step raised the
    log-likelihood by at most ``tol * max(1, n)``; ``tol`` is thus
    relative, and the test holds at any table total.  The second bound
    matters where estimates run off to infinity: each step along such a
    ray takes about 1 - 1/e of the likelihood still to gain, so stopping
    when it takes little leaves little, however many rays there are.
    From the first point within the bounds the fit takes one more step
    and stops: a small score can still leave an ill-conditioned
    coefficient well away from its estimate, and one Newton step from
    there lands it within rounding.  ``max_iter`` counts that step too.
    Standard errors come from the Cholesky factor of the information at
    the fit, or, where it is numerically singular, from its eigenvectors:
    a coefficient that moves along a direction of zero information has
    an infinite standard error.
    """
    if not 0.0 < cap < math.inf:  # False for NaN
        raise ValidationError(f"cap must be positive and finite, got {cap}")
    max_iter = integer(max_iter, 1, None, "max_iter must be >= 1")
    if table.n == 0:
        raise ValidationError("cannot fit an empty table")
    y = table.to_dense().astype(np.float64).ravel()
    slots, labels = _design_slots(table.schema, terms)
    k, p = slots.shape[0], len(labels)
    on = slots >= 0
    rows, which = np.nonzero(on)
    cols = slots[rows, which]

    def x_dot(beta):
        return np.bincount(rows, beta[cols], k)

    def xt_dot(v):
        return np.bincount(cols, v[rows], p)

    # X' W X off its diagonal sums w over each cell's pairs of active columns.
    # Where the cells' pairs outnumber the k * p entries of the dense design
    # (many terms, few levels), the dense product takes no more memory and is
    # faster, so the design is formed instead.
    active = on.sum(axis=1)
    if int(np.sum(active * (active - 1) // 2)) <= k * p:
        pair_rows, pair_keys = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for a, b in itertools.combinations(range(slots.shape[1]), 2):
            r = np.flatnonzero(on[:, a] & on[:, b])
            pair_rows.append(r)
            pair_keys.append(slots[r, a] * p + slots[r, b])
        pair_rows, pair_keys = np.concatenate(pair_rows), np.concatenate(pair_keys)

        def information(w, free):
            upper = np.bincount(pair_keys, w[pair_rows], p * p).reshape(p, p)
            return (upper + upper.T + np.diag(xt_dot(w)))[np.ix_(free, free)]

    else:
        x = np.zeros((k, p))
        x[rows, cols] = 1.0

        def information(w, free):
            return ((x.T * w) @ x)[np.ix_(free, free)]

    def evaluate(beta):  # eta, mu, the Poisson deviance up to a constant, and its rounding slack
        eta = np.clip(x_dot(beta), -700.0, 700.0)
        mu = np.exp(eta)
        return eta, mu, float(np.sum(mu - y * eta)), 1e-11 * float(np.sum(mu + y * np.abs(eta)))

    margin = xt_dot(y)
    # a zero observed margin sends the term's estimate to -infinity;
    # freeze such terms at -cap immediately and fit the rest around them
    frozen = margin == 0.0
    beta = np.zeros(p)
    beta[frozen] = -cap
    bound = tol * np.maximum(1.0, margin)
    gain_bound = tol * max(1.0, float(table.n))

    # warm start near the saturated predictor; it is no X beta, so the first
    # step has nothing to be halved towards and is taken whole
    eta = np.log(y + 0.5)
    mu = y + 0.5
    loss, slack, gain = math.inf, math.inf, math.inf
    settled = False  # the last step was taken from within the bounds
    # each pass steps, lets go of held terms (whose scores then exceed their
    # bounds, so the next pass steps or raises), or ends the fit
    for step in itertools.count():
        free = ~frozen
        info = information(mu, free)
        try:  # None where singular: on the way to a cap or along a ray to infinity
            chol = np.linalg.cholesky(info)
            if np.diag(chol).min(initial=1) ** 2 <= len(info) * np.finfo(float).eps * np.diag(info).max(initial=0):
                chol = None
        except np.linalg.LinAlgError:
            chol = None
        score = xt_dot(y - mu)
        worst = float(np.max(np.abs(score[free]) / bound[free], initial=0.0))
        if step and worst <= 1.0 and gain <= gain_bound:
            # a term held at -cap whose score points back up was held after an
            # overshoot, not on its way to -infinity: let it go and fit on
            release = frozen & (score > bound)
            if release.any():
                frozen &= ~release
                settled = False
                continue
            if settled:
                break
            settled = True
        else:
            settled = False
        if step >= max_iter:
            raise ConvergenceError(
                f"IRLS did not converge in {max_iter} iterations; worst score/bound {worst:.3g}"
            )
        offset = x_dot(np.where(frozen, beta, 0.0))
        rhs = xt_dot(mu * (eta - offset) + (y - mu))[free]
        delta = (np.linalg.lstsq(info, rhs - info @ beta[free])[0] if chol is None  # least norm
                 else _solve_lower(chol.T[::-1, ::-1], _solve_lower(chol, rhs)[::-1])[::-1] - beta[free])
        for _ in range(MAX_HALVINGS):
            trial = beta.copy()
            trial[free] += delta
            eta, mu, trial_loss, trial_slack = evaluate(trial)
            if trial_loss <= loss + slack:
                break
            delta *= 0.5
        else:
            raise ConvergenceError(f"step-halving could not lower the deviance at iteration {step + 1}")
        beta, prior_loss, loss, slack = trial, loss, trial_loss, trial_slack
        sank = free & (beta < -cap)
        if sank.any():  # past -cap, perhaps on the way to -infinity: hold at the cap
            beta[sank] = -cap
            frozen |= sank
            eta, mu, loss, slack = evaluate(beta)
        gain = prior_loss - loss

    se = np.full(p, math.inf)
    se[free] = (_singular_standard_errors(info) if chol is None  # estimates running off to infinity
                else np.sqrt(np.sum(_solve_lower(chol, np.eye(len(chol))) ** 2, axis=0)))  # diag(L^-T L^-1)
    return LoglinFit(
        coefficients=dict(zip(labels, beta.tolist())),
        standard_errors=dict(zip(labels, se.tolist())),
        fitted=mu.reshape(table.schema.shape),
        cap_hit=frozenset(l for l, f in zip(labels, frozen) if f),
        loglik=poisson_loglik(y, mu),
    )


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with ``chol @ x = b``, ``chol`` lower-triangular, by blocks of 64 rows: numpy has no triangular
    solve.  A back substitution in ``chol.T`` is a forward one in ``chol.T[::-1, ::-1]``."""
    x = np.array(b, dtype=np.float64)
    for i in range(0, len(chol), 64):
        x[i : i + 64] = np.linalg.solve(chol[i : i + 64, i : i + 64], x[i : i + 64] - chol[i : i + 64, :i] @ x[:i])
    return x


def _singular_standard_errors(info: np.ndarray) -> np.ndarray:
    """Standard errors from a numerically singular information matrix.

    Eigenvalues within rounding of zero span the directions the fit
    cannot pin down; a coefficient with a loading on any of them gets an
    infinite standard error, the others the square root of their
    diagonal entry of the pseudo-inverse.
    """
    eps = np.finfo(np.float64).eps
    lam, vec = np.linalg.eigh(info)
    null = lam <= lam[-1] * len(lam) * eps
    var = (vec[:, ~null] ** 2) @ (1.0 / lam[~null])
    on_ray = np.abs(vec[:, null]).max(axis=1, initial=0.0) > math.sqrt(eps)
    return np.where(on_ray, math.inf, np.sqrt(var))


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
