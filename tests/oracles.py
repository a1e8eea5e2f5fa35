"""Independent reference computations used by the tests.

These deliberately avoid the package's own evaluation routes: Bessel
values come from direct adaptive quadrature of the integral definition,
mixture pmfs from numerical integration over the mixing density, the
canonical table CSV from a row-at-a-time :mod:`csv` writer and reader,
analytic tau1 and tau4 from a full pmf vector rebuilt for every alpha,
tau4 also as a ratio with the k-only factors cancelled, empirical tau and
within-p% from per-size set operations, and log-linear fits from IRLS on
the dense design matrix and from iterative proportional fitting.  The
samplers' statistical tests take the pmf's moments and truncation points
from here too.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import integrate, linalg, optimize, special

from satsynth.errors import ConvergenceError, FormatError, UndefinedResultError, ValidationError
from satsynth.loglin import MAX_DENSE_CELLS, LoglinFit, build_design, poisson_loglik
from satsynth.bessel import log_bessel_k_half
from satsynth.models import Family, pig_c, pmf, pmf_range
from satsynth.sampling import SLOTS_PER_DRAW, draw_counts
from satsynth.schema import CategoricalSchema
from satsynth.table import SparseContingencyTable


def _logcosh(x: float) -> float:
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


def log_bessel_k_quadrature(order: float, t: float) -> float:
    """log K_order(t) from K_v(t) = integral_0^inf cosh(v u) exp(-t cosh u) du.

    The integrand is rescaled by its peak value so the quadrature stays
    well-conditioned even when K spans hundreds of orders of magnitude.
    """
    v = abs(float(order))

    def g(u: float) -> float:
        return _logcosh(v * u) - t * math.cosh(u)

    # peak of the log-integrand; asinh(v/t) is where the exponential-order
    # growth of cosh(v u) balances the decay of exp(-t cosh u)
    u_peak_guess = math.asinh(v / t) if v > 0 else 0.0
    hi = max(1.0, 2.0 * u_peak_guess + 1.0)
    res = optimize.minimize_scalar(lambda u: -g(u), bounds=(0.0, hi), method="bounded")
    u_star = float(res.x)
    m = max(g(u_star), g(0.0))

    u_end = max(u_star, 1.0)
    while g(u_end) - m > -60.0:
        u_end *= 2.0
        if u_end > 1e6:
            break

    val, _ = integrate.quad(
        lambda u: math.exp(g(u) - m), 0.0, u_end, limit=400, epsabs=1e-300, epsrel=1e-13
    )
    return m + math.log(val)


def bessel_k_quadrature(order: float, t: float) -> float:
    return math.exp(log_bessel_k_quadrature(order, t))


def pig_pmf_quadrature(k: int, mu: float, sigma: float) -> float:
    """PIG pmf by integrating Poisson(k | lam) against the
    inverse-Gaussian(mean mu, shape mu/sigma) mixing density."""
    if mu == 0:
        return 1.0 if k == 0 else 0.0
    shape = mu / sigma

    def integrand(lam: float) -> float:
        if lam <= 0:
            return 0.0
        log_pois = k * math.log(lam) - lam - math.lgamma(k + 1)
        log_ig = (
            0.5 * (math.log(shape) - math.log(2 * math.pi) - 3.0 * math.log(lam))
            - shape * (lam - mu) ** 2 / (2.0 * mu**2 * lam)
        )
        return math.exp(log_pois + log_ig)

    hi = mu + sigma * mu**2 + 50.0 * math.sqrt(mu + sigma * mu**2) + 50.0
    val, _ = integrate.quad(integrand, 0.0, hi, limit=400, points=[mu], epsabs=1e-14, epsrel=1e-12)
    return val


def nbi_pmf_direct(k: int, mu: float, sigma: float) -> float:
    """Negative binomial pmf evaluated directly (no shared code)."""
    if mu == 0:
        return 1.0 if k == 0 else 0.0
    inv = 1.0 / sigma
    log_p = (
        math.lgamma(k + inv)
        - math.lgamma(k + 1)
        - math.lgamma(inv)
        + k * math.log(sigma * mu / (1.0 + sigma * mu))
        - inv * math.log(1.0 + sigma * mu)
    )
    return math.exp(log_p)


# -- the one-stage log pmf, frozen as the bit-identity reference -----------------------
#
# ``models.logpmf`` as it was before it was split into a (family, k, sigma)
# stage and a mean stage, together with every helper it called, the
# Bessel ladder included: the two-stage pmf must equal it bit for bit.


def _pig_c_v1(mu, sigma):
    mu = np.asarray(mu, dtype=np.float64)
    if not np.all((mu >= 0.0) & (mu < np.inf)):
        raise ValidationError("mu must be finite and >= 0")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = np.sqrt(1.0 / np.float64(sigma) ** 2 + 2.0 * mu / sigma)
    if not (sigma > 0.0 and np.all((c > 0.0) & (c < np.inf))):
        raise ValidationError(f"sigma must be > 0 and keep the PIG auxiliary c in float64, got {sigma:g}")
    return c


def _log_k_half_scaled_v1(n, t):
    m = np.where(n >= 1, n, 1 - n)
    key = (m - 1) * t.size + np.arange(t.size).reshape(t.shape)
    shape, key = key.shape, key.ravel()
    if key.size == 0:
        return np.zeros(shape)
    m_max = int(key.max()) // t.size + 1
    ladder = np.empty((min(m_max, max(1, key.size // t.size)), t.size))
    t = t.ravel()
    seed = 0.5 * np.log(np.pi / 2.0) - 0.5 * np.log(t)
    prev = cur = np.ones(t.size)
    exponent = np.zeros(t.size, dtype=np.int64)
    out = np.empty(key.size)
    first = 1
    for j in range(1, m_max + 1):
        if j >= 2:
            mantissa, shift = np.frexp(prev + (2 * j - 3) / t * cur)
            prev, cur = np.ldexp(cur, -shift), mantissa
            exponent += shift
        ladder[j - first] = seed + (exponent * np.log(2.0) + np.log(cur))
        if j - first + 1 == len(ladder) or j == m_max:
            lo, hi = (first - 1) * t.size, j * t.size
            at = np.flatnonzero((key >= lo) & (key < hi))
            out[at] = ladder.ravel()[key[at] - lo]
            first = j + 1
    return out.reshape(shape)


def _log_rising_ratio_v1(k, r):
    if r < 100.0:
        return special.gammaln(k + r) - special.gammaln(r) - k * np.log(r)
    series = lambda x: (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * x * x)) / (x * x)) / (x * x)) / x
    t = k / r
    with np.errstate(over="ignore"):
        return r * (np.log1p(t) - t) + (k - 0.5) * np.log1p(t) + (series(k + r) - series(r))


def _log1p_product_v1(x, y):
    out = np.log1p(x * y)
    return out if (out < np.inf).all() else np.where(out < np.inf, out, np.log(x) + np.log(y))


def logpmf_v1(family: Family | str, k, mu, sigma: float = 0.0):
    """log p(count = k | mean mu), evaluated in one pass as the package did
    before the two-stage split."""
    family = Family.coerce(family)
    if family is Family.POISSON or sigma == 0.0 or 1.0 / float(sigma) == math.inf:
        family = Family.POISSON
    k = np.asarray(k)
    if (k != np.floor(k)).any():
        raise ValidationError("counts must be integers")
    k = k.astype(np.int64)
    if (k < 0).any():
        raise ValidationError("counts must be >= 0")
    mu = np.asarray(mu, dtype=np.float64)
    if (mu < 0).any() or not np.isfinite(mu).all():
        raise ValidationError("mu must be finite and >= 0")
    if sigma < 0 or not math.isfinite(sigma):
        raise ValidationError("sigma must be finite and >= 0")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if family is Family.POISSON:
            out = k * np.log(mu) - mu - special.gammaln(k + 1.0)
        elif family is Family.NBI:
            log1p_sm = _log1p_product_v1(sigma, mu)
            out = (
                _log_rising_ratio_v1(k, 1.0 / sigma)
                + k * (np.log(mu) - log1p_sm)
                - log1p_sm / sigma
                - special.gammaln(k + 1.0)
            )
        else:
            c = _pig_c_v1(mu, sigma)
            out = (
                0.5 * (np.log(2.0) + np.log(c) - np.log(np.pi))
                + k * (np.log(mu) - 0.5 * _log1p_product_v1(2.0 * mu, sigma))
                - 2.0 * mu / (1.0 + sigma * c)
                + _log_k_half_scaled_v1(k, c)
                - special.gammaln(k + 1.0)
            )
    out = np.where(mu > 0.0, out, np.where(k == 0, 0.0, -np.inf))
    return float(out) if out.ndim == 0 else out


# -- moments and a truncation point of the pmf ----------------------------------------


def moments(family: Family | str, mu, sigma: float = 0.0):
    """(mean, variance): mean is mu for every family; variance is mu for
    Poisson and mu + sigma*mu**2 for NBI and PIG."""
    family = Family.coerce(family)
    mu = np.asarray(mu, dtype=np.float64)
    if np.any(mu < 0):
        raise ValidationError("mu must be >= 0")
    if sigma < 0:
        raise ValidationError("sigma must be >= 0")
    if family is Family.POISSON or sigma == 0.0:
        var = mu.copy()
    else:
        var = mu + sigma * mu**2
    if mu.ndim == 0:
        return float(mu), float(var)
    return mu, var


def truncation_for_mass(
    family: Family | str, mu: float, sigma: float = 0.0, tail: float = 1e-9
) -> int:
    """Smallest precomputed K* with sum_{k<=K*} pmf(k) >= 1 - tail.

    Found by doubling a moment-based initial guess; intended for finite
    normalization checks and tail-sum bounds.  A doubling that adds no
    more than the float sum's rounding error means ``tail`` is finer than
    the sum resolves: that raises :class:`ValidationError`.

    In every family the log-space pmf bounds that resolution at large
    counts, where ``k * log(mu)`` and ``log(k!)`` carry ~k log k ulps: at
    ``mu = 6000``, ``tail = 1e-12`` Poisson stalls near 1 - 6.2e-12 and PIG
    with ``sigma = 1/6000`` near 1 - 1.2e-11.  This limit is not chased.
    Heavy PIG tails resolve: ``("pig", 740, 10, 1e-12)`` gives K = 386,592.
    """
    family = Family.coerce(family)
    if not tail > 0.0:
        raise ValidationError("tail must be > 0")
    if mu == 0.0:
        return 0
    _, var = moments(family, mu, sigma)
    guess = int(mu + 10.0 * math.sqrt(var) + 20.0)
    previous = -math.inf
    while True:
        total = float(pmf_range(family, guess, mu, sigma).sum())
        if total >= 1.0 - tail:
            return guess
        if total - previous <= guess * np.finfo(np.float64).eps:
            raise ValidationError(
                f"mass stalls at {total!r} with K = {guess}, short of 1 - {tail}; "
                "the tail is finer than the float sum resolves"
            )
        previous = total
        guess *= 2


# -- tau1 and tau4 from one full pmf vector per alpha --------------------------------


def tau1_full_vector(dist, family: str, sigma: float, alpha: float, k: int) -> float:
    """tau1(k) from the pmf at every mean ``[alpha, sizes...]``, rebuilt for
    each alpha: the evaluation ``TauCurve`` must reproduce bit for bit."""
    means = np.concatenate(([float(alpha)], dist.nonzero_sizes.astype(np.float64)))
    weights = np.concatenate(([dist.proportion(0)], dist.nonzero_proportions))
    return float(pmf(family, k, means, sigma) @ weights)


def tau4_full_vector(dist, family: str, sigma: float, alpha: float, k: int) -> float:
    """tau3(k) * tau2(k) / tau1(k) with :func:`tau1_full_vector`."""
    t1 = tau1_full_vector(dist, family, sigma, alpha, k)
    if t1 <= 0.0:
        raise UndefinedResultError(f"tau4({k}) undefined: no synthetic cells of size {k} are expected")
    tau3 = float(pmf(family, k, alpha if k == 0 else float(k), sigma))
    return tau3 * dist.proportion(k) / t1


def tau4_reduced(dist, family: str, sigma: float, alpha: float, k: int) -> float:
    """tau4(k) as the cancelled ratio: the k-only constants shared by every
    term cancel between numerator and denominator, and only each mean's
    weight, written out per family apart from the pmf, survives.  Weights
    are handled in log space with a common reference, so the route stays
    finite for large sizes.
    """
    family = Family.coerce(family)
    if k < 0:
        raise ValidationError("k must be >= 0")
    if family is Family.POISSON or sigma == 0.0:
        if k == 0:
            logw = lambda mu: -mu
        else:
            logw = lambda mu: k * np.log(mu) - mu
    elif family is Family.NBI:
        if k == 0:
            logw = lambda mu: -np.log1p(sigma * mu) / sigma
        else:
            logw = lambda mu: k * np.log(mu) - (k + 1.0 / sigma) * np.log1p(sigma * mu)
    elif k == 0:
        logw = lambda mu: -pig_c(mu, sigma)
    else:
        logw = lambda mu: (
            (0.5 - k) * np.log(pig_c(mu, sigma)) + k * np.log(mu) + log_bessel_k_half(k, pig_c(mu, sigma))
        )

    means = np.concatenate(([float(alpha)], dist.nonzero_sizes.astype(np.float64)))
    weights = np.concatenate(([dist.proportion(0)], dist.nonzero_proportions))
    if k == 0:
        log_num = float(logw(float(alpha)))
        w_num = weights[0]
    else:
        log_num = float(logw(float(k)))
        w_num = dist.proportion(k)
        reach = means > 0.0  # mean 0 cannot reach k >= 1
        means, weights = means[reach], weights[reach]
    terms = logw(means)
    ref = terms.max() if terms.size else 0.0
    den = float(np.exp(terms - ref) @ weights)
    if den <= 0.0:
        raise UndefinedResultError(f"tau4({k}) undefined: no synthetic cells of size {k} are expected")
    return math.exp(log_num - ref) * w_num / den


def sample_iid(family: str, mu: float, sigma: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` independent draws at one mean, each from its own row of ``rng``'s uniforms."""
    return draw_counts(family, np.full(n, mu), sigma, rng.random((n, SLOTS_PER_DRAW)))


def chisq_pvalue_from_draws(draws: np.ndarray, pmf_vals: np.ndarray, min_expected: float = 5.0):
    """Goodness-of-fit p-value with tail buckets merged to min_expected.

    ``pmf_vals[k]`` is the model probability of k; remaining mass forms a
    final bucket.  Returns (statistic, dof, pvalue).
    """
    from scipy import stats

    n = draws.size
    kmax = pmf_vals.size - 1
    observed = np.bincount(np.minimum(draws, kmax + 1), minlength=kmax + 2).astype(float)
    expected = np.concatenate([pmf_vals, [max(1.0 - pmf_vals.sum(), 0.0)]]) * n

    # greedy left-to-right grouping keeps every expected count large enough
    obs_groups, exp_groups = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_groups.append(acc_o)
            exp_groups.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_o or acc_e:  # fold the small remainder into the last group
        if not exp_groups:
            raise ValueError("not enough expected mass to form a single bucket")
        obs_groups[-1] += acc_o
        exp_groups[-1] += acc_e
    obs_arr = np.asarray(obs_groups)
    exp_arr = np.asarray(exp_groups) * (obs_arr.sum() / np.asarray(exp_groups).sum())
    stat = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
    dof = obs_arr.size - 1
    pval = float(stats.chi2.sf(stat, dof))
    return stat, dof, pval


# -- canonical table CSV, one row at a time ------------------------------------------


def write_table_rowwise(table: SparseContingencyTable, fh) -> None:
    """The canonical aggregated CSV, one ``csv.writer`` row per cell.

    Unlike a plain ``csv.writer(fh, lineterminator="\\n")`` it quotes labels
    holding a lone CR, which that writer leaves bare and its reader then
    splits into two rows.
    """
    fh.write("# satsynth-table v1\n")
    fh.write(f"# schema: {table.schema.to_json()}\n")
    fh.write(f"# n: {table.n}\n")
    csv.writer(fh, lineterminator="\n").writerow(list(table.schema.names) + ["count", "structural"])
    row_text = io.StringIO()
    # a "\r\n" terminator makes csv quote fields holding a lone CR
    writer = csv.writer(row_text, lineterminator="\r\n")
    merged = np.concatenate([table.index, table.structural])
    counts = np.concatenate([table.count, np.zeros(table.structural.size, dtype=np.int64)])
    flags = np.concatenate(
        [np.zeros(table.index.size, dtype=np.int64), np.ones(table.structural.size, dtype=np.int64)]
    )
    order = np.argsort(merged, kind="stable")
    coords = table.schema.coords_of_array(merged[order])
    for row, c, s in zip(coords, counts[order], flags[order]):
        row_text.seek(0)
        row_text.truncate()
        writer.writerow(list(table.schema.labels_of(row)) + [int(c), int(s)])
        fh.write(row_text.getvalue()[:-2] + "\n")


def read_table_rowwise(path: str, schema: CategoricalSchema | None = None) -> SparseContingencyTable:
    """Aggregated-CSV reader that checks and decodes one ``csv.reader`` row at a time.

    Counts are parsed with Python ``int``, which also accepts underscores
    and non-ASCII digits that the table format rejects.
    """
    header_n = None
    with open(path, newline="", encoding="utf-8") as fh:
        lineno = 0
        line = fh.readline()
        while line.startswith("#"):
            lineno += 1
            body = line[1:].strip()
            if body.startswith("schema:"):
                parsed = CategoricalSchema.from_json(body[len("schema:"):].strip())
                if schema is None:
                    schema = parsed
            elif body.startswith("n:"):
                try:
                    header_n = int(body[len("n:"):].strip())
                except ValueError:
                    raise FormatError("unreadable n header", line=lineno) from None
            line = fh.readline()
        if schema is None:
            raise FormatError("no schema header found and none supplied")
        lineno += 1
        header = next(csv.reader([line])) if line else []
        expected = list(schema.names) + ["count", "structural"]
        if header != expected:
            raise FormatError(f"header {header!r}, expected {expected!r}", line=lineno)
        p = len(schema.names)
        idx, cnt, structural = [], [], []
        for row in csv.reader(fh):
            lineno += 1
            if len(row) != p + 2:
                raise FormatError(f"expected {p + 2} fields, got {len(row)}", line=lineno)
            try:
                flat = 0
                for j in range(p):
                    flat = flat * len(schema.variables[j][1]) + schema.ordinal(j, row[j])
            except ValidationError as exc:
                raise FormatError(str(exc), line=lineno) from None
            try:
                count = int(row[p])
            except ValueError:
                raise FormatError(f"unreadable count {row[p]!r}", line=lineno) from None
            if count < 0:
                raise FormatError(f"negative count {count}", line=lineno)
            if count > 2**63 - 1:
                raise FormatError(f"count {count} overflows 64-bit storage", line=lineno)
            if row[p + 1] not in ("0", "1"):
                raise FormatError(f"structural flag must be 0 or 1, got {row[p + 1]!r}", line=lineno)
            if row[p + 1] == "1":
                if count != 0:
                    raise FormatError("structural zero rows must have count 0", line=lineno)
                structural.append(flat)
            elif count > 0:
                idx.append(flat)
                cnt.append(count)
        seen = np.array(idx + structural, dtype=np.uint64)
        if seen.size != np.unique(seen).size:
            uniq, c = np.unique(seen, return_counts=True)
            dup = int(uniq[c > 1][0])
            raise FormatError(f"duplicate cell {schema.labels_of(schema.coords_of(dup))}")
        table = SparseContingencyTable(schema, idx, cnt, structural)
        if header_n is not None and header_n != table.n:
            raise FormatError(f"header n={header_n} but counts sum to {table.n}")
        return table


# -- the draw path before the sure-zero screen ----------------------------------------

_ORACLE_LOOP_CUT = 60.0


def _poisson_quantile_unscreened(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    k = np.ceil(special.pdtrik(u, lam))
    below = np.maximum(k - 1.0, 0.0)
    return np.where(special.pdtr(below, lam) >= u, below, k)


def poisson_inverse_unscreened(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``sampling.poisson_inverse`` as it was before the screen: no early zero test."""
    u = np.asarray(u, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    u, lam = np.broadcast_arrays(u, lam)
    out = np.zeros(u.shape, dtype=np.int64)

    big = lam > _ORACLE_LOOP_CUT
    if np.any(big):
        with np.errstate(invalid="ignore"):  # NaN quantiles cast to int64 here
            out[big] = _poisson_quantile_unscreened(u[big], lam[big]).astype(np.int64)

    small = (lam > 0.0) & ~big
    if np.any(small):
        ls = lam[small]
        us = u[small]
        k = np.zeros(ls.shape, dtype=np.int64)
        term = np.exp(-ls)
        cdf = term.copy()
        idx = np.flatnonzero(us >= cdf)
        steps = 0
        max_steps = int(_ORACLE_LOOP_CUT + 12.0 * np.sqrt(_ORACLE_LOOP_CUT) + 60)
        while idx.size and steps < max_steps:
            steps += 1
            k[idx] += 1
            term[idx] *= ls[idx] / k[idx]
            cdf[idx] += term[idx]
            idx = idx[us[idx] >= cdf[idx]]
        if idx.size:
            with np.errstate(invalid="ignore"):
                k[idx] = _poisson_quantile_unscreened(us[idx], ls[idx]).astype(np.int64)
        out[small] = k
    return out


def _inverse_gaussian_unscreened(mu, sigma, u_norm, u_pick):
    z = special.ndtri(u_norm)
    h = sigma * z * z
    small_root = 2.0 * mu / (2.0 + h + np.sqrt(h * (h + 4.0)))
    with np.errstate(divide="ignore"):
        large_root = np.where(small_root > 0.0, mu * mu / small_root, np.inf)
    take_small = u_pick <= mu / (mu + small_root)
    return np.where(take_small, small_root, large_root)


def mixing_unscreened(family: str, mm: np.ndarray, sigma: float, uu: np.ndarray):
    """(lambda, count uniform) of each live draw, as the draw path computed them."""
    if family == "poisson" or sigma == 0.0:
        return mm, uu[:, 0]
    if family == "nbi":
        return special.gammaincinv(1.0 / sigma, uu[:, 0]) * (sigma * mm), uu[:, 1]
    if family == "pig":
        return _inverse_gaussian_unscreened(mm, sigma, uu[:, 0], uu[:, 1]), uu[:, 2]
    raise ValueError(family)


def draw_counts_unscreened(family: str, mu, sigma: float, u: np.ndarray) -> np.ndarray:
    """``sampling.draw_counts`` before the sure-zero screen: every live cell runs
    the mixing kernel and the Poisson quantile.  NaN quantiles come out as
    negative int64 counts, as they did then."""
    mu = np.asarray(mu, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros(mu.shape, dtype=np.int64)
    live = mu > 0.0
    if not np.any(live):
        return out
    lam, u_count = mixing_unscreened(family, mu[live], sigma, u[live])
    out[live] = poisson_inverse_unscreened(u_count, lam)
    return out


# -- original against synthetic by per-size set operations ----------------------------


def _empirical_one_setwise(original: SparseContingencyTable, syn: SparseContingencyTable, ks):
    """One replicate's tau1..tau4 from a union and one intersection per size."""
    k_eff = original.num_cells - original.num_structural_zeros
    t1, t2, t3, t4 = (np.empty(ks.size) for _ in range(4))
    union_nonzero = np.union1d(original.index, syn.index).size
    for i, k in enumerate(ks):
        k = int(k)
        if k == 0:
            n_orig = k_eff - original.num_nonzero
            n_syn = k_eff - syn.num_nonzero
            stayed = k_eff - union_nonzero
        else:
            orig_k = original.index[original.count == k]
            syn_k = syn.index[syn.count == k]
            n_orig, n_syn = orig_k.size, syn_k.size
            stayed = np.intersect1d(orig_k, syn_k, assume_unique=True).size
        t1[i] = n_syn / k_eff
        t2[i] = n_orig / k_eff
        t3[i] = stayed / n_orig if n_orig else np.nan
        t4[i] = stayed / n_syn if n_syn else np.nan
    return t1, t2, t3, t4


def tau_empirical_setwise(original: SparseContingencyTable, synthetics, k_report: int):
    """(tau1, tau2, tau3, tau4) averaged over replicates as ``tau_empirical`` does."""
    ks = np.arange(k_report + 1)
    per_rep = [_empirical_one_setwise(original, s, ks) for s in synthetics]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return tuple(np.nanmean([rep[j] for rep in per_rep], axis=0) for j in range(4))


def within_p_percent_setwise(
    original: SparseContingencyTable,
    synthetic: SparseContingencyTable,
    p_list,
    nonzero_only: bool = False,
) -> dict[float, float]:
    """``evaluation.within_p_percent`` with its own alignment and ``np.isin``."""
    o_idx, o_cnt = original.index, original.count
    s_idx, s_cnt = synthetic.index, synthetic.count
    k_eff = original.num_cells - original.num_structural_zeros
    if o_idx.size and s_idx.size:
        pos = np.minimum(np.searchsorted(s_idx, o_idx), s_idx.size - 1)
        syn_at_orig = np.where(s_idx[pos] == o_idx, s_cnt[pos], 0)
    else:
        syn_at_orig = np.zeros(o_idx.size, dtype=np.int64)
    pct = 100.0 * np.abs(syn_at_orig - o_cnt) / o_cnt if o_cnt.size else np.zeros(0)
    n_zero_to_nonzero = int(np.isin(s_idx, o_idx, invert=True).sum())
    n_zero_stay_zero = (k_eff - original.num_nonzero) - n_zero_to_nonzero
    out = {}
    for p in p_list:
        inside_nonzero = int((pct <= p).sum())
        if nonzero_only:
            denom, inside = original.num_nonzero, inside_nonzero
        else:
            denom, inside = k_eff, inside_nonzero + n_zero_stay_zero
        if denom == 0:
            raise UndefinedResultError("no cells qualify for the within-p computation")
        out[float(p)] = inside / denom
    return out


# -- iterative proportional fitting ------------------------------------------------

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

    ``tol`` is relative: each fitted margin cell must lie within
    ``tol * max(1, observed)`` of the observed one, so a table and its
    multiple by any factor converge at the same ``tol``.  Returns a dense
    array shaped like the schema.  Structural zeros are
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
            float((np.abs(fitted.sum(axis=ax, keepdims=True) - target) / np.maximum(1.0, target)).max())
            for ax, target in zip(axes_per_term, obs_margins)
        )
        if worst <= tol:
            return fitted
    raise ConvergenceError(
        f"margins not matched after {max_iter} sweeps; worst relative discrepancy {worst:.3g}"
    )


# -- log-linear fit on the dense design --------------------------------------------


def fit_loglinear_dense(
    table: SparseContingencyTable,
    terms,
    cap: float = 20.0,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> LoglinFit:
    """``loglin.fit_loglinear`` as dense IRLS: ``XᵀWX`` from the full design
    each iteration, no step-halving, and an absolute score test."""
    if table.n == 0:
        raise ValidationError("cannot fit an empty table")
    x, labels = build_design(table.schema, terms)
    y = table.to_dense().astype(np.float64).ravel()

    frozen = (x.T @ y) == 0.0
    beta = np.zeros(x.shape[1])
    beta[frozen] = -cap
    free = ~frozen

    converged = False
    grad_norm = math.inf
    eta = np.log(y + 0.5)
    mu = y + 0.5
    for _ in range(max_iter):
        w = mu
        offset = x[:, frozen] @ beta[frozen] if frozen.any() else 0.0
        z = eta + (y - mu) / mu - offset
        xf = x[:, free]
        xtw = xf.T * w
        with np.errstate(over="ignore"):
            lhs, rhs = xtw @ xf, xtw @ z
        if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):  # no step-halving: it can diverge
            raise ConvergenceError("dense IRLS diverged")
        try:
            beta[free] = linalg.solve(lhs, rhs, assume_a="pos")
        except linalg.LinAlgError:
            beta[free] = linalg.lstsq(lhs, rhs)[0]
        sank = free & (beta < -cap)
        if sank.any():
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
        raise ConvergenceError(f"dense IRLS did not converge; last score norm {grad_norm:.3g}")

    se = np.full(beta.size, math.inf)
    if free.any():
        info = (x[:, free].T * mu) @ x[:, free]
        se[free] = np.sqrt(np.diag(linalg.inv(info)))
    return LoglinFit(
        coefficients=dict(zip(labels, beta.tolist())),
        standard_errors=dict(zip(labels, se.tolist())),
        fitted=mu.reshape(table.schema.shape),
        cap_hit=frozenset(l for l, f in zip(labels, frozen) if f),
        loglik=poisson_loglik(y, mu),
    )
