"""Count distributions used for cell synthesis: Poisson, NBI and PIG.

All three families are parameterised by a mean ``mu`` (set to the
original cell count during synthesis) and, for the two-parameter
families, a dispersion ``sigma``:

* NBI — negative binomial, a Gamma mixture of Poissons,
  ``Var = mu + sigma * mu**2``;
* PIG — Poisson-inverse Gaussian, an inverse-Gaussian mixture of
  Poissons, with the same mean/variance but heavier tails.

``sigma = 0``, and a sigma so small that ``1 / sigma`` overflows, is the
Poisson limit: :func:`effective_family` decides it, for the pmf and the
samplers alike.  All mass functions are evaluated in log space; the PIG
pmf mixes factorially large and exponentially small factors and would
overflow otherwise.

PIG's Bessel K at the orders ``n - 1/2`` (:func:`log_bessel_k_half`) climbs from
``K_{1/2}(t) = sqrt(pi / (2 t)) exp(-t)`` by ``K_{v+1} = K_{v-1} + (2 v / t) K_v``,
stable as K grows with its order, on ``K exp(t)`` (the seed's ``-t`` never enters
the sums) with a power-of-two exponent beside each value, whose span is hundreds of
orders of magnitude.  Its scalar steps stay numpy ufuncs: ``math.log`` differs from
``np.log`` in the last bit on some arguments, and would move every tuned alpha.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer, integers

MAX_PMF_ENTRIES = 2**26  # most pmf_range entries, (k_max + 1) x means (512 MiB), and Bessel ladder (order, argument) cells
_QUIET = dict(divide="ignore", invalid="ignore", over="ignore")  # see LogPmf.__call__
_LOG_2, _LOG_PI = np.log(2.0), np.log(np.pi)
_LOG_SQRT_PI_OVER_2 = 0.5 * np.log(np.pi / 2.0)


def _all(mask) -> bool:
    """``mask.all()``, by ``bool`` when ``mask`` is one value: a numpy reduction costs a point evaluation more than its arithmetic."""
    return bool(mask) if mask.ndim == 0 else bool(mask.all())


def _log_gamma(x):
    """log Gamma(x) for x > 0 by :func:`math.lgamma`: a scalar directly, an array element by element."""
    return (np.fromiter(map(math.lgamma, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)
            if isinstance(x, np.ndarray) else math.lgamma(x))


class Family(str, enum.Enum):
    POISSON = "poisson"
    NBI = "nbi"
    PIG = "pig"

    @classmethod
    def coerce(cls, value: "Family | str") -> "Family":
        if isinstance(value, Family):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValidationError(
                f"unknown family {value!r}; expected poisson, nbi or pig"
            ) from None


@dataclass(frozen=True)
class CountModelSpec:
    """Synthesis model: family plus dispersion sigma and pseudocount alpha.

    ``sigma`` is ignored by the Poisson family; ``alpha`` is the mean
    assigned to random zeros during synthesis.
    """

    family: Family
    sigma: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "family", Family.coerce(self.family))
        check_parameter("sigma", self.sigma)
        check_parameter("alpha", self.alpha)

    @property
    def effective_family(self) -> Family:
        """Family actually used for evaluation; see :func:`effective_family`."""
        return effective_family(self.family, self.sigma)


def check_parameter(name: str, value: float) -> None:
    """Refuse sigma or alpha unless finite and >= 0, by a Python comparison: False for NaN and huge ints."""
    if not 0 <= value <= sys.float_info.max:
        raise ValidationError(f"{name} must be finite and >= 0")


def effective_family(family: Family | str, sigma: float) -> Family:
    """The family whose law (family, sigma) follows: Poisson for the Poisson
    family, at sigma = 0, and wherever ``1 / sigma`` overflows float64
    (sigma below about 5.6e-309), where NBI and PIG agree with Poisson to
    float precision; otherwise ``family`` itself.  A sigma outside
    [0, float max] is a ``ValidationError`` for every family.
    """
    family = Family.coerce(family)
    check_parameter("sigma", sigma)
    if family is Family.POISSON or sigma == 0.0 or 1.0 / float(sigma) == math.inf:
        return Family.POISSON
    return family


def pig_c(mu, sigma):
    """The PIG auxiliary c with c**2 = 1/sigma**2 + 2*mu/sigma (c >= 1/sigma).

    Evaluated in float64; a sigma below about 1e-154 (c overflows) or, at
    mu = 0, above about 1e154 (c underflows to 0) is refused.
    """
    with np.errstate(**_QUIET):
        return _pig_c(valid_means(mu), sigma)


def valid_means(mu):
    """``mu`` as float64 (a 0-d one as a scalar, cheaper to compute on), refused unless finite and >= 0."""
    try:
        mu = np.asarray(mu, dtype=np.float64)[()]
    except (OverflowError, TypeError, ValueError):
        mu = np.float64(np.nan)  # refused below
    if not _all((mu >= 0.0) & (mu < np.inf)):
        raise ValidationError("mu must be finite and >= 0")
    return mu


def _pig_c(mu, sigma):
    """:func:`pig_c` at means known finite and >= 0, under the caller's errstate."""
    c = np.sqrt(1.0 / np.float64(sigma) ** 2 + 2.0 * mu / sigma)
    if not (sigma > 0.0 and _all((c > 0.0) & (c < np.inf))):
        if sigma > 0.0 and 0.0 < 1.0 / np.float64(sigma) ** 2 < np.inf:  # c is finite at mu = 0: a mean overflowed it
            raise ValidationError(f"mu = {np.max(mu):g} overflows the PIG auxiliary c at sigma = {sigma:g}")
        raise ValidationError(f"sigma must be > 0 and keep the PIG auxiliary c in float64, got {sigma:g}")
    return c


def _log_rising_ratio(k, r):
    """sum_{i<k} log1p(i / r) = log(Gamma(k + r) / (Gamma(r) * r**k)).

    The NBI shape factor at r = 1/sigma.  The log-gamma difference cancels
    as r grows, so from r = 100 on the two Stirling series are subtracted
    term by term instead (truncation error below 1e-20).
    """
    if r < 100.0:
        return _log_gamma(k + r) - _log_gamma(r) - k * np.log(r)
    series = lambda x: (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * x * x)) / (x * x)) / (x * x)) / x
    t = k / r
    with np.errstate(over="ignore"):  # x * x = inf leaves each term its limit 0
        return r * (np.log1p(t) - t) + (k - 0.5) * np.log1p(t) + (series(k + r) - series(r))


def _log1p_product(x, y):
    """log1p(x * y) for x, y >= 0; where x * y overflows (under errstate
    over="ignore"), log(x) + log(y), which is within 1e-308 of it."""
    out = np.log1p(x * y)
    return out if _all(out < np.inf) else np.where(out < np.inf, out, np.log(x) + np.log(y))


def _rows(t):
    """log K_{j - 1/2}(t) + t for j = 1, 2, ... in turn, at ``t``'s elements or at one scalar.

    K is carried as ``exp(seed) * mantissa * 2**exponent``; the exact
    ``frexp`` rescaling leaves each step one rounding, so log K_{n-1/2} is
    off by about n ulps of 1, not n ulps of its own size as on logs.
    """
    seed = _LOG_SQRT_PI_OVER_2 - 0.5 * np.log(t)  # orders -1/2 and 1/2
    yield seed  # order 1/2: mantissa 1, exponent 0
    prev = cur = 1.0
    exponent = np.int64(0)  # ladder exponents outgrow int32
    for j in itertools.count(2):  # K_{j-1/2} = K_{j-5/2} + (2j - 3) / t * K_{j-3/2}
        mantissa, shift = np.frexp(prev + (2 * j - 3) / t * cur)
        prev, cur = np.ldexp(cur, -shift), mantissa
        exponent = exponent + shift
        yield seed + (exponent * _LOG_2 + np.log(cur))


def _too_many_cells(orders, arguments) -> ValidationError:
    return ValidationError(f"the Bessel ladder would step {orders} orders at {arguments} arguments, "
                           f"above {MAX_PMF_ENTRIES} (order, argument) cells")


def _log_k_half_scaled(n, t):
    """log K_{n - 1/2}(t) + t for integer array ``n`` and array ``t >= 1e-300``.

    One order takes its row alone; one argument keeps every order's row up to
    the largest; otherwise each output element's place in the (order,
    argument) ladder is sorted once and each row fills its slice: memory is
    O(t.size + output size), never orders x arguments.  A ladder of more
    than ``MAX_PMF_ENTRIES`` (order, argument) cells is refused before any
    row is stepped.
    """
    if n.ndim == 0 and t.size:  # one order: its row alone, at one argument or many (at none, no row)
        m = max(n, 1 - n)  # K is even in its order
        if m > MAX_PMF_ENTRIES // t.size:  # a Python int bound: no int64 product to wrap
            raise _too_many_cells(m, t.size)
        return next(itertools.islice(_rows(t), m - 1, None))
    m = np.maximum(n, 1 - n)
    orders = int(m.max(initial=1))
    if t.size and orders > MAX_PMF_ENTRIES // t.size:
        raise _too_many_cells(orders, t.size)
    if t.size == 1:  # one argument: every order's row up to the largest, by order
        out = np.fromiter(_rows(t.ravel()[0]), np.float64, orders)[m - 1]
        return out.reshape((1,) * (t.ndim - m.ndim) + m.shape)
    # each output element's place in the (order, argument) ladder
    key = (m - 1) * t.size + np.arange(t.size).reshape(t.shape)
    shape, key = key.shape, key.ravel()
    order = key.argsort(kind="stable")
    bounds = key.searchsorted(np.arange(key.max(initial=-1) // max(t.size, 1) + 2) * t.size, sorter=order)
    out = np.empty(key.size)
    for j, row in enumerate(itertools.islice(_rows(t.ravel()), bounds.size - 1)):
        at = order[bounds[j] : bounds[j + 1]]
        out[at] = row[key[at] - j * t.size]
    return out.reshape(shape)


def log_bessel_k_half(n, t):
    """log K_{n - 1/2}(t) for integer ``n`` (scalar or array) and t > 0.

    Parameters
    ----------
    n : int or array of int
        Order index in (1 - 2**63, 2**63); the Bessel order is ``n - 1/2``.
        Negative indices are folded by the symmetry of K in its order.  The
        largest ``max(n, 1 - n)`` times the arguments is at most ``MAX_PMF_ENTRIES``.
    t : float or array of float
        Argument, at least 1e-300, below which a recurrence step can
        overflow.  NaN is refused.

    Returns
    -------
    float or ndarray
        Natural log of K.  Broadcasts ``n`` against ``t``.
    """
    t = np.asarray(t, dtype=np.float64)
    # bounds that keep the fold 1 - n in int64
    n = integers(n, 2 - 2**63, 2**63 - 1, "order index must be an integer above 1 - 2**63 and below 2**63")
    if not np.all(t >= 1e-300):
        raise ValidationError("Bessel argument t must be >= 1e-300")
    out = _log_k_half_scaled(n, t) - t
    return float(out) if out.ndim == 0 else out


class LogPmf:
    """log p(count = k | mean mu) of one (family, k, sigma) as a function of mu, in two stages.

    Construction validates ``k`` and ``sigma``, resolves the family and computes the terms
    free of mu (log k!, NBI's shape factor); a call adds only the mu terms, in the formula's
    order, at means the caller has checked.  ``mu = 0`` is degenerate at zero for every family.
    """

    def __init__(self, family: Family | str, k, sigma: float = 0.0):
        self.family, self.sigma = effective_family(family, sigma), sigma
        # a 0-d k becomes a scalar, whose arithmetic costs less
        self.k = integers(k, 0, 2**63 - 1, "counts must be integers >= 0 and below 2**63")
        self._log_k_factorial = _log_gamma(self.k + 1.0)
        if self.family is Family.NBI:
            with np.errstate(**_QUIET):
                self._log_rising = _log_rising_ratio(self.k, 1.0 / sigma)
        self._at_zero = np.where(self.k == 0, 0.0, -np.inf)[()]

    def __call__(self, mu):
        k, sigma = self.k, self.sigma
        with np.errstate(**_QUIET):  # mu = 0 is set apart below, and _log1p_product where sigma * mu overflows
            if self.family is Family.POISSON:
                out = k * np.log(mu) - mu - self._log_k_factorial
            elif self.family is Family.NBI:
                log1p_sm = _log1p_product(sigma, mu)
                out = self._log_rising + k * (np.log(mu) - log1p_sm) - log1p_sm / sigma - self._log_k_factorial
            else:  # log sqrt(2c/pi) mu**k exp(1/sigma) K_{k-1/2}(c) / ((c sigma)**k k!), K scaled by exp(c);
                # exact as sigma -> 0: 1/sigma - c = -2mu / (1 + sigma c), log(c sigma) = log1p(2 mu sigma) / 2
                c = _pig_c(mu, sigma)
                out = (
                    0.5 * (_LOG_2 + np.log(c) - _LOG_PI)
                    + k * (np.log(mu) - 0.5 * _log1p_product(2.0 * mu, sigma))
                    - 2.0 * mu / (1.0 + sigma * c)
                    + _log_k_half_scaled(k, c)
                    - self._log_k_factorial
                )
        return out if _all(mu > 0.0) else np.where(mu > 0.0, out, self._at_zero)[()]


def logpmf(family: Family | str, k, mu, sigma: float = 0.0):
    """log p(count = k | mean mu) for the given family; see :class:`LogPmf`."""
    out = LogPmf(family, k, sigma)(valid_means(mu))
    return float(out) if out.ndim == 0 else out


def pmf(family: Family | str, k, mu, sigma: float = 0.0):
    """p(count = k | mean mu); exponentiated :func:`logpmf`."""
    return np.exp(logpmf(family, k, mu, sigma))


def pmf_range(family: Family | str, k_max: int, mu, sigma: float = 0.0) -> np.ndarray:
    """pmf over k = 0..k_max at one or many means.

    A scalar ``mu`` gives a vector of length ``k_max + 1``.  An array of
    means gives a ``(k_max + 1, len(mu))`` matrix whose column j is the
    pmf at ``mu[j]``, so a mixture over means is one matrix-vector
    product.  ``mu = 0`` is degenerate at zero.  A table of more than
    ``MAX_PMF_ENTRIES`` entries is refused before any is computed.
    """
    mu = valid_means(mu)
    if mu.ndim > 1:
        raise ValidationError("mu must be a scalar or a 1-D array of means")
    limit = MAX_PMF_ENTRIES // max(mu.size, 1) - 1
    k_max = integer(k_max, 0, limit, f"k_max must be an integer in [0, {limit}]: a larger one's pmf_range table "
                                     f"of (k_max + 1) x {mu.size} means tops {MAX_PMF_ENTRIES} entries")
    out = pmf(family, np.arange(k_max + 1)[:, None], np.atleast_1d(mu), sigma)
    return out[:, 0] if mu.ndim == 0 else out
