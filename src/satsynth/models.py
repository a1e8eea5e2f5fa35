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
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bessel import _log_k_half_scaled
from .errors import ValidationError

MAX_PMF_ENTRIES = 2**26  # the largest pmf_range table a caller builds, (k_max + 1) x means: 512 MiB
_QUIET = dict(divide="ignore", invalid="ignore", over="ignore")  # see LogPmf.__call__
_LOG_2, _LOG_PI = np.log(2.0), np.log(np.pi)


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
        for name in ("sigma", "alpha"):
            if not 0.0 <= getattr(self, name) <= sys.float_info.max:  # False for NaN, and huge ints
                raise ValidationError(f"{name} must be finite and >= 0")

    @property
    def effective_family(self) -> Family:
        """Family actually used for evaluation; see :func:`effective_family`."""
        return effective_family(self.family, self.sigma)


def effective_family(family: Family | str, sigma: float) -> Family:
    """The family whose law (family, sigma) follows: Poisson for the Poisson
    family, at sigma = 0, and wherever ``1 / sigma`` overflows float64
    (sigma below about 5.6e-309), where NBI and PIG agree with Poisson to
    float precision; otherwise ``family`` itself.  A sigma outside
    [0, float max] is a ``ValidationError`` for every family.
    """
    family = Family.coerce(family)
    if not 0 <= sigma <= sys.float_info.max:  # False for NaN, and for ints beyond the float range
        raise ValidationError("sigma must be finite and >= 0")
    if family is Family.POISSON or sigma == 0.0 or 1.0 / float(sigma) == math.inf:
        return Family.POISSON
    return family


def pig_c(mu, sigma):
    """The PIG auxiliary c with c**2 = 1/sigma**2 + 2*mu/sigma (c >= 1/sigma).

    Evaluated in float64; a sigma below about 1e-154 (c overflows) or, at
    mu = 0, above about 1e154 (c underflows to 0) is refused.
    """
    with np.errstate(**_QUIET):
        return _pig_c(_valid_means(mu), sigma)


def _valid_means(mu):
    """``mu`` as float64 (a 0-d one as a scalar, cheaper to compute on), refused unless finite and >= 0."""
    mu = np.asarray(mu, dtype=np.float64)[()]
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


class LogPmf:
    """log p(count = k | mean mu) of one (family, k, sigma) as a function of mu, in two stages.

    Construction validates ``k`` and ``sigma``, resolves the family and computes the terms
    free of mu (log k!, NBI's shape factor); a call adds only the mu terms, in the formula's
    order, at means the caller has checked.  ``mu = 0`` is degenerate at zero for every family.
    """

    def __init__(self, family: Family | str, k, sigma: float = 0.0):
        self.family, self.sigma = effective_family(family, sigma), sigma
        k = np.asarray(k)
        if (k != np.floor(k)).any():  # array methods: the np.any/np.all wrappers cost more per call
            raise ValidationError("counts must be integers")
        self.k = k.astype(np.int64)[()]  # a 0-d k becomes a scalar, whose arithmetic costs less
        if (self.k < 0).any():
            raise ValidationError("counts must be >= 0")
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
    out = LogPmf(family, k, sigma)(_valid_means(mu))
    return float(out) if out.ndim == 0 else out


def pmf(family: Family | str, k, mu, sigma: float = 0.0):
    """p(count = k | mean mu); exponentiated :func:`logpmf`."""
    return np.exp(logpmf(family, k, mu, sigma))


def pmf_range(family: Family | str, k_max: int, mu, sigma: float = 0.0) -> np.ndarray:
    """pmf over k = 0..k_max at one or many means.

    A scalar ``mu`` gives a vector of length ``k_max + 1``.  An array of
    means gives a ``(k_max + 1, len(mu))`` matrix whose column j is the
    pmf at ``mu[j]``, so a mixture over means is one matrix-vector
    product.  ``mu = 0`` is degenerate at zero.
    """
    if k_max < 0:
        raise ValidationError("k_max must be >= 0")
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim > 1:
        raise ValidationError("mu must be a scalar or a 1-D array of means")
    out = pmf(family, np.arange(k_max + 1)[:, None], np.atleast_1d(mu), sigma)
    return out[:, 0] if mu.ndim == 0 else out
