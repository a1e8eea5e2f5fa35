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
from dataclasses import dataclass

import numpy as np

from .bessel import _log_k_half_scaled
from .errors import ValidationError


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
        if not (self.sigma >= 0.0) or not math.isfinite(self.sigma):
            raise ValidationError("sigma must be finite and >= 0")
        if not (self.alpha >= 0.0) or not math.isfinite(self.alpha):
            raise ValidationError("alpha must be finite and >= 0")

    @property
    def effective_family(self) -> Family:
        """Family actually used for evaluation; see :func:`effective_family`."""
        return effective_family(self.family, self.sigma)


def effective_family(family: Family | str, sigma: float) -> Family:
    """The family whose law (family, sigma) follows: Poisson for the Poisson
    family, at sigma = 0, and wherever ``1 / sigma`` overflows float64
    (sigma below about 5.6e-309), where NBI and PIG agree with Poisson to
    float precision; otherwise ``family`` itself.
    """
    family = Family.coerce(family)
    if family is Family.POISSON or sigma == 0.0 or 1.0 / float(sigma) == math.inf:
        return Family.POISSON
    return family


def pig_c(mu, sigma):
    """The PIG auxiliary c with c**2 = 1/sigma**2 + 2*mu/sigma (c >= 1/sigma).

    Evaluated in float64; a sigma below about 1e-154 (c overflows) or, at
    mu = 0, above about 1e154 (c underflows to 0) is refused.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if not np.all((mu >= 0.0) & (mu < np.inf)):
        raise ValidationError("mu must be finite and >= 0")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = np.sqrt(1.0 / np.float64(sigma) ** 2 + 2.0 * mu / sigma)
    if not (sigma > 0.0 and np.all((c > 0.0) & (c < np.inf))):
        raise ValidationError(f"sigma must be > 0 and keep the PIG auxiliary c in float64, got {sigma:g}")
    return c


def _validate_pmf_args(k, mu, sigma):
    k = np.asarray(k)
    if (k != np.floor(k)).any():  # array methods: the np.any/np.all wrappers cost more per call
        raise ValidationError("counts must be integers")
    k = k.astype(np.int64)
    if (k < 0).any():
        raise ValidationError("counts must be >= 0")
    mu = np.asarray(mu, dtype=np.float64)
    if (mu < 0).any() or not np.isfinite(mu).all():
        raise ValidationError("mu must be finite and >= 0")
    if sigma < 0 or not math.isfinite(sigma):
        raise ValidationError("sigma must be finite and >= 0")
    return k, mu


def _log_rising_ratio(k, r):
    """sum_{i<k} log1p(i / r) = log(Gamma(k + r) / (Gamma(r) * r**k)).

    The NBI shape factor at r = 1/sigma.  The log-gamma difference cancels
    as r grows, so from r = 100 on the two Stirling series are subtracted
    term by term instead (truncation error below 1e-20).
    """
    from scipy import special  # see logpmf
    if r < 100.0:
        return special.gammaln(k + r) - special.gammaln(r) - k * np.log(r)
    series = lambda x: (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * x * x)) / (x * x)) / (x * x)) / x
    t = k / r
    with np.errstate(over="ignore"):  # x * x = inf leaves each term its limit 0
        return r * (np.log1p(t) - t) + (k - 0.5) * np.log1p(t) + (series(k + r) - series(r))


def _log1p_product(x, y):
    """log1p(x * y) for x, y >= 0; where x * y overflows (under errstate
    over="ignore"), log(x) + log(y), which is within 1e-308 of it."""
    out = np.log1p(x * y)
    return out if (out < np.inf).all() else np.where(out < np.inf, out, np.log(x) + np.log(y))


def _pig_logpmf(k, mu, sigma):
    """PIG log-mass at means mu > 0: with c = pig_c(mu, sigma), the log of
    sqrt(2c/pi) * mu**k * exp(1/sigma) * K_{k-1/2}(c) / ((c*sigma)**k * k!).

    K comes scaled by exp(c), and the pieces that cancel as sigma -> 0 are
    exact: 1/sigma - c = -2mu / (1 + sigma*c), log(c*sigma) = log1p(2*mu*sigma) / 2.
    """
    from scipy import special  # see logpmf
    c = pig_c(mu, sigma)
    return (
        0.5 * (np.log(2.0) + np.log(c) - np.log(np.pi))
        + k * (np.log(mu) - 0.5 * _log1p_product(2.0 * mu, sigma))
        - 2.0 * mu / (1.0 + sigma * c)
        + _log_k_half_scaled(k, c)
        - special.gammaln(k + 1.0)
    )


def logpmf(family: Family | str, k, mu, sigma: float = 0.0):
    """log p(count = k | mean mu) for the given family.

    Broadcasts ``k`` against ``mu``.  ``mu = 0`` is the distribution
    degenerate at zero for every family.
    """
    from scipy import special  # here, not at import: it adds ~0.25 s to start-up, and table work never needs it
    family = effective_family(family, sigma)
    k, mu = _validate_pmf_args(k, mu, sigma)
    # mu = 0 is set below, and _log1p_product takes over where sigma * mu overflows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if family is Family.POISSON:
            out = k * np.log(mu) - mu - special.gammaln(k + 1.0)
        elif family is Family.NBI:
            log1p_sm = _log1p_product(sigma, mu)
            out = (
                _log_rising_ratio(k, 1.0 / sigma)
                + k * (np.log(mu) - log1p_sm)
                - log1p_sm / sigma
                - special.gammaln(k + 1.0)
            )
        else:
            out = _pig_logpmf(k, mu, sigma)
    out = np.where(mu > 0.0, out, np.where(k == 0, 0.0, -np.inf))
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
