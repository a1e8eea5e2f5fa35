"""Exact samplers for the synthesis families, fed by explicit uniforms.

Each draw consumes a fixed number of uniform variates (at most
``SLOTS_PER_DRAW``), so a draw is a pure function of its uniform block.
Synthesis exploits this: cell i of replicate r reads the Philox counter
block i of the stream keyed by (master seed, r), which makes every cell
value reproducible bit-for-bit under any chunking or thread schedule.

Construction mirrors the mixture definitions of the families:

* Poisson    — quantile inversion of one uniform;
* NBI        — lambda ~ Gamma(1/sigma, scale sigma*mu) by inverse
               regularized-gamma, then Poisson(lambda);
* PIG        — lambda ~ inverse Gaussian(mean mu, shape mu/sigma) by the
               Michael-Schucany-Haas two-root transform (one normal via
               quantile, one uniform for root choice), then
               Poisson(lambda).
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox
from scipy import special

from .errors import ValidationError
from .models import Family

SLOTS_PER_DRAW = 4  # one Philox counter block of 4 raw 64-bit words

_U64_MASK = (1 << 64) - 1
_POISSON_LOOP_CUT = 60.0  # accumulate term-by-term below, invert pdtrik above


def uniform_block(master_seed: int, stream: int, start: int, n: int) -> np.ndarray:
    """Uniforms for draws ``start .. start+n-1`` of a keyed counter stream.

    Returns an ``(n, SLOTS_PER_DRAW)`` array in [0, 1).  Draw i always
    occupies counter block ``start + i`` of the Philox stream keyed by
    (master_seed, stream), independent of how calls are chunked.
    """
    if n < 0:
        raise ValidationError("block length must be >= 0")
    key = np.array([master_seed & _U64_MASK, stream & _U64_MASK], dtype=np.uint64)
    counter = np.zeros(4, dtype=np.uint64)
    counter[0] = start & _U64_MASK
    counter[1] = (start >> 64) & _U64_MASK
    bg = Philox(key=key, counter=counter)
    raw = bg.random_raw(n * SLOTS_PER_DRAW)
    u = (raw >> np.uint64(11)) * (2.0**-53)
    return u.reshape(n, SLOTS_PER_DRAW)


def _poisson_quantile(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``scipy.stats.poisson.ppf(u, lam)`` for u in (0, 1), bit for bit, and 0 at u = 0.

    Built from the two special functions that ppf evaluates, so sampling
    does not import :mod:`scipy.stats`, which alone doubles CLI start-up.
    """
    k = np.ceil(special.pdtrik(u, lam))
    below = np.maximum(k - 1.0, 0.0)
    return np.where(special.pdtr(below, lam) >= u, below, k)


def poisson_inverse(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Exact Poisson quantile: smallest k with CDF(k) >= u, vectorised.

    Small means use term-by-term CDF accumulation (cheap: the expected
    iteration count is lam + 1); large means invert the regularized
    gamma function.  lam = 0 maps to 0.
    """
    u = np.asarray(u, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    u, lam = np.broadcast_arrays(u, lam)
    out = np.zeros(u.shape, dtype=np.int64)

    big = lam > _POISSON_LOOP_CUT
    if np.any(big):
        out[big] = _poisson_quantile(u[big], lam[big]).astype(np.int64)

    small = (lam > 0.0) & ~big
    if np.any(small):
        ls = lam[small]
        us = u[small]
        k = np.zeros(ls.shape, dtype=np.int64)
        term = np.exp(-ls)
        cdf = term.copy()
        idx = np.flatnonzero(us >= cdf)
        steps = 0
        # iteration count bounded well past the far tail of lam <= cut
        max_steps = int(_POISSON_LOOP_CUT + 12.0 * np.sqrt(_POISSON_LOOP_CUT) + 60)
        while idx.size and steps < max_steps:
            steps += 1
            k[idx] += 1
            term[idx] *= ls[idx] / k[idx]
            cdf[idx] += term[idx]
            idx = idx[us[idx] >= cdf[idx]]
        if idx.size:  # u so extreme the accumulated CDF stalled
            k[idx] = _poisson_quantile(us[idx], ls[idx]).astype(np.int64)
        out[small] = k
    return out


def _inverse_gaussian_from_uniforms(mu, sigma, u_norm, u_pick):
    """Inverse-Gaussian(mean mu, shape mu/sigma) via the two-root transform.

    The small root is computed in the cancellation-free form
    x = 2*mu / (2 + h + sqrt(h*(h+4))) with h = sigma * z**2; the large
    root is mu**2 / x.  ``u_pick`` selects between them with probability
    mu / (mu + x) for the small root.
    """
    z = special.ndtri(u_norm)
    h = sigma * z * z
    small_root = 2.0 * mu / (2.0 + h + np.sqrt(h * (h + 4.0)))
    with np.errstate(divide="ignore"):
        large_root = np.where(small_root > 0.0, mu * mu / small_root, np.inf)
    take_small = u_pick <= mu / (mu + small_root)
    return np.where(take_small, small_root, large_root)


def draw_counts(family: Family | str, mu, sigma: float, u: np.ndarray) -> np.ndarray:
    """Synthetic counts from per-draw uniform blocks.

    Parameters
    ----------
    family, sigma : model family and dispersion (sigma=0 is Poisson).
    mu : array of draw means (0 means a degenerate zero draw).
    u : ``(len(mu), SLOTS_PER_DRAW)`` uniforms, e.g. from
        :func:`uniform_block`.
    """
    family = Family.coerce(family)
    mu = np.asarray(mu, dtype=np.float64)
    if np.any(mu < 0):
        raise ValidationError("mu must be >= 0")
    if sigma < 0:
        raise ValidationError("sigma must be >= 0")
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape != (mu.size, SLOTS_PER_DRAW):
        raise ValidationError(
            f"expected uniforms of shape ({mu.size}, {SLOTS_PER_DRAW}), got {u.shape}"
        )

    out = np.zeros(mu.shape, dtype=np.int64)
    live = mu > 0.0
    if not np.any(live):
        return out
    mm = mu[live]
    uu = u[live]

    if family is Family.POISSON or sigma == 0.0:
        lam = mm
        u_count = uu[:, 0]
    elif family is Family.NBI:
        lam = special.gammaincinv(1.0 / sigma, uu[:, 0]) * (sigma * mm)
        u_count = uu[:, 1]
    elif family is Family.PIG:
        lam = _inverse_gaussian_from_uniforms(mm, sigma, uu[:, 0], uu[:, 1])
        u_count = uu[:, 2]
    out[live] = poisson_inverse(u_count, lam)
    return out


def sample(
    family: Family | str,
    mu,
    sigma: float,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw synthetic counts using a caller-owned generator.

    Convenience wrapper over :func:`draw_counts` for tests and ad-hoc
    use; synthesis itself uses the keyed counter streams.  Returns an
    int for scalar ``mu`` with ``size=None``, else an int64 array.
    """
    mu_arr = np.asarray(mu, dtype=np.float64)
    scalar = mu_arr.ndim == 0 and size is None
    if mu_arr.ndim == 0:
        mu_arr = np.full(size if size is not None else 1, float(mu_arr))
    elif size is not None and size != mu_arr.size:
        raise ValidationError("size conflicts with the length of mu")
    u = rng.random((mu_arr.size, SLOTS_PER_DRAW))
    counts = draw_counts(family, mu_arr, sigma, u)
    if scalar:
        return int(counts[0])
    return counts
