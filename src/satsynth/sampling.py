"""Exact samplers for the synthesis families, fed by explicit uniforms.

Each draw consumes a fixed number of uniform variates (at most
``SLOTS_PER_DRAW``), so a draw is a pure function of its uniform block.
Synthesis exploits this: occupied cell i of replicate r reads the Philox
counter block i of the stream keyed by (master seed, r), which makes its
value reproducible bit-for-bit under any chunking or thread schedule.

Construction mirrors the mixture definitions of the families:

* Poisson    — quantile inversion of one uniform;
* NBI        — lambda ~ Gamma(1/sigma, scale sigma*mu) by inverse
               regularized-gamma, then Poisson(lambda);
* PIG        — lambda ~ inverse Gaussian(mean mu, shape mu/sigma) by the
               Michael-Schucany-Haas two-root transform (one normal via
               quantile, one uniform for root choice), then
               Poisson(lambda).

Each family inverts its count uniform with :func:`poisson_inverse`, which
tests ``u >= exp(-lambda)`` before any quantile work.  NBI alone screens
before its mixing kernel as well (:func:`_nbi_counts`): most NBI draws at
small means are 0, and the screen rules them out before ``gammaincinv``.
:func:`draw_counts` is the one entry point for draws.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .errors import ValidationError
from .models import Family, effective_family, valid_means

SLOTS_PER_DRAW = 4  # one Philox counter block of 4 raw 64-bit words

_U64_MASK = (1 << 64) - 1
_LO32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_ROWS_PER_PASS = 1 << 14  # about 70 ms on 333,660 counters (shared 2-core host); 2**12, 2**16 slower
_POISSON_LOOP_CUT = 60.0  # accumulate term-by-term below, walk on pdtr above
# where the walk may disagree with pdtrik (see ``_poisson_quantile_walk``)
_WALK_TAIL, _WALK_CAP, _WALK_MARGIN = 1e-9, 2.0**20, 1e-6

# NBI's sure-zero screen (see ``_nbi_counts``): the first uniform is
# bucketed into ``_SCREEN_STEPS`` equal steps; the bound on lambda carries
# a relative margin of ``_SCREEN_MARGIN``, and the zero threshold
# exp(-b * mu) is shrunk by 2**-48 (32 ulp) so that the rounding of exp
# cannot turn b * mu >= lambda into exp(-b * mu) > exp(-lambda).
_SCREEN_STEPS = 256
_SCREEN_MARGIN = 1e-6
_EXP_SLACK = 1.0 - 2.0**-48


def uniform_block(master_seed: int, stream: int, start: int, n: int) -> np.ndarray:
    """Uniforms for draws ``start .. start+n-1`` of a keyed counter stream.

    Returns an ``(n, SLOTS_PER_DRAW)`` array in [0, 1).  Draw i always
    occupies counter block ``start + i`` of the Philox stream keyed by
    (master_seed, stream), independent of how calls are chunked.  Both
    key words must be integers in [0, 2**64), so that distinct seeds never
    share a stream, and start and n integers >= 0.  Each uniform is the top
    53 bits of one raw Philox word times 2**-53, the same bits as
    ``random_raw`` shifted and scaled.
    """
    if not (_is_int(start) and _is_int(n) and start >= 0 and n >= 0):
        raise ValidationError(f"block start and length must be >= 0 integers, got {start!r} and {n!r}")
    _check_key(master_seed, stream)
    key = np.array([master_seed, stream], dtype=np.uint64)
    # an int counter is read as little-endian 64-bit words: [start mod 2**64, start >> 64, 0, 0]
    return Generator(Philox(key=key, counter=start)).random((n, SLOTS_PER_DRAW))


def _is_int(value) -> bool:
    """An int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_key(master_seed: int, stream: int) -> None:
    for name, word in (("master seed", master_seed), ("stream", stream)):
        if not (_is_int(word) and 0 <= word <= _U64_MASK):
            raise ValidationError(f"{name} must be in [0, 2**64), got {word!r}")


def _mulhi(a: np.ndarray, m: int) -> np.ndarray:
    """High 64 bits of ``a * m`` for uint64 ``a``, from 32-bit halves."""
    m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a0, a1 = a & _LO32, a >> _32
    t = a1 * m0 + ((a0 * m0) >> _32)
    return a1 * m1 + (t >> _32) + ((a0 * m1 + (t & _LO32)) >> _32)


def uniform_rows(master_seed: int, stream: int, blocks: np.ndarray) -> np.ndarray:
    """The rows ``uniform_block(master_seed, stream, b, 1)`` for each counter
    block ``b`` of the integer array ``blocks`` (uint64, or signed and >= 0), in order.

    Philox is counter-based, so each block is computed directly: this is
    Philox4x64-10 (Salmon et al., SC'11) in vectorised uint64 arithmetic
    on the counter ``b + 1`` (numpy's Philox increments its counter before
    each block), ``2**14`` counters at a time.
    """
    _check_key(master_seed, stream)
    blocks = np.asarray(blocks)
    if blocks.size and (blocks.dtype.kind not in "iu" or blocks.dtype.kind == "i" and blocks.min() < 0):  # uint64: no pass
        raise ValidationError(f"counter blocks must be integers >= 0, got an array of {blocks.dtype}")
    blocks = blocks.astype(np.uint64, copy=False).reshape(-1)
    # Python ints: np.uint64 scalar arithmetic warns on the wrap-around
    keys = [
        (np.uint64((int(master_seed) + r * _PHILOX_W0) & _U64_MASK),
         np.uint64((int(stream) + r * _PHILOX_W1) & _U64_MASK))
        for r in range(_PHILOX_ROUNDS)
    ]
    out = np.empty((blocks.size, SLOTS_PER_DRAW))
    for lo in range(0, blocks.size, _ROWS_PER_PASS):
        b = blocks[lo : lo + _ROWS_PER_PASS]
        x0 = b + np.uint64(1)
        x1 = (x0 == 0).astype(np.uint64)  # the carry out of word 0
        x2 = x3 = np.zeros_like(b)
        for k0, k1 in keys:
            lo0, lo2 = x0 * np.uint64(_PHILOX_M0), x2 * np.uint64(_PHILOX_M1)
            x0, x1, x2, x3 = (
                _mulhi(x2, _PHILOX_M1) ^ x1 ^ k0, lo2, _mulhi(x0, _PHILOX_M0) ^ x3 ^ k1, lo0
            )
        for j, x in enumerate((x0, x1, x2, x3)):
            out[lo : lo + b.size, j] = (x >> np.uint64(11)) * 2.0**-53
    return out


def _poisson_quantile(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``scipy.stats.poisson.ppf(u, lam)`` for u in (0, 1), bit for bit, and 0 at u = 0.

    Built from the two special functions that ppf evaluates, so sampling
    does not import :mod:`scipy.stats`, which alone doubles CLI start-up.
    Where ``pdtrik`` fails (NaN, e.g. for lam >= ~1e12) or the quantile
    passes 2**63, the integer quantile is found by bisection on ``pdtr``.
    """
    from scipy import special  # here, not at import: it adds ~0.25 s to start-up, and only synthesize draws
    k = np.ceil(special.pdtrik(u, lam))
    below = np.maximum(k - 1.0, 0.0)
    k = np.where(special.pdtr(below, lam) >= u, below, k)
    fits = k < 2.0**63  # False for NaN
    out = np.zeros(k.shape, dtype=np.int64)
    out[fits] = k[fits]
    if not np.all(fits):
        out[~fits] = _poisson_quantile_bisect(u[~fits], lam[~fits])
    return out


def _poisson_quantile_bisect(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Smallest k below 2**63 - 1 with ``pdtr(k, lam) >= u``; raises if there is none."""
    from scipy import special  # see _poisson_quantile
    hi = np.full(u.shape, np.iinfo(np.int64).max - 1, dtype=np.int64)  # hi - lo stays in int64
    if np.any(~(special.pdtr(hi.astype(np.float64), lam) >= u)):
        raise ValidationError(
            f"a Poisson count with mean up to {np.max(lam):.6g} exceeds the int64 range"
        )
    lo = np.full(u.shape, -1, dtype=np.int64)  # pdtr(lo) < u holds for lo = -1
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        ok = special.pdtr(mid.astype(np.float64), lam) >= u
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return hi


def _poisson_quantile_walk(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """:func:`_poisson_quantile` for lam > 60, mostly without ``pdtrik``.

    k starts at the Cornish-Fisher quantile and steps until
    ``pdtr(k - 1, lam) < u <= pdtr(k, lam)``: the exact quantile, after
    about two ``pdtr`` calls.  pdtrik's root is exact only away from a CDF
    step, so draws with u in either tail (within ``_WALK_TAIL`` of 0 or 1),
    lam above ``_WALK_CAP``, or u within ``_WALK_MARGIN`` times the step
    ``pdtr(k) - pdtr(k - 1)`` of either end take :func:`_poisson_quantile`:
    every value equals it.
    """
    from scipy import special  # see _poisson_quantile
    ok = (u > _WALK_TAIL) & (u < 1.0 - _WALK_TAIL) & (lam <= _WALK_CAP)
    uw, lw = u[ok], lam[ok]
    z = special.ndtri(uw)
    r = np.sqrt(lw)
    k = np.ceil(lw + r * z + (z * z - 1.0) / 6.0 + z * (z * z - 7.0) / (72.0 * r) - 0.5)
    cdf = np.empty((k.size, 2))  # pdtr(k - 1), pdtr(k)
    move = np.arange(k.size)
    while move.size:
        cdf[move] = special.pdtr(k[move, None] - (1.0, 0.0), lw[move, None])
        step = (cdf[move, 1] < uw[move]).astype(np.float64) - (cdf[move, 0] >= uw[move])
        k[move] += step
        move = move[step != 0.0]
    margin = _WALK_MARGIN * (cdf[:, 1] - cdf[:, 0])
    out = np.empty(u.shape, dtype=np.int64)
    out[ok] = k
    ok[ok] = (uw - cdf[:, 0] > margin) & (cdf[:, 1] - uw > margin)  # False for a NaN bracket
    out[~ok] = _poisson_quantile(u[~ok], lam[~ok])
    return out


def poisson_inverse(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Poisson quantile: smallest k with CDF(k) >= u, vectorised.

    The count is 0 exactly when u < CDF(0) = exp(-lam); only the other
    cells are inverted.  Small means use term-by-term CDF accumulation
    (cheap: the expected iteration count is lam + 1).  Means above 60 walk
    on ``pdtr`` from a Cornish-Fisher start (:func:`_poisson_quantile_walk`)
    but keep stream v1's pdtrik quantile, which is not always exact.  It is
    one low where u lies just above a CDF value (within about 5e-10 of the
    step): ``poisson_inverse(0.7850405569603003, 15277.998498473771)`` is
    15,375, though ``pdtr(15375, lam) < u``.  Above lam = 1e6 random draws
    miss too: ``poisson_inverse(0.9999974292049809, 21111357.114760615)``
    is 21,132,306, though ``pdtr(21132305, lam) >= u`` (and ``pdtr`` itself
    is 3e-7 high there: the true quantile is 21,132,307).
    lam = 0 maps to 0.  Above 2**53 the CDF takes k as a double, so
    neighbouring integers share one value and the quantile is only as exact
    as a double: ``poisson_inverse(0.5, 1e18)`` is
    1,000,000,000,000,000,256, where CDF(k - 1) == CDF(k).
    """
    u = np.asarray(u, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    u, lam = np.broadcast_arrays(u, lam)
    out = np.zeros(u.shape, dtype=np.int64)

    p0 = np.exp(-lam)
    live = (u >= p0) & (lam > 0.0)
    big = live & (lam > _POISSON_LOOP_CUT)
    if np.any(big):
        out[big] = _poisson_quantile_walk(u[big], lam[big])

    # the small means run the CDF recurrence in place, on arrays compacted
    # whenever at most half of their rows are still live
    small = np.flatnonzero(live & ~big)
    if small.size:
        ls = lam.take(small)
        us = u.take(small)
        term = p0.take(small)
        cdf = term.copy()  # us >= cdf everywhere: that made them live
        stayed = np.zeros(small.size, dtype=np.int64)  # steps a row has stayed live
        ratio, go = np.empty(small.size), np.ones(small.size, dtype=bool)
        k = 0
        # iteration count bounded well past the far tail of lam <= cut
        max_steps = int(_POISSON_LOOP_CUT + 12.0 * np.sqrt(_POISSON_LOOP_CUT) + 60)
        while small.size and k < max_steps:
            k += 1
            term *= np.divide(ls, k, out=ratio)
            cdf += term
            stayed += np.greater_equal(us, cdf, out=go)  # once False, False for good
            n_live = np.count_nonzero(go)
            if 2 * n_live <= small.size:
                out[small[~go]] = stayed[~go] + 1
                keep = np.flatnonzero(go)
                small, ls, us, term, cdf, stayed = (a.take(keep) for a in (small, ls, us, term, cdf, stayed))
                ratio, go = ratio[:n_live], np.ones(n_live, dtype=bool)
        out[small[~go]] = stayed[~go] + 1
        if np.any(go):  # u so extreme the accumulated CDF stalled
            out[small[go]] = _poisson_quantile(us[go], ls[go])
    return out


def _inverse_gaussian_from_uniforms(mu, sigma, u_norm, u_pick):
    """Inverse-Gaussian(mean mu, shape mu/sigma) via the two-root transform.

    The small root is computed in the cancellation-free form
    x = 2*mu / (2 + h + sqrt(h*(h+4))) with h = sigma * z**2; the large
    root is mu**2 / x.  ``u_pick`` selects between them with probability
    mu / (mu + x) for the small root.
    """
    from scipy import special  # see _poisson_quantile
    z = special.ndtri(u_norm)
    with np.errstate(over="ignore"):  # where h or h * (h + 4) overflows, the small root is its limit 0
        h = sigma * z * z
        small_root = 2.0 * mu / (2.0 + h + np.sqrt(h * (h + 4.0)))
    with np.errstate(divide="ignore"):
        large_root = np.where(small_root > 0.0, mu * mu / small_root, np.inf)
    take_small = u_pick <= mu / (mu + small_root)
    return np.where(take_small, small_root, large_root)


def _gamma_from_uniforms(mu, sigma, u_gamma):
    """Gamma(shape 1/sigma, scale sigma*mu) by inversion: ``gammaincinv(1/sigma, u_gamma) * sigma * mu``."""
    from scipy import special  # see _poisson_quantile
    g = special.gammaincinv(1.0 / sigma, u_gamma)
    with np.errstate(over="ignore"):  # near sigma = 1e308, g = 0 meets sigma * mu = inf: lambda is 0
        return np.multiply(g, sigma * mu, out=np.zeros_like(g), where=g > 0.0)


def _cap_table(sigma: float) -> np.ndarray:
    """The bound b of each NBI screen bucket (see :func:`_nbi_counts`): lambda at its upper edge, at mean 1 + margin."""
    return _gamma_from_uniforms(1.0 + _SCREEN_MARGIN, sigma, np.arange(_SCREEN_STEPS + 1) / _SCREEN_STEPS)


def _nbi_counts(mu: np.ndarray, sigma: float, u: np.ndarray) -> np.ndarray:
    """NBI counts of draws with positive means, screened before ``gammaincinv``.

    Most NBI draws at small means are 0, so a sure-zero screen rules them
    out first.  A draw is screened out only where its count uniform
    ``u[:, 1]`` lies below ``exp(-b * mu) * _EXP_SLACK`` for a factor b
    with lambda <= b * mu, hence below exp(-lambda), where Poisson(lambda)
    is 0.  ``j = ceil(u0 * S)`` puts u0 = ``u[:, 0]`` in ((j-1)/S, j/S]
    (u0 = 0 in j = 0), and lambda = gammaincinv(1/sigma, u0) * sigma * mu
    rises with u0, so b = gammaincinv(1/sigma, j/S) * sigma bounds it.
    The relative margin covers the special functions' rounding: scipy's
    gammaincinv exceeded its value at the upper bucket edge by at most
    7e-12 relative over 1/sigma in [1e-9, 1e9], against a margin of 1e-6.
    The screen skips computation only: it never changes a value.
    """
    b = _cap_table(sigma).take(np.ceil(u[:, 0] * _SCREEN_STEPS).astype(np.intp))
    with np.errstate(over="ignore"):  # b * mu past the float range: the threshold is 0 and the draw passes
        cells = np.flatnonzero(u[:, 1] >= np.exp(-b * mu) * _EXP_SLACK)
    out = np.zeros(mu.size, dtype=np.int64)
    out[cells] = poisson_inverse(u[:, 1].take(cells), _gamma_from_uniforms(mu.take(cells), sigma, u[:, 0].take(cells)))
    return out


def draw_counts(family: Family | str, mu, sigma: float, u: np.ndarray) -> np.ndarray:
    """Synthetic counts from per-draw uniform blocks: the one entry point for draws.

    Parameters
    ----------
    family, sigma : model family and dispersion; where
        :func:`~satsynth.models.effective_family` gives Poisson, the draw is
        Poisson's, its count uniform in slot 0.
    mu : array of finite draw means (0 means a degenerate zero draw).
    u : ``(len(mu), SLOTS_PER_DRAW)`` uniforms in [0, 1), e.g. from
        :func:`uniform_block`.
    """
    family = effective_family(family, sigma)
    mu = np.asarray(valid_means(mu))
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape != (mu.size, SLOTS_PER_DRAW):
        raise ValidationError(
            f"expected uniforms of shape ({mu.size}, {SLOTS_PER_DRAW}), got {u.shape}"
        )
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):  # NaN fails both
        raise ValidationError("uniforms must lie in [0, 1)")

    if not mu.all():  # a mean of 0 draws 0 (PIG's roots are 0/0 there); occupied rows have none
        live = np.flatnonzero(mu)
        out = np.zeros(mu.shape, dtype=np.int64)
        out.flat[live] = draw_counts(family, mu.flat[live], sigma, u[live])
        return out
    flat = mu.reshape(-1)
    if family is Family.NBI:
        counts = _nbi_counts(flat, sigma, u)
    elif family is Family.PIG:
        counts = poisson_inverse(u[:, 2], _inverse_gaussian_from_uniforms(flat, sigma, u[:, 0], u[:, 1]))
    else:
        counts = poisson_inverse(u[:, 0], flat)
    return counts.reshape(mu.shape)
