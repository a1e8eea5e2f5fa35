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

Most cells of an administrative-scale table draw 0, so one screen,
:func:`may_draw_nonzero`, rules out from each draw's mean and uniforms the
draws that certainly give 0.  ``draw_counts`` runs the mixing kernel and
the Poisson quantile only on the rest, and synthesis uses the same screen
at the random zeros' common mean alpha, so most of them never reach
``draw_counts``.  The screen skips computation only: it never changes a
value, and every cell's count is still a function of its own counter
block.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .errors import ValidationError
from .models import Family, effective_family

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

# Sure-zero screen (see ``may_draw_nonzero``): the first uniform is
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
    key words must lie in [0, 2**64), so that distinct seeds never share
    a stream.
    """
    if n < 0:
        raise ValidationError("block length must be >= 0")
    return fill_uniform_block(master_seed, stream, start, np.empty((n, SLOTS_PER_DRAW)))


def fill_uniform_block(master_seed: int, stream: int, start: int, out: np.ndarray) -> np.ndarray:
    """:func:`uniform_block` written into the C-contiguous float64 ``out`` of
    shape ``(n, SLOTS_PER_DRAW)``; returns ``out``.

    Each uniform is the top 53 bits of one raw Philox word times 2**-53,
    the same bits as ``random_raw`` shifted and scaled.
    """
    _check_key(master_seed, stream)
    key = np.array([master_seed, stream], dtype=np.uint64)
    counter = np.zeros(4, dtype=np.uint64)
    counter[0] = start & _U64_MASK
    counter[1] = (start >> 64) & _U64_MASK
    return Generator(Philox(key=key, counter=counter)).random(out=out)


def _check_key(master_seed: int, stream: int) -> None:
    for name, word in (("master seed", master_seed), ("stream", stream)):
        if not 0 <= word <= _U64_MASK:
            raise ValidationError(f"{name} must be in [0, 2**64), got {word}")


def _mulhi(a: np.ndarray, m: int) -> np.ndarray:
    """High 64 bits of ``a * m`` for uint64 ``a``, from 32-bit halves."""
    m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a0, a1 = a & _LO32, a >> _32
    t = a1 * m0 + ((a0 * m0) >> _32)
    return a1 * m1 + (t >> _32) + ((a0 * m1 + (t & _LO32)) >> _32)


def uniform_rows(master_seed: int, stream: int, blocks: np.ndarray) -> np.ndarray:
    """The rows ``uniform_block(master_seed, stream, b, 1)`` for each counter
    block ``b`` of the uint64 array ``blocks``, in order.

    Philox is counter-based, so each block is computed directly: this is
    Philox4x64-10 (Salmon et al., SC'11) in vectorised uint64 arithmetic
    on the counter ``b + 1`` (numpy's Philox increments its counter before
    each block), ``2**14`` counters at a time.
    """
    _check_key(master_seed, stream)
    blocks = np.asarray(blocks, dtype=np.uint64).reshape(-1)
    # Python ints: np.uint64 scalar arithmetic warns on the wrap-around
    keys = [
        (np.uint64((master_seed + r * _PHILOX_W0) & _U64_MASK),
         np.uint64((stream + r * _PHILOX_W1) & _U64_MASK))
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
    from scipy import special  # see draw_counts
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
    from scipy import special  # see draw_counts
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
    from scipy import special  # see draw_counts
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
    from scipy import special  # see draw_counts
    z = special.ndtri(u_norm)
    with np.errstate(over="ignore"):  # where h or h * (h + 4) overflows, the small root is its limit 0
        h = sigma * z * z
        small_root = 2.0 * mu / (2.0 + h + np.sqrt(h * (h + 4.0)))
    with np.errstate(divide="ignore"):
        large_root = np.where(small_root > 0.0, mu * mu / small_root, np.inf)
    take_small = u_pick <= mu / (mu + small_root)
    return np.where(take_small, small_root, large_root)


def _cap_table(family: Family, sigma: float) -> np.ndarray:
    """The bound b of each screen bucket (see :func:`may_draw_nonzero`), margin included.

    Entries 0 .. S hold bucket j's bound.  For PIG, entries S+1 .. 2S+1
    hold the bound 1 of the small root, which every bucket takes when
    u1 <= 1/2.
    """
    from scipy import special  # see draw_counts
    edges = np.arange(_SCREEN_STEPS + 1) / _SCREEN_STEPS
    if family is Family.NBI:
        return special.gammaincinv(1.0 / sigma, edges) * sigma * (1.0 + _SCREEN_MARGIN)
    z = np.abs(special.ndtri(edges))
    z = np.maximum(z, np.concatenate(([np.inf], z[:-1])))
    with np.errstate(over="ignore"):  # an overflowing bound is inf: every draw of its bucket passes
        h = sigma * z * z
        table = (2.0 + h + np.sqrt(h * (h + 4.0))) / 2.0 * (1.0 + _SCREEN_MARGIN)
    return np.concatenate((table, np.ones(edges.size)))


def _screen_bucket(family: Family, u: np.ndarray) -> np.ndarray:
    """Each draw's entry of :func:`_cap_table`, for uniforms ``u`` in [0, 1):
    ``j = ceil(u0 * S)`` in 0 .. S, plus S + 1 for PIG when u1 <= 1/2."""
    j = u[:, 0] * _SCREEN_STEPS
    np.ceil(j, out=j)
    if family is Family.PIG:
        j += (u[:, 1] <= 0.5) * (_SCREEN_STEPS + 1.0)
    return j.astype(np.intp)


def may_draw_nonzero(family: Family, sigma: float, mu, u: np.ndarray) -> np.ndarray:
    """Which draws may be nonzero: a boolean mask over the rows of ``u``.

    ``mu`` is one mean per row, or one mean for every row (the random
    zeros' alpha); ``u`` holds uniforms in [0, 1).  A draw is False only
    where it is certainly 0: its mean is 0, or its count uniform lies
    below ``exp(-b * mu) * _EXP_SLACK`` for a factor b with
    lambda <= b * mu, hence below exp(-lambda), where Poisson(lambda) is 0.

    ``j = ceil(u0 * S)`` puts u0 = ``u[:, 0]`` in ((j-1)/S, j/S] (u0 = 0 in
    j = 0).  Within a bucket each family's lambda is monotone in u0, so
    its value at an edge of the bucket bounds it:

    * NBI: lambda = gammaincinv(1/sigma, u0) * sigma * mu rises with u0,
      so b = gammaincinv(1/sigma, j/S) * sigma.
    * PIG: with h = sigma * ndtri(u0)**2, the small root is mu / R(h) and
      the large root mu * R(h), where R(h) = (2 + h + sqrt(h*(h + 4))) / 2
      >= 1 rises with h.  So b = R(sigma * Z_j**2), Z_j the larger
      |ndtri| at the bucket's two edges.  The small root x is taken
      whenever u1 = ``u[:, 1]`` <= 1/2, since x <= mu makes its
      probability mu / (mu + x) >= 1/2, also after rounding; then b = 1.
    * Poisson (and the Poisson limit, see :func:`~satsynth.models.effective_family`):
      lambda = mu, so b = 1 in every bucket.

    The relative margin covers the special functions' rounding: scipy's
    gammaincinv exceeded its value at the upper bucket edge by at most
    7e-12 relative over 1/sigma in [1e-9, 1e9], and ndtri and the root
    arithmetic are good to a few ulp, against a margin of 1e-6.
    """
    family = effective_family(family, sigma)
    with np.errstate(invalid="ignore"):  # inf * 0 at mu = 0: NaN, and mu > 0 drops it
        if family is Family.POISSON:
            slot, threshold = 0, np.exp(-mu) * _EXP_SLACK  # b = 1
        else:
            slot, table = (1 if family is Family.NBI else 2), _cap_table(family, sigma)
            if np.ndim(mu) == 0:  # one exponential per bucket
                threshold = (np.exp(-table * mu) * _EXP_SLACK).take(_screen_bucket(family, u))
            else:
                threshold = np.exp(-table.take(_screen_bucket(family, u)) * mu) * _EXP_SLACK
    return (u[:, slot] >= threshold) & (mu > 0.0)


def draw_counts(family: Family | str, mu, sigma: float, u: np.ndarray) -> np.ndarray:
    """Synthetic counts from per-draw uniform blocks.

    Parameters
    ----------
    family, sigma : model family and dispersion; where
        :func:`~satsynth.models.effective_family` gives Poisson, the draw is
        Poisson's, its count uniform in slot 0.
    mu : array of finite draw means (0 means a degenerate zero draw).
    u : ``(len(mu), SLOTS_PER_DRAW)`` uniforms in [0, 1), e.g. from
        :func:`uniform_block`.

    Only the draws that pass :func:`may_draw_nonzero` run the mixing
    kernel (lambda = mu for Poisson) and the Poisson quantile; the others
    are 0.
    """
    from scipy import special  # here, not at import: it adds ~0.25 s to start-up (see models.LogPmf)
    family = effective_family(family, sigma)
    mu = np.asarray(mu, dtype=np.float64)
    if not np.all((mu >= 0.0) & (mu < np.inf)):  # False for NaN
        raise ValidationError("mu must be finite and >= 0")
    if not 0.0 <= sigma < np.inf:
        raise ValidationError(f"sigma must be finite and >= 0, got {sigma}")
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape != (mu.size, SLOTS_PER_DRAW):
        raise ValidationError(
            f"expected uniforms of shape ({mu.size}, {SLOTS_PER_DRAW}), got {u.shape}"
        )
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):  # NaN fails both
        raise ValidationError("uniforms must lie in [0, 1)")

    flat = mu.reshape(-1)
    cells = np.flatnonzero(may_draw_nonzero(family, sigma, flat, u))
    mm = flat.take(cells)
    uu = u.take(cells, axis=0)
    if family is Family.POISSON:
        slot, lam = 0, mm
    elif family is Family.NBI:
        g = special.gammaincinv(1.0 / sigma, uu[:, 0])
        with np.errstate(over="ignore"):  # near sigma = 1e308, g = 0 meets sigma * mu = inf: lambda is 0
            slot, lam = 1, np.multiply(g, sigma * mm, out=np.zeros_like(g), where=g > 0.0)
    else:
        slot, lam = 2, _inverse_gaussian_from_uniforms(mm, sigma, uu[:, 0], uu[:, 1])
    out = np.zeros(flat.size, dtype=np.int64)
    out[cells] = poisson_inverse(uu[:, slot], lam)
    return out.reshape(mu.shape)
