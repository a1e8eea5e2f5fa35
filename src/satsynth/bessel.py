"""Modified Bessel functions of the second kind at half-integer orders.

Every order needed by the Poisson-inverse-Gaussian probability mass
function is of the form ``n - 1/2`` with integer ``n``.  At these orders
K has the closed seed

    K_{1/2}(t) = K_{-1/2}(t) = sqrt(pi / (2 t)) * exp(-t)

and higher orders follow from the three-term upward recurrence

    K_{v+1}(t) = K_{v-1}(t) + (2 v / t) * K_v(t),

which is numerically stable for K because magnitudes grow with the
order.  Values span hundreds of orders of magnitude across the package's
working range, so the recurrence carries a power-of-two exponent beside
each value and returns logs; it runs on ``K * exp(t)``, so the seed's
``-t`` never enters the sums.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_LOG_SQRT_PI_OVER_2 = 0.5 * np.log(np.pi / 2.0)
_LN2 = np.log(2.0)


def _log_k_half_scaled(n, t):
    """log K_{n - 1/2}(t) + t for integer array ``n`` and array ``t >= 1e-300``.

    K is carried as ``exp(seed) * mantissa * 2**exponent``; the exact
    ``frexp`` rescaling leaves each step one rounding, so log K_{n-1/2} is
    off by about n ulps of 1, not n ulps of its own size as on logs.  One
    pass over ``t``'s own elements fills a buffer of ladder rows no larger
    than the output, read out whenever it is full: memory is
    O(t.size + output size), never orders x arguments.
    """
    m = np.where(n >= 1, n, 1 - n)  # K is even in its order
    # each output element's place in the (order, argument) ladder
    key = (m - 1) * t.size + np.arange(t.size).reshape(t.shape)
    shape, key = key.shape, key.ravel()
    if key.size == 0:
        return np.zeros(shape)
    m_max = int(key.max()) // t.size + 1
    ladder = np.empty((min(m_max, max(1, key.size // t.size)), t.size))

    t = t.ravel()
    seed = _LOG_SQRT_PI_OVER_2 - 0.5 * np.log(t)  # orders -1/2 and 1/2
    prev = cur = np.ones(t.size)
    exponent = np.zeros(t.size, dtype=np.int64)
    out = np.empty(key.size)
    first = 1  # order held in the buffer's first row
    for j in range(1, m_max + 1):
        if j >= 2:  # K_{j-1/2} = K_{j-5/2} + (2j - 3) / t * K_{j-3/2}
            mantissa, shift = np.frexp(prev + (2 * j - 3) / t * cur)
            prev, cur = np.ldexp(cur, -shift), mantissa
            exponent += shift
        ladder[j - first] = seed + (exponent * _LN2 + np.log(cur))
        if j - first + 1 == len(ladder) or j == m_max:
            lo, hi = (first - 1) * t.size, j * t.size
            at = np.flatnonzero((key >= lo) & (key < hi))
            out[at] = ladder.ravel()[key[at] - lo]
            first = j + 1
    return out.reshape(shape)


def log_bessel_k_half(n, t):
    """log K_{n - 1/2}(t) for integer ``n`` (scalar or array) and t > 0.

    Parameters
    ----------
    n : int or array of int
        Order index; the Bessel order is ``n - 1/2``.  Negative indices are
        folded by the symmetry of K in its order.
    t : float or array of float
        Argument, at least 1e-300, below which a recurrence step can
        overflow.  NaN is refused.

    Returns
    -------
    float or ndarray
        Natural log of K.  Broadcasts ``n`` against ``t``.
    """
    t = np.asarray(t, dtype=np.float64)
    n = np.asarray(n)
    if not np.issubdtype(n.dtype, np.integer) and np.any(n != np.floor(n)):
        raise ValidationError("order index must be an integer")
    n = n.astype(np.int64)  # ladder keys reach orders x arguments
    if not np.all(t >= 1e-300):
        raise ValidationError("Bessel argument t must be >= 1e-300")
    out = _log_k_half_scaled(n, t) - t
    return float(out) if out.ndim == 0 else out
