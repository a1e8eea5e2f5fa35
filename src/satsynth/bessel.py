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

One order takes its row of the ladder alone, at one argument or many; many
orders at many arguments sort their places in the ladder once and fill one
slice per row.  A point evaluation (one argument, as each alpha of a tuning
solve makes) takes the same steps on float64 scalars.  They stay numpy
ufuncs: ``math.log`` differs from ``np.log`` in the last bit on some
arguments, and would move every tuned alpha.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ValidationError

_LOG_SQRT_PI_OVER_2 = 0.5 * np.log(np.pi / 2.0)
_LN2 = np.log(2.0)


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
        yield seed + (exponent * _LN2 + np.log(cur))


def _log_k_half_scaled(n, t):
    """log K_{n - 1/2}(t) + t for integer array ``n`` and array ``t >= 1e-300``.

    One order takes its row alone; one argument keeps every order's row up to
    the largest; otherwise each output element's place in the (order,
    argument) ladder is sorted once and each row fills its slice: memory is
    O(t.size + output size), never orders x arguments.
    """
    if n.ndim == 0 and t.size:  # one order: its row alone, at one argument or many (at none, no row)
        return next(itertools.islice(_rows(t), max(n, 1 - n) - 1, None))  # K is even in its order
    m = np.maximum(n, 1 - n)
    if t.size == 1:  # one argument: every order's row up to the largest, by order
        out = np.fromiter(_rows(t.ravel()[0]), np.float64, int(m.max(initial=1)))[m - 1]
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
        Negative indices are folded by the symmetry of K in its order.
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
    if not np.all((n == np.floor(n)) & (n > 1 - 2**63) & (n < 2**63)):  # before the cast; keeps the fold 1 - n in int64
        raise ValidationError("order index must be an integer above 1 - 2**63 and below 2**63")
    n = n.astype(np.int64)  # ladder keys reach orders x arguments
    if not np.all(t >= 1e-300):
        raise ValidationError("Bessel argument t must be >= 1e-300")
    out = _log_k_half_scaled(n, t) - t
    return float(out) if out.ndim == 0 else out
