"""Whole-table synthesis under the saturated count-model mechanism.

Every cell is drawn independently from the chosen family with mean equal
to its original count; random zeros get mean ``alpha`` instead, and
structural zeros stay zero.  Replicates are independent.  Stream v2 (see
README, Reproducibility model) splits the Philox stream keyed by (master
seed, replicate index) in two, so output never depends on pieces or worker
count.  An occupied cell draws from the counter block of its flat index
(:func:`~satsynth.sampling.uniform_rows`) through
:func:`~satsynth.sampling.draw_counts`: the same count at every alpha.
The random zeros, ranked in flat-index order, escape with probability
p = 1 - pmf(0 | alpha) by geometric skipping (Devroye, *Non-Uniform Random
Variate Generation*, 1986, ch. X) in blocks of ranks that read the counter
blocks from 2**64 on, and an escape's count inverts the zero-truncated CDF.
A piece of occupied rows or of ranks returns its nonzero draws' cells and
counts; a map built once per call takes ranks to cells.  A replicate costs
O(occupied cells + escapes).
"""

from __future__ import annotations

import json
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import FormatError, ValidationError
from .models import MAX_PMF_ENTRIES, CountModelSpec, Family, logpmf, pmf_range
from .sampling import draw_counts, uniform_block, uniform_rows
from .table import SparseContingencyTable

STREAM_VERSION = 2  # 1: every cell drew from its own counter block at alpha > 0
PIECE_CELLS = 1 << 15  # occupied rows a piece draws: 1 MiB of uniforms
ZERO_BLOCK_ESCAPES = 1 << 14  # expected escapes in a block of random-zero ranks
MAX_ESCAPES = 1 << 28  # expected escapes a replicate may hold: 4 GiB of (index, count)
MAX_THREADS = 256  # a pool may start one OS thread per piece


@dataclass(frozen=True)
class SynthesisJob:
    """Parameters of one synthesis run: model, replicate count, seed."""

    model: CountModelSpec
    master_seed: int
    m: int = 1

    def __post_init__(self):
        for name in ("m", "master_seed"):  # Python ints, as the sidecar carries them; it refuses a bool
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.m < 1:
            raise ValidationError(f"replicate count m must be >= 1, got {self.m}")
        if not 0 <= self.master_seed < 2**64:
            raise ValidationError(f"master_seed must be in [0, 2**64), got {self.master_seed}")


@dataclass(frozen=True)
class Provenance:
    """How a synthetic table was produced; serialised as the JSON sidecar."""

    family: str
    sigma: float
    alpha: float
    m: int
    master_seed: int
    replicate: int
    stream: int = STREAM_VERSION

    @property
    def label(self) -> str:
        """The model, as frontier points and reports name it."""
        return f"{self.family} sigma={self.sigma:g} alpha={self.alpha:g}"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Provenance":
        try:
            f = json.loads(text)
            f = {"stream": 1, **f} if isinstance(f, dict) else f  # a sidecar without it was written by stream 1
            if not isinstance(f, dict) or f.keys() != cls.__dataclass_fields__.keys():
                raise ValidationError(f"fields must be {', '.join(cls.__dataclass_fields__)}")
            for name, kinds in zip(cls.__dataclass_fields__, [(str,)] + [(int, float)] * 2 + [(int,)] * 4):
                if type(f[name]) not in kinds:  # type, not isinstance: true is no number
                    raise ValidationError(f"{name} must be {'/'.join(k.__name__ for k in kinds)}, got {f[name]!r}")
            job = SynthesisJob(CountModelSpec(f["family"], f["sigma"], f["alpha"]), f["master_seed"], f["m"])
            if not 0 <= f["replicate"] < job.m:
                raise ValidationError(f"replicate must be in [0, m), got {f['replicate']}")
            if not 1 <= f["stream"] <= STREAM_VERSION:
                raise ValidationError(f"stream must be in [1, {STREAM_VERSION}], got {f['stream']}")
        except (ValueError, ValidationError) as exc:  # not JSON, or a field of the wrong type or domain
            raise FormatError(f"malformed provenance sidecar: {exc}") from None
        return cls(**{**f, "family": job.model.family.value})


@dataclass(frozen=True)
class SyntheticTable:
    """A synthesized table plus the provenance of its draw."""

    table: SparseContingencyTable
    provenance: Provenance

    @property
    def n_syn(self) -> int:
        return self.table.n


def expected_grand_total(table: SparseContingencyTable, job: SynthesisJob) -> float:
    """E[n_syn] = n + alpha * (number of random zeros)."""
    return float(table.n) + job.model.alpha * table.num_random_zeros


@dataclass(frozen=True)
class _Escapes:
    """How ``zeros`` random zeros escape: ``log_q`` is log pmf(0 | alpha), and
    ``cdf`` the zero-truncated CDF of an escape's count over 1 .. cdf.size."""

    zeros: int
    log_q: float
    cdf: np.ndarray
    width: int  # ranks in a block: ZERO_BLOCK_ESCAPES escapes expected, and at most 2**62
    taken: np.ndarray  # the occupied and structural cells ascending, each minus its rank: the random zeros below it

    def draw(self, master_seed: int, replicate: int, block: int) -> tuple[np.ndarray, np.ndarray]:
        """The cells of the escaping ranks among [block * width, min((block + 1) * width, zeros)), ascending, and
        their counts.  Escape i reads a gap, then a count uniform, from counter block (block + 1) * 2**64 + i // 2."""
        n = min(self.width, self.zeros - block * self.width)
        mean = n * -math.expm1(self.log_q)
        batch = 2 * math.ceil(mean / 2 + 4 * math.sqrt(mean) + 8)  # escapes a pass draws, two per counter block
        ranks, counts, end = [], [], 0  # end: the rank after the last escape drawn
        while True:
            u = uniform_block(master_seed, replicate, ((block + 1) << 64) + len(ranks) * batch // 2, batch // 2)
            u = u.reshape(-1, 2)
            with np.errstate(over="ignore"):  # a gap past n as p -> 0 is capped at n
                gap = np.minimum(np.floor(np.log1p(-u[:, 0]) / self.log_q), n).astype(np.uint64)
            # below 2**63 up to the first rank past the block, as gap <= n <= 2**62
            rank = np.cumsum(gap) + np.arange(end, end + batch, dtype=np.uint64)
            inside = rank < n
            keep = batch if inside.all() else int(inside.argmin())
            ranks.append(rank[:keep] + np.uint64(block * self.width))
            counts.append(self.cdf.searchsorted(u[:keep, 1], side="right") + 1)
            if keep < batch:
                ranks = np.concatenate(ranks)  # each cell is its rank plus the taken cells up to it
                return ranks + self.taken.searchsorted(ranks, side="right").astype(np.uint64), np.concatenate(counts)
            end = int(rank[-1]) + 1


def _escapes(table: SparseContingencyTable, family: Family, sigma: float, alpha: float) -> _Escapes | None:
    """The random zeros' law at ``alpha`` > 0, or None where none escapes; a ``ValidationError``
    past ``MAX_ESCAPES`` expected escapes or ``models.MAX_PMF_ENTRIES`` entries of the CDF."""
    zeros, log_q = table.num_random_zeros, float(logpmf(family, 0, alpha, sigma))
    if zeros * -math.expm1(log_q) > MAX_ESCAPES:
        raise ValidationError(f"alpha = {alpha:g} expects {zeros * -math.expm1(log_q):.4g} of the {zeros} random "
                              f"zeros to escape, above the {MAX_ESCAPES} (2**28) a replicate may hold")
    if not zeros:
        return None
    # the pmf over 1 .. 2k, k doubled until the terms past k vanish beside the total; PIG's tail
    # falls as (1 + 1 / (2 sigma alpha))**-k, NBI's and Poisson's faster
    k = math.ceil(min(MAX_PMF_ENTRIES, alpha + 8.0 * math.sqrt(alpha) + 40.0 * (1.0 + 2.0 * sigma * alpha)))
    while True:
        if 2 * k >= MAX_PMF_ENTRIES:
            raise ValidationError(f"an escape's count at alpha = {alpha:g} needs over {MAX_PMF_ENTRIES} pmf entries")
        pmf = pmf_range(family, 2 * k, alpha, sigma)[1:]
        p = pmf.sum()
        if pmf[k:].sum() <= 2.0**-53 * p:
            # 1 - pmf(0) cancels where p < 1/2, and PIG's log pmf(0) is good to about 1e-16 only absolutely
            log_q, cdf = math.log1p(-p) if p < 0.5 else log_q, np.cumsum(pmf)
            if not log_q < 0.0:  # every term underflows, so p < 1e-300: no zero escapes
                return None
            width = math.ceil(min(2.0**62, ZERO_BLOCK_ESCAPES / -math.expm1(log_q)))
            taken = np.insert(table.index, table.index.searchsorted(table.structural), table.structural)
            taken -= np.arange(taken.size, dtype=np.uint64)
            return _Escapes(zeros, log_q, cdf / cdf[-1], width, taken)
        k *= 2


def _merged(a: np.ndarray, b: np.ndarray, at: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """``b`` at the places ``at`` and ``a`` at the places ``rest``, in one new array."""
    out = np.empty(rest.size, dtype=a.dtype)
    out[at], out[rest] = b, a
    return out


def _occupied(table: SparseContingencyTable, family: Family, sigma: float, start: int, stop: int,
              master_seed: int, replicate: int) -> tuple[np.ndarray, np.ndarray]:
    """The (cells, counts) of the nonzero draws among occupied rows [start, stop), each from its own counter block."""
    cells = table.index[start:stop]
    counts = draw_counts(family, table.count[start:stop], sigma, uniform_rows(master_seed, replicate, cells))
    keep = counts > 0
    return cells[keep], counts[keep]


def synthesize(table: SparseContingencyTable, job: SynthesisJob, threads: int = 1) -> list[SyntheticTable]:
    """Generate ``job.m`` independent synthetic replicates of ``table``.

    A piece, ``piece(master_seed, replicate)``, returns the (cells, counts) of its nonzero draws, ascending:
    one of ``max(threads, ceil(nnz / PIECE_CELLS))`` near-equal ranges of the occupied rows (at most one per
    row), or a block of random zeros.  With ``threads`` in 2 .. ``MAX_THREADS`` pieces go to a thread pool.
    Output is identical for any thread count and piece size.
    """
    if isinstance(threads, bool) or not (isinstance(threads, (int, np.integer)) and 1 <= threads <= MAX_THREADS):
        raise ValidationError(f"threads must be an integer in [1, {MAX_THREADS}], got {threads!r}")
    spec = job.model
    family, sigma = spec.effective_family, spec.sigma
    escapes = _escapes(table, family, sigma, spec.alpha) if spec.alpha > 0.0 else None
    nnz = table.num_nonzero
    n = max(1, min(threads, nnz), -(-nnz // PIECE_CELLS))  # one empty piece when nnz = 0
    bounds = [nnz * i // n for i in range(n + 1)]
    pieces = [partial(_occupied, table, family, sigma, start, stop) for start, stop in zip(bounds, bounds[1:])]
    pieces += [partial(escapes.draw, block=b) for b in range(-(-escapes.zeros // escapes.width))] if escapes else []
    out: list[SyntheticTable] = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # threads=1 runs the pieces on this thread: through the pool, peak RSS
        # on the full-scale table rose from 151 to about 175 MB
        run = pool.map if threads > 1 and len(pieces) > 1 else map
        for rep in range(job.m):
            drawn = list(run(lambda piece: piece(job.master_seed, rep), pieces))
            idx, cnt = (np.concatenate([d[j] for d in drawn[:n]]) for j in (0, 1))
            if escapes:  # merge the escapes into the occupied cells' draws
                esc, esc_cnt = (np.concatenate([d[j] for d in drawn[n:]]) for j in (0, 1))
                del drawn  # each copy's source goes once it is copied: the peak stays near two outputs
                at = idx.searchsorted(esc) + np.arange(esc.size)  # their places in the merged arrays
                rest = np.ones(idx.size + esc.size, dtype=bool)
                rest[at] = False
                idx = _merged(idx, esc, at, rest)  # np.insert's temporaries took 3 MiB more
                cnt = _merged(cnt, esc_cnt, at, rest)
            syn = SparseContingencyTable(table.schema, idx, cnt, table.structural)
            prov = Provenance(
                family=spec.family.value,
                sigma=float(spec.sigma),
                alpha=float(spec.alpha),
                m=job.m,
                master_seed=job.master_seed,
                replicate=rep,
            )
            out.append(SyntheticTable(syn, prov))
    return out
