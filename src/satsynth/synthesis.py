"""Whole-table synthesis under the saturated count-model mechanism.

Every cell is drawn independently from the chosen family with mean equal
to its original count; random zeros get mean ``alpha`` instead, and
structural zeros stay zero.  Replicates are independent.  A cell's draw
depends only on (master seed, replicate index, cell flat index) — never
on chunking or worker count — because each cell owns a fixed counter
block of the keyed Philox stream (see :mod:`satsynth.sampling`).

Only the draws that pass :func:`~satsynth.sampling.may_draw_nonzero` at
their own mean (``alpha`` for a random zero) reach the sampler; every other
cell certainly draws 0.  At ``alpha = 0`` no random zero can pass, so only
the occupied cells' counter blocks are computed
(:func:`~satsynth.sampling.uniform_rows`), and the work is cut into ranges
of occupied rows whatever the size of the cell space.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import FormatError, ValidationError
from .models import CountModelSpec, Family
from .sampling import draw_screened, may_draw_nonzero, uniform_block, uniform_rows
from .table import SparseContingencyTable

PIECE_CELLS = 1 << 16  # at most 2 MB of uniforms a piece
MAX_ALPHA_CELLS = 1 << 40  # alpha > 0 draws every cell; beyond this it would never finish
MAX_THREADS = 256  # a pool may start one OS thread per piece


@dataclass(frozen=True)
class SynthesisJob:
    """Parameters of one synthesis run: model, replicate count, seed."""

    model: CountModelSpec
    master_seed: int
    m: int = 1

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ValidationError(f"replicate count m must be an integer >= 1, got {self.m!r}")
        if not isinstance(self.master_seed, int):
            raise ValidationError("master_seed must be an integer")
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
            if not isinstance(f, dict) or f.keys() != cls.__dataclass_fields__.keys():
                raise ValidationError(f"fields must be {', '.join(cls.__dataclass_fields__)}")
            for name, kinds in zip(cls.__dataclass_fields__, [(str,)] + [(int, float)] * 2 + [(int,)] * 3):
                if type(f[name]) not in kinds:  # type, not isinstance: true is no number
                    raise ValidationError(f"{name} must be {'/'.join(k.__name__ for k in kinds)}, got {f[name]!r}")
            job = SynthesisJob(CountModelSpec(f["family"], f["sigma"], f["alpha"]), f["master_seed"], f["m"])
            if not 0 <= f["replicate"] < job.m:
                raise ValidationError(f"replicate must be in [0, m), got {f['replicate']}")
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


def _chunk_draw(
    table: SparseContingencyTable,
    family: Family,
    sigma: float,
    alpha: float,
    master_seed: int,
    replicate: int,
    start: int,
    stop: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one piece; returns (flat indices, counts) of its nonzero draws.

    At ``alpha = 0`` the piece is the occupied rows [start, stop) of
    ``table.index``: a random zero certainly draws 0, so only their blocks
    are computed.  At ``alpha > 0`` it is the cells [start, stop), whose
    uniforms the piece computes and frees; a structural zero's mean is 0.
    """
    if alpha == 0.0:
        cells = table.index[start:stop]
        mu = table.count[start:stop].astype(np.float64)
        u = uniform_rows(master_seed, replicate, cells)
    else:
        cells = np.arange(start, stop, dtype=np.uint64)
        mu = np.full(stop - start, alpha)
        ends = np.array([start, stop], dtype=np.uint64)
        lo, hi = table.index.searchsorted(ends)
        # subtract in uint64 first: chunk-relative offsets are small, raw indices may not be
        mu[(table.index[lo:hi] - ends[0]).astype(np.int64)] = table.count[lo:hi]
        lo, hi = table.structural.searchsorted(ends)
        mu[(table.structural[lo:hi] - ends[0]).astype(np.int64)] = 0.0
        u = uniform_block(master_seed, replicate, start, stop - start)
    cand = np.flatnonzero(may_draw_nonzero(family, sigma, mu, u))
    counts = draw_screened(family, mu.take(cand), sigma, u.take(cand, axis=0))
    keep = counts > 0
    return cells[cand[keep]], counts[keep]


def synthesize(table: SparseContingencyTable, job: SynthesisJob, threads: int = 1) -> list[SyntheticTable]:
    """Generate ``job.m`` independent synthetic replicates of ``table``.

    A piece of work computes at most ``PIECE_CELLS`` uniform blocks.  At
    ``alpha > 0`` pieces are flat-index ranges of ``PIECE_CELLS`` cells,
    and a table of more than ``MAX_ALPHA_CELLS`` cells is refused.  At
    ``alpha = 0`` the occupied rows are cut into
    ``max(threads, ceil(nnz / PIECE_CELLS))`` near-equal ranges (at most
    one per row), so the cell space's size does not matter.  With
    ``threads`` in 2 .. ``MAX_THREADS`` pieces are dispatched to a thread
    pool.  Output is identical for any thread count and piece size.
    """
    if not (isinstance(threads, (int, np.integer)) and 1 <= threads <= MAX_THREADS):
        raise ValidationError(f"threads must be an integer in [1, {MAX_THREADS}], got {threads!r}")
    spec = job.model
    k = table.num_cells
    if spec.alpha == 0.0:
        nnz = table.num_nonzero
        n = max(1, min(threads, nnz), -(-nnz // PIECE_CELLS))  # one empty piece when nnz = 0
        bounds = [nnz * i // n for i in range(n + 1)]
    elif k > MAX_ALPHA_CELLS:
        raise ValidationError(
            f"alpha > 0 draws every cell, and the table has {k} > 2**40 cells; alpha = 0 has "
            "no such limit (geometric skipping of the zero cells, ROADMAP item 2, would lift it)"
        )
    else:
        bounds = [*range(0, k, PIECE_CELLS), k]
    draw = partial(_chunk_draw, table, spec.effective_family, spec.sigma, spec.alpha, job.master_seed)
    out: list[SyntheticTable] = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # threads=1 runs the pieces on this thread: through the pool, peak RSS
        # on the full-scale table rose from 151 to about 175 MB
        run = pool.map if threads > 1 and len(bounds) > 2 else map
        for rep in range(job.m):
            drawn = list(run(partial(draw, rep), bounds[:-1], bounds[1:]))
            idx = np.concatenate([d[0] for d in drawn])
            cnt = np.concatenate([d[1] for d in drawn])
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
