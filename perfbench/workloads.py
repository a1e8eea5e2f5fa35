"""The four workloads of the satsynth benchmark.

All are closed loop with one client: each call into satsynth waits for
the previous one.  ``occupied``, ``escape`` and ``tune`` call the
library in this process; ``cli`` runs the ``satsynth`` command as
subprocesses.  Every workload runs on the full-scale stand-in table
``generate_table(esc_like_spec(), seed)``.

An iteration is a fixed sequence of steps: one ``synthesize`` call per
family, one tuning sweep per (family, sigma), or one CLI command each.
Untraced runs give the end-to-end metrics, the same three on every
workload: ``setup_s``, ``iter_s`` (the sum over the iteration's steps of
each step's median wall time) and ``peak_rss_mb``.  Each step's median
is printed as a report line above the result.

A traced run alternates untraced and traced passes (their ratio is the
tracing overhead), then runs the same probe suite on every workload: it
calls each layer's public functions itself on the workload's table, at
the workload's alpha (0 on ``occupied``, the match-zeros alpha*
elsewhere), for the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import satsynth as S

import checks
from harness import (
    OUT_DIR,
    Tally,
    Tracer,
    digest,
    exit_problems,
    file_digest,
    median,
    peak_rss_mb,
    run_python,
    span,
    summary,
    timed,
)

FAMILIES = (("poisson", 0.0), ("nbi", 1.0), ("pig", 1.0))
# match-zeros alpha* of each family at sigma = 1 (Poisson: sigma = 0).  It
# depends only on the cell-size histogram, which generate_table hits
# exactly, so it is the same for every seed.
ALPHA_STAR = {
    "poisson": 0.01700042047287631,
    "nbi": 0.03133337288486704,
    "pig": 0.027358464858548648,
}
FAMILY_NAMES = tuple(f for f, _ in FAMILIES)
TUNE_UNITS = (("poisson", 0.0), ("nbi", 0.5), ("nbi", 1.0), ("nbi", 2.0), ("pig", 0.5), ("pig", 1.0), ("pig", 2.0))
TAU4_TARGET = 0.3
SETUP_REPEATS = 3
BLOCK_S = 0.2  # least time a step runs in each round of a run
CHUNK_CELLS = 1 << 20  # synthesize's default chunk; probes cut the table the same way
FULL_SCALE = {"cells": 3_468_640, "nonzero": 333_660, "n": 8_190_870}
CLI_VARIABLES = "ethnicity,age,language"
CLI_STEPS = ("tune", "synthesize", "metrics", "evaluate", "frontier")
CLI_REPLICATES = 1
P_LIST = [0.5, 1, 5, 10, 50]
SETUP_CODE = (
    "import sys, satsynth as s; "
    "t = s.generate_table(s.esc_like_spec(), int(sys.argv[1])); s.tau2_of_table(t)"
)


@dataclass
class Run:
    """One benchmark run: its inputs, tally, spans and results."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    tally: Tally = field(default_factory=Tally)
    tracer: Tracer | None = None
    e2e: dict = field(default_factory=dict)  # name -> (value, unit, note)
    layer: dict = field(default_factory=dict)
    steps: dict = field(default_factory=dict)  # step -> (median, unit, note), report lines only
    counts: dict = field(default_factory=dict)  # must repeat exactly for a seed
    info: dict = field(default_factory=dict)
    _iteration: int = 0

    def __post_init__(self):
        if self.trace:
            self.tracer = Tracer()

    def next_iteration(self) -> int:
        self._iteration += 1
        return self._iteration

    def put_times(self, target: dict, name: str, values: list[float]) -> None:
        if values:
            target[name] = (median(values), "s", summary(values))

    def passes(self):
        """Yield whether to trace each pass until ``seconds`` have passed.

        A traced run alternates untraced and traced passes and makes at
        least one of each; an untraced run makes at least one pass.
        """
        end = time.perf_counter() + self.seconds
        done = 0
        while done < (2 if self.trace else 1) or time.perf_counter() < end:
            yield self.trace and done % 2 == 1
            done += 1

    def rounds(self, schedule: list) -> dict[str, tuple[list[float], list[float]]]:
        """Run the ``(name, step)`` pairs of ``schedule`` in turn, round
        after round, until ``seconds`` have passed; a step is called as
        ``step(iteration, tracer)`` and may appear more than once.

        Within a round a step repeats until it has run for ``BLOCK_S``, so
        fast steps gather samples while slow ones run once.  Interleaving
        gives every step the same share of a drifting machine.  A step
        returns its seconds, or None when its operation failed.  Returns
        the untraced and traced seconds of each step.
        """
        out = {name: ([], []) for name, _ in schedule}
        for with_trace in self.passes():
            for name, step in schedule:
                block_end = time.perf_counter() + BLOCK_S
                while True:
                    dt = step(self.next_iteration(), self.tracer if with_trace else None)
                    if dt is not None:
                        out[name][with_trace].append(dt)
                    if time.perf_counter() >= block_end:
                        break
        return out

    def finish(self, times: dict[str, tuple[list[float], list[float]]], rss_who: int) -> None:
        """``iter_s`` and ``peak_rss_mb`` from the steps' untraced seconds;
        in a traced run, the tracing overhead from the traced ones."""
        for name, (plain, _) in times.items():
            self.put_times(self.steps, f"{name}_s", plain)
        if not all(plain for plain, _ in times.values()):
            return  # a step never succeeded: no iteration time to report
        plain_s = sum(median(plain) for plain, _ in times.values())
        self.e2e["iter_s"] = (plain_s, "s", f"sum of the medians of {len(times)} steps")
        self.e2e["peak_rss_mb"] = (peak_rss_mb(rss_who), "MB", "peak resident set")
        if self.trace and all(traced for _, traced in times.values()):
            traced_s = sum(median(traced) for _, traced in times.values())
            self.layer["trace.overhead_ratio"] = (traced_s / plain_s, "ratio", "traced over untraced iter_s")


# -- set-up ------------------------------------------------------------------------


def measure_setup(run: Run, argv: list[str]) -> None:
    """setup_s: median wall time of SETUP_REPEATS set-up subprocesses."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = run.tally.attempt("setup", run_python, argv)
        if out is None:
            continue
        dt, proc = out
        if run.tally.record("setup", exit_problems(proc)):
            times.append(dt)
    run.put_times(run.e2e, "setup_s", times)


def load_table(run: Run, repeats: int = SETUP_REPEATS):
    """The workload's table and its size distribution, built in this process.

    Also checks the stand-in's shape and that generation is repeatable.
    """
    gen_s, dist_s, digests = [], [], set()
    table = dist = None
    for _ in range(repeats):
        it = run.next_iteration()
        with span(run.tracer, "generator.generate_table", it):
            dt, table = timed(S.generate_table, S.esc_like_spec(), run.seed)
        gen_s.append(dt)
        with span(run.tracer, "table.cell_size_distribution", it):
            dt, dist = timed(S.tau2_of_table, table)
        dist_s.append(dt)
        digests.add(digest(table.index, table.count))
    shape = {"cells": table.num_cells, "nonzero": table.num_nonzero, "n": table.n}
    problems = [] if shape == FULL_SCALE else [f"table shape {shape}, expected {FULL_SCALE}"]
    if len(digests) != 1:
        problems.append("generate_table gave different tables for one seed")
    run.tally.record("generate table", problems)
    run.info.update(table_cells=table.num_cells, table_nonzero=table.num_nonzero, table_n=table.n,
                    distinct_sizes=int(dist.nonzero_sizes.size) + 1)
    run.counts["table.digest"] = digests.pop()
    if run.trace:
        run.put_times(run.layer, "generator.generate_table_s", gen_s)
        run.put_times(run.layer, "table.cell_size_distribution_s", dist_s)
    return table, dist


def live_draws(table, alpha: float) -> int:
    """Cells synthesize draws: the occupied ones at alpha = 0, else every non-structural one."""
    return table.num_cells - table.num_structural_zeros if alpha > 0 else table.num_nonzero


# -- occupied / escape ---------------------------------------------------------------


def run_synthesis(run: Run, escape: bool) -> None:
    """``synthesize`` one replicate per family at alpha = 0 or at alpha*."""
    measure_setup(run, ["-c", SETUP_CODE, str(run.seed)])
    table, dist = load_table(run)
    alphas = ALPHA_STAR if escape else {f: 0.0 for f in FAMILY_NAMES}
    run.info["alpha"] = alphas
    steps, reference = {}, {}
    for family, sigma in FAMILIES:
        job = S.SynthesisJob(S.CountModelSpec(family, sigma=sigma, alpha=alphas[family]), master_seed=run.seed)

        def step(it, tracer, family=family, job=job):
            what = f"synthesize {family}"
            t0 = time.perf_counter()
            with span(tracer, f"synthesis.synthesize.{family}", it):
                reps = run.tally.attempt(what, S.synthesize, table, job, threads=1)
            dt = time.perf_counter() - t0
            if reps is None:
                return None
            live = live_draws(table, job.model.alpha)
            ok = record_replicate(run, what, table, dist, job, reps[0].table, it, live, reference)
            return dt if ok else None

        steps[family] = step
    run.finish(run.rounds(list(steps.items())), resource.RUSAGE_SELF)
    if run.trace:
        probe_layers(run, table, dist, alphas)


def record_replicate(run: Run, what: str, table, dist, job, syn, it: int, live: int, reference: dict) -> bool:
    """Check one replicate and record its synthesize call as an operation.

    Every replicate is checked for n_syn; the first of each family also
    for drift and gives the counts, and later ones must equal it.
    """
    family = job.model.family.value
    problems = checks.check_nsyn(table, job, syn.n)
    fingerprint = digest(syn.index, syn.count)
    if family not in reference:
        reference[family] = fingerprint
        problems += verify_replicate(run, table, dist, job, syn, it, live)
    elif fingerprint != reference[family]:
        problems.append("replicate differs from the first iteration's")
    return run.tally.record(what, problems)


def verify_replicate(run: Run, table, dist, job, syn, it: int, live: int) -> list[str]:
    """Counts and the drift check of a family's first replicate (untimed)."""
    family = job.model.family.value
    nonzero = syn.num_nonzero
    escapes = nonzero - np.intersect1d(syn.index, table.index, assume_unique=True).size
    run.counts[f"synthesis.digest_{family}"] = digest(syn.index, syn.count)
    run.counts[f"synthesis.nonzero_out_{family}"] = nonzero
    run.counts[f"synthesis.escapes_{family}"] = escapes
    run.counts[f"sampling.live_draws_{family}"] = live
    with span(run.tracer, "checks.drift", it):
        worst, problems = checks.drift(table, dist, job, syn)
    run.info[f"drift_max_abs_z_{family}"] = round(worst, 3)
    return problems


# -- tune -----------------------------------------------------------------------------


def run_tune(run: Run) -> None:
    """Per family and sigma: match-zeros alpha*, the tau4(1) = p solve, tau_analytic.

    Each (family, sigma) is a step of its own, and the fast Poisson and
    NBI steps run again before each of PIG's slow ones, so that every
    step is sampled across the whole run.
    """
    measure_setup(run, ["-c", SETUP_CODE, str(run.seed)])
    table, dist = load_table(run)
    run.info["alpha"] = ALPHA_STAR
    steps, first = {}, {}
    for family, sigma in TUNE_UNITS:
        key = f"{family}.s{sigma:g}"

        def step(it, tracer, family=family, sigma=sigma, key=key):
            what = f"tune {family} sigma={sigma:g}"
            t0 = time.perf_counter()
            out = run.tally.attempt(what, tune_once, dist, family, sigma, key, it, tracer)
            dt = time.perf_counter() - t0
            if out is None:
                return None
            a0, res, rep = out
            fingerprint = repr((a0, res.alpha_star, res.iterations, rep.to_rows()))
            problems = []
            if key not in first:
                first[key] = fingerprint
                run.counts[f"tuning.tau4_iterations_{key}"] = res.iterations
                run.counts[f"tuning.alpha_star_{key}"] = repr(res.alpha_star)
                with span(run.tracer, "checks.tuning", it):
                    problems = checks.check_tuning(dist, family, sigma, a0, res.alpha_star, TAU4_TARGET)
            elif fingerprint != first[key]:
                problems = ["results differ from the first iteration's"]
            return dt if run.tally.record(what, problems) else None

        steps[key] = step
    fast = [(key, step) for key, step in steps.items() if not key.startswith("pig.")]
    schedule = [pair for key, step in steps.items() if key.startswith("pig.") for pair in (*fast, (key, step))]
    run.finish(run.rounds(schedule), resource.RUSAGE_SELF)
    if run.trace:
        probe_layers(run, table, dist, ALPHA_STAR)


def tune_once(dist, family: str, sigma: float, key: str, it: int, tracer):
    with span(tracer, f"tune.{key}", it) as root:
        with span(tracer, f"tuning.match_zeros.{key}", it, root):
            a0 = S.alpha_star_match_zeros(dist, family, sigma)
        with span(tracer, f"tuning.tau4_solve.{key}", it, root):
            res = S.solve_alpha_for_tau4_target(dist, family, sigma, TAU4_TARGET)
        with span(tracer, f"taumetrics.tau_analytic.{key}", it, root):
            rep = S.tau_analytic(dist, family, sigma, res.alpha_star, k_report=3)
    return a0, res, rep


# -- cli --------------------------------------------------------------------------------


def run_cli(run: Run) -> None:
    """tune -> synthesize -> metrics -> evaluate -> frontier, as subprocesses."""
    work = OUT_DIR / f"work-cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        _run_cli(run, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _cli(*args) -> list[str]:
    return ["-m", "satsynth.cli", *map(str, args)]


def _run_cli(run: Run, work: Path) -> None:
    original = work / "esc.csv"
    measure_setup(run, _cli("generate-escsub", "--seed", run.seed, "--out", original))
    if "setup_s" not in run.e2e:
        return
    threads = min(2, len(os.sched_getaffinity(0)))
    table, dist = load_table(run, repeats=1)
    run.counts["table.csv_bytes"] = original.stat().st_size
    run.counts["table.csv_digest"] = file_digest(original)
    run.info.update(threads=threads)
    last: dict = {}

    def chain(it, tracer):
        out_dir = work / f"syn{it}"
        times = {}

        def step(name, args, check=None):
            what = f"cli {name}"
            with span(tracer, f"cli.{name}", it):
                out = run.tally.attempt(what, run_python, _cli(name, "--table", original, *args))
            if out is None:
                return None
            dt, proc = out
            problems = exit_problems(proc)
            if not problems and check is not None:
                with span(tracer, f"checks.cli_{name}", it):
                    problems = run.tally.attempt(what, check, proc)
                if problems is None:
                    return None
            if not run.tally.record(what, problems):
                return None
            times[name] = dt
            return proc

        tuned = {}

        def parse_alpha(proc):  # a malformed report raises, which fails the step
            tuned["alpha"] = float(json.loads(proc.stdout)["alpha_star"])
            return []

        if step("tune", ["--family", "nbi", "--sigma", 1, "--target", "match-zeros"], parse_alpha) is None:
            return times
        alpha = tuned["alpha"]
        paths = [out_dir / f"esc.synth.nbi.r{r}.csv" for r in range(CLI_REPLICATES)]

        def readback(proc):
            last["n_syn"], problems = checks.synthesize_readback(proc.stdout, paths)
            return problems

        if step("synthesize", ["--family", "nbi", "--sigma", 1, "--alpha", repr(alpha),
                               "--m", CLI_REPLICATES, "--seed", run.seed, "--threads", threads,
                               "--out-dir", out_dir], readback) is None:
            return times
        synthetic = ["--synthetic", *paths]
        prefix = work / f"tau{it}"
        if step("metrics", [*synthetic, "--k-max", 3, "--out-prefix", prefix],
                lambda proc: checks.check_analytic_csv(
                    Path(f"{prefix}.analytic.csv"), dist, "nbi", 1.0, alpha, 3)) is None:
            return times
        within = work / f"within{it}.csv"
        if step("evaluate", [*synthetic, "--out", within],
                lambda proc: checks.check_report(within, 10)) is None:
            return times
        frontier = work / f"frontier{it}.csv"
        if step("frontier", [*synthetic, "--variables", CLI_VARIABLES, "--out", frontier],
                lambda proc: checks.check_report(frontier, 1)) is None:
            return times
        fingerprint = {"alpha": repr(alpha), "n_syn": last["n_syn"],
                       "replicates": [file_digest(p) for p in paths]}
        if "fingerprint" not in last:
            last.update(fingerprint=fingerprint, alpha=alpha)
        elif fingerprint != last["fingerprint"]:
            run.tally.record("cli chain", ["outputs differ from the first iteration's"])
        shutil.rmtree(out_dir, ignore_errors=True)
        return times

    per_step = {name: ([], []) for name in CLI_STEPS}
    for with_trace in run.passes():
        times = chain(run.next_iteration(), run.tracer if with_trace else None)
        for name, dt in times.items():
            per_step[name][with_trace].append(dt)
    run.finish(per_step, resource.RUSAGE_CHILDREN)
    if "fingerprint" in last:
        run.counts["cli.outputs"] = last["fingerprint"]
        run.info["alpha"] = {"nbi": last["alpha"]}
    if run.trace:
        probe_layers(run, table, dist, ALPHA_STAR)


# -- probes: the per-layer metrics of a traced run --------------------------------------


def probe_layers(run: Run, table, dist, alphas: dict) -> None:
    """Call each layer's public functions on the workload's table and alphas.

    The same suite runs on every workload, so every traced run reports
    every per-layer metric.  An exception counts as a failed operation.
    """
    work = OUT_DIR / f"work-probe-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for what, probe, args in (
            ("probe sampling", probe_sampling, (table, alphas)),
            ("probe synthesis", probe_synthesis, (table, dist, alphas)),
            ("probe tuning", probe_tuning, (dist, alphas)),
            ("probe table", probe_table, (table, work)),
            ("probe cli", probe_cli, ()),
        ):
            out = run.tally.attempt(what, probe, run, *args)
            if out is not None:
                run.tally.record(what, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def draw_means(table, alpha: float) -> np.ndarray:
    """The mean of every cell synthesize draws, in cell order."""
    if alpha == 0:
        return table.count.astype(np.float64)
    mu = np.full(table.num_cells, alpha)
    mu[table.structural.astype(np.int64)] = 0.0
    mu[table.index.astype(np.int64)] = table.count
    return mu


def probe_sampling(run: Run, table, alphas: dict) -> list[str]:
    """Uniform generation and each family's draw kernel, chunk by chunk as
    synthesize cuts the table."""
    from satsynth.sampling import draw_counts, uniform_block

    tr, it = run.tracer, run.next_iteration()
    t_uniform = []
    for family, sigma in FAMILIES:
        alpha = alphas[family]
        mu = draw_means(table, alpha)
        t_fam = t_draw = 0.0
        for start in range(0, table.num_cells, CHUNK_CELLS):
            stop = min(start + CHUNK_CELLS, table.num_cells)
            with span(tr, "sampling.uniform_block", it):
                dt, u = timed(uniform_block, run.seed, 0, start, stop - start)
            t_fam += dt
            if alpha > 0:
                chunk_mu = mu[start:stop]
            else:
                lo, hi = np.searchsorted(table.index, np.array([start, stop], dtype=np.uint64))
                chunk_mu = mu[lo:hi]
                u = u[(table.index[lo:hi] - np.uint64(start)).astype(np.int64)]
            with span(tr, f"sampling.draw_counts.{family}", it):
                dt, _ = timed(draw_counts, family, chunk_mu, sigma, u)
            t_draw += dt
        t_uniform.append(t_fam)
        run.layer[f"sampling.draw_{family}_s"] = (t_draw, "s", f"{live_draws(table, alpha)} means, over chunks")
    run.put_times(run.layer, "sampling.uniform_block_s", t_uniform)
    run.layer["sampling.live_draws"] = (live_draws(table, alphas["nbi"]), "count", "cells drawn per replicate")
    return []


def probe_synthesis(run: Run, table, dist, alphas: dict) -> list[str]:
    """synthesize per family, threads=1 against 2 for NBI, and the layers
    that read a replicate: tau_empirical, evaluation and loglin."""
    tr, it = run.tracer, run.next_iteration()
    problems, reps = [], {}
    for family, sigma in FAMILIES:
        job = S.SynthesisJob(S.CountModelSpec(family, sigma=sigma, alpha=alphas[family]), master_seed=run.seed)
        with span(tr, f"synthesis.synthesize.{family}", it):
            dt, out = timed(S.synthesize, table, job, threads=1)
        syn = reps[family] = out[0].table
        problems += checks.check_nsyn(table, job, syn.n)
        run.layer[f"synthesis.synthesize_{family}_s"] = (dt, "s", "threads=1")
        run.layer[f"synthesis.yield_{family}"] = (
            syn.num_nonzero / live_draws(table, job.model.alpha), "ratio", "nonzero out / live draws")
        if family == "nbi":
            threads = min(2, len(os.sched_getaffinity(0)))
            with span(tr, "synthesis.synthesize_threads.nbi", it):
                t_many, many = timed(S.synthesize, table, job, threads=threads)
            if not many[0].table.same_contents(syn):
                problems.append(f"threads={threads} output differs from threads=1")
            run.layer["synthesis.thread_speedup_nbi"] = (dt / t_many, "ratio", f"threads=1 over threads={threads}")
    syn = reps["nbi"]
    with span(tr, "taumetrics.tau_empirical", it):
        dt, _ = timed(S.tau_empirical, table, syn, k_report=3)
    run.layer["taumetrics.tau_empirical_s"] = (dt, "s", "one NBI replicate")
    with span(tr, "schema.coords_of_array", it):
        times = [timed(table.schema.coords_of_array, table.index)[0] for _ in range(5)]
    run.put_times(run.layer, "schema.coords_of_array_s", times)
    with span(tr, "evaluation.within_p_percent", it):
        dt, _ = timed(S.within_p_percent, table, syn, P_LIST)
    run.layer["evaluation.within_p_percent_s"] = (dt, "s", "one NBI replicate")
    # the frontier command's fits: the original and the replicate, on the 3-variable projection
    variables = CLI_VARIABLES.split(",")
    proj = table.project(variables)
    terms = S.all_two_way_terms(proj.schema)
    with span(tr, "loglin.build_design", it):
        dt, (x, _) = timed(S.build_design, proj.schema, terms)
    run.layer["loglin.build_design_s"] = (dt, "s", f"{x.shape[0]} cells x {x.shape[1]} parameters")
    with span(tr, "loglin.fit_loglinear", it):
        dt, base = timed(S.fit_loglinear, proj, terms)
    run.layer["loglin.fit_loglinear_s"] = (dt, "s", f"original projection, {len(base.cap_hit)} terms capped")
    fit = S.fit_loglinear(syn.project(variables), terms)
    overlap = S.mean_ci_overlap(base.intervals(), fit.intervals(), skip=tuple(base.cap_hit | fit.cap_hit))
    with span(tr, "evaluation.frontier_point", it):
        dt, _ = timed(S.frontier_point, table, [syn], [overlap])
    run.layer["evaluation.frontier_point_s"] = (dt, "s", "one group of one replicate")
    return problems


def probe_tuning(run: Run, dist, alphas: dict) -> list[str]:
    """Per family at sigma = 1: match-zeros, the tau4(1) = p solve,
    tau_analytic, the pmf matrix of the tau metrics, and PIG's Bessel calls."""
    from satsynth.models import logpmf, pig_c

    tr, it = run.tracer, run.next_iteration()
    problems = []
    sizes = dist.nonzero_sizes.astype(np.float64)
    for family, sigma in FAMILIES:
        with span(tr, f"tuning.match_zeros.{family}", it):
            times = [timed(S.alpha_star_match_zeros, dist, family, sigma)[0] for _ in range(5)]
        run.put_times(run.layer, f"tuning.match_zeros_{family}_s", times)
        with span(tr, f"tuning.tau4_solve.{family}", it):
            dt, res = timed(S.solve_alpha_for_tau4_target, dist, family, sigma, TAU4_TARGET)
        run.layer[f"tuning.tau4_solve_{family}_s"] = (dt, "s", f"sigma={sigma:g}")
        run.layer[f"tuning.tau4_iterations_{family}"] = (res.iterations, "count", "")
        run.layer[f"tuning.eval_ms_{family}"] = (1e3 * dt / res.iterations, "ms", "solve time / iterations")
        with span(tr, f"taumetrics.tau_analytic.{family}", it):
            dt, _ = timed(S.tau_analytic, dist, family, sigma, alphas[family], k_report=3)
        run.layer[f"taumetrics.tau_analytic_{family}_s"] = (dt, "s", "k_report=3")
        # the k = 0..3 x 740-mean pmf matrix of the tau metrics
        means = np.concatenate(([ALPHA_STAR[family]], sizes))
        ks = np.arange(4)[:, None]
        with span(tr, f"models.logpmf.{family}", it):
            times = [timed(logpmf, family, ks, means[None, :], sigma)[0] for _ in range(20)]
        run.put_times(run.layer, f"models.logpmf_{family}_s", times)
    # one scalar call per size at order index 1, as the reduced tau4(1) makes them
    c = [float(pig_c(m, 1.0)) for m in np.concatenate(([ALPHA_STAR["pig"]], sizes))]
    times = []
    for _ in range(5):
        with span(tr, "bessel.log_bessel_k_half", it):
            t0 = time.perf_counter()
            for ci in c:
                S.log_bessel_k_half(1, ci)
            times.append(time.perf_counter() - t0)
    run.put_times(run.layer, "bessel.log_bessel_k_half_s", times)
    return problems


def probe_table(run: Run, table, work: Path) -> list[str]:
    """write_table and read_table of the original table's CSV."""
    tr, it = run.tracer, run.next_iteration()
    path = work / "original.csv"
    with span(tr, "table.write_table", it):
        t_write, _ = timed(S.write_table, table, str(path))
    size = path.stat().st_size
    with span(tr, "table.read_table", it):
        t_read, back = timed(S.read_table, str(path))
    run.layer["table.write_table_s"] = (t_write, "s", "original table")
    run.layer["table.write_mb_per_s"] = (size / 1e6 / t_write, "MB/s", "computed from file size")
    run.layer["table.read_table_s"] = (t_read, "s", "original CSV")
    run.layer["table.read_mb_per_s"] = (size / 1e6 / t_read, "MB/s", "computed from file size")
    run.layer["table.csv_bytes"] = (size, "bytes", "original CSV")
    return [] if back.same_contents(table) else ["CSV does not read back as the table written"]


def probe_cli(run: Run) -> list[str]:
    """Interpreter start-up and the import every CLI command pays."""
    tr, it = run.tracer, run.next_iteration()
    problems = []
    for name, code in (("interpreter", "pass"), ("import", "import satsynth.cli")):
        times = []
        for _ in range(3):
            with span(tr, f"cli.{name}", it):
                dt, proc = run_python(["-c", code])
            problems += exit_problems(proc)
            times.append(dt)
        run.put_times(run.layer, f"cli.{name}_s", times)
    return problems
