"""Command-line front end.

Subcommands: aggregate, generate-escsub, tune, synthesize, metrics,
evaluate, frontier.  Every sampling command takes an explicit --seed (no
wall-clock defaults), reports carry a provenance comment header, and a
plain-text ``key=value`` config file can preload any flag (flags win).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FormatError, SatsynthError, ValidationError
from .evaluation import (
    frontier_point,
    mean_ci_overlap,
    trimmed_mean_pct_diff,
    within_p_percent,
)
from .generator import HistogramSpec, esc_like_spec, generate_table, scaled_spec
from .loglin import all_two_way_terms, fit_loglinear
from .models import CountModelSpec, Family
from .schema import CategoricalSchema
from .synthesis import Provenance, SynthesisJob, SyntheticTable, synthesize
from .table import aggregate_microdata_csv, read_table, utf8_errors, write_table
from .taumetrics import tau1_expected, tau2_of_table, tau_analytic, tau_empirical
from .tuning import TuningResult, alpha_star_match_zeros, solve_alpha_for_tau4_target


def _read_text(path) -> str:
    with utf8_errors(path):
        return Path(path).read_text(encoding="utf-8")


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


_FLAG_WORDS = {"1": True, "true": True, "yes": True, "on": True,  # a store-true flag's config values
               "0": False, "false": False, "no": False, "off": False}


def _config_value(action: argparse.Action, raw: str):
    """``raw`` as the flag would take it: split on whitespace for ``nargs="+"``,
    a choice (or a store-true word) matched case-insensitively and stored
    as spelled in the parser, else converted by the flag's type; anything
    else is one ValidationError."""
    words = raw.split() if action.nargs == "+" else [raw]
    store_true = isinstance(action, argparse._StoreTrueAction)
    known = _FLAG_WORDS if store_true else {c.lower(): c for c in action.choices or ()}
    try:
        values = [known[w.lower()] if known else (action.type or str)(w) for w in words]
    except (KeyError, ValueError):
        expected = f"one of {', '.join(known)}" if known else f"a valid {action.type.__name__}"
        raise ValidationError(f"config {action.dest}={raw!r} is not {expected}") from None
    if not values:
        raise ValidationError(f"config {action.dest} needs at least one value")
    return values if action.nargs == "+" else values[0]


def _apply_config(parser: argparse.ArgumentParser, config: dict[str, str]) -> None:
    for action in parser._actions:  # noqa: SLF001 - argparse has no public hook
        if action.dest in config:
            action.default = _config_value(action, config[action.dest])
            action.required = False


def _provenance_header(args: argparse.Namespace, extra: dict | None = None) -> list[str]:
    items = {"tool": f"satsynth {__version__}", "command": args.command}
    for key in ("family", "sigma", "alpha", "m", "seed", "threads", "k_max", "p_list", "level"):
        if hasattr(args, key) and getattr(args, key) is not None:
            items[key] = getattr(args, key)
    if extra:
        items.update(extra)
    return [f"{k}={v}" for k, v in items.items()]


def _write_report(path: str, header: list[str], rows: list[dict]) -> None:
    """A CSV whose columns are the first row's keys (all rows share them), plus a ``.json`` sidecar."""
    buf = io.StringIO()
    for line in header:
        buf.write(f"# {line}\n")
    writer = csv.DictWriter(buf, rows[0], lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")
    sidecar = Path(path).with_suffix(Path(path).suffix + ".json")
    sidecar.write_text(
        json.dumps({"provenance": header, "rows": rows}, indent=2), encoding="utf-8"
    )


def _sidecar_path(table_path: Path) -> Path:
    return table_path.with_suffix(table_path.suffix + ".provenance.json")


def _load_synthetic(path: str):
    """A synthetic table plus its provenance sidecar when one sits next to it."""
    table = read_table(path)
    sidecar = _sidecar_path(Path(path))
    if sidecar.exists():
        text = _read_text(sidecar)
        try:
            prov = Provenance.from_json(text)
        except FormatError as exc:
            raise FormatError(f"{sidecar}: {exc}") from None
        return SyntheticTable(table, prov)
    return table


# -- commands ------------------------------------------------------------------


def cmd_aggregate(args) -> int:
    schema = CategoricalSchema.from_json(_read_text(args.schema))
    table = aggregate_microdata_csv(args.microdata, schema)
    write_table(table, args.out)
    print(f"aggregated {table.n} records into {table.num_nonzero} nonzero cells "
          f"of {table.num_cells} ({args.out})")
    return 0


def cmd_generate_escsub(args) -> int:
    if args.spec:
        spec = HistogramSpec.from_json(_read_text(args.spec))
    else:
        spec = esc_like_spec()
    if args.cells is not None:
        spec = scaled_spec(spec, args.cells)
    t0 = time.perf_counter()
    table = generate_table(spec, args.seed)
    write_table(table, args.out)
    dt = time.perf_counter() - t0
    print(f"generated {table.num_cells}-cell table, n={table.n}, "
          f"nonzero={table.num_nonzero} in {dt:.1f}s ({args.out})")
    return 0


def cmd_tune(args) -> int:
    dist = tau2_of_table(read_table(args.table))
    family = Family.coerce(args.family)
    if args.target == "tau4":
        result = solve_alpha_for_tau4_target(dist, family, args.sigma, args.p)
    else:
        alpha = alpha_star_match_zeros(dist, family, args.sigma)
        residual = tau1_expected(dist, family, args.sigma, alpha, 0) - dist.proportion(0)
        result = TuningResult(family.value, args.sigma, "match-zeros", alpha, residual, 0)
    print(result.to_json())
    return 0


def cmd_synthesize(args) -> int:
    table = read_table(args.table)
    spec = CountModelSpec(args.family, sigma=args.sigma, alpha=args.alpha)
    job = SynthesisJob(spec, master_seed=args.seed, m=args.m)
    t0 = time.perf_counter()
    replicates = synthesize(table, job, threads=args.threads)
    dt = time.perf_counter() - t0
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # only once synthesize has accepted the job
    stem = Path(args.table).stem
    for rep in replicates:
        path = out_dir / f"{stem}.synth.{args.family}.r{rep.provenance.replicate}.csv"
        write_table(rep.table, str(path))
        _sidecar_path(path).write_text(rep.provenance.to_json(), encoding="utf-8")
    totals = ", ".join(str(r.n_syn) for r in replicates)
    print(f"synthesized m={args.m} replicate(s) of {table.num_cells} cells "
          f"in {dt:.2f}s wall time; n_syn: {totals}")
    return 0


def cmd_metrics(args) -> int:
    table = read_table(args.table)
    synthetics = [_load_synthetic(p) for p in args.synthetic]
    emp = tau_empirical(table, synthetics, k_report=args.k_max)

    model = CountModelSpec(args.family, args.sigma or 0.0, args.alpha or 0.0) if args.family else emp.model
    if model is None:
        raise ValidationError(
            "no provenance sidecar found; pass --family/--sigma/--alpha for the analytic table"
        )
    ana = tau_analytic(tau2_of_table(table), model.family, model.sigma, model.alpha, k_report=args.k_max)

    header = _provenance_header(args, {"replicates": len(synthetics)})
    for name, report in (("analytic", ana), ("empirical", emp)):
        Path(f"{args.out_prefix}.{name}.csv").write_text(report.to_csv(header), encoding="utf-8")
        Path(f"{args.out_prefix}.{name}.json").write_text(report.to_json(), encoding="utf-8")
    print(f"wrote {args.out_prefix}.{{analytic,empirical}}.{{csv,json}}")
    return 0


def cmd_evaluate(args) -> int:
    table = read_table(args.table)
    try:
        p_list = [float(p) for p in args.p_list.split(",") if p]
    except ValueError:
        raise ValidationError(f"--p-list must be comma-separated numbers, got {args.p_list!r}") from None
    if not p_list:
        raise ValidationError(f"--p-list must hold at least one number, got {args.p_list!r}")
    synthetics = [_load_synthetic(p) for p in args.synthetic]
    rows = []
    for block, nonzero_only in (("all", False), ("nonzero", True)):
        accum = {p: 0.0 for p in p_list}
        for syn in synthetics:
            res = within_p_percent(table, syn, p_list, nonzero_only=nonzero_only)
            for p, v in res.items():
                accum[p] += v
        for p in p_list:
            rows.append(
                {"block": block, "p": p, "proportion": accum[p] / len(synthetics)}
            )
    header = _provenance_header(args, {"replicates": len(synthetics)})
    _write_report(args.out, header, rows)
    print(f"wrote {args.out}")
    return 0


def cmd_frontier(args) -> int:
    table = read_table(args.table)
    variables = args.variables.split(",") if args.variables else list(table.schema.names)
    proj = table.project(variables)
    terms = all_two_way_terms(proj.schema)
    base_fit = fit_loglinear(proj, terms, cap=args.cap)
    base_iv = base_fit.intervals(args.level)

    groups: dict[str, list] = {}
    for path in args.synthetic:
        syn = _load_synthetic(path)
        if isinstance(syn, SyntheticTable):
            key = syn.provenance.label
        else:
            key = Path(path).stem
        groups.setdefault(key, []).append(syn)

    rows = []
    for label, group in groups.items():
        overlaps = []
        pct_diffs = []
        for syn in group:
            syn_table = syn.table if isinstance(syn, SyntheticTable) else syn
            table.check_replicate(syn_table)
            fit = fit_loglinear(syn_table.project(variables), terms, cap=args.cap)
            skip = () if args.include_capped else tuple(base_fit.cap_hit | fit.cap_hit)
            overlaps.append(mean_ci_overlap(base_iv, fit.intervals(args.level), skip=skip))
            shared = [t for t in base_fit.coefficients if t not in skip]
            pct_diffs.append(
                trimmed_mean_pct_diff(
                    [base_fit.coefficients[t] for t in shared],
                    [fit.coefficients[t] for t in shared],
                    trim_fraction=args.trim,
                )
            )
        point = frontier_point(table, group, overlaps, label=label)
        rows.append({**point.as_row(), "trimmed_pct_diff": float(np.mean(pct_diffs)),
                     "n_overlap_terms": len(base_iv)})

    header = _provenance_header(args, {"variables": ",".join(variables)})
    _write_report(args.out, header, rows)
    print(f"wrote {args.out} ({len(rows)} point(s))")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satsynth",
        description="Saturated count-model synthesis of sparse categorical tables",
    )
    parser.add_argument("--version", action="version", version=f"satsynth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="key=value config file; flags override it")
    table = argparse.ArgumentParser(add_help=False, parents=[config])
    table.add_argument("--table", required=True)
    replicates = argparse.ArgumentParser(add_help=False, parents=[table])
    replicates.add_argument("--synthetic", required=True, nargs="+")
    families = [f.value for f in Family]

    p = sub.add_parser("aggregate", parents=[config], help="cross-tabulate a microdata CSV")
    p.add_argument("--microdata", required=True)
    p.add_argument("--schema", required=True, help="schema JSON file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("generate-escsub", parents=[config], help="generate a table with a target cell-size histogram")
    p.add_argument("--spec", help="histogram spec JSON; defaults to the built-in full-scale spec")
    p.add_argument("--cells", type=int, help="rescale the spec to this many cells")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate_escsub)

    p = sub.add_parser("tune", parents=[table], help="solve for the pseudocount hitting a target")
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--target", required=True, choices=["match-zeros", "tau4"])
    p.add_argument("--p", type=float, help="target tau4(1) for --target tau4")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("synthesize", parents=[table], help="draw synthetic replicates of a table")
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("metrics", parents=[replicates], help="analytic and empirical tau tables")
    p.add_argument("--family", choices=families)
    p.add_argument("--sigma", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("evaluate", parents=[replicates], help="within-p%% closeness report")
    p.add_argument("--p-list", default="0.5,1,5,10,50")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("frontier", parents=[replicates], help="risk-utility frontier points")
    p.add_argument("--variables", help="comma list of variables for the utility model")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--cap", type=float, default=20.0)
    p.add_argument("--trim", type=float, default=0.1,
                   help="trim fraction for the mean percentage difference of estimates")
    p.add_argument("--include-capped", action="store_true",
                   help="keep capped terms in the overlap mean (each contributes 1/2)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_frontier)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if "--config" in argv:
            pos = argv.index("--config") + 1
            if pos == len(argv):
                raise ValidationError("--config needs a file path")
            config = _load_config(argv[pos])
            commands = parser._subparsers._group_actions[0].choices.values()  # noqa: SLF001
            flags = {action.dest for command in commands for action in command._actions}  # noqa: SLF001
            flags -= {"help", "config"}  # -h and --config themselves: no config value sets them
            for key in config:
                if key not in flags:
                    raise ValidationError(f"config key {key!r} is not a flag of any command")
            for command in commands:
                _apply_config(command, config)
        args = parser.parse_args(argv)
        return args.func(args)
    except SatsynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # any file the command reads or writes
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
