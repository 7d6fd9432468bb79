"""Command-line surface tying the library together.

Subcommands: invariants, rate, construct, check-conditions, holder,
simulate, plant. Output is JSON (CSV available for grid tables); every run
echoes its configuration so results are reproducible. Exit codes: 0 ok,
2 config error, 3 cap exceeded, 4 infeasible construction.

``main(argv)`` returns the exit code and may be called repeatedly in one
process: the argument parser is built once, at import, and each call
parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import (BudgetExhaustedError, CapExceededError,
                     EdgeListParseError, InfeasibleConstructionError,
                     PreconditionError)
from .exponents import classify_and_rate, rho, subgraph_census
from .fractional import DEFAULT_COVER_CAP, frac_vertex_cover_number
from .graphs import (Graph, delta_star, describe_subgraph, is_forest, make_named,
                     parse_edge_list)
from .graphons import (ConditionThresholds, build_w0, build_w1, check_conditions,
                       hom_density, ip_total, regularity_residual)
from .holder import verify_batch
from .sim import planted_comparison, sample_regular, tail_estimate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_INFEASIBLE = 4


def _parse_family(text: str) -> Graph:
    if ":" in text:
        tag, raw = text.split(":", 1)
        try:
            params = tuple(int(x) for x in raw.split(","))
        except ValueError:
            raise PreconditionError(f"bad family parameters {raw!r}; use integers, e.g. cycle:5")
    else:
        tag, params = text, ()
    return make_named(tag, params)


def _load_graph(args) -> tuple[Graph, list[str]]:
    family = getattr(args, "family", None)
    path = getattr(args, "file", None)
    if bool(family) == bool(path):
        raise PreconditionError("exactly one of --family/--file is required")
    if family:
        return _parse_family(family), []
    return parse_edge_list(_read(path))


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc.strerror}")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror}")


def _parse_caps(args) -> dict[str, int]:
    caps = {"cover": DEFAULT_COVER_CAP}
    raw = getattr(args, "caps", None)
    if raw:
        for item in raw.split(","):
            key, _, value = item.partition("=")
            if key not in caps or not value.isdigit():
                raise PreconditionError(f"bad cap {item!r}; use cover=")
            caps[key] = int(value)
    return caps


def _parse_fraction(text: str) -> float:
    # argparse turns only ValueError, TypeError and ArgumentTypeError into
    # a usage error, and Fraction("1/0") raises ZeroDivisionError.
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid fraction {text!r}")


def _jsonable(obj):
    """Make plain JSON out of report values; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _jsonable(float(obj))
    return obj


def _emit(args, payload: dict, rows=None, header=None) -> None:
    payload = dict(payload)
    payload["config"] = {k: v for k, v in vars(args).items()
                         if k not in ("func",) and v is not None}
    payload["version"] = __version__
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if args.format == "csv":
        if rows is None:
            raise PreconditionError("csv output is only available for grid tables")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _subgraph_keys(subgraphs: list[Graph], g: Graph) -> list[str]:
    """Display names of subgraphs of g, made unique: a name shared by
    several subgraphs gets each one's sorted edge labels appended."""
    names = [describe_subgraph(h, g) for h in subgraphs]
    return [name if names.count(name) == 1 else
            f"{name} [{', '.join(g.edge_label(e) for e in h.sorted_edges())}]"
            for name, h in zip(names, subgraphs)]


def cmd_invariants(args) -> None:
    g, warnings = _load_graph(args)
    payload: dict = {"graph": {"name": g.name, "vertices": list(g.vertices),
                               "edges": [list(e) for e in g.sorted_edges()],
                               "edge_list": g.to_edge_list()},
                     "warnings": warnings}
    if g.is_empty:
        payload["classification"] = "empty"
        _emit(args, payload)
        return
    caps = _parse_caps(args)
    c, witness = frac_vertex_cover_number(g, cap=caps["cover"])
    payload["cover_number"] = str(c)
    payload["cover_witness"] = witness.to_jsonable()
    payload["delta_star"] = str(delta_star(g))
    if is_forest(g):
        payload["classification"] = "forest: upper tail trivial"
        _emit(args, payload)
        return
    census = subgraph_census(g, caps["cover"])
    payload["gamma"] = str(census.gamma.value)
    payload["contributing"] = [describe_subgraph(h, g) for h in census.contributing]
    nonempty = [(h, bad, valid) for h, bad, valid in
                zip(census.contributing, census.bad_edges(), census.valid) if not h.is_empty]
    keys = _subgraph_keys([h for h, _, _ in nonempty], g)
    payload["bad_edges"] = {key: [g.edge_label(e) for e in sorted(bad)]
                            for key, (_, bad, _) in zip(keys, nonempty)}
    payload["valid_subsets"] = {key: [sorted(a) for a in sorted(valid, key=sorted)]
                                for key, (_, _, valid) in zip(keys, nonempty)}
    payload["P"] = census.polynomial.render()
    if args.delta is not None:
        payload["rho"] = rho(census.polynomial, args.delta)
    _emit(args, payload)


def cmd_rate(args) -> None:
    g, warnings = _load_graph(args)
    caps = _parse_caps(args)
    report = classify_and_rate(g, args.delta, args.n, args.p, caps["cover"])
    _emit(args, {"warnings": warnings, "rate_report": report.to_jsonable()})


def _construction(args, p: float):
    if args.w1:
        return build_w1(args.d1, args.d2, p)
    if args.gamma is None:
        raise PreconditionError("the hub-and-clique construction needs --gamma")
    return build_w0(args.gamma, args.z, args.w, p)


def _p_values(args) -> list[float]:
    if args.p_grid:
        try:
            return [float(x) for x in args.p_grid.split(",")]
        except ValueError:
            raise PreconditionError(f"bad --p-grid {args.p_grid!r}; use comma-separated numbers")
    if args.p is not None:
        return [args.p]
    raise PreconditionError("need --p or --p-grid")


def cmd_construct(args) -> None:
    g, _ = _load_graph(args)
    caps = _parse_caps(args)
    census = None if args.w1 else subgraph_census(g, caps["cover"])
    e_k = g.n_edges
    rows = []
    for p in _p_values(args):
        w = _construction(args, p)
        if census is None:
            target = None
            entropy_scale = None
        else:
            target = census.polynomial(args.z, args.w)
            entropy_scale = ((2 * args.z + args.w) * p ** float(2 + census.gamma.value)
                            * math.log(1.0 / p))
        hom = hom_density(g, w)
        ent = ip_total(w, p)
        rows.append({
            "p": p,
            "hom_ratio": hom / p ** e_k,
            "target": target,
            "entropy": ent,
            "entropy_ratio": (ent / entropy_scale) if entropy_scale else None,
            "regularity_residual": regularity_residual(w, p),
        })
    header = list(rows[0].keys())
    _emit(args, {"table": rows},
          rows=[[r[h] for h in header] for r in rows], header=header)


def _thresholds(path: Optional[str]) -> ConditionThresholds:
    """The default thresholds, overridden by the JSON object in ``path``."""
    thresholds = ConditionThresholds()
    if not path:
        return thresholds
    try:
        overrides = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"cannot parse {path}: {exc.msg} "
                                f"at line {exc.lineno} column {exc.colno}")
    if not isinstance(overrides, dict):
        raise PreconditionError(f"{path} must hold a JSON object")
    for key, value in overrides.items():
        if not hasattr(thresholds, key):
            raise PreconditionError(f"unknown threshold {key!r}")
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        optional = value is None and getattr(thresholds, key) is None
        if not (number or optional):
            raise PreconditionError(f"threshold {key!r} must be a number")
        setattr(thresholds, key, value)
    return thresholds


def cmd_check_conditions(args) -> None:
    g, _ = _load_graph(args)
    w = _construction(args, args.p)
    report = check_conditions(w, g, args.n, args.p, _thresholds(args.thresholds_file))
    _emit(args, {"conditions": report.to_jsonable()})


def cmd_holder(args) -> None:
    g, _ = _load_graph(args)
    result = verify_batch(g, args.instances, args.seed, resolution=args.resolution)
    _emit(args, {"holder": result})


def cmd_simulate(args) -> None:
    g, _ = _load_graph(args)
    est = tail_estimate(g, args.n_vertices, args.d, args.delta, args.trials, args.seed)
    payload = {"tail_estimate": est.to_jsonable()}
    if args.dump_graph:
        sample = sample_regular(args.n_vertices, args.d, [args.seed, 0])
        _write(args.dump_graph, sample.to_edge_list())
        payload["dumped_graph"] = args.dump_graph
    _emit(args, payload)


def cmd_plant(args) -> None:
    g, _ = _load_graph(args)
    w = _construction(args, args.p)
    report = planted_comparison(g, w, args.n_vertices, args.p, args.trials, args.seed)
    _emit(args, {"planted_comparison": report.to_jsonable()})


def _add_graph_source(sub) -> None:
    sub.add_argument("--family", help="named family, e.g. k0, butterfly, "
                                      "complete:5, complete-bipartite:2,3, cycle:5, "
                                      "disjoint-union:3,4")
    sub.add_argument("--file", help="edge-list file")


def _add_common(sub) -> None:
    sub.add_argument("--out", help="write output to this path instead of stdout")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--caps", help="enumeration cap: cover= bounds the vertices of the "
                                    "pattern's 2-core and of the cover witness (3^v rows), "
                                    "e.g. cover=12")


def _add_construction(sub) -> None:
    sub.add_argument("--w0", action="store_true", help="hub-and-clique construction")
    sub.add_argument("--w1", action="store_true", help="hub-plus-raised-density construction")
    sub.add_argument("--gamma", type=_parse_fraction, help="exponent for --w0 (e.g. 1/2)")
    sub.add_argument("--z", type=float, default=0.0)
    sub.add_argument("--w", type=float, default=0.0)
    sub.add_argument("--d1", type=float, default=1.0)
    sub.add_argument("--d2", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="regtail",
                                     description="Upper-tail rate toolkit for homomorphism "
                                                 "counts in sparse random regular graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="exact cover/matching invariants of a pattern")
    _add_graph_source(p_inv)
    p_inv.add_argument("--delta", type=float)
    _add_common(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_rate = sub.add_parser("rate", help="dispatch the applicable rate formula")
    _add_graph_source(p_rate)
    p_rate.add_argument("--delta", type=float, required=True)
    p_rate.add_argument("--n", type=float, required=True)
    p_rate.add_argument("--p", type=float, required=True)
    _add_common(p_rate)
    p_rate.set_defaults(func=cmd_rate)

    p_con = sub.add_parser("construct", help="convergence table for the optimal graphons")
    _add_graph_source(p_con)
    _add_construction(p_con)
    p_con.add_argument("--p", type=float)
    p_con.add_argument("--p-grid", dest="p_grid")
    _add_common(p_con)
    p_con.set_defaults(func=cmd_construct)

    p_chk = sub.add_parser("check-conditions", help="finite-n block-graphon condition ratios")
    _add_graph_source(p_chk)
    _add_construction(p_chk)
    p_chk.add_argument("--n", type=float, required=True)
    p_chk.add_argument("--p", type=float, required=True)
    p_chk.add_argument("--thresholds-file", dest="thresholds_file")
    _add_common(p_chk)
    p_chk.set_defaults(func=cmd_check_conditions)

    p_hol = sub.add_parser("holder", help="batch-verify the weighted Hölder inequality")
    _add_graph_source(p_hol)
    p_hol.add_argument("--instances", type=int, default=1000)
    p_hol.add_argument("--seed", type=int, default=0)
    p_hol.add_argument("--resolution", type=int, default=8)
    _add_common(p_hol)
    p_hol.set_defaults(func=cmd_holder)

    p_sim = sub.add_parser("simulate", help="Monte Carlo tail estimate over regular samples")
    _add_graph_source(p_sim)
    p_sim.add_argument("--n", dest="n_vertices", type=int, required=True)
    p_sim.add_argument("--d", type=int, required=True)
    p_sim.add_argument("--delta", type=float, required=True)
    p_sim.add_argument("--trials", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--dump-graph", dest="dump_graph")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_pl = sub.add_parser("plant", help="planted-construction mean comparison")
    _add_graph_source(p_pl)
    _add_construction(p_pl)
    p_pl.add_argument("--n", dest="n_vertices", type=int, required=True)
    p_pl.add_argument("--p", type=float, required=True)
    p_pl.add_argument("--trials", type=int, default=100)
    p_pl.add_argument("--seed", type=int, default=0)
    _add_common(p_pl)
    p_pl.set_defaults(func=cmd_plant)

    return parser


# parse_args fills a new Namespace on each call and no action has a mutable
# default, so one parser serves every call in the process.
PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        args.func(args)
    except (EdgeListParseError, PreconditionError, BudgetExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InfeasibleConstructionError as exc:
        print(f"infeasible construction: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
