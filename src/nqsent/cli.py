"""Command-line entry point (installed as ``nqs``).

Exit codes: 0 success, 1 usage error, 2 domain error. Domain errors are
reported as a JSON envelope on stderr. Every run echoes its fully-resolved
configuration on stdout so artifacts can be reproduced byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import analytic
from .approx import full_bound_report
from .core import Subregion, feature_supnorm
from .errors import DomainError, NqsError
from .experiments import (
    ExperimentConfig,
    preset_configs,
    run_configs,
    write_aggregates,
    write_csv,
)
from .graph import feature_reduce, load_graph, to_json
from .statevector import load_nqsv, materialize, save_nqsv
from .entanglement import subregion_entropy


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(doc: dict | str, out: str | None = None) -> None:
    """Write a JSON document, or text as it is, to ``out`` or stdout."""
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=1) + "\n"
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _hex_mask(text: str) -> str:
    int(text, 16)  # checked, but kept as typed for the config echo
    return text


def _degree(text: str) -> int | str:
    return text if text == "auto" else int(text)


def _echo_config(args, extra: dict | None = None) -> None:
    doc = {"schema_version": 1, "resolved_config": {k: v for k, v in vars(args).items() if k != "func"}}
    if extra:
        doc["resolved_config"].update(extra)
    sys.stdout.write(json.dumps(doc) + "\n")


# -- subcommand handlers -----------------------------------------------------


def _cmd_validate(args) -> int:
    g = load_graph(args.graph)
    _echo_config(args)
    _emit(
        {
            "schema_version": 1,
            "valid": True,
            "n": g.n,
            "k": g.k,
            "nodes": len(g.nodes),
            "dead_nodes": sorted(g.dead),
        },
        args.out,
    )
    return 0


def _cmd_reduce(args) -> int:
    g = load_graph(args.graph)
    r = feature_reduce(g)
    _echo_config(args)
    doc = {
        "schema_version": 1,
        "mu": r.mu,
        "k": r.k,
        "n": r.n,
        "features": [
            {"weights": f.weights.tolist(), "bias": f.bias, "supnorm": feature_supnorm(f)}
            for f in r.features
        ],
        "residual_graph": to_json(r.residual),
    }
    _emit(doc, args.out)
    return 0


def _cmd_statevector(args) -> int:
    g = load_graph(args.graph)
    psi = materialize(g, threads=args.threads)
    save_nqsv(psi, args.out)
    _echo_config(args)
    _emit({"schema_version": 1, "n": psi.n, "norm_was": psi.norm_was, "out": args.out})
    return 0


def _cmd_entropy(args) -> int:
    psi = load_nqsv(args.state)
    region = Subregion(int(args.region, 16), psi.n)
    result = subregion_entropy(psi, region)
    _echo_config(args)
    _emit(
        {
            "schema_version": 1,
            "eigenvalues": result.eigenvalues.tolist(),
            "entropy": result.entropy / math.log(2.0) if args.log_base == "2" else result.entropy,
            "schmidt_rank": result.schmidt_rank,
            "tail": result.tail,
            "log_base": args.log_base,
            "region_mask_hex": f"{region.mask:x}",
            "subsystem_size": region.size,
        },
        args.out,
    )
    return 0


def _cmd_bound(args) -> int:
    g = load_graph(args.graph)
    region = Subregion(int(args.region, 16), g.n)
    report = full_bound_report(g, region, degree=args.degree, threads=args.threads)
    _echo_config(args)
    _emit(report.to_json(), args.out)
    return 0


def _cmd_dicke(args) -> int:
    if args.n < 2:  # no cut m = 1..n-1
        raise DomainError(f"n={args.n} has no bipartition; need n >= 2")
    ms = [args.m] if args.m is not None else list(range(1, args.n))
    entries = []
    for m in ms:
        spec = analytic.dicke_spectrum(args.n, m)
        entries.append(
            {
                "m": m,
                "eigenvalues": spec.sorted_desc().tolist(),
                "entropy_nats": analytic.dicke_entropy(args.n, m),
                "gaussian_form_nats": analytic.dicke_entropy_asymptotic(args.n, m / args.n),
            }
        )
    _echo_config(args)
    _emit({"schema_version": 1, "n": args.n, "entries": entries}, args.out)
    return 0


def _cmd_page(args) -> int:
    if args.n < 2:  # no cut m = 1..n-1
        raise DomainError(f"n={args.n} has no bipartition; need n >= 2")
    _echo_config(args)
    lines = ["m,page_nats"]
    for m in range(1, args.n):
        lines.append(f"{m},{analytic.page_value(m, args.n)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_run(args) -> int:
    if bool(args.config) == bool(args.preset):
        raise _UsageError("pass exactly one of --config or --preset")
    if args.config:
        with open(args.config) as fh:
            configs = [ExperimentConfig.from_json(json.load(fh))]
    else:
        configs = preset_configs(args.preset)
    if args.seed is not None:
        for cfg in configs:
            cfg.seed = args.seed
    _echo_config(args, {"experiments": [c.to_json() for c in configs]})
    result = run_configs(configs, threads=args.threads)
    write_csv(result, args.out)
    write_aggregates(result, str(args.out) + ".agg.json")
    _emit({"schema_version": 1, "rows": len(result.rows), "excluded": len(result.excluded), "out": args.out})
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="nqs", description="Exact entanglement analysis of feed-forward network states")
    parser.add_argument("--seed", type=int, default=None, help="override experiment seed")
    parser.add_argument(
        "--threads",
        type=int,
        # the CPUs this process may run on (its affinity mask), not the machine's
        default=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
        help="worker threads for statevector evaluation and for a sweep's region entropies (results do not depend on this)",
    )
    parser.add_argument("--log-base", choices=["e", "2"], default="e", dest="log_base")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a graph JSON file")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("reduce", help="feature-reduce a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("statevector", help="materialize all amplitudes to a binary dump")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_statevector)

    p = sub.add_parser("entropy", help="subregion entropy of a statevector dump")
    p.add_argument("--state", required=True)
    p.add_argument("--region", required=True, type=_hex_mask, help="subregion bit mask in hex")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("bound", help="full entropy-bound report for a graph and subregion")
    p.add_argument("--graph", required=True)
    p.add_argument("--region", required=True, type=_hex_mask, help="subregion bit mask in hex")
    p.add_argument("--degree", default="auto", type=_degree, help="polynomial degree per variable, or 'auto'")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("dicke", help="closed-form half-filling spectra and entropies")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dicke)

    p = sub.add_parser("page", help="Haar-average entropy curve as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_page)

    p = sub.add_parser("run", help="run an ensemble experiment to CSV + aggregate JSON")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--preset", help="named preset (e.g. fig1a, fig2b, supp_sn_phase)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            parser.error(f"argument --threads: must be at least 1, got {args.threads}")
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(json.dumps({"schema_version": 1, "error": {"type": "usage", "message": str(exc)}}) + "\n")
        return 1
    except NqsError as exc:
        payload = {"type": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "cycle"):
            payload["cycle"] = exc.cycle
        sys.stderr.write(json.dumps({"schema_version": 1, "error": payload}) + "\n")
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"schema_version": 1, "error": {"type": "io", "message": str(exc)}}) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
