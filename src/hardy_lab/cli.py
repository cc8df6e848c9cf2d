"""Batch front door: ingest trees and profiles, run the computations, and
write machine-readable reports.

Subcommands: tree, hardy, covering, decompose, ineq. Every report embeds the
full resolved configuration and the library version; writes are atomic
(tmp + rename) and byte-identical for identical configurations. Reports come
from the module's own indent-2 JSON writer, whose bytes equal
json.dumps(doc, sort_keys=True, indent=2) plus a newline (the tests keep
json.dumps as its oracle). Exit codes: 0 ok, 1 invariant violation, 2 bad
input, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from . import __version__
from .covering import (
    PROFILES,
    CoveringError,
    CubeCapExceeded,
    _check_beta_p,
    build_covering,
    check_disjoint_and_coverage,
    tail_integrability,
    verify_counting_bounds,
    weights_from_beta,
)
from .decomp import decompose, random_mean_zero, space_from_covering, verify_decomposition
from .hardy import (
    HardyProblem,
    HullCapExceeded,
    _check_theta_max,
    hardy_report,
    make_problem,
    optimize_theta,
)
from .inequalities import (KINDS, _check_ratio_args, f_linear, inequality_ratio,
                           parameter_sweep, u_shear)
from .tree import RootedTree, TreeError, chain_tree, random_tree, star_tree

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)     # mkstemp creates 0600; match open()
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _report_text(doc) -> str:
    """The text of json.dumps(doc, sort_keys=True, indent=2).

    The stdlib encodes indented JSON in pure Python. Here a list of plain
    ints, which is most of a covering report (its per-cube columns), is
    joined in one step. Dict keys must be str; anything json.dumps rejects
    raises TypeError here too.
    """
    chunks: list[str] = []
    put = chunks.append

    def value(o, pad: str) -> None:
        if type(o) is int:              # the commonest leaf; bool is its own type
            put(int.__repr__(o))
        elif isinstance(o, dict):
            if not o:
                put("{}")
                return
            inner = pad + "  "
            sep = "{\n" + inner
            for k, x in sorted(o.items()):
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                put(sep + _json_string(k) + ": ")
                value(x, inner)
                sep = ",\n" + inner
            put("\n" + pad + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                put("[]")
                return
            inner = pad + "  "
            if type(o[0]) is int and all(type(x) is int for x in o):
                put("[\n" + inner + (",\n" + inner).join(map(int.__repr__, o))
                    + "\n" + pad + "]")
                return
            sep = "[\n" + inner
            for x in o:
                put(sep)
                value(x, inner)
                sep = ",\n" + inner
            put("\n" + pad + "]")
        else:
            put(json.dumps(o))          # scalars, on the C encoder

    value(doc, "")
    return "".join(chunks)


def write_report(path: str, payload: dict, config: dict) -> None:
    doc = {"version": __version__, "config": config, "report": payload}
    _atomic_write(path, _report_text(doc) + "\n")


def write_csv(path: str, rows: list[dict]) -> None:
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _covering(args):
    """The covering of the --phi/--depth/--cap options; CoveringError for an
    unknown profile, or an --alpha (covering only) that is not its alpha."""
    if args.phi not in PROFILES:
        raise CoveringError(f"unknown profile {args.phi!r}: choose from {sorted(PROFILES)}")
    profile = PROFILES[args.phi]()
    if getattr(args, "alpha", None) not in (None, profile.alpha):
        raise CoveringError(f"--alpha {args.alpha:g} does not match the {args.phi} "
                            f"profile's alpha = {profile.alpha:g}")
    return build_covering(profile, args.depth, cube_cap=args.cap)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- subcommands -----------------------------------------------------------------

def cmd_tree(args) -> int:
    if args.chain is not None:
        tree = chain_tree(args.chain)
    elif args.star is not None:
        tree = star_tree(args.star)
    elif args.random is not None:
        tree = random_tree(args.random, np.random.default_rng(args.seed))
    elif args.input:
        tree = RootedTree.from_json(_load_json(args.input))
    else:
        raise TreeError("one of --chain/--star/--random/--input is required")
    write_report(os.path.join(args.out, "tree.json"),
                 tree.to_json(), _config(args))
    return EXIT_OK


def cmd_hardy(args) -> int:
    obj = _load_json(args.input)
    payload = obj.get("report", obj)      # accept both raw and wrapped files
    if "u" in payload:
        problem = HardyProblem.from_json(payload)
        if args.p is not None and args.p != problem.p:
            raise ValueError(f"--p {args.p:g} does not match the problem's p = {problem.p:g}")
    else:
        tree = RootedTree.from_json(payload)
        ones = [1.0] * len(tree.gamma_star)
        problem = make_problem(tree, ones, ones, 2.0 if args.p is None else args.p)
    rep = hardy_report(problem, theta_max=args.theta_max, b_cap=args.cap)
    cfg = {**_config(args), "p": problem.p}      # the p the report used, not the flag
    write_report(os.path.join(args.out, "hardy.json"), rep.to_json(), cfg)
    if args.format == "csv":
        row = {k: v for k, v in rep.to_json().items()
               if isinstance(v, (int, float, str)) or v is None}
        write_csv(os.path.join(args.out, "hardy.csv"), [row])
    if not all(rep.checks.values()):
        failed = [k for k, ok in rep.checks.items() if not ok]
        print(f"invariant violation: {failed}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_covering(args) -> int:
    _check_beta_p(args.beta, args.p)        # before the build, which they do not affect
    cov = _covering(args)
    struct = check_disjoint_and_coverage(cov)
    bounds = verify_counting_bounds(cov)
    tail = tail_integrability(cov, args.beta, args.p)
    payload = {
        "covering": cov.to_json(),
        "structure": {"disjoint": struct["disjoint"],
                      "coverage_exact": struct["coverage_exact"],
                      "covered_volume": float(struct["covered_volume"])},
        "bounds": bounds.to_json(),
        "tail": tail.to_json(),
    }
    cfg = _config(args)
    write_report(os.path.join(args.out, "covering.json"), payload, cfg)
    write_csv(os.path.join(args.out, "levels.csv"), cov.level_rows())
    if not (struct["disjoint"] and struct["coverage_exact"]):
        print("invariant violation: covering structure", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_decompose(args) -> int:
    _check_beta_p(args.beta, args.p)        # before the build, which they do not affect
    if not args.p > 1:
        raise ValueError(f"p must lie in (1, inf), got {args.p}")
    _check_theta_max(args.theta_max)
    cov = _covering(args)
    problem = weights_from_beta(cov, args.beta, args.p)
    space = space_from_covering(cov, beta=args.beta)
    bound = optimize_theta(problem, theta_max=args.theta_max).suff_bound
    g = random_mean_zero(space, np.random.default_rng(args.seed))
    result = decompose(g, problem)
    report = verify_decomposition(result, bound)
    payload = {"decomposition": result.to_json(), "verification": report.to_json()}
    write_report(os.path.join(args.out, "decomposition.json"), payload, _config(args))
    return EXIT_OK


def cmd_ineq(args) -> int:
    grid = [float(b) for b in args.beta_grid.split(",")] if args.beta_grid else None
    for beta in grid or [args.beta]:        # before the build, which they do not affect
        _check_ratio_args(args.kind, beta, args.p, args.s, args.tau, args.samples)
    cov = _covering(args)
    f = u_shear(cov.n) if args.kind == "korn" else f_linear()
    cfg = _config(args)
    if grid:
        rows = parameter_sweep(args.kind, f, cov, grid, args.p,
                               samples=args.samples, seed=args.seed,
                               s=args.s, tau=args.tau)
        payload = {"sweep": [r.to_json() for r in rows]}
        write_report(os.path.join(args.out, "ineq.json"), payload, cfg)
        write_csv(os.path.join(args.out, "sweep.csv"),
                  [{"beta": r.beta, "ratio": r.report.ratio,
                    "lhs": r.report.lhs, "rhs": r.report.rhs,
                    "spread": r.report.spread,
                    "below_threshold": r.below_threshold,
                    "growing": r.growing} for r in rows])
        return EXIT_OK
    rep = inequality_ratio(args.kind, f, cov, args.beta, args.p, s=args.s,
                           tau=args.tau, samples=args.samples, seed=args.seed)
    write_report(os.path.join(args.out, "ineq.json"), rep.to_json(), cfg)
    if args.format == "csv":
        write_csv(os.path.join(args.out, "ineq.csv"),
                  [{"kind": rep.kind, "lhs": rep.lhs, "rhs": rep.rhs,
                    "ratio": rep.ratio, "samples": rep.sample_count,
                    "spread": rep.spread, "seed": rep.seed}])
    if "inequality_violating_candidate" in rep.flags:
        print("flagged: inequality-violating candidate", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hardy-lab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def covering_options(sp, depth: int):
        # the options of the covering every covering subcommand builds (_covering)
        sp.add_argument("--phi", default="demo", help="profile: " + " | ".join(PROFILES))
        sp.add_argument("--depth", type=int, default=depth)
        sp.add_argument("--beta", type=float, default=0.0)
        sp.add_argument("--p", type=float, default=2.0)
        sp.add_argument("--cap", type=int, default=10 ** 6)

    def common(sp, seed: bool = False, fmt: bool = False):
        # only the options the subcommand reads, so its config has no dead keys
        sp.add_argument("--out", default=".", help="output directory")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if fmt:
            sp.add_argument("--format", choices=["json", "csv"], default="json")

    sp = sub.add_parser("tree", help="generate or load a tree")
    sp.add_argument("--chain", type=int, metavar="EDGES")
    sp.add_argument("--star", type=int, metavar="LEAVES")
    sp.add_argument("--random", type=int, metavar="VERTICES")
    sp.add_argument("--input")
    common(sp, seed=True)
    sp.set_defaults(func=cmd_tree)

    sp = sub.add_parser("hardy", help="full Hardy constant report")
    sp.add_argument("--input", required=True, help="problem or tree JSON")
    sp.add_argument("--p", type=float, default=None,
                    help="a tree's p (default 2); a problem file brings its own")
    sp.add_argument("--theta-max", type=float, default=64.0)
    sp.add_argument("--cap", type=int, default=None,
                    help="most hull points ehp_B may evaluate (default: no limit)")
    common(sp, fmt=True)
    sp.set_defaults(func=cmd_hardy)

    sp = sub.add_parser("covering", help="build a cube covering and verify it")
    sp.add_argument("--alpha", type=float, default=None,
                    help="must match the profile's own alpha")
    covering_options(sp, depth=6)
    common(sp)
    sp.set_defaults(func=cmd_covering)

    sp = sub.add_parser("decompose", help="decompose a random mean-zero function")
    covering_options(sp, depth=5)
    sp.add_argument("--theta-max", type=float, default=64.0)
    common(sp, seed=True)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("ineq", help="inequality ratio checkers and sweeps")
    sp.add_argument("--kind", choices=KINDS, default="improved_poincare")
    covering_options(sp, depth=4)
    sp.add_argument("--beta-grid", default=None,
                    help="comma-separated betas; on Python 3.10 and 3.11 a grid whose "
                    "first beta is negative must be written --beta-grid=-0.2,0.0")
    sp.add_argument("--s", type=float, default=None)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--samples", type=int, default=10 ** 5)
    common(sp, seed=True, fmt=True)
    sp.set_defaults(func=cmd_ineq)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CubeCapExceeded, HullCapExceeded) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (TreeError, CoveringError, ValueError, OSError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
