"""Command-line entry point.

Every subcommand reads JSON from a file (or standard input when the path
is ``-``) and writes JSON to standard output.  Exit codes: 0 success,
1 property violation, 2 usage error, 3 I/O error, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .derive import (
    DeriveError,
    Infeasible,
    compose_pair,
    kuhn_derive,
    last_derive,
    right_inverse_derive,
    rode_support,
    twa_decompose,
    affine_decompose,
    wright_ratio_derive,
)
from .endos import (
    EndoError,
    deserialize_endo,
    operator_norm,
    right_inverse_on,
    serialize_endo,
    spectral_radius,
    NotInvertible,
)
from .functions import (
    ConvexPair,
    FnError,
    KINDS,
    check_inequality,
    deserialize_fn,
    qconv_envelope,
    serialize_fn,
)
from .generators import generate_instance
from .groups import GroupError, deserialize_group, _json_int
from .rationals import format_rational, parse_rational
from .sets import (
    SetError,
    closure_generate,
    deserialize_ground_set,
    enumerate_TD,
)
from .suites import SuiteConfig, SuiteError, run_suite

USAGE_ERROR = 2
IO_ERROR = 3
INTERNAL_ERROR = 4


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, (set, frozenset, tuple)):
        return list(obj)
    if hasattr(obj, "coords"):
        return [str(c) for c in obj.coords]
    if hasattr(obj, "to_json"):
        return obj.to_json()
    return str(obj)


def _emit(payload):
    json.dump(payload, sys.stdout, indent=2, default=_jsonify)
    sys.stdout.write("\n")


def _load(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(IO_ERROR)


def _group_of(doc: dict):
    if "group" not in doc:
        print("error: payload missing 'group'", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    return deserialize_group(doc["group"])


def _pair_from(g, doc: dict, t_flag=None) -> ConvexPair:
    endo = deserialize_endo(g, doc["endo"] if "endo" in doc else doc)
    t = parse_rational(t_flag if t_flag is not None else doc.get("t", "1/2"))
    return ConvexPair(endo, t)


def cmd_check(args) -> int:
    fdoc = _load(args.fn)
    g = _group_of(fdoc)
    f = deserialize_fn(g, fdoc["fn"] if "fn" in fdoc else fdoc)
    edoc = _load(args.endo)
    pair = _pair_from(g, edoc, args.t)
    rep = check_inequality(args.kind, f, pair, probes=args.budget, seed=args.seed)
    _emit({"kind": args.kind, "verdict": rep.verdict, "mode": rep.mode,
           "probes": rep.details.get("probes"), "witness": rep.witness,
           "audit": rep.audit})
    return 0 if rep.verdict else 1


def cmd_envelope(args) -> int:
    fdoc = _load(args.fn)
    g = _group_of(fdoc)
    f = deserialize_fn(g, fdoc["fn"] if "fn" in fdoc else fdoc)
    edoc = _load(args.endos)
    endos = edoc["endos"] if isinstance(edoc, dict) else edoc
    ts = [deserialize_endo(g, e) for e in endos]
    env = qconv_envelope(f, ts)
    _emit({"group": fdoc["group"], "fn": serialize_fn(env)})
    return 0


def cmd_derive(args) -> int:
    doc = _load(args.input)
    g = _group_of(doc)
    rule = args.rule
    if rule == "compose":
        outer, p1, p2 = (_pair_from(g, d) for d in doc["pairs"])
        derived = [compose_pair(outer, p1, p2)]
    elif rule == "wright-ratio":
        pair = _pair_from(g, doc)
        derived = [wright_ratio_derive(pair.endo, _json_int(doc, "n"), _json_int(doc, "k"))]
    elif rule == "right-inverse":
        t_pair, s_pair = (_pair_from(g, d) for d in doc["pairs"])
        sstar = right_inverse_on(s_pair.endo, g.generators())
        derived = right_inverse_derive(t_pair, s_pair, sstar)
    elif rule == "last":
        pairs = [_pair_from(g, d) for d in doc["pairs"]]
        derived = [last_derive(pairs, _json_int(doc, "k"))]
    elif rule == "kuhn":
        pair = _pair_from(g, doc)
        derived = kuhn_derive(pair, _json_int(doc, "n"))
    else:
        print(f"error: unknown rule {rule!r}", file=sys.stderr)
        return USAGE_ERROR
    _emit({"rule": rule, "derived": [d.to_json() for d in derived]})
    return 0


def cmd_semigroup(args) -> int:
    doc = _load(args.input)
    g = _group_of(doc)
    domain = deserialize_ground_set(g, doc["set"])
    td = enumerate_TD(domain)
    out = {"count": len(td), "endos": [serialize_endo(t) for t in td]}
    if args.exhaustive:
        closed = closure_generate(g, list(td), budget=args.budget)
        out["closure"] = {
            "count": len(closed),
            "truncated": closed.truncated,
            "closed": closed.truncated or closed.keys() <= td.keys(),
        }
    _emit(out)
    return 0


def cmd_decompose(args) -> int:
    doc = _load(args.input)
    g = _group_of(doc)
    f = deserialize_fn(g, doc["fn"])
    pairs = [_pair_from(g, d) for d in doc.get("pairs", [])]
    if args.mode == "wright":
        dec = twa_decompose(f, [p.endo for p in pairs])
        out = {"mode": "wright", "ok": dec.ok, "B": dec.b_matrix,
               "c": dec.c, "residual": dec.residual, "audit": dec.audit}
    else:
        dec = affine_decompose(f, pairs)
        out = {"mode": "affine", "ok": dec.ok, "c": dec.c,
               "residual": dec.residual, "audit": dec.audit}
    _emit(out)
    return 0 if dec.ok else 1


def cmd_support(args) -> int:
    doc = _load(args.input)
    g = _group_of(doc)
    f = deserialize_fn(g, doc["fn"])
    pairs = [_pair_from(g, d) for d in doc.get("pairs", [])]
    p = g.reduce([parse_rational(c) for c in doc["p"]])
    result = rode_support(f, pairs, p)
    if isinstance(result, Infeasible):
        farkas = None if result.farkas is None else [
            {"x": x, "weight": w} for x, w in result.farkas.items()]
        _emit({"status": "infeasible", "contradiction": result.contradiction,
               "farkas": farkas, "note": result.note})
        return 1
    _emit({"status": "certificate", **result.to_json()})
    return 0


def cmd_spectral(args) -> int:
    doc = _load(args.input)
    g = _group_of(doc)
    t = deserialize_endo(g, doc["endo"] if "endo" in doc else doc)
    bound = spectral_radius(t)
    _emit({
        "operator_norm": operator_norm(t),
        "spectral": {
            "upper": bound.upper,
            "certificate": bound.certificate,
            "index": bound.index,
            "nilpotent": bound.is_nilpotent,
        },
    })
    return 0


def cmd_generate(args) -> int:
    _emit(generate_instance(args.kind, args.seed))
    return 0


def cmd_suite(args) -> int:
    caps = {}
    if args.cases is not None:
        caps["cases"] = args.cases
    if args.budget is not None:
        caps["probes"] = args.budget
    config = SuiteConfig(args.id, seed=args.seed, caps=caps or None)
    try:
        report = run_suite(config)
    except SuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    payload = report.to_json()
    if args.output:
        try:
            with open(args.output, "w") as fh:
                json.dump(payload, fh, indent=2, default=_jsonify)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return IO_ERROR
    else:
        _emit(payload)
    return 0 if not report.alarms else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tconvex",
        description="Executable calculus of generalized convexity on metric "
                    "Abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test a convexity inequality")
    p.add_argument("--kind", choices=sorted(KINDS), required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--endo", required=True)
    p.add_argument("--t", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=1000, help="probe budget")

    p = sub.add_parser("derive", help="derive new convexity pairs")
    p.add_argument("--rule", required=True,
                   choices=["compose", "wright-ratio", "right-inverse", "last", "kuhn"])
    p.add_argument("--input", required=True)

    p = sub.add_parser("envelope", help="quasiconvex envelope of a table")
    p.add_argument("--fn", required=True)
    p.add_argument("--endos", required=True)

    p = sub.add_parser("semigroup", help="enumerate convexity endomorphisms")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, default=1000, help="saturation budget")
    p.add_argument("--exhaustive", action="store_true")

    p = sub.add_parser("decompose", help="split a table into quadratic/"
                                         "additive parts")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["wright", "affine"], default="wright")

    p = sub.add_parser("support", help="affine support certificate at a point")
    p.add_argument("--input", required=True)

    p = sub.add_parser("spectral", help="operator norm and spectral bound")
    p.add_argument("--input", required=True)

    p = sub.add_parser("generate", help="seeded random instance")
    p.add_argument("--kind", required=True,
                   choices=["group", "endo", "set", "fn", "pair"])
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("suite", help="run a property campaign")
    p.add_argument("--id", required=True)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None, help="probe budget")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once per process: building costs more than parsing a request."""
    return build_parser()


def cli_dispatch(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        # looked up per call, so a patched or wrapped handler is the one run
        return globals()[f"cmd_{args.command}"](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else IO_ERROR
    except (KeyError, TypeError) as exc:
        print(f"error: malformed payload: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (GroupError, EndoError, SetError, FnError, DeriveError,
            NotInvertible, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def main() -> None:
    raise SystemExit(cli_dispatch())


if __name__ == "__main__":
    main()
