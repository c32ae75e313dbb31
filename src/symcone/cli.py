"""Command-line front end: JSON in, JSON out, stable exit codes.

Subcommands: metric, solve, bushell, check, gen.  Instance files carry an
algebra header plus named elements and generator-word maps; every command
echoes its invocation, the input hash, the tool version and the seed, so
a report is reproducible bit for bit from the same inputs on the same
numpy and BLAS build.

Exit codes: 0 success, 2 parse/validation error (NaN or infinite numbers
included), 3 cone-membership failure, 4 non-convergence, 5 rejected
exponent (|p| <= 1), 6 property suite failure (first counterexample
serialized in the report).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

import numpy as np

from . import __version__, algebra, metric, solver, suites, transforms
from .algebra import AlgebraDescriptor, Element
from .errors import (
    InvalidGenerator,
    NonConvergence,
    NotInCone,
    SingularMatrix,
    SymConeError,
)
from .rng import SplitMix64

class ParseError(Exception):
    """Malformed instance file or arguments; maps to exit code 2."""


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ParseError(f"missing key(s) {sorted(missing)} in {where}")


def parse_algebra_obj(obj) -> AlgebraDescriptor:
    if not isinstance(obj, dict):
        raise ParseError("algebra must be an object")
    _require_keys(obj, {"kind", "param"}, {"kind", "param"}, "algebra")
    try:
        return AlgebraDescriptor(obj["kind"], int(obj["param"]))
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def parse_algebra_flag(text: str) -> AlgebraDescriptor:
    """kind:param, e.g. sym:3 or orthant:8."""
    try:
        kind, param = text.split(":")
        return parse_algebra_obj({"kind": kind, "param": int(param)})
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"cannot parse algebra {text!r}: expected kind:param") from exc


def element_from_json(descriptor: AlgebraDescriptor, data, where: str) -> Element:
    try:
        coords = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: coordinates are not numeric") from exc
    if not np.all(np.isfinite(coords)):
        raise ParseError(f"{where}: coordinates must be finite")
    if coords.shape != descriptor.coord_shape:
        raise ParseError(
            f"{where}: expected shape {descriptor.coord_shape}, got {coords.shape}")
    try:
        return Element(descriptor, coords)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def generator_from_json(descriptor: AlgebraDescriptor, obj, where: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: generator must be an object")
    _require_keys(obj, {"type", "payload"}, {"type", "payload"}, where)
    gtype, payload = obj["type"], obj["payload"]
    try:
        if gtype == "scalar":
            return transforms.Scalar(float(payload))
        if gtype == "quad":
            return transforms.Quad(element_from_json(descriptor, payload, where))
        if gtype == "congruence":
            t = np.array(payload, dtype=float)
            return transforms.Congruence(t)
        if gtype == "permutation":
            return transforms.Permutation(tuple(int(i) for i in payload))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: bad payload ({exc})") from exc
    raise ParseError(f"{where}: unknown generator type {gtype!r}")


def word_from_json(descriptor: AlgebraDescriptor, data, where: str):
    if not isinstance(data, list):
        raise ParseError(f"{where}: a map must be a list of generators")
    factors = tuple(
        generator_from_json(descriptor, obj, f"{where}[{i}]")
        for i, obj in enumerate(data))
    return transforms.AutomorphismWord(descriptor, factors)


def word_to_json(word: transforms.AutomorphismWord) -> list:
    out = []
    for f in word.factors:
        if isinstance(f, transforms.Scalar):
            out.append({"type": "scalar", "payload": f.mu})
        elif isinstance(f, transforms.Quad):
            out.append({"type": "quad", "payload": f.a.coords.tolist()})
        elif isinstance(f, transforms.Congruence):
            out.append({"type": "congruence", "payload": f.t.tolist()})
        else:
            out.append({"type": "permutation", "payload": list(f.sigma)})
    return out


class Instance:
    def __init__(self, descriptor, elements, maps, raw: bytes):
        self.descriptor = descriptor
        self.elements = elements
        self.maps = maps
        self.raw = raw

    def element(self, name: str) -> Element:
        if name not in self.elements:
            raise ParseError(f"no element named {name!r} in the instance file")
        return self.elements[name]

    def map(self, name: str) -> transforms.AutomorphismWord:
        if name not in self.maps:
            raise ParseError(f"no map named {name!r} in the instance file")
        return self.maps[name]


def load_instance(path: str) -> Instance:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    _require_keys(data, {"algebra", "elements", "maps"}, {"algebra"}, path)
    descriptor = parse_algebra_obj(data["algebra"])
    elements = {}
    for name, coords in (data.get("elements") or {}).items():
        elements[name] = element_from_json(descriptor, coords, f"elements[{name}]")
    maps = {}
    for name, word in (data.get("maps") or {}).items():
        maps[name] = word_from_json(descriptor, word, f"maps[{name}]")
    return Instance(descriptor, elements, maps, raw)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _inputs_hash(raw: bytes | None, params: dict) -> str:
    h = hashlib.sha256()
    h.update(raw or b"")
    h.update(json.dumps(params, sort_keys=True).encode())
    return h.hexdigest()


def _report(command: str, args_echo: dict, raw: bytes | None, seed, fields: dict) -> dict:
    out = {
        "command": command,
        "args": args_echo,
        "version": __version__,
        "inputs_hash": _inputs_hash(raw, args_echo),
        "seed": seed,
    }
    out.update(fields)
    return out


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2))


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_metric(args) -> int:
    inst = load_instance(args.instance)
    x = inst.element(args.x)
    y = inst.element(args.y)
    for name, element in ((args.x, x), (args.y, y)):
        if not algebra.in_cone(element):
            return _fail(3, f"element {name!r} is not in the open cone")
    rep = metric.distance(x, y)
    _emit(_report(
        "metric",
        {"instance": args.instance, "x": args.x, "y": args.y},
        inst.raw,
        None,
        {"lambda_max": rep.lambda_max,
         "lambda_min": rep.lambda_min,
         "distance": rep.distance},
    ))
    return 0


def _solve_fields(rep: solver.SolveReport) -> dict:
    return {
        "solution": rep.solution.coords.tolist(),
        "iterations": rep.iterations,
        "distance_trace": list(rep.distance_trace),
        "residual": rep.residual,
        "contraction_estimate": rep.contraction_estimate,
        "converged": rep.converged,
    }


def cmd_solve(args) -> int:
    if abs(args.p) <= 1.0:
        return _fail(
            5,
            f"p={args.p:g} rejected: the unique-solution theorem for "
            f"g(x) = x^p requires |p| > 1")
    inst = load_instance(args.instance)
    word = inst.map(args.map)
    initial = inst.element(args.initial) if args.initial else None
    echo = {"instance": args.instance, "map": args.map, "p": args.p,
            "tol": args.tol, "max_iter": args.max_iter, "initial": args.initial}
    cfg = solver.SolveConfig(p=args.p, tol=args.tol, max_iter=args.max_iter,
                             initial=initial)
    try:
        rep = solver.solve(word, cfg)
    except NonConvergence as exc:
        if exc.report is not None:
            _emit(_report("solve", echo, inst.raw, None, _solve_fields(exc.report)))
        return _fail(4, f"solve did not converge: {exc}")
    _emit(_report("solve", echo, inst.raw, None, _solve_fields(rep)))
    return 0


def cmd_bushell(args) -> int:
    inst = load_instance(args.instance)
    if inst.descriptor.kind != algebra.SYM:
        return _fail(2, "bushell needs a sym algebra instance")
    word = inst.map(args.map)
    if len(word.factors) != 1 or not isinstance(word.factors[0], transforms.Congruence):
        return _fail(2, f"map {args.map!r} must be a single congruence generator")
    t = word.factors[0].t
    initial = inst.element(args.initial) if args.initial else None
    echo = {"instance": args.instance, "map": args.map, "k": args.k,
            "tol": args.tol, "max_iter": args.max_iter, "initial": args.initial}
    try:
        rep = solver.solve_bushell(t, args.k, tol=args.tol,
                                   max_iter=args.max_iter, initial=initial)
    except NonConvergence as exc:
        if exc.report is not None:
            _emit(_report("bushell", echo, inst.raw, None, _solve_fields(exc.report)))
        return _fail(4, f"bushell solve did not converge: {exc}")
    _emit(_report("bushell", echo, inst.raw, None,
                  {**_solve_fields(rep), "k": args.k, "p": float(2 ** args.k)}))
    return 0


def cmd_check(args) -> int:
    descriptor = parse_algebra_flag(args.algebra)
    extra = {}
    raw = None
    if (args.instance is None) != (args.map is None):
        return _fail(2, "--instance and --map are given together or not at all")
    if args.instance is not None:
        if args.suite != "isometry":
            return _fail(2, f"--instance and --map apply to the isometry suite "
                            f"only, not to {args.suite}")
        inst = load_instance(args.instance)
        raw = inst.raw
        if inst.descriptor != descriptor:
            return _fail(2, "instance algebra does not match --algebra")
        rng = SplitMix64(args.seed)
        words = [transforms.random_word(descriptor, rng) for _ in range(4)]
        words.append(inst.map(args.map))
        extra["words"] = words
    suite_fn = suites.SUITES[args.suite]
    result = suite_fn(descriptor, args.samples, args.seed, **extra)
    echo = {"suite": args.suite, "algebra": args.algebra,
            "samples": args.samples, "seed": args.seed,
            "instance": args.instance, "map": args.map}
    _emit(_report("check", echo, raw, args.seed, result.summary()))
    return 0 if result.passed else 6


def cmd_gen(args) -> int:
    descriptor = parse_algebra_flag(args.algebra)
    rng = SplitMix64(args.seed)
    fragment = {"algebra": {"kind": descriptor.kind, "param": descriptor.param}}
    if args.what == "element":
        element = transforms.random_cone_element(descriptor, rng)
        fragment["elements"] = {"gen0": element.coords.tolist()}
    else:
        word = transforms.random_word(descriptor, rng)
        fragment["maps"] = {"gen0": word_to_json(word)}
    print(json.dumps(fragment, indent=2))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call
    of ``main`` in the process; parsing leaves no state in it.  The
    ``check`` suite names are those of ``suites.SUITES`` at that time."""
    parser = argparse.ArgumentParser(
        prog="symcone",
        description="Hilbert metric and fixed-point solvers on symmetric cones")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("metric", help="Hilbert distance between two named elements")
    p.add_argument("instance")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(fn=cmd_metric)

    p = sub.add_parser("solve", help="solve g(x) = x^p for a named map g")
    p.add_argument("instance")
    p.add_argument("map")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--initial", default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("bushell", help="solve t' A t = A^(2^k) for a congruence map")
    p.add_argument("instance")
    p.add_argument("map")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--initial", default=None)
    p.set_defaults(fn=cmd_bushell)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("suite", choices=sorted(suites.SUITES))
    p.add_argument("--algebra", required=True, help="kind:param, e.g. sym:3")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instance", default=None,
                   help="instance file holding --map (isometry suite only)")
    p.add_argument("--map", default=None,
                   help="named map from --instance to include in the isometry suite")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("gen", help="generate a reproducible instance fragment")
    p.add_argument("--algebra", required=True)
    p.add_argument("--what", choices=("element", "map"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ParseError, InvalidGenerator, SingularMatrix, ValueError) as exc:
        return _fail(2, f"error: {exc}")
    except NotInCone as exc:
        return _fail(3, f"error: {exc}")
    except NonConvergence as exc:
        return _fail(4, f"error: {exc}")
    except SymConeError as exc:
        return _fail(2, f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
