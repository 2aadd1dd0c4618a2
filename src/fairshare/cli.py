"""Command-line front end: solve, verify, enumerate, compare, trace.

Every command works on the instance as given; none of them runs the
paper's reductions (``fairshare.reductions``).

Instances are UTF-8 JSON documents with keys ``entitlements`` (array of
numbers), ``requirements`` (array of per-user arrays), and optional ``users``
/ ``resources`` name arrays. Anywhere a number is expected, a fraction
string like "2/3" is also accepted; the bundled fixture names resolve in
place of a path. Exit codes: 0 success/pass, 1 fairness-verification
failure, 2 input or usage error, or an enumeration LP that reached the
simplex iteration limit.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import drf as drf_mod
from . import oracle
from .fixtures import FIXTURES, fixture_names
from .lp import SimplexIterationLimit
from .model import (
    ProblemInstance,
    ToleranceConfig,
    add_dummy_resources,
    validate_instance,
)
from .solver import integrate_trajectory, solve
from .verifier import FULLY_ALLOCATED, JUSTIFIED, verify

__all__ = ["entrypoint", "main"]


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _fmt(v: float) -> str:
    return format(float(v), ".10g")


def _fmt_vec(x) -> str:
    return "(" + ", ".join(_fmt(v) for v in x) + ")"


def _as_fraction_str(v: float) -> str:
    # A denominator cap of 10**6 would let about half of all irrational
    # values match some fraction to 1e-12 (Dirichlet); 10**4 keeps the
    # bundled rational answers and prints the others as decimals.
    frac = Fraction(v).limit_denominator(10**4)
    if abs(float(frac) - v) <= 1e-12:
        return str(frac.numerator) if frac.denominator == 1 else f"{frac}"
    return _fmt(v)


def _parse_number(value, where: str) -> float:
    if isinstance(value, bool):
        raise CliError(f"{where}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError(f"{where}: cannot parse number {value!r} ({exc})") from None
    raise CliError(f"{where}: expected a number, got {type(value).__name__}")


def _parse_names(doc: dict, key: str, where: str) -> tuple[str, ...] | None:
    names = doc.get(key)
    if names is None:
        return None
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise CliError(f"{where}: {key!r} must be an array of strings")
    return tuple(names) or None


def _parse_instance_document(doc, where: str) -> ProblemInstance:
    if not isinstance(doc, dict):
        raise CliError(f"{where}: top-level value must be an object")
    for key in ("entitlements", "requirements"):
        if key not in doc:
            raise CliError(f"{where}: missing required key {key!r}")
    ent_raw = doc["entitlements"]
    req_raw = doc["requirements"]
    if not isinstance(ent_raw, list) or not ent_raw:
        raise CliError(f"{where}: 'entitlements' must be a non-empty array")
    if not isinstance(req_raw, list) or not req_raw:
        raise CliError(f"{where}: 'requirements' must be a non-empty array")
    entitlements = [
        _parse_number(v, f"{where}: entitlements[{i}]") for i, v in enumerate(ent_raw)
    ]
    if len(req_raw) != len(entitlements):
        raise CliError(
            f"{where}: requirements has {len(req_raw)} rows but there are "
            f"{len(entitlements)} entitlements"
        )
    width = None
    requirements = []
    for i, row in enumerate(req_raw):
        if not isinstance(row, list):
            raise CliError(f"{where}: requirements[{i}] must be an array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise CliError(
                f"{where}: requirements[{i}] has {len(row)} entries, expected {width}"
            )
        requirements.append(
            [_parse_number(v, f"{where}: requirements[{i}][{j}]") for j, v in enumerate(row)]
        )
    try:
        return ProblemInstance(
            entitlements=entitlements,
            requirements=requirements,
            user_names=_parse_names(doc, "users", where),
            resource_names=_parse_names(doc, "resources", where),
        )
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from None


def _load_instance(path_or_name: str, renormalize: bool = False) -> ProblemInstance:
    if os.path.exists(path_or_name):
        try:
            with open(path_or_name, encoding="utf-8") as handle:
                doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path_or_name}: invalid JSON at line {exc.lineno}: {exc.msg}")
        except OSError as exc:
            raise CliError(f"{path_or_name}: {exc}")
        inst = _parse_instance_document(doc, path_or_name)
    elif path_or_name in FIXTURES:
        inst = FIXTURES[path_or_name]
    else:
        raise CliError(
            f"{path_or_name}: no such file, and not a bundled fixture "
            f"({', '.join(fixture_names())})"
        )
    if renormalize:
        total = float(inst.entitlements.sum())
        if total > 0:
            inst = ProblemInstance(
                entitlements=inst.entitlements / total,
                requirements=inst.requirements,
                user_names=inst.user_names,
                resource_names=inst.resource_names,
            )
    violations = validate_instance(inst)
    if violations:
        raise CliError(
            f"{path_or_name}: invalid instance: " + "; ".join(str(v) for v in violations)
        )
    return inst


def _parse_allocation(args, n_users: int) -> np.ndarray:
    if args.x is not None:
        parts = args.x.split(",")
        values = [_parse_number(p.strip(), f"--x[{i}]") for i, p in enumerate(parts)]
    elif args.allocation is not None:
        try:
            with open(args.allocation, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"{args.allocation}: {exc}")
        if not isinstance(doc, dict) or not isinstance(doc.get("x"), list):
            raise CliError(f"{args.allocation}: expected an object whose key 'x' is an array")
        values = [
            _parse_number(v, f"{args.allocation}: x[{i}]") for i, v in enumerate(doc["x"])
        ]
    else:
        raise CliError("provide an allocation via --x or --allocation")
    if len(values) != n_users:
        raise CliError(
            f"allocation has {len(values)} entries but the instance has {n_users} users"
        )
    return np.array(values)


def _tolerances(args) -> ToleranceConfig:
    try:
        return ToleranceConfig() if args.tol is None else ToleranceConfig(eps_njc=args.tol)
    except ValueError as exc:
        raise CliError(f"invalid tolerance: {exc}") from None


def _solution_dict(result) -> dict:
    report = result.report
    return {
        "x": [float(v) for v in report.allocation],
        "bottlenecks": [j + 1 for j in report.bottlenecks],
        "justification": {
            str(i + 1): (None if j is None else j + 1)
            for i, j in enumerate(report.justification)
        },
        "residuals": [float(v) for v in 1.0 - report.capacity.usages],
        "termination": result.termination,
        "polished": result.polish_applied,
        "verified": report.passed,
        "report": report.to_dict(),
    }


def cmd_solve(args) -> tuple[int, str]:
    inst = _load_instance(args.instance, renormalize=args.renormalize)
    tol = _tolerances(args)
    result = solve(inst, tol)
    report = result.report
    code = 0 if report.passed else 1
    if args.json:
        return code, json.dumps(_solution_dict(result), indent=2)
    out = ["x = " + _fmt_vec(report.allocation)]
    if args.exact:
        out.append("x (exact) = (" + ", ".join(_as_fraction_str(v) for v in report.allocation) + ")")
    out.append("bottlenecks: {%s}" % ", ".join(inst.resource_label(j) for j in report.bottlenecks))
    for st in report.users:
        if st.status == JUSTIFIED:
            status = f"justified via resource {inst.resource_label(st.resource)}"
        elif st.status == FULLY_ALLOCATED:
            status = "fully allocated"
        else:
            status = "no justifying resource"
        out.append(f"user {inst.user_label(st.user)}: {status}")
    out.append("min residual: " + _fmt(min(1.0 - report.capacity.usages)))
    out.append(f"termination: {result.termination} | polished: {result.polish_applied}")
    out.append("verified: " + ("yes" if report.passed else "no"))
    if not report.passed:
        out += ["", report.render()]
    return code, "\n".join(out)


def cmd_verify(args) -> tuple[int, str]:
    inst = _load_instance(args.instance)
    x = _parse_allocation(args, inst.n_users)
    tol = _tolerances(args)
    report = verify(inst, x, tol)
    code = 0 if report.passed else 1
    if args.format == "json":
        return code, json.dumps(report.to_dict(), indent=2)
    return code, report.render()


def cmd_enumerate(args) -> tuple[int, str]:
    inst = _load_instance(args.instance)
    try:
        family = oracle.enumerate_solutions(inst)
    except oracle.SizeGuardError as exc:
        raise CliError(str(exc))
    if args.json:
        return 0, json.dumps(
            {
                "witnesses": [
                    {
                        "x": [float(v) for v in w.x],
                        "bottlenecks": [j + 1 for j in w.bottlenecks],
                        "assignment": {
                            str(i + 1): (None if j is None else j + 1)
                            for i, j in enumerate(w.query.assignment)
                        },
                        "family": w.positive_dimension,
                    }
                    for w in family.witnesses
                ],
                "has_positive_dimension_face": family.has_positive_dimension_face,
                "stats": dataclasses.asdict(family.stats),
            },
            indent=2,
        )
    out = [f"{len(family.witnesses)} witness(es)"]
    for w in family.witnesses:
        flag = "  [family face]" if w.positive_dimension else ""
        just = ", ".join(
            f"{inst.user_label(i)}->" + ("all" if j is None else inst.resource_label(j))
            for i, j in enumerate(w.query.assignment)
        )
        out.append(
            f"x = {_fmt_vec(w.x)}  bottlenecks {{%s}}  [%s]%s"
            % (", ".join(inst.resource_label(j) for j in w.bottlenecks), just, flag)
        )
    if family.has_positive_dimension_face:
        out.append("note: at least one positive-dimensional family of solutions")
    return 0, "\n".join(out)


def _middles_instance(k: int) -> ProblemInstance:
    """Two-user chain with k middle resources used by only the second user."""
    if k < 0:
        raise CliError("--middles must be non-negative")
    row1 = [0.5] + [0.0] * k + [1.0]
    row2 = [1.0] + [1.0] * k + [0.0]
    return ProblemInstance(entitlements=[0.5, 0.5], requirements=[row1, row2])


def cmd_compare(args) -> tuple[int, str]:
    out = []
    if args.middles is not None:
        inst = _middles_instance(args.middles)
        out.append(f"synthetic two-user chain with {args.middles} middle resource(s)")
    elif args.instance is not None:
        inst = _load_instance(args.instance)
    else:
        raise CliError("provide an instance path/fixture or --middles K")
    result = solve(inst)
    d = drf_mod.solve_drf(inst)
    x_b = result.report.allocation
    x_d = d.x
    out.append("allocation scale factors:")
    out.append("  bottleneck-fair: " + _fmt_vec(x_b))
    out.append("  dominant-share : " + _fmt_vec(x_d))
    out.append("per-user bundles (bottleneck-fair vs dominant-share):")
    for i in range(inst.n_users):
        b1 = x_b[i] * inst.requirements[i]
        b2 = x_d[i] * inst.requirements[i]
        out.append(f"  user {inst.user_label(i)}: {_fmt_vec(b1)} vs {_fmt_vec(b2)}")
    out.append("dominant shares (dominant-share rule): " + _fmt_vec(d.dominant_shares))
    u_b = result.report.capacity.usages
    u_d = d.utilizations
    out.append("resource utilization (bottleneck-fair vs dominant-share):")
    for j in range(inst.n_real_resources):
        out.append(f"  resource {inst.resource_label(j)}: {_fmt(u_b[j])} vs {_fmt(u_d[j])}")
    out.append(
        f"average utilization: {_fmt(float(u_b.mean()))} (bottleneck-fair) vs "
        f"{_fmt(float(u_d.mean()))} (dominant-share)"
    )
    return 0, "\n".join(out)


def cmd_trace(args) -> tuple[int, str]:
    if args.stride < 1:
        raise CliError("--stride must be at least 1")
    inst = _load_instance(args.instance)
    points, _ = integrate_trajectory(add_dummy_resources(inst))
    header = ",".join(
        ["t"] + [f"x_{i + 1}" for i in range(inst.n_users)] + ["f", "min_slack"]
    )
    out = [header]
    for idx, p in enumerate(points):
        if idx % args.stride and idx != len(points) - 1:
            continue
        row = [repr(float(p.t))] + [repr(float(v) + 0.0) for v in p.x]
        row += [repr(float(p.f_value) + 0.0), repr(float(np.min(p.slacks)))]
        out.append(",".join(row))
    return 0, "\n".join(out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairshare",
        description="Fair allocation of multiple divisible resources by "
        "entitlements on bottleneck resources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p, optional=False):
        if optional:
            p.add_argument("instance", nargs="?", help="instance file or fixture name")
        else:
            p.add_argument("instance", help="instance file or fixture name")

    p_solve = sub.add_parser("solve", help="compute a verified fair allocation")
    add_instance(p_solve)
    p_solve.add_argument("--tol", type=float, help="verification tolerance (eps_njc)")
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")
    p_solve.add_argument("--exact", action="store_true", help="also print x as fractions")
    p_solve.add_argument(
        "--renormalize",
        action="store_true",
        help="rescale entitlements to sum to 1 instead of rejecting",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check an allocation for fairness")
    add_instance(p_verify)
    p_verify.add_argument("--x", help="inline allocation, e.g. 0.75,1,0 or 3/4,1,0")
    p_verify.add_argument("--allocation", help="JSON file with key 'x'")
    p_verify.add_argument("--tol", type=float, help="verification tolerance (eps_njc)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="exhaustively enumerate fair allocations")
    add_instance(p_enum)
    p_enum.add_argument("--json", action="store_true")
    p_enum.set_defaults(func=cmd_enumerate)

    p_cmp = sub.add_parser(
        "compare", help="bottleneck-fair vs dominant-share side by side"
    )
    add_instance(p_cmp, optional=True)
    p_cmp.add_argument(
        "--middles",
        type=int,
        help="use the synthetic two-user chain with K middle resources",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_trace = sub.add_parser(
        "trace",
        help="CSV of the reference trajectory",
        description="Print the paper's barrier trajectory on the instance as "
        "given, one CSV row per accepted step: t, one x_i per user, the "
        "barrier value f and the smallest slack. Users entitled to nothing "
        "stay at 0 on the trajectory, where solve gives those who request no "
        "bottleneck what is left of the other resources.",
    )
    add_instance(p_trace)
    p_trace.add_argument("--stride", type=int, default=1, help="emit every k-th sample")
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, text = args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SimplexIterationLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Every command computes its exit code before anything is printed, so a
    # reader that has gone (``fairshare solve ... | head``) cannot change it.
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # End quietly, with stdout on devnull so the flush at exit cannot
        # raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
