"""Command-line front end.

Exit codes are a stable CI contract: 0 success/pass, 1 verify-fail (or
a campaign with violations), 2 structural input error, 3 file or parse
error, 4 hypothesis violation, 64 usage error, 70 internal error (any
other exception: a fault of feqlab, not of the input). Reports are
canonical JSON on stdout; --format table gives a loose human view never
meant for parsing. An empty solution set is a success: absence is an answer.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable

from .characters import characters_cached
from .equations import EQUATIONS, battery_report, companion_cosine, residual
from .errors import HypothesisError, ParseError, StructuralError, UsageError
from .fixtures import write_fixtures
from .jsonio import (
    canonical_json,
    function_to_json,
    load_function,
    load_measure,
    load_morphism,
    load_semigroup,
    morphism_to_json,
    render_table,
)
from .measures import DEFAULT_TOL, ToleranceConfig, check_function
from .semigroups import MorphismKind, center, enumerate_involutive_morphisms
from .solvers import closed_form, closed_form_equation, match_solution_sets, spectral_oracle
from .stability import CampaignConfig, fuzz_campaign

EQUATION_TAGS = tuple(EQUATIONS)

ORACLE_MAX_ORDER = 4
# --starts is accepted in 1..ORACLE_MAX_STARTS and changes nothing: the
# spectral oracle has no starts
ORACLE_MAX_STARTS = 10_000
# the campaign holds every trial's streams at once: 10^5 trials on C4
# peak near 37 MB of traced allocations
STABILITY_MAX_TRIALS = 100_000


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); we want 64
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="feqlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        if "eq" in flags:
            p.add_argument("--eq", required=True, choices=EQUATION_TAGS)
        if "sg" in flags:
            p.add_argument("--sg", required=True, help="semigroup JSON path")
        if "sigma" in flags:
            p.add_argument("--sigma", help="involutive morphism JSON path")
        if "mu" in flags:
            p.add_argument("--mu", help="measure JSON path")
        if "f" in flags:
            p.add_argument("--f", required=True, help="function JSON path")
        if "trials" in flags:
            p.add_argument("--trials", type=int, default=100)
        if "radius" in flags:
            p.add_argument("--radius", type=float, default=1.0)
        if "starts" in flags:
            p.add_argument("--starts", type=int, default=200,
                           help="accepted for compatibility; the spectral oracle has no starts")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=0)
        if "tol" in flags:
            p.add_argument("--tol", type=float, default=None,
                           help="override eq_tol, the tolerance verdicts read (default 1e-9)")
        if "battery" in flags:
            p.add_argument("--battery", action="store_true",
                           help="attach the solution-identity battery to the report "
                                "(vanvleck only; ignored for any other --eq)")
        if "force" in flags:
            p.add_argument("--force", action="store_true",
                           help="evaluate despite a non-central support; the report is marked")
        p.add_argument("--format", choices=("json", "table"), default="json")
        return p

    add("validate", "check a Cayley table", "sg")
    add("analyze", "center, involutive morphisms, characters", "sg")
    add("solve", "closed-form solution set for an equation", "eq", "sg", "sigma", "mu")
    add("verify", "residual report for a candidate function",
        "eq", "sg", "sigma", "mu", "f", "tol", "battery", "force")
    add("stability", "seeded superstability fuzz campaign",
        "sg", "sigma", "mu", "trials", "radius", "seed", "tol")
    add("oracle", "spectral oracle roots vs closed form",
        "eq", "sg", "sigma", "mu", "starts", "seed")
    fx = sub.add_parser("fixtures", help="write the bundled example inputs")
    fx.add_argument("--out", default="fixtures", help="output directory")
    fx.add_argument("--format", choices=("json", "table"), default="json")
    return parser


def _finite_nonnegative(flag: str, value: float) -> float:
    if not 0 <= value < math.inf:  # NaN fails every comparison
        raise UsageError(f"--{flag} must be finite and nonnegative, got {value}")
    return value


def _tolerances(args) -> ToleranceConfig:
    return DEFAULT_TOL if args.tol is None else ToleranceConfig(_finite_nonnegative("tol", args.tol))


def _need(args, flag: str):
    value = getattr(args, flag, None)
    if value is None:
        what = f"--eq {args.eq}" if "eq" in args else args.command
        raise UsageError(f"--{flag} is required for {what}")
    return value


def _load_inputs(args, sg, eq) -> tuple:
    """(sigma, mu) as eq's words read them, and mu where verify builds the
    companion g, loaded in that order; None for an input eq does not need."""
    sigma = load_morphism(_need(args, "sigma"), sg) if "sigma" in eq.reads else None
    mu = load_measure(_need(args, "mu")) if "mu" in eq.reads or eq.uses_g else None
    return sigma, mu


def cmd_validate(args) -> tuple[dict, int]:
    sg = load_semigroup(args.sg)
    payload = {"valid": True, "n": sg.n, "identity": sg.identity}
    if sg.name is not None:
        payload["name"] = sg.name
    return payload, 0


def cmd_analyze(args) -> tuple[dict, int]:
    sg = load_semigroup(args.sg)
    autos = enumerate_involutive_morphisms(sg, MorphismKind.AUTOMORPHISM)
    antis = enumerate_involutive_morphisms(sg, MorphismKind.ANTI_AUTOMORPHISM)
    chars = characters_cached(sg)
    payload = {
        "n": sg.n,
        "name": sg.name,
        "identity": sg.identity,
        "center": center(sg),
        "automorphisms": [morphism_to_json(m) for m in autos],
        "anti_automorphisms": [morphism_to_json(m) for m in antis],
        "character_count": len(chars),
        "characters": [c.to_json() for c in chars],
    }
    return payload, 0


def cmd_solve(args) -> tuple[dict, int]:
    sg = load_semigroup(args.sg)
    eq = closed_form_equation(args.eq)  # before any input is required or loaded
    sigma, mu = _load_inputs(args, sg, eq)
    return closed_form(args.eq, sg, sigma, mu).to_json(), 0


def cmd_verify(args) -> tuple[dict, int]:
    sg = load_semigroup(args.sg)
    tol = _tolerances(args)
    f = check_function(sg, load_function(_need(args, "f")))
    eq = EQUATIONS[args.eq]
    sigma, mu = _load_inputs(args, sg, eq)
    if args.battery and eq.battery:
        report = battery_report(sg, f, sigma, mu, tol, force=args.force)
    else:
        # a lone candidate f meets its companion cosine as the second function
        g = companion_cosine(sg, f, mu) if eq.uses_g else None
        report = residual(eq, sg, f, g=g, sigma=sigma, mu=mu, force=args.force)
    return report.to_json(), 0 if report.passed(tol) else 1


def cmd_stability(args) -> tuple[dict, int]:
    if not 1 <= args.trials <= STABILITY_MAX_TRIALS:
        raise UsageError(f"--trials must be between 1 and {STABILITY_MAX_TRIALS}, got {args.trials}")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    radius = _finite_nonnegative("radius", args.radius)
    sg = load_semigroup(args.sg)
    config = CampaignConfig(trials=args.trials, radius_max=radius, seed=args.seed)
    sigma, mu = _load_inputs(args, sg, EQUATIONS["vanvleck"])
    summary, _ = fuzz_campaign(sg, sigma, mu, config, _tolerances(args))
    return summary.to_json(), 0 if summary.violations == 0 else 1


def cmd_oracle(args) -> tuple[dict, int]:
    sg = load_semigroup(args.sg)
    if sg.n > ORACLE_MAX_ORDER:
        raise UsageError(f"oracle command caps at order {ORACLE_MAX_ORDER}, got {sg.n}")
    if not 1 <= args.starts <= ORACLE_MAX_STARTS:
        raise UsageError(f"--starts must be between 1 and {ORACLE_MAX_STARTS}, got {args.starts}")
    eq = args.eq
    sigma, mu = _load_inputs(args, sg, closed_form_equation(eq))
    closed = closed_form(eq, sg, sigma, mu)
    roots = spectral_oracle(sg, eq, sigma, mu, seed=args.seed)
    refs = closed.vectors()
    pairs, oracle_only, closed_only = match_solution_sets(roots, refs, mu)

    def vec_json(v) -> list:
        return function_to_json(v)["values"]

    payload = {
        "equation": eq,
        "oracle_roots": [vec_json(r) for r in roots],
        "closed_form": [vec_json(r) for r in refs],
        "matched": len(pairs),
        "oracle_only": [vec_json(roots[i]) for i in oracle_only],
        "closed_only": [vec_json(refs[j]) for j in closed_only],
    }
    return payload, 0 if not oracle_only and not closed_only else 1


def cmd_fixtures(args) -> tuple[dict, int]:
    try:
        names = write_fixtures(args.out)
    except OSError as exc:  # --out names a file, or a path below one
        raise ParseError(f"cannot write {args.out}: {exc}") from exc
    return {"dir": args.out, "written": names}, 0


_COMMANDS: dict[str, Callable] = {
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "stability": cmd_stability,
    "oracle": cmd_oracle,
    "fixtures": cmd_fixtures,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, code = _COMMANDS[args.command](args)
        text = render_table(payload) if args.format == "table" else canonical_json(payload)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 4
    except StructuralError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other FeqlabError or exception is a fault of feqlab
        import traceback

        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 70
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
