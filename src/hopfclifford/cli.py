"""Command-line front end.

    hopf-clifford analyze       --builtin NAME | --scenario FILE
                                [--alpha SEL] [--json OUT] [--seed N]
    hopf-clifford verify-axioms --builtin NAME | --scenario FILE [--seed N]
    hopf-clifford list-irr      --builtin NAME | --scenario FILE [--seed N]

Exit codes: 0 success, 2 configuration error, 3 mathematical precondition
failure, 4 violated theorem or internal consistency check (a bug).
The environment variable HOPF_CLIFFORD_SEED overrides the default seed;
--seed overrides both.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .errors import (ConfigError, ConsistencyError, HopfCliffordError,
                     NotACharacterError, NumericDegeneracyError,
                     PreconditionError, TheoremViolationError)
from .scenarios import (BUILTIN_NAMES, Scenario, builtin_scenario,
                        list_irr, load_scenario, run_scenario, verify_axioms)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_THEOREM = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopf-clifford",
        description="Clifford correspondence calculator for semisimple Hopf algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("analyze", "run the full per-character analysis"),
            ("verify-axioms", "check the Hopf axioms of the scenario's algebras"),
            ("list-irr", "list irreducible character degrees")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--builtin", choices=BUILTIN_NAMES,
                       help="one of the packaged scenarios")
        p.add_argument("--scenario", metavar="FILE",
                       help="path to a scenario JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for the randomized spectral splitting")
        if name == "analyze":
            p.add_argument("--alpha", default=None,
                           help="index, label, or 'all' (default from scenario)")
            p.add_argument("--json", metavar="OUT", default=None,
                           help="write the machine-readable report here")
    return parser


def _load(args) -> Scenario:
    if bool(args.builtin) == bool(args.scenario):
        raise ConfigError("give exactly one of --builtin or --scenario")
    if args.builtin:
        return builtin_scenario(args.builtin)
    return load_scenario(args.scenario)


def _seed(args) -> Optional[int]:
    """--seed, else HOPF_CLIFFORD_SEED; the scenarios module validates it."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HOPF_CLIFFORD_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"bad HOPF_CLIFFORD_SEED {env!r}") from exc
    return None


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = _load(args)
        seed = _seed(args)
        if args.command == "analyze":
            report = run_scenario(scenario, alpha_selection=args.alpha, seed=seed)
            sys.stdout.write(report.render_text())
            if args.json:
                with open(args.json, "w", encoding="utf-8") as fh:
                    fh.write(report.to_json())
                sys.stdout.write(f"report written to {args.json}\n")
        elif args.command == "verify-axioms":
            text, _ = verify_axioms(scenario, seed=seed)
            sys.stdout.write(text)
        else:
            text, _ = list_irr(scenario, seed=seed)
            sys.stdout.write(text)
        return EXIT_OK
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except PreconditionError as exc:
        sys.stderr.write(f"precondition failure: {exc}\n")
        return EXIT_PRECONDITION
    except (TheoremViolationError, ConsistencyError, NotACharacterError,
            NumericDegeneracyError) as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return EXIT_THEOREM
    except HopfCliffordError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_THEOREM


if __name__ == "__main__":
    sys.exit(main())
