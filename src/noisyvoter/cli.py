"""Command-line entry point: ``voter-profile <scenario> [options]``.

Scenario parameters come from an optional JSON config file; flags override
file values.  Exit codes: 0 success, 2 config error, 3 capacity error,
4 invariant failure (validate), 1 diagnostic failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .errors import CapacityError, ConfigError, DiagnosticError
from .experiments import SCENARIOS, ExperimentConfig, config_from_json, run


def _int_list(text: str):
    return tuple(int(v) for v in text.split(","))


def _float_list(text: str):
    return tuple(float(v) for v in text.split(","))


def _attach_negative_values(argv):
    """Rewrite ``--tau -1,0,1`` as ``--tau=-1,0,1``.

    A value such as "-1,0,1" is not a plain negative number, so argparse
    would read it as an unknown flag; every option takes a value, so a token
    starting with "-" and a digit or "." is glued onto the option before it.
    """
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        negative = len(token) > 1 and token[0] == "-" and token[1] in "0123456789."
        if prev.startswith("--") and "=" not in prev and negative:
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voter-profile",
        description="Convergence experiments for the noisy voter model on the complete graph.",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--n", type=_int_list, help="population size(s), comma separated")
    parser.add_argument("--a", type=float, help="rate of spontaneous flips to 1")
    parser.add_argument("--b", type=float, help="rate of spontaneous flips to 0")
    parser.add_argument("--m0", type=float, help="initial particle density")
    parser.add_argument("--ell", type=int, help="initial particle count, instead of m0*n "
                        "(thermalize and single-size stein-rate only)")
    parser.add_argument("--grid", type=_float_list, help="t-grid or tau-grid, comma separated")
    parser.add_argument("--tau", type=_float_list, dest="grid", help="alias for --grid")
    parser.add_argument("--samples", type=int, help="matched pairs (thermalize only)")
    parser.add_argument("--repetitions", type=int, help="independent repetitions to average")
    parser.add_argument("--seed", type=int, help="master seed, any nonnegative integer")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--eps", type=_float_list, help="mixing thresholds, comma separated")
    parser.add_argument("--tol", type=float,
                        help="accuracy of the exact laws and series, in (0, 1e-6]")
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    kwargs = config_from_json(args.config) if args.config else {}
    kwargs["scenario"] = args.scenario
    for field in fields(ExperimentConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            kwargs[field.name] = value
    return ExperimentConfig(**kwargs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_values(argv))
    try:
        cfg = load_config(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except DiagnosticError as exc:
        print(f"diagnostic error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
