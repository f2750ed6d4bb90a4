"""Command line front end: run monitored episodes, or solve one-shot problems.

Subcommands:
    run       drive a full episode from a YAML scenario, writing a metrics
              CSV and a JSON event log
    optimize  jointly optimize element positions and weights for a fixed
              set of directions
    baseline  gain of the uniform fixed array for a fixed set of directions

Exit codes: 0 success, 1 internal error (any error the run raises), 2
configuration problem in the scenario or the arguments (the message names
the offending field), 3 unwritable output. Degradation events during a run
are normal operation, not errors. Each subcommand is a generator that
yields once it has checked its inputs, so main can tell the two apart.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .arrays import ArrayConstraints, DoASet
from .errors import ConfigurationError, EvobeamError, ValidationError
from .lifecycle import run_episode
from .llm import EndpointConfig, make_router
from .optimize import OptimizerConfig, fixed_baseline, optimize_movable
from .reporting import write_events_json, write_metrics_csv
from .scenario import default_scenario, load_scenario

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_OUTPUT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evobeam",
        description="Movable-antenna beamforming with a self-evolving maintenance loop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a monitored episode")
    run.add_argument("--config", help="YAML scenario file; omitted runs the default scenario")
    run.add_argument("--seed", type=int, help="override the scenario seed")
    run.add_argument("--steps", type=int, help="override the number of trajectory steps")
    run.add_argument("--snr", type=float, help="override the CSI SNR in dB")
    run.add_argument(
        "--llm",
        action="store_true",
        help="delegate supervisor routing to the endpoint configured in the llm section",
    )
    run.add_argument("--metrics-out", default="metrics.csv", help="metrics CSV path")
    run.add_argument("--events-out", default="events.json", help="event log JSON path")
    run.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    run.set_defaults(func=cmd_run)

    optimize = sub.add_parser(
        "optimize", help="optimize positions and weights for fixed directions"
    )
    optimize.add_argument("angles", nargs="+", type=float, help="directions in degrees")
    _constraint_flags(optimize)
    optimize.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)
    optimize.add_argument("--seed", type=int, default=OptimizerConfig.seed)
    optimize.set_defaults(func=cmd_optimize)

    baseline = sub.add_parser(
        "baseline", help="fixed uniform-array gain for fixed directions"
    )
    baseline.add_argument("angles", nargs="+", type=float, help="directions in degrees")
    _constraint_flags(baseline)
    baseline.set_defaults(func=cmd_baseline)
    return parser


def _constraint_flags(parser):
    parser.add_argument(
        "--wavelength", type=float, default=ArrayConstraints.wavelength, help="carrier wavelength in meters"
    )
    parser.add_argument("--num-elements", type=int, default=ArrayConstraints.num_elements)
    parser.add_argument("--min-spacing", type=float, default=None, help="default: half wavelength")
    parser.add_argument("--position-bound", type=float, default=None, help="default: 5 wavelengths")


def _constraints(args) -> ArrayConstraints:
    return ArrayConstraints(
        wavelength=args.wavelength,
        num_elements=args.num_elements,
        min_spacing=args.min_spacing,
        position_bound=args.position_bound,
    )


def _g(value) -> str:
    return f"{value:.6f}"


def _load_scenario(args):
    if args.config:
        try:
            scenario = load_scenario(args.config)
        except OSError as exc:
            raise ConfigurationError(f"config: {exc}") from exc
    else:
        scenario = default_scenario()
    if args.steps is not None:
        scenario = replace(
            scenario, trajectory=replace(scenario.trajectory, num_steps=args.steps)
        )
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.snr is not None:
        scenario = replace(scenario, snr_db=args.snr)
    return scenario


def cmd_run(args):
    scenario = _load_scenario(args)
    router = None
    decisions = []
    if args.llm:
        if scenario.llm is None:
            raise ConfigurationError("llm: section is required when --llm is given")
        endpoint = EndpointConfig.from_settings(scenario.llm)
        router = make_router(endpoint, decisions)
    yield
    result = run_episode(scenario, router=router)
    write_metrics_csv(result.metrics_history, args.metrics_out)
    write_events_json(result.event_log, args.events_out, aborts=result.abort_log)
    if not args.quiet:
        _print_run_summary(result, decisions if args.llm else None)


def _print_run_summary(result, decisions):
    metrics = result.metrics_history
    print(f"steps: {len(metrics)}")
    print(
        f"evolution events: {len(result.event_log)} "
        f"(aborted cycles: {len(result.abort_log)})"
    )
    for event in result.event_log:
        extra = ", degraded" if event.degraded else ""
        print(
            f"  step {event.trigger_step}: {event.reason.value}, "
            f"{_g(event.pre_gain_db)} -> {_g(event.post_gain_db)} dB "
            f"(baseline {_g(event.baseline_gain_db)}, rounds {event.training_rounds}{extra})"
        )
    final = metrics[-1]
    print(
        f"final gain: movable {_g(final.movable_gain_db)} dB "
        f"vs fixed {_g(final.fixed_gain_db)} dB"
    )
    if decisions is not None:
        accepted = sum(1 for d in decisions if d.source == "llm")
        print(f"llm routing: {accepted}/{len(decisions)} transitions accepted from the endpoint")


def cmd_optimize(args):
    constraints = _constraints(args)
    doas = DoASet(tuple(args.angles))
    config = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    yield
    base = fixed_baseline(doas, constraints)
    solution = optimize_movable(doas, config, constraints)
    print(f"directions (deg): {', '.join(f'{a:g}' for a in doas.angles_deg)}")
    print(f"positions (wavelengths): [{_positions_wl(solution.geometry, constraints)}]")
    print(
        f"gain: {_g(solution.gain_db)} dB after {solution.iterations} iterations "
        f"(converged={solution.converged})"
    )
    print(f"fixed baseline: {_g(base.gain_db)} dB")


def cmd_baseline(args):
    constraints = _constraints(args)
    doas = DoASet(tuple(args.angles))
    yield
    solution = fixed_baseline(doas, constraints)
    print(f"directions (deg): {', '.join(f'{a:g}' for a in doas.angles_deg)}")
    print(f"positions (wavelengths): [{_positions_wl(solution.geometry, constraints)}]")
    print(f"gain: {_g(solution.gain_db)} dB")


def _positions_wl(geometry, constraints):
    return ", ".join(f"{p / constraints.wavelength:+.4f}" for p in geometry.positions)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.func(args)
    try:
        next(command)  # checks the inputs
    except (ConfigurationError, ValidationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        next(command, None)  # runs
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except EvobeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
