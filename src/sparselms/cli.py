"""Command-line front end: config parsing, experiment runs, result emission.

Subcommands
-----------
run
    Execute the Monte-Carlo experiment described by a config file and write
    a CSV of learning curves plus a manifest of the resolved settings.
validate-noise
    Compare the empirical characteristic function of the noise sampler
    against the analytic one on a small grid and print a verdict.
template
    Emit the default config file (the reference parameterization).

Exit codes: 0 success, 2 configuration error, 3 runtime failure (including
a failed noise validation and the case where every trial of some algorithm
diverged), 4 output I/O error.
"""

import argparse
import configparser
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import ParameterError
from .filters import FAMILIES, PENALTY_PARAMS, AlgorithmSpec
from .simulation import SimConfig, run_experiment
from .stable import AlphaStableParams, characteristic_function, sample

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

CSV_HEADER = "algorithm,iteration,mse_db,trials_diverged"

# agreement grid and tolerance for validate-noise
CF_GRID = (0.1, 0.5, 1.0, 2.0)
CF_TOLERANCE = 0.02


class ConfigError(Exception):
    """Bad configuration file or overrides."""


# AlgorithmSpec field -> config key, where they differ (lambda is a Python
# keyword)
_CONFIG_KEYS = {"rho": "lambda"}
_SPEC_FIELDS = {key: field for field, key in _CONFIG_KEYS.items()}


def _algorithm_items(spec):
    """(config key, value) of the step size and the penalty's hyperparameters."""
    return [(_CONFIG_KEYS.get(field, field), getattr(spec, field))
            for field in ("mu", *PENALTY_PARAMS[spec.penalty])]


# section -> config key -> (field, type, default) of the [channel], [noise]
# and [run] sections; the fields are SimConfig fields, and AlphaStableParams
# fields for [noise].  An omitted key takes its default, which is also the
# template's value.
SECTIONS = {
    "channel": {
        "n_taps": ("n_taps", int, 128),
        "sparsity": ("sparsity", int, 8),
    },
    "noise": {
        "alpha": ("alpha", float, 1.2),
        "beta": ("beta", float, 0.0),
        "gamma": ("gamma", float, 1.0),
        "delta": ("delta", float, 0.0),
    },
    "run": {
        "iterations": ("n_iterations", int, 3000),
        "trials": ("n_trials", int, 100),
        "snr_db": ("snr_db", float, 10.0),
        "seed": ("master_seed", int, 1),
        "input": ("input_kind", str, "gaussian"),
    },
}
# field -> (section, config key), to name the key of a rejected field
_FIELD_KEYS = {field: (name, key) for name, keys in SECTIONS.items()
               for key, (field, _, _) in keys.items()}


def _defaults(name):
    return {field: default for field, _, default in SECTIONS[name].values()}


def _sections(config):
    """``(section, [(config key, value), ...])`` of every section ``config``
    resolves to, in file order; there is no [noise] section without noise."""
    sources = {"channel": config, "noise": config.noise, "run": config}
    sections = [(name, [(key, getattr(sources[name], field))
                        for key, (field, _, _) in keys.items()])
                for name, keys in SECTIONS.items() if sources[name] is not None]
    sections.extend((f"algorithm.{spec.name}", _algorithm_items(spec))
                    for spec in config.algorithms)
    return sections


# the reference parameterization: every key and every algorithm at its default
_REFERENCE = SimConfig(
    **_defaults("channel"), **_defaults("run"),
    noise=AlphaStableParams(**_defaults("noise")),
    algorithms=tuple(AlgorithmSpec(family=family, penalty=penalty)
                     for penalty in PENALTY_PARAMS for family in FAMILIES))

TEMPLATE = "\n".join(
    ["# sparselms experiment configuration (reference parameterization)\n"]
    + [f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in items)
       for name, items in _sections(_REFERENCE)])


def _value(section, key, convert):
    raw = section[key]
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r} in [{section.name}]: {raw!r}") from exc


def _check_keys(name, section, allowed):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")


def parse_config(path):
    """Read and validate a config file into a SimConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc

    fields = {name: _defaults(name) for name in SECTIONS}
    for name, keys in SECTIONS.items():
        if parser.has_section(name):
            sec = parser[name]
            _check_keys(name, sec, keys)
            for key in sec:
                field, convert, _ = keys[key]
                fields[name][field] = _value(sec, key, convert)

    algorithms = []
    for section_name in parser.sections():
        if section_name in SECTIONS:
            continue
        prefix, _, alg_name = section_name.partition(".")
        if prefix != "algorithm" or not alg_name:
            raise ConfigError(f"unknown section [{section_name}]")
        try:
            spec = AlgorithmSpec.from_name(alg_name)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc
        sec = parser[section_name]
        _check_keys(section_name, sec, dict(_algorithm_items(spec)))
        # one key at a time, so that a rejected value is named by its key
        for key in sec:
            try:
                spec = replace(spec, **{_SPEC_FIELDS.get(key, key): _value(sec, key, float)})
            except ParameterError as exc:
                raise ConfigError(f"bad value for {key!r} in [{section_name}]: {exc}") from exc
        algorithms.append(spec)

    if not algorithms:
        raise ConfigError("no [algorithm.*] sections configured")

    try:
        noise = AlphaStableParams(**fields["noise"]) if parser.has_section("noise") else None
        return SimConfig(**fields["channel"], **fields["run"], noise=noise,
                         algorithms=tuple(algorithms))
    except ParameterError as exc:
        # the library's messages begin with the name of the rejected field
        field = str(exc).partition(" ")[0]
        if field not in _FIELD_KEYS:
            raise ConfigError(f"invalid configuration: {exc}") from exc
        name, key = _FIELD_KEYS[field]
        raise ConfigError(f"bad value for {key!r} in [{name}]: {exc}") from exc


def _select_algorithms(config, names_csv):
    configured = {spec.name: spec for spec in config.algorithms}
    selected = []
    for name in names_csv.split(","):
        name = name.strip()
        if not name:
            continue
        if name in configured:
            selected.append(configured[name])
        else:
            selected.append(AlgorithmSpec.from_name(name))
    if not selected:
        raise ParameterError("empty algorithm selection")
    return tuple(selected)


def _write_manifest(path, config, **facts):
    """What was run: one ``key = value`` line per fact, then every setting of
    ``config`` as ``<section>.<key> = value``."""
    lines = [f"{key} = {value}" for key, value in facts.items()]
    if config.noise is None:
        lines.append("noise = none")
    lines.extend(f"{name}.{key} = {value}"
                 for name, items in _sections(config) for key, value in items)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_curves_csv(path, curves):
    rows = []
    for curve in sorted(curves, key=lambda c: c.algorithm):
        for i, value in enumerate(curve.mse_db, start=1):
            rows.append(f"{curve.algorithm},{i},{float(value)!r},{curve.trials_diverged}")
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.write("\n".join(rows) + "\n")


def _utc_now():
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def cmd_run(args):
    try:
        if args.workers < 1:
            raise ParameterError(f"--workers must be >= 1, got {args.workers}")
        config = parse_config(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.trials is not None:
            overrides["n_trials"] = args.trials
        if args.iterations is not None:
            overrides["n_iterations"] = args.iterations
        if args.algorithms:
            overrides["algorithms"] = _select_algorithms(config, args.algorithms)
        if overrides:
            config = replace(config, **overrides)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    started = _utc_now()
    try:
        curves = run_experiment(config, workers=args.workers)
    except Exception as exc:  # noqa: BLE001 - surface anything as a runtime failure
        print(f"error: experiment failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finished = _utc_now()

    try:
        _write_curves_csv(args.out, curves)
        _write_manifest(args.out + ".manifest", config, tool_version=__version__,
                        config_path=args.config, output_path=args.out,
                        started_utc=started, finished_utc=finished,
                        workers=args.workers)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO

    dead = [c.algorithm for c in curves if c.trials_completed == 0]
    if dead:
        print(f"error: all trials diverged for: {', '.join(dead)}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_validate_noise(args):
    try:
        params = AlphaStableParams(alpha=args.alpha, beta=args.beta,
                                   gamma=args.gamma, delta=args.delta)
        if args.samples < 1:
            raise ParameterError(f"samples must be >= 1, got {args.samples}")
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rng = np.random.default_rng(args.seed)
    draws = sample(params, rng, size=args.samples)
    print(f"alpha={params.alpha} beta={params.beta} gamma={params.gamma} "
          f"delta={params.delta} samples={args.samples} seed={args.seed}")
    print(f"{'t':>6}  {'|empirical|':>12}  {'|analytic|':>12}  {'|error|':>10}")
    ok = True
    for t in CF_GRID:
        empirical = complex(np.mean(np.exp(1j * t * draws)))
        analytic = characteristic_function(params, t)
        err = abs(empirical - analytic)
        ok &= err <= CF_TOLERANCE
        print(f"{t:6.2f}  {abs(empirical):12.6f}  {abs(analytic):12.6f}  {err:10.6f}")
    verdict = "PASS" if ok else "FAIL"
    print(f"verdict: {verdict} (tolerance {CF_TOLERANCE})")
    return EXIT_OK if ok else EXIT_RUNTIME


def cmd_template(args):
    if args.out is None:
        sys.stdout.write(TEMPLATE)
        return EXIT_OK
    try:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(TEMPLATE)
    except OSError as exc:
        print(f"error: cannot write template: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparselms",
        description="Sparse sign-LMS channel estimation under impulsive noise")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte-Carlo experiment")
    run.add_argument("--config", required=True, help="experiment config file")
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--seed", type=int, default=None, help="override master seed")
    run.add_argument("--trials", type=int, default=None, help="override trial count")
    run.add_argument("--iterations", type=int, default=None, help="override iteration count")
    run.add_argument("--algorithms", default=None,
                     help="comma-separated algorithm names to run")
    run.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    run.set_defaults(func=cmd_run)

    validate = sub.add_parser("validate-noise",
                              help="check the noise sampler against its characteristic function")
    validate.add_argument("--alpha", type=float, default=2.0)
    validate.add_argument("--beta", type=float, default=0.0)
    validate.add_argument("--gamma", type=float, default=1.0)
    validate.add_argument("--delta", type=float, default=0.0)
    validate.add_argument("--samples", type=int, default=100000)
    validate.add_argument("--seed", type=int, default=0)
    validate.set_defaults(func=cmd_validate_noise)

    template = sub.add_parser("template", help="print the default config file")
    template.add_argument("--out", default=None, help="write to a file instead of stdout")
    template.set_defaults(func=cmd_template)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
