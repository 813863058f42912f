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

Exit codes: 0 success, 2 bad input (a ParameterError), 3 runtime failure
(including a failed noise validation and the case where every trial of some
algorithm diverged), 4 output I/O error, stdout included.  Commands raise,
and ``main`` alone prints the ``error:`` line of exit 2 and exit 4.
"""

import argparse
import configparser
import contextlib
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from itertools import islice
from types import SimpleNamespace

import numpy as np

from . import __version__
from .errors import ParameterError
from .filters import FAMILIES, PENALTY_PARAMS, AlgorithmSpec
from .simulation import SimConfig, chunk_layout, run_experiment
from .stable import (BLOCK, CF_GRID, AlphaStableParams, characteristic_function, empirical_cf,
                     sample)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

CSV_HEADER = "algorithm,iteration,mse_db,trials_diverged"

# largest |empirical - analytic| CF error at which validate-noise passes
CF_TOLERANCE = 0.02

# most draws validate-noise takes: at about 1e7 draws/s, 2**40 is 1.3 days
MAX_SAMPLES = 1 << 40


# AlgorithmSpec field -> config key, where they differ (lambda is a Python
# keyword)
_CONFIG_KEYS = {"rho": "lambda"}


def _algorithm_keys(spec):
    """Config key -> field of the step size and the penalty's hyperparameters."""
    return {_CONFIG_KEYS.get(field, field): field
            for field in ("mu", *PENALTY_PARAMS[spec.penalty])}


# section -> config key -> field of the [channel], [noise] and [run] sections;
# the fields are those of the object _owner gives the section.  An omitted
# key takes its field's value in _REFERENCE, and a key's type is the type of
# that value.
SECTIONS = {
    "channel": {"n_taps": "n_taps", "sparsity": "sparsity"},
    "noise": {"alpha": "alpha", "beta": "beta", "gamma": "gamma", "delta": "delta"},
    "run": {"iterations": "n_iterations", "trials": "n_trials", "snr_db": "snr_db",
            "seed": "master_seed", "input": "input_kind"},
}

# the reference parameterization: every key and every algorithm at its default
_REFERENCE = SimConfig(
    n_taps=128, sparsity=8, n_iterations=3000, n_trials=100, snr_db=10.0, master_seed=1,
    noise=AlphaStableParams(alpha=1.2),
    algorithms=tuple(AlgorithmSpec(family=family, penalty=penalty)
                     for penalty in PENALTY_PARAMS for family in FAMILIES))


def _owner(config, section):
    """The object of ``config`` that holds the fields of ``section`` of SECTIONS."""
    return config.noise if section == "noise" else config


def _sections(config):
    """``(section, [(config key, value), ...])`` of every section ``config``
    resolves to, in file order; there is no [noise] section without noise."""
    sections = [(name, keys, owner) for name, keys in SECTIONS.items()
                if (owner := _owner(config, name)) is not None]
    sections.extend((f"algorithm.{spec.name}", _algorithm_keys(spec), spec)
                    for spec in config.algorithms)
    return [(name, [(key, getattr(source, field)) for key, field in keys.items()])
            for name, keys, source in sections]


TEMPLATE = "\n".join(
    ["# sparselms experiment configuration (reference parameterization)\n"]
    + [f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in items)
       for name, items in _sections(_REFERENCE)])


def _read(parser, section, keys, reference):
    """Field -> value for each field that ``keys`` (config key -> field)
    names: the value ``section`` of ``parser`` gives its key, converted to
    the type of the field's value in ``reference``; that value itself if the
    key is omitted."""
    values = {field: getattr(reference, field) for field in keys.values()}
    items = parser[section] if parser.has_section(section) else {}
    for key in items:
        if key not in keys:
            raise ParameterError(f"unknown key {key!r} in section [{section}]")
    for key, raw in items.items():
        field = keys[key]
        try:
            values[field] = type(values[field])(raw)
        except ValueError as exc:
            raise ParameterError(f"bad value for {key!r} in [{section}]: {raw!r}") from exc
    return values


@contextlib.contextmanager
def _naming_keys(sections):
    """Re-raise a :class:`ParameterError` as one naming the config key of
    the field that the library's message begins with; ``sections`` maps
    section -> config key -> field."""
    try:
        yield
    except ParameterError as exc:
        field, _, rest = str(exc).partition(" ")
        for name, keys in sections.items():
            for key, key_field in keys.items():
                if key_field == field:
                    raise ParameterError(
                        f"bad value for {key!r} in [{name}]: {key} {rest}") from exc
        raise ParameterError(f"invalid configuration: {exc}") from exc


def _algorithm(parser, name):
    """The spec of algorithm ``name`` with the hyperparameters its
    ``[algorithm.<name>]`` section of ``parser`` gives, if any."""
    spec = AlgorithmSpec.from_name(name)
    section, keys = f"algorithm.{name}", _algorithm_keys(spec)
    # read outside _naming_keys, which would rename the reader's own messages
    values = _read(parser, section, keys, spec)
    with _naming_keys({section: keys}):
        return replace(spec, **values)


def parse_config(path, run=None, algorithms=None):
    """Read and validate a config file into a SimConfig.

    ``run`` maps ``[run]`` keys to values that replace the file's, read as if
    the file held them.  ``algorithms`` names the algorithms to run, in
    order, in place of the file's ``[algorithm.*]`` sections; a name without
    a section runs at its defaults.  Every section is validated either way.

    Raises :class:`ParameterError` for every bad input: a file that cannot
    be read or parsed, an unknown section or key, or a bad value, named by
    its key and section.
    """
    # no [DEFAULT] section: its keys would be copied into every section
    parser = configparser.ConfigParser(interpolation=None, default_section=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ParameterError(f"malformed config file {path}: {exc}") from exc
    if run:
        parser.read_dict({"run": run})

    fields = {name: _read(parser, name, keys, _owner(_REFERENCE, name))
              for name, keys in SECTIONS.items()}
    names = []
    for section in parser.sections():
        if section in SECTIONS:
            continue
        prefix, _, name = section.partition(".")
        if prefix != "algorithm" or not name:
            raise ParameterError(f"unknown section [{section}]")
        names.append(name)
    if not names:
        raise ParameterError("no [algorithm.*] sections configured")
    specs = [_algorithm(parser, name) for name in names]
    if algorithms is not None:
        specs = [_algorithm(parser, name) for name in algorithms]

    with _naming_keys(SECTIONS):
        noise = AlphaStableParams(**fields["noise"]) if parser.has_section("noise") else None
        return SimConfig(**fields["channel"], **fields["run"], noise=noise,
                         algorithms=tuple(specs))


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
    """Write the learning curves to ``path`` as CSV.

    After the ``CSV_HEADER`` line, each row is ``algorithm,iteration,
    mse_db,trials_diverged`` with iterations counted from 1; curves are
    sorted by algorithm name. ``mse_db`` is written as ``repr`` of a Python
    float (shortest round-trip form, ``nan`` for a curve whose trials all
    diverged), and every line ends in ``\\n``. Rows go to the file curve by
    curve in blocks of 4096, so beside the curves the writer holds one
    curve's values as Python floats and one block of formatted rows.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for curve in sorted(curves, key=lambda c: c.algorithm):
            name, diverged = curve.algorithm, curve.trials_diverged
            # tolist gives Python floats: a numpy scalar's repr is np.float64(...)
            rows = (f"{name},{i},{value!r},{diverged}\n"
                    for i, value in enumerate(curve.mse_db.tolist(), start=1))
            # a write call per row would cost about 10% of the writer's time
            while block := "".join(islice(rows, 4096)):
                fh.write(block)


def _utc_now():
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def cmd_run(args):
    if args.workers < 1:
        raise ParameterError(f"--workers must be >= 1, got {args.workers}")
    # --seed, --trials and --iterations are named as their [run] keys
    run = {key: getattr(args, key) for key in SECTIONS["run"]
           if getattr(args, key, None) is not None}
    config = parse_config(args.config, run=run, algorithms=args.algorithms)

    outputs = (args.out, args.out + ".manifest")
    if os.path.realpath(args.config) in map(os.path.realpath, outputs):
        raise ParameterError(f"--out {args.out} would overwrite the config file {args.config}")
    # create both output files first, so an unwritable --out fails before the run
    for path in outputs:
        open(path, "w").close()

    # for the manifest: chunk_layout depends on the config and --workers
    # alone, so these are the chunks and pool that run_experiment runs
    chunks, processes = chunk_layout(config, args.workers)
    started = _utc_now()
    try:
        curves = run_experiment(config, workers=args.workers)
    except Exception as exc:  # noqa: BLE001 - surface anything as a runtime failure
        print(f"error: experiment failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finished = _utc_now()

    _write_curves_csv(args.out, curves)
    _write_manifest(args.out + ".manifest", config, tool_version=__version__,
                    config_path=args.config, output_path=args.out, started_utc=started,
                    finished_utc=finished, workers=args.workers, chunks=len(chunks),
                    processes=processes)

    dead = [c.algorithm for c in curves if c.trials_diverged == config.n_trials]
    if dead:
        print(f"error: all trials diverged for: {', '.join(dead)}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_validate_noise(args):
    params = AlphaStableParams(alpha=args.alpha, beta=args.beta,
                               gamma=args.gamma, delta=args.delta)
    if args.samples < 1:
        raise ParameterError(f"samples must be >= 1, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise ParameterError(f"samples must be <= {MAX_SAMPLES}, got {args.samples}")
    if args.seed < 0:
        raise ParameterError(f"seed must be >= 0, got {args.seed}")

    # the draws of sample(params, rng, size=n), streamed BLOCK at a time:
    # sample draws all of its uniforms before any exponential, and PCG64,
    # which default_rng always gives, spends one 64-bit output per uniform
    # double, so a second generator from the same seed, advanced by n,
    # yields the exponentials in the same order
    n = args.samples
    rng = np.random.default_rng(args.seed)
    ahead = np.random.default_rng(args.seed)
    ahead.bit_generator.advance(n)
    split = SimpleNamespace(uniform=rng.uniform, standard_exponential=ahead.standard_exponential)
    estimates = empirical_cf(sample(params, split, size=min(BLOCK, n - start))
                             for start in range(0, n, BLOCK))
    print(f"alpha={params.alpha} beta={params.beta} gamma={params.gamma} "
          f"delta={params.delta} samples={args.samples} seed={args.seed}")
    print(f"{'t':>6}  {'|empirical|':>12}  {'|analytic|':>12}  {'|error|':>10}")
    ok = True
    for t, empirical in zip(CF_GRID, estimates):
        analytic = characteristic_function(params, t)
        err = abs(empirical - analytic)
        ok &= err <= CF_TOLERANCE
        print(f"{t:6.2f}  {abs(empirical):12.6f}  {abs(analytic):12.6f}  {err:10.6f}")
    verdict = "PASS" if ok else "FAIL"
    print(f"verdict: {verdict} (tolerance {CF_TOLERANCE})")
    return EXIT_OK if ok else EXIT_RUNTIME


def cmd_template(args):
    with (contextlib.nullcontext(sys.stdout) if args.out is None
          else open(args.out, "w", newline="\n")) as fh:
        fh.write(TEMPLATE)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparselms",
        description="Sparse sign-LMS channel estimation under impulsive noise")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte-Carlo experiment")
    run.add_argument("--config", required=True, help="experiment config file")
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--seed", help="override [run] seed")
    run.add_argument("--trials", help="override [run] trials")
    run.add_argument("--iterations", help="override [run] iterations")
    run.add_argument("--algorithms", type=lambda text: [name.strip() for name in text.split(",")],
                     help="comma-separated algorithm names to run; "
                          "a name without a config section runs at its defaults")
    run.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    run.set_defaults(func=cmd_run)

    validate = sub.add_parser("validate-noise",
                              help="check the noise sampler against its characteristic function")
    validate.add_argument("--alpha", type=float, default=2.0)
    validate.add_argument("--beta", type=float, default=AlphaStableParams.beta)
    validate.add_argument("--gamma", type=float, default=AlphaStableParams.gamma)
    validate.add_argument("--delta", type=float, default=AlphaStableParams.delta)
    validate.add_argument("--samples", type=int, default=100000)
    validate.add_argument("--seed", type=int, default=0)
    validate.set_defaults(func=cmd_validate_noise)

    template = sub.add_parser("template", help="print the default config file")
    template.add_argument("--out", default=None, help="write to a file instead of stdout")
    template.set_defaults(func=cmd_template)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a full or closed stdout fails here, not at exit
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        # close a stdout that failed, or the interpreter's exit flush fails again
        try:
            sys.stdout.flush()
        except OSError:
            with contextlib.suppress(OSError):
                sys.stdout.close()
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
