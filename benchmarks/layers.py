"""The traced run: spans around calls into each sparselms module.

Spans are recorded here, in the benchmark, by replacing a module's reference
to a public function of another module with a timing wrapper for the length
of one measurement; the program itself is not edited.  Spans are kept in
memory (name, start, end, parent) and written out when the run ends.

A traced run of workload W does, in this process:

1. Probes that time batches of calls into each module's public functions
   at the workload's sizes (noise_validate uses the reference sizes).
2. The simulation probe on the short_trials config: serial against
   ``--workers 2`` (speed-up, identical results), pickled job and result
   sizes, the peak memory of the trial store and the aggregation time.
3. A traced companion command for the CLI path the workload does not take:
   a small ``validate-noise`` for the run workloads, a small serial ``run``
   of the short_trials config for noise_validate.
4. Until ``--seconds`` have passed since the start, the workload's command
   untraced and traced in alternation, so that the tracing overhead
   (traced minus untraced wall time) is measured.  The traced legs give the
   CLI metrics and the per-layer self times.
"""

import contextlib
import io
import pickle
import sys
import time
import tracemalloc
from array import array
from dataclasses import replace

import workloads as wl

ALGORITHMS = tuple(wl.REFERENCE_ALGORITHMS)
PENALTIES = ("za", "rza", "rl1", "lp")
# alpha, beta of the four sampler branches
SAMPLER_BRANCHES = {"sym": (1.2, 0.0), "alpha1": (1.0, 0.5), "skew": (1.2, 0.5),
                    "gauss": (2.0, 0.0)}

SAMPLE_DRAWS = 1 << 17
CF_POINTS = 100_000
PROBE_REPS = 3
STEP_CALLS = 1000
ATTRACTOR_CALLS = 2000
CHANNEL_CALLS = 200
INPUT_CALLS = 50
REALIZATIONS = 5
IPC_TRIALS = 8
STORE_TRIALS = 40
COMPANION_NOISE = wl.NoiseWorkload(name="companion_noise", alpha=1.2, beta=0.5,
                                   samples=1_000_000)
COMPANION_RUN_TRIALS = 100

UNITS = {f"stable.sample.ns_per_draw.{b}": "ns" for b in SAMPLER_BRANCHES}
UNITS.update({
    "stable.characteristic_function.ns_per_point": "ns",
    "cli.validate_noise.cf_check_s": "s",
    "cli.parse_config.ms": "ms",
    "cli.write.ms": "ms",
    "cli.csv.bytes": "bytes",
    "channel.regressor.ns_per_call": "ns",
    "channel.generate_channel.us_per_call": "us",
    "channel.generate_input.us_per_call": "us",
})
UNITS.update({f"filters.step.ns_per_update.{a}": "ns" for a in ALGORITHMS})
UNITS.update({f"filters.attractor.ns_per_call.{p}": "ns" for p in PENALTIES})
UNITS["filters.updates"] = "count"
UNITS["simulation.make_realization.ms_per_trial"] = "ms"
UNITS.update({f"simulation.run_trial.ms_per_trial.{a}": "ms" for a in ALGORITHMS})
UNITS.update({
    "simulation.workers.speedup": "ratio",
    "simulation.ipc.bytes_per_job": "bytes",
    "simulation.ipc.bytes_per_result": "bytes",
    "simulation.store.bytes": "bytes",
    "simulation.aggregate_s": "s",
    "trace.wall_untraced_s": "s",
    "trace.wall_traced_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
})


class Tracer:
    """In-memory spans: name id, start and end (perf_counter ns), parent."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = []

    def _open(self, name):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name):
        """Time the block; yields the span's index."""
        idx = self._open(name)
        t0 = time.perf_counter_ns()
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.start[idx] = t0
            self._stack.pop()

    def wrap(self, name, fn):
        open_, start, end, stack = self._open, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = open_(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
        return traced

    def durations(self, name):
        """Durations in ns of every span with this name, in order."""
        nid = self._ids.get(name)
        return [e - s for i, s, e in zip(self.name_id, self.start, self.end) if i == nid]

    def indices(self, name):
        nid = self._ids.get(name)
        return [k for k, i in enumerate(self.name_id) if i == nid]

    def child_time(self):
        """Per span, the summed duration of its direct children (ns)."""
        covered = [0] * len(self.start)
        for k, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[k] - self.start[k]
        return covered

    def self_times(self, roots):
        """Per span name: (count, total ns, self ns) over the subtrees of `roots`."""
        covered = self.child_time()
        inside = set(roots)
        out = {}
        for k, p in enumerate(self.parent):
            if k in inside or p in inside:
                inside.add(k)
                dur = self.end[k] - self.start[k]
                row = out.setdefault(self.names[self.name_id[k]], [0, 0, 0])
                row[0] += 1
                row[1] += dur
                row[2] += dur - covered[k]
        return out

    def save(self, path):
        import numpy as np
        np.savez_compressed(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                            start_ns=np.asarray(self.start), end_ns=np.asarray(self.end),
                            parent=np.asarray(self.parent))


@contextlib.contextmanager
def patched(tracer, targets):
    """Route module attributes through tracer spans; names absent are skipped."""
    saved = []
    try:
        for module, attr, name in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class Modules:
    """The sparselms modules, imported from the checkout's sources."""

    def __init__(self, src):
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        import numpy
        import sparselms.channel
        import sparselms.cli
        import sparselms.filters
        import sparselms.simulation
        import sparselms.stable
        self.np = numpy
        self.cli = sparselms.cli
        self.channel = sparselms.channel
        self.filters = sparselms.filters
        self.simulation = sparselms.simulation
        self.stable = sparselms.stable

    def command_targets(self):
        """Calls between modules on the path of a CLI command."""
        cli, sim = self.cli, self.simulation
        return [
            (cli, "parse_config", "cli.parse_config"),
            (cli, "run_experiment", "simulation.run_experiment"),
            (cli, "sample", "stable.sample"),
            (cli, "characteristic_function", "stable.characteristic_function"),
            (sim, "make_realization", "simulation.make_realization"),
            (sim, "generate_channel", "channel.generate_channel"),
            (sim, "generate_input", "channel.generate_input"),
            (sim, "sample", "stable.sample"),
            (sim, "regressor", "channel.regressor"),
            (sim, "step", "filters.step"),
            (self.filters, "attractor", "filters.attractor"),
        ]


def _call_main(mods, argv):
    """Run the CLI in this process; returns (exit code, stdout, wall_s)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = mods.cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - t0


class Checks:
    """Counts commands attempted and failed, with reasons and digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def record(self, label, problems, digest=None):
        self.attempted += 1
        if digest is not None:
            self.digests.setdefault(label, set()).add(digest)
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def _run_traced_command(mods, tracer, checks, label, args, check):
    with patched(tracer, mods.command_targets()):
        with tracer.span(f"cli.main.{args[0].replace('-', '_')}") as root:
            code, stdout, wall = _call_main(mods, args)
    _, digest, problems = check(code, stdout)
    checks.record(label, problems, digest)
    return wall, root


def _per_call(tracer, name, calls, scale=1.0):
    """Span durations of a batch probe as ns per call, divided by `scale`."""
    return [d / calls / scale for d in tracer.durations(name)]


def probe_stable(mods, tracer, seed):
    np, stable = mods.np, mods.stable
    out = {}
    for branch, (alpha, beta) in SAMPLER_BRANCHES.items():
        params = stable.AlphaStableParams(alpha=alpha, beta=beta)
        rng = np.random.default_rng(seed)
        stable.sample(params, rng, size=SAMPLE_DRAWS)  # warm-up
        for _ in range(PROBE_REPS):
            with tracer.span(f"probe.stable.sample.{branch}"):
                stable.sample(params, rng, size=SAMPLE_DRAWS)
        out[f"stable.sample.ns_per_draw.{branch}"] = _per_call(
            tracer, f"probe.stable.sample.{branch}", SAMPLE_DRAWS)
    params = stable.AlphaStableParams(alpha=1.2, beta=0.5)
    t = np.linspace(-5.0, 5.0, CF_POINTS)
    for _ in range(PROBE_REPS):
        with tracer.span("probe.stable.characteristic_function"):
            stable.characteristic_function(params, t)
    out["stable.characteristic_function.ns_per_point"] = _per_call(
        tracer, "probe.stable.characteristic_function", CF_POINTS)
    return out


def probe_channel_filters(mods, tracer, config, seed):
    """channel and filters probes at the probe config's N, K and T."""
    np, channel, filters, sim = mods.np, mods.channel, mods.filters, mods.simulation
    n, k, t_len = config.n_taps, config.sparsity, config.n_iterations
    rng = np.random.default_rng(seed)
    out = {}
    for _ in range(PROBE_REPS):
        with tracer.span("probe.channel.generate_channel"):
            for _ in range(CHANNEL_CALLS):
                channel.generate_channel(n, k, rng)
        with tracer.span("probe.channel.generate_input"):
            for _ in range(INPUT_CALLS):
                channel.generate_input(t_len, 1.0, rng)
    out["channel.generate_channel.us_per_call"] = _per_call(
        tracer, "probe.channel.generate_channel", CHANNEL_CALLS, 1e3)
    out["channel.generate_input.us_per_call"] = _per_call(
        tracer, "probe.channel.generate_input", INPUT_CALLS, 1e3)

    real = sim.make_realization(config, sim.derive_trial_seed(config.master_seed, 0))
    for _ in range(PROBE_REPS):
        with tracer.span("probe.channel.regressor"):
            for i in range(t_len):
                channel.regressor(real.signal, i, n)
    out["channel.regressor.ns_per_call"] = _per_call(
        tracer, "probe.channel.regressor", t_len)

    # noiseless desired signal, so that no rule diverges inside the probe
    calls = min(STEP_CALLS, t_len)
    xs = [channel.regressor(real.signal, i, n) for i in range(calls)]
    ds = [float(real.channel.taps @ x) for x in xs]
    for alg in ALGORITHMS:
        spec = filters.AlgorithmSpec.from_name(alg)
        for _ in range(PROBE_REPS):
            state = filters.FilterState.zeros(n)
            with tracer.span(f"probe.filters.step.{alg}"):
                for x, d in zip(xs, ds):
                    state = filters.step(spec, state, x, d)
        out[f"filters.step.ns_per_update.{alg}"] = _per_call(
            tracer, f"probe.filters.step.{alg}", calls)

    w = real.channel.taps + 0.01 * rng.standard_normal(n)
    w_prev = 0.9 * w
    for pen in PENALTIES:
        spec = filters.AlgorithmSpec.from_name(f"slms-{pen}")
        for _ in range(PROBE_REPS):
            with tracer.span(f"probe.filters.attractor.{pen}"):
                for _ in range(ATTRACTOR_CALLS):
                    filters.attractor(spec, w, w_prev)
        out[f"filters.attractor.ns_per_call.{pen}"] = _per_call(
            tracer, f"probe.filters.attractor.{pen}", ATTRACTOR_CALLS)
    return out


def probe_trials(mods, tracer, config, trials):
    """make_realization and run_trial per algorithm over the first trials;
    counts the filters.step calls run_trial makes."""
    filters, sim = mods.filters, mods.simulation
    seeds = [sim.derive_trial_seed(config.master_seed, m) for m in range(max(trials, REALIZATIONS))]
    out = {}
    for s in seeds[:REALIZATIONS]:
        with tracer.span("probe.simulation.make_realization"):
            sim.make_realization(config, s)
    out["simulation.make_realization.ms_per_trial"] = _per_call(
        tracer, "probe.simulation.make_realization", 1, 1e6)

    configured = {spec.name: spec for spec in config.algorithms}
    updates = [0]
    real_step = sim.step

    def counted(*args, **kwargs):
        updates[0] += 1
        return real_step(*args, **kwargs)
    sim.step = counted
    try:
        for alg in ALGORITHMS:
            spec = configured.get(alg) or filters.AlgorithmSpec.from_name(alg)
            for s in seeds[:trials]:
                with tracer.span(f"probe.simulation.run_trial.{alg}"):
                    sim.run_trial(config, spec, s)
            out[f"simulation.run_trial.ms_per_trial.{alg}"] = _per_call(
                tracer, f"probe.simulation.run_trial.{alg}", 1, 1e6)
    finally:
        sim.step = real_step
    out["filters.updates"] = updates[0]
    return out


def _same_curves(np, a, b):
    return (len(a) == len(b) and all(
        x.algorithm == y.algorithm and x.trials_diverged == y.trials_diverged
        and np.array_equal(x.mse_db, y.mse_db, equal_nan=True) for x, y in zip(a, b)))


def probe_simulation(mods, tracer, checks, seed, workdir):
    """Worker scaling, IPC sizes, trial store and aggregation on short_trials."""
    np, sim = mods.np, mods.simulation
    short = wl.WORKLOADS["short_trials"]
    path = workdir / "probe-short.ini"
    path.write_text(short.config_text(short.master_seed(seed)))
    config = mods.cli.parse_config(path)
    out = {}

    # serial leg: one span per trial (the pool's unit of work) to split the
    # experiment into trial time and aggregation time
    with patched(tracer, [(sim, "_trial_worker", "simulation.trial")]):
        with tracer.span("probe.simulation.serial") as root:
            serial = sim.run_experiment(config, workers=1)
    serial_ns = tracer.end[root] - tracer.start[root]
    trial_ns = sum(tracer.end[k] - tracer.start[k] for k in tracer.indices("simulation.trial")
                   if tracer.parent[k] == root)
    out["simulation.aggregate_s"] = (serial_ns - trial_ns) / 1e9

    with tracer.span("probe.simulation.workers2") as root:
        parallel = sim.run_experiment(config, workers=2)
    out["simulation.workers.speedup"] = serial_ns / (tracer.end[root] - tracer.start[root])
    checks.record("workers 1 vs 2", [] if _same_curves(np, serial, parallel)
                  else ["--workers 2 curves differ from serial"])

    jobs, results = [], []

    class RecordingPool(sim.ProcessPoolExecutor):
        """Records the pickled size of every submitted call and its result."""

        def submit(self, fn, /, *args, **kwargs):
            jobs.append(len(pickle.dumps((fn, args, kwargs))))
            future = super().submit(fn, *args, **kwargs)
            future.add_done_callback(
                lambda f: results.append(len(pickle.dumps(f.result())))
                if f.exception() is None else None)
            return future

    real_pool = sim.ProcessPoolExecutor
    sim.ProcessPoolExecutor = RecordingPool
    try:
        sim.run_experiment(replace(config, n_trials=IPC_TRIALS), workers=2)
    finally:
        sim.ProcessPoolExecutor = real_pool
    out["simulation.ipc.bytes_per_job"] = jobs
    out["simulation.ipc.bytes_per_result"] = results

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sim.run_experiment(replace(config, n_trials=STORE_TRIALS), workers=1)
        out["simulation.store.bytes"] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out


def traced_run(workload, seed, seconds, workdir, src, trace_path):
    """Per-layer metrics for one workload; see the module docstring."""
    mods = Modules(src)
    tracer = Tracer()
    checks = Checks()
    deadline = time.perf_counter() + seconds
    metrics = {}

    args, check, csv_path = wl.prepare(workload, seed, workdir)
    if workload.kind == "run":
        companion_args, companion_check, _ = wl.prepare(COMPANION_NOISE, seed, workdir)
        probe_workload = workload
    else:
        short = replace(wl.WORKLOADS["short_trials"], trials=COMPANION_RUN_TRIALS, workers=1)
        companion_args, companion_check, csv_path = wl.prepare(short, seed, workdir,
                                                               checked=False)
        probe_workload = wl.WORKLOADS["reference"]
    probe_config_path = workdir / "probe.ini"
    probe_config_path.write_text(probe_workload.config_text(probe_workload.master_seed(seed)))
    probe_config = mods.cli.parse_config(probe_config_path)

    phases = {
        "phase.stable": lambda: probe_stable(mods, tracer, seed),
        "phase.channel_filters": lambda: probe_channel_filters(mods, tracer, probe_config, seed),
        "phase.trials": lambda: probe_trials(mods, tracer, probe_config,
                                             probe_workload.probe_trials),
        "phase.simulation": lambda: probe_simulation(mods, tracer, checks, seed, workdir),
    }
    phase_s = {}
    for name, probe in phases.items():
        with tracer.span(name) as idx:
            metrics.update(probe())
        phase_s[name] = (tracer.end[idx] - tracer.start[idx]) / 1e9

    _, companion_root = _run_traced_command(mods, tracer, checks, "companion",
                                            companion_args, companion_check)
    command_roots = [companion_root]
    untraced, traced = [], []
    while not traced or time.perf_counter() < deadline:
        code, stdout, wall = _call_main(mods, args)
        _, digest, problems = check(code, stdout)
        checks.record(workload.name, problems, digest)
        untraced.append(wall)
        wall, root = _run_traced_command(mods, tracer, checks, workload.name, args, check)
        traced.append(wall)
        command_roots.append(root)

    # CLI layer from the traced commands: parse time, the run command's own
    # time outside parse_config and run_experiment (argument handling and
    # writing), and validate-noise outside sampling
    covered = tracer.child_time()
    run_roots = tracer.indices("cli.main.run")
    noise_roots = tracer.indices("cli.main.validate_noise")
    metrics["cli.parse_config.ms"] = _per_call(tracer, "cli.parse_config", 1, 1e6)
    metrics["cli.write.ms"] = [(tracer.end[k] - tracer.start[k] - covered[k]) / 1e6
                               for k in run_roots]
    metrics["cli.csv.bytes"] = csv_path.stat().st_size
    sample_ns = {}
    for k in tracer.indices("stable.sample"):
        parent = tracer.parent[k]
        sample_ns[parent] = sample_ns.get(parent, 0) + tracer.end[k] - tracer.start[k]
    metrics["cli.validate_noise.cf_check_s"] = [
        (tracer.end[k] - tracer.start[k] - sample_ns.get(k, 0)) / 1e9 for k in noise_roots]

    metrics["trace.wall_untraced_s"] = untraced
    metrics["trace.wall_traced_s"] = traced
    metrics["trace.overhead_s"] = [t - u for t, u in zip(traced, untraced)]
    metrics["trace.spans"] = len(tracer.start)

    for label, digests in checks.digests.items():
        if len(digests) > 1:
            checks.problems.append(f"{label}: {len(digests)} distinct output digests")

    tracer.save(trace_path)
    breakdown = tracer.self_times(command_roots[1:])
    wall_ns = sum(tracer.end[k] - tracer.start[k] for k in command_roots[1:])
    lines = [f"trace.legs = {len(traced)} traced, {len(untraced)} untraced"]
    for name, (count, total, own) in sorted(breakdown.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"self {name}: {own / 1e6:.1f} ms self ({100 * own / wall_ns:.1f}%), "
                     f"{total / 1e6:.1f} ms total, {count} calls")
    lines += [f"{name} = {secs:.3f} s" for name, secs in phase_s.items()]
    lines.append(f"spans written to {trace_path.name}")
    missing = [name for name in UNITS if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return {
        "figures": {name: (metrics[name], unit) for name, unit in UNITS.items()},
        "checks": {"commands": checks.attempted, "failed": checks.failed},
        "attempted": checks.attempted,
        "failed": checks.failed,
        "correct": checks.failed == 0 and not checks.problems,
        "problems": checks.problems,
        "lines": lines,
        "self_times_ns": breakdown,
    }
