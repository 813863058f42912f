import ast
import configparser
import contextlib
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sparselms
from conftest import ALL_NAMES, BLOCK_SIZES, SPAN
from sparselms import (AlgorithmSpec, AlphaStableParams, LearningCurve, ParameterError,
                       SimConfig, cli, simulation, stable)
from sparselms.channel import INPUT_KINDS
from sparselms.cli import parse_config
from sparselms.filters import PENALTY_PARAMS
from sparselms.stable import BLOCK, empirical_cf, sample

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


@pytest.fixture
def template_path(tmp_path):
    path = tmp_path / "template.ini"
    path.write_text(cli.TEMPLATE)
    return str(path)


MINI_CONFIG = """\
[channel]
n_taps = 16
sparsity = 4

[noise]
alpha = 1.2

[run]
iterations = 40
trials = 3
snr_db = 10.0
seed = 5

[algorithm.slms]

[algorithm.slms-za]
lambda = 2e-4
"""


@pytest.fixture
def mini_path(tmp_path):
    path = tmp_path / "mini.ini"
    path.write_text(MINI_CONFIG)
    return str(path)


def read_manifest(out):
    """The manifest of the run that wrote ``out``, read as a config file."""
    manifest = configparser.ConfigParser(interpolation=None)
    with open(f"{out}.manifest", encoding="utf-8") as fh:
        manifest.read_file(fh)
    return manifest


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# AlgorithmSpec field -> its valid values
_HYPERPARAMETERS = {"mu": _POSITIVE, "eps": _POSITIVE, "delta": _POSITIVE,
                    "rho": st.floats(min_value=0.0, allow_infinity=False),
                    "p": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)}


@st.composite
def sim_configs(draw):
    """Valid SimConfigs: with or without noise, any non-empty ordered subset
    of the algorithms, any hyperparameters and either input kind."""
    specs = []
    for name in draw(st.lists(st.sampled_from(ALL_NAMES), min_size=1, unique=True)):
        params = ("mu", *PENALTY_PARAMS[AlgorithmSpec.from_name(name).penalty])
        specs.append(AlgorithmSpec.from_name(
            name, **{field: draw(_HYPERPARAMETERS[field]) for field in params}))
    # gamma within 1e10 of 1 and snr_db within 50 dB keep the sample scale
    # finite and positive down to alpha = 0.1
    noise = draw(st.none() | st.builds(
        AlphaStableParams, alpha=st.floats(0.1, 2.0), beta=st.floats(-1.0, 1.0),
        gamma=st.floats(1e-10, 1e10), delta=st.floats(allow_nan=False, allow_infinity=False)))
    n_taps = draw(st.integers(1, 512))
    return SimConfig(n_taps=n_taps, sparsity=draw(st.integers(1, n_taps)),
                     n_iterations=draw(st.integers(1, 10**9)),
                     n_trials=draw(st.integers(1, 10**9)), snr_db=draw(st.floats(-50.0, 50.0)),
                     noise=noise, algorithms=tuple(specs),
                     master_seed=draw(st.integers(0, 2**128)),
                     input_kind=draw(st.sampled_from(INPUT_KINDS)))


class TestParseConfig:
    def test_template_matches_reference_parameterization(self, template_path):
        config = parse_config(template_path)
        assert config.n_taps == 128
        assert config.sparsity == 8
        assert config.n_iterations == 3000
        assert config.n_trials == 100
        assert config.snr_db == 10.0
        assert (config.noise.alpha, config.noise.beta,
                config.noise.gamma, config.noise.delta) == (1.2, 0.0, 1.0, 0.0)
        specs = {s.name: s for s in config.algorithms}
        assert set(specs) == {"lms", "slms", "lms-za", "slms-za", "lms-rza",
                              "slms-rza", "lms-rl1", "slms-rl1", "lms-lp", "slms-lp"}
        assert all(s.mu == 0.005 for s in specs.values())
        assert specs["slms-za"].rho == 2e-4
        assert specs["slms-rza"].rho == 2e-3
        assert specs["slms-rza"].eps == 20.0
        assert specs["slms-rl1"].rho == 5e-5
        assert specs["slms-rl1"].delta == 0.05
        assert specs["slms-lp"].rho == 5e-6
        assert specs["slms-lp"].eps == 0.05
        assert specs["slms-lp"].p == 0.5
        for name, spec in specs.items():
            assert spec == AlgorithmSpec.from_name(name)

    def test_omitted_p_defaults(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[algorithm.slms-lp]\nlambda = 1e-5\n")
        config = parse_config(str(path))
        assert config.algorithms[0].p == 0.5
        assert config.algorithms[0].rho == 1e-5

    # every key of another penalty, in a section of each penalty
    @pytest.mark.parametrize("name,key", [
        ("lms", "lambda"), ("slms", "eps"), ("lms", "delta"), ("slms", "p"),
        ("slms-za", "eps"), ("lms-za", "delta"), ("slms-za", "p"),
        ("slms-rza", "delta"), ("lms-rza", "p"),
        ("lms-rl1", "eps"), ("slms-rl1", "p"),
        ("slms-lp", "delta"),
    ])
    def test_foreign_key_exits_2_naming_it(self, tmp_path, capsys, name, key):
        path = tmp_path / "c.ini"
        path.write_text(f"[run]\niterations = 20\ntrials = 1\n\n[algorithm.{name}]\n{key} = 0.5\n")
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert f"unknown key {key!r} in section [algorithm.{name}]" in capsys.readouterr().err

    # bad input to run: the config file's text (bytes as written), extra run
    # arguments, and the start of the message; {path} is the file's path
    @pytest.mark.parametrize("text,argv,message", [
        ("[channel]\nn_taps = 8\nspicyness = 3\n\n[algorithm.slms]\n", [],
         "unknown key 'spicyness' in section [channel]"),
        ("[bogus]\nx = 1\n\n[algorithm.slms]\n", [], "unknown section [bogus]"),
        # configparser would otherwise copy [DEFAULT] keys into every section
        ("[DEFAULT]\nseed = 3\n\n[algorithm.slms]\n", [], "unknown section [DEFAULT]"),
        ("[algorithm.super-lms]\nmu = 0.1\n", [], "unknown algorithm name 'super-lms'"),
        (b"[algorithm.slms]\n# caf\xe9\n", [], "cannot read config file {path}: "),
        ("this is not an ini file\n", [], "malformed config file {path}: "),
        ("[channel]\nn_taps = 8\n", [], "no [algorithm.*] sections configured"),
        # a section --algorithms leaves out is still validated
        (MINI_CONFIG + "\n[algorithm.lms]\nmu = -1\n", ["--algorithms", "slms"],
         "bad value for 'mu' in [algorithm.lms]"),
        # a flag is read as its [run] key, with the file's messages
        (MINI_CONFIG, ["--trials", "0"], "bad value for 'trials' in [run]"),
        (MINI_CONFIG, ["--iterations", "0"], "bad value for 'iterations' in [run]"),
        (MINI_CONFIG, ["--seed", "-2"], "bad value for 'seed' in [run]"),
        (MINI_CONFIG, ["--trials", "abc"], "bad value for 'trials' in [run]: 'abc'"),
        # checked by chunk_layout, with run_experiment's message
        (MINI_CONFIG, ["--workers", "0"], "workers must be >= 1, got 0"),
        (MINI_CONFIG, ["--workers", "-3"], "workers must be >= 1, got -3"),
        # snr_db scales gamma to 0, inf or a sample scale gamma**(1/alpha)
        # that underflows
        *((f"[noise]\n{noise}\n\n[run]\niterations = 20\ntrials = 1\nsnr_db = {snr_db}\n\n"
           "[algorithm.slms]\n", [], "bad value for 'snr_db' in [run]")
          for noise, snr_db in [("alpha = 1.2", "4000"), ("alpha = 1.2", "-4000"),
                                ("gamma = 1e300", "-100"), ("alpha = 0.1", "400")]),
        # the sampler's scale gamma**(1/alpha) overflows before any SNR scaling
        *((f"[noise]\n{noise}\n\n[run]\niterations = 20\ntrials = 1\n\n[algorithm.slms]\n",
           [], "bad value for 'gamma' in [noise]")
          for noise in ["alpha = 0.1\ngamma = 1e300", "alpha = 0.5\ngamma = 1e200"]),
        # the signal power 2 * gamma overflows at alpha = 2
        ("[noise]\nalpha = 2.0\ngamma = 1e308\n\n[run]\niterations = 20\ntrials = 1\n\n"
         "[algorithm.slms]\n", [], "bad value for 'gamma' in [noise]: gamma = 1e+308 gives "
         "the signal power inf at alpha = 2; it must be finite\n"),
    ], ids=["unknown-key", "unknown-section", "default-section", "unknown-algorithm",
            "non-utf8", "malformed", "no-algorithms", "unselected-section",
            "flag-trials-0", "flag-iterations-0", "flag-seed--2", "flag-trials-abc",
            "workers-0", "workers--3", "snr4000", "snr-4000", "snr-100-gamma1e300",
            "snr400-alpha0.1", "scale-alpha0.1-gamma1e300", "scale-alpha0.5-gamma1e200",
            "power-alpha2-gamma1e308"])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, text, argv, message):
        path = tmp_path / "c.ini"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        out = tmp_path / "r.csv"
        code = cli.main(["run", "--config", str(path), "--out", str(out), *argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(path=path)}")
        # bad input is rejected before the output files are created
        assert not out.exists()
        # a message names config keys, never the fields they set
        for keys in cli.SECTIONS.values():
            for key, field in keys.items():
                assert key == field or field not in err, field

    def test_omitted_keys_take_the_templates_values(self, template_path, tmp_path):
        template = parse_config(template_path)
        path = tmp_path / "c.ini"
        path.write_text("[algorithm.slms]\n")
        config = parse_config(str(path))
        assert config.master_seed == 1
        assert replace(config, noise=template.noise, algorithms=template.algorithms) == template
        # an empty [noise] section gives the template's noise
        path.write_text("[noise]\n\n[algorithm.slms]\n")
        assert replace(parse_config(str(path)), algorithms=template.algorithms) == template

    @given(config=sim_configs())
    def test_reads_back_the_manifest_of_any_config(self, tmp_path_factory, config):
        path = tmp_path_factory.mktemp("manifest") / "r.csv.manifest"
        with path.open("w", newline="\n") as fh:
            cli._write_manifest(fh, config, tool_version=sparselms.__version__, workers=1)
        assert parse_config(str(path)) == config

    def test_manifest_section_is_skipped(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(MINI_CONFIG)
        config = parse_config(str(path))
        # neither a [run] key nor an unknown key counts in [manifest]
        path.write_text("[manifest]\nseed = 3\nspicyness = 3\n\n" + MINI_CONFIG)
        assert parse_config(str(path)) == config

    # an editor may save UTF-8 with a byte-order mark; the file reads the same
    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(MINI_CONFIG)
        config = parse_config(str(path))
        path.write_bytes(b"\xef\xbb\xbf" + MINI_CONFIG.encode())
        assert parse_config(str(path)) == config

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParameterError, match="cannot read config file"):
            parse_config(str(tmp_path / "nope.ini"))

    def test_missing_noise_section_means_no_noise(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[algorithm.slms]\n")
        assert parse_config(str(path)).noise is None


class TestSections:
    """``cli.SECTIONS`` against the fields of the objects it configures."""

    def test_every_field_has_exactly_one_key(self):
        owners = {"channel": SimConfig, "noise": AlphaStableParams, "run": SimConfig}
        assert set(cli.SECTIONS) == set(owners)
        for cls in (SimConfig, AlphaStableParams):
            mapped = sorted(field for name, keys in cli.SECTIONS.items()
                            if owners[name] is cls for field in keys.values())
            assert mapped == sorted(f.name for f in fields(cls)
                                    if f.name not in ("noise", "algorithms")), cls.__name__

    def test_reference_values_are_int_float_or_str(self):
        for name, items in cli._sections(cli._REFERENCE):
            for key, value in items:
                assert type(value) in (int, float, str), f"[{name}] {key}"


# a bad value of each config key: _naming_keys names the key of the field a
# library message begins with
BAD_VALUES = [
    ("channel", "n_taps", "many"), ("channel", "n_taps", "0"), ("channel", "sparsity", "0"),
    ("noise", "alpha", "heavy"), ("noise", "alpha", "0.05"), ("noise", "alpha", "3.0"),
    ("noise", "beta", "2"), ("noise", "gamma", "inf"), ("noise", "delta", "inf"),
    ("run", "iterations", "1e3"), ("run", "trials", "0"), ("run", "seed", "-1"),
    ("run", "snr_db", "nan"), ("run", "input", "morse"),
    ("algorithm.slms", "mu", "fast"), ("algorithm.slms", "mu", "-1"),
    # lambda, the one key that differs from its field's name (rho)
    ("algorithm.slms-za", "lambda", "nan"),
    ("algorithm.slms-rza", "eps", "0"), ("algorithm.slms-rl1", "delta", "-1"),
    ("algorithm.slms-lp", "p", "1.5"),
]


class TestCmdRun:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nope.ini"
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {path}: ")

    def test_late_divergence_is_counted_not_averaged_as_inf(self, tmp_path, capsys):
        # lms-za at mu = 0.8 overflows its squared error in every trial,
        # 75-290 updates before any coefficient is non-finite
        config = tmp_path / "late.ini"
        config.write_text(
            "[channel]\nn_taps = 32\nsparsity = 4\n\n[noise]\nalpha = 1.0\n\n"
            "[run]\niterations = 600\ntrials = 20\nsnr_db = 0.0\nseed = 7\n"
            "input = binary\n\n[algorithm.lms-za]\nmu = 0.8\n\n[algorithm.slms-za]\n")
        out = tmp_path / "r.csv"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 3
        assert "all trials diverged for: lms-za" in capsys.readouterr().err
        text = out.read_text()
        assert "inf" not in text
        diverged = {line.split(",")[0]: line.split(",")[3]
                    for line in text.splitlines()[1:]}
        assert diverged == {"lms-za": "20", "slms-za": "0"}

    def test_row_count_and_header(self, mini_path, tmp_path):
        out = str(tmp_path / "r.csv")
        code = cli.main(["run", "--config", mini_path, "--out", out,
                         "--trials", "2", "--iterations", "10"])
        assert code == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "algorithm,iteration,mse_db,trials_diverged"
        assert len(lines) == 1 + 2 * 10

    def test_sorted_and_filtered(self, template_path, tmp_path):
        out = str(tmp_path / "r.csv")
        code = cli.main(["run", "--config", template_path, "--out", out,
                         "--trials", "2", "--iterations", "5",
                         "--algorithms", "slms-za,slms"])
        assert code == 0
        names = [line.split(",")[0] for line in Path(out).read_text().splitlines()[1:]]
        assert names == ["slms"] * 5 + ["slms-za"] * 5

    def test_seed_override_changes_output(self, mini_path, tmp_path):
        out1, out2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
        assert cli.main(["run", "--config", mini_path, "--out", out1]) == 0
        assert cli.main(["run", "--config", mini_path, "--out", out2, "--seed", "6"]) == 0
        assert Path(out1).read_bytes() != Path(out2).read_bytes()

    def test_manifest_records_resolved_config(self, mini_path, tmp_path):
        out = str(tmp_path / "r.csv")
        assert cli.main(["run", "--config", mini_path, "--out", out,
                         "--trials", "2", "--seed", "9"]) == 0
        manifest = read_manifest(out)
        assert manifest.sections()[0] == "manifest"
        facts = manifest["manifest"]
        assert list(facts) == ["tool_version", "config_path", "output_path", "started_utc",
                               "finished_utc", "workers", "chunks", "processes"]
        assert facts["tool_version"] == sparselms.__version__
        assert (facts["config_path"], facts["output_path"]) == (mini_path, out)
        started, finished = (datetime.strptime(facts[key], "%Y-%m-%dT%H:%M:%S.%fZ")
                             for key in ("started_utc", "finished_utc"))
        assert started <= finished
        assert (manifest["run"]["trials"], manifest["run"]["seed"]) == ("2", "9")
        assert manifest["algorithm.slms-za"]["lambda"] == "0.0002"

    def test_manifest_records_the_processes_used(self, mini_path, tmp_path, monkeypatch,
                                                 recording_pool):
        # 40 trials in chunks of 16 make 3 chunks: --workers 4 on 3 CPUs
        # starts 3 processes, one chunk each
        monkeypatch.setattr(simulation, "_CHUNK_VALUES", 0)
        monkeypatch.setattr(simulation, "_CPUS", 3)
        # the affinity drops to one CPU after import, as it may during a
        # run: the manifest still names what ran
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial, pooled = str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
        for out, workers in ((serial, "1"), (pooled, "4")):
            assert cli.main(["run", "--config", mini_path, "--out", out, "--trials", "40",
                             "--iterations", "20", "--workers", workers]) == 0
        assert recording_pool == [3]
        assert Path(serial).read_bytes() == Path(pooled).read_bytes()
        for out, workers, processes in ((pooled, "4", "3"), (serial, "1", "1")):
            facts = read_manifest(out)["manifest"]
            assert [facts[key] for key in ("workers", "chunks", "processes")] == [
                workers, "3", processes]

    def test_manifest_without_noise_has_no_noise_section(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\niterations = 5\ntrials = 1\n\n[algorithm.slms]\n")
        out = str(tmp_path / "r.csv")
        assert cli.main(["run", "--config", str(path), "--out", out]) == 0
        manifest = read_manifest(out)
        assert manifest.sections() == ["manifest", "channel", "run", "algorithm.slms"]
        # no [noise] section is how a config file says "no noise"
        assert parse_config(f"{out}.manifest").noise is None

    def test_manifest_records_every_template_key_by_section(self, template_path, tmp_path):
        out = str(tmp_path / "r.csv")
        assert cli.main(["run", "--config", template_path, "--out", out,
                         "--trials", "1", "--iterations", "5"]) == 0
        manifest = read_manifest(out)
        template = configparser.ConfigParser(interpolation=None)
        template.read_string(cli.TEMPLATE)
        template["run"].update(trials="1", iterations="5")
        assert manifest.sections() == ["manifest", *template.sections()]
        for section in template.sections():
            assert dict(manifest[section]) == dict(template[section]), section

    def test_rerunning_the_manifest_writes_the_same_bytes(self, mini_path, tmp_path):
        out, again = str(tmp_path / "r.csv"), str(tmp_path / "again.csv")
        assert cli.main(["run", "--config", mini_path, "--out", out, "--trials", "2",
                         "--seed", "9", "--algorithms", "slms-za,lms-lp"]) == 0
        assert cli.main(["run", "--config", f"{out}.manifest", "--out", again]) == 0
        assert Path(again).read_bytes() == Path(out).read_bytes()
        first, second = read_manifest(out), read_manifest(again)
        assert second["manifest"]["config_path"] == f"{out}.manifest"
        assert first.sections() == second.sections()
        for section in first.sections()[1:]:
            assert dict(first[section]) == dict(second[section]), section

    def test_manifest_lists_each_algorithms_keys(self, template_path, tmp_path):
        out = str(tmp_path / "r.csv")
        assert cli.main(["run", "--config", template_path, "--out", out,
                         "--trials", "1", "--iterations", "5"]) == 0
        manifest = read_manifest(out)
        keys = {section.removeprefix("algorithm."): list(manifest[section])
                for section in manifest.sections() if section.startswith("algorithm.")}
        plain, za, rza, rl1, lp = (["mu"], ["mu", "lambda"], ["mu", "lambda", "eps"],
                                   ["mu", "lambda", "delta"], ["mu", "lambda", "eps", "p"])
        assert keys == {"lms": plain, "slms": plain, "lms-za": za, "slms-za": za,
                        "lms-rza": rza, "slms-rza": rza, "lms-rl1": rl1, "slms-rl1": rl1,
                        "lms-lp": lp, "slms-lp": lp}

    @pytest.mark.parametrize("names,message", [
        pytest.param("slms,slms", "error: algorithms must not repeat a name, "
                     "got ['slms', 'slms']\n", id="slms,slms-duplicate"),
        (",", "unknown algorithm name ''"),
        ("slms-l0", "unknown algorithm name 'slms-l0'")])
    def test_bad_algorithm_selection_exits_2(self, mini_path, tmp_path, capsys,
                                             names, message):
        code = cli.main(["run", "--config", mini_path, "--out", str(tmp_path / "r.csv"),
                         "--algorithms", names])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_selected_algorithms_keep_their_sections(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(MINI_CONFIG.replace("lambda = 2e-4", "mu = 0.01\nlambda = 1e-3")
                        + "\n[algorithm.lms]\nmu = 0.002\n")
        out = str(tmp_path / "r.csv")
        assert cli.main(["run", "--config", str(path), "--out", out,
                         "--algorithms", "lms-za,slms-za"]) == 0
        manifest = read_manifest(out)
        algorithms = [(section, list(manifest[section].items()))
                      for section in manifest.sections() if section.startswith("algorithm.")]
        # in flag order: lms-za has no section and runs at its defaults
        assert algorithms == [
            ("algorithm.lms-za", [("mu", "0.005"), ("lambda", "0.0002")]),
            ("algorithm.slms-za", [("mu", "0.01"), ("lambda", "0.001")])]

    @pytest.mark.parametrize("section,key,value", BAD_VALUES)
    def test_bad_value_exits_2_naming_key_and_section(self, tmp_path, capsys,
                                                      section, key, value):
        config = configparser.ConfigParser()
        config.read_dict({"channel": {}, "noise": {}, "run": {"iterations": 20, "trials": 1},
                          "algorithm.slms": {}})
        config.read_dict({section: {key: value}})
        path = tmp_path / "c.ini"
        with path.open("w") as fh:
            config.write(fh)
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert f"bad value for {key!r} in [{section}]" in capsys.readouterr().err

    def test_bad_values_cover_every_key(self):
        # an [algorithm.*] key counts once, whichever algorithm's section has it
        def keys(pairs):
            return {(section.partition(".")[0], key) for section, key in pairs}

        assert keys((section, key) for section, key, _ in BAD_VALUES) == keys(
            (name, key) for name, items in cli._sections(cli._REFERENCE) for key, _ in items)

    # an algorithm section's reader messages are printed as they are, and a
    # library check is named by its key, neither as "invalid configuration"
    @pytest.mark.parametrize("line,message", [
        ("mu = fast", "bad value for 'mu' in [algorithm.slms]: 'fast'"),
        ("lambda = 1", "unknown key 'lambda' in section [algorithm.slms]"),
        ("mu = -1", "bad value for 'mu' in [algorithm.slms]: "
                    "mu must be finite and positive, got -1.0"),
    ], ids=["mu-type", "foreign-key", "mu-range"])
    def test_algorithm_section_error_is_the_whole_message(self, tmp_path, capsys,
                                                          line, message):
        path = tmp_path / "c.ini"
        path.write_text(f"[algorithm.slms]\n{line}\n")
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unwritable_out_exits_4(self, mini_path, tmp_path, capsys, monkeypatch):
        # the output files are created before the run, so the run never starts
        def run_experiment(*args, **kwargs):
            pytest.fail("run_experiment called with an unwritable --out")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        code = cli.main(["run", "--config", mini_path,
                         "--out", str(tmp_path / "no" / "dir" / "r.csv")])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: cannot write output: ")

    # the CSV, or its manifest, on the config file itself, spelled another
    # way or reached through a link, made by ``make`` and named ``link``
    @pytest.mark.parametrize("name,out,link,make", [
        ("c.ini", "./c.ini", None, None), ("r.csv.manifest", "./r.csv", None, None),
        ("c.ini", "r.csv", "r.csv", os.link), ("c.ini", "r.csv", "r.csv.manifest", os.link),
        ("c.ini", "r.csv", "r.csv", os.symlink),
    ], ids=["csv", "manifest", "csv-hard-link", "manifest-hard-link", "csv-symlink"])
    def test_out_naming_the_config_exits_2(self, tmp_path, capsys, name, out, link, make):
        path = tmp_path / name
        path.write_text(MINI_CONFIG)
        made = [path]
        if make is not None:
            made.append(tmp_path / link)
            try:
                make(path, made[-1])
            except OSError as exc:
                pytest.skip(f"cannot make the link: {exc}")
        out = f"{tmp_path}/{out}"
        assert cli.main(["run", "--config", str(path), "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: --out {out} would overwrite the config file {path}\n")
        assert path.read_text() == MINI_CONFIG
        assert sorted(tmp_path.iterdir()) == sorted(made)

    # a line break in a path would break its line of the manifest; the
    # --out row is a path that would add a second [run] section
    @pytest.mark.parametrize("option,name", [("--config", "c\r.ini"),
                                             ("--out", "odd\n[run]\ntrials = 7\nname.csv")],
                             ids=["config", "out"])
    def test_line_break_in_a_path_exits_2(self, tmp_path, capsys, option, name):
        paths = {"--config": tmp_path / "c.ini", "--out": tmp_path / "r.csv"}
        paths[option] = tmp_path / name
        paths["--config"].write_text(MINI_CONFIG)
        assert cli.main(["run", *(str(arg) for pair in paths.items() for arg in pair)]) == 2
        assert capsys.readouterr().err == (
            f"error: {option} must not contain a line break, got {str(paths[option])!r}\n")
        assert sorted(tmp_path.iterdir()) == [paths["--config"]]

    def test_experiment_failure_exits_3_leaving_empty_outputs(self, mini_path, tmp_path,
                                                              capsys, monkeypatch):
        def run_experiment(*args, **kwargs):
            raise RuntimeError("pool broke")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        out = tmp_path / "r.csv"
        code = cli.main(["run", "--config", mini_path, "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "error: experiment failed: pool broke\n"
        assert out.read_bytes() == b""
        assert Path(f"{out}.manifest").read_bytes() == b""

    # a named pipe takes the CSV as a stream: a run that opened it twice
    # would give its reader end of file at the first close, then wait in the
    # second open for a reader for good, so the run goes to a subprocess
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_named_pipe_as_out_gets_the_whole_csv(self, mini_path, tmp_path, workers):
        regular = tmp_path / "r.csv"
        assert cli.main(["run", "--config", mini_path, "--out", str(regular)]) == 0
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        received = []

        def drain():
            with open(pipe, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=drain)
        reader.start()
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        try:
            proc = subprocess.run([sys.executable, "-m", "sparselms.cli", "run", "--config",
                                   mini_path, "--out", str(pipe), "--workers", workers],
                                  capture_output=True, text=True, env=env, timeout=60)
        finally:
            # a reader still waiting for a writer gets end of file
            while reader.is_alive():
                with contextlib.suppress(OSError):
                    os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))
                reader.join(0.1)
        assert proc.returncode == 0, proc.stderr
        assert received == [regular.read_bytes()]

    def test_write_failure_after_the_run_exits_4(self, mini_path, tmp_path, capsys,
                                                 monkeypatch):
        def write_curves_csv(fh, curves):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_write_curves_csv", write_curves_csv)
        code = cli.main(["run", "--config", mini_path, "--out", str(tmp_path / "r.csv")])
        assert code == 4
        assert capsys.readouterr().err == "error: cannot write output: disk full\n"

    def test_all_diverged_exits_3_but_writes_output(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[channel]\nn_taps = 16\nsparsity = 4\n\n[noise]\nalpha = 1.2\n\n"
                        "[run]\niterations = 300\ntrials = 2\nseed = 1\n\n"
                        "[algorithm.lms]\nmu = 50.0\n")
        out = str(tmp_path / "r.csv")
        code = cli.main(["run", "--config", str(path), "--out", out])
        assert code == 3
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 1 + 300
        assert lines[1].startswith("lms,1,nan,2")


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "benchmarks"))
        import workloads
        yield workloads


# numbers, not only determinism: the benchmark's run workloads at master
# seed 1 (--seed 0) against the curves sparselms 0.1.0 recorded for them
@pytest.mark.parametrize("name", ["reference", "short_trials"])
def test_run_reproduces_the_0_1_0_recording(workloads, tmp_path, name):
    argv, check, _ = workloads.prepare(workloads.WORKLOADS[name], 0, tmp_path)
    err, _, problems = check(cli.main(argv), None)
    assert problems == []
    assert err <= 1e-6


class TestCurvesCsv:
    def test_exact_bytes(self, tmp_path):
        # passed out of name order; the all-NaN curve lost all of its 3 trials
        curves = [
            LearningCurve("slms-za", np.array([-100.0, 0.1 + 0.2]), 0),
            LearningCurve("slms", np.full(2, np.nan), 3),
            LearningCurve("lms", np.array([1e-05, -3.25]), 1),
        ]
        path = tmp_path / "c.csv"
        with path.open("w", newline="\n") as fh:
            cli._write_curves_csv(fh, curves)
        assert path.read_bytes() == b"""\
algorithm,iteration,mse_db,trials_diverged
lms,1,1e-05,1
lms,2,-3.25,1
slms,1,nan,3
slms,2,nan,3
slms-za,1,-100.0,0
slms-za,2,0.30000000000000004,0
"""

    def test_peak_memory_below_one_curve_of_floats(self, tmp_path):
        n = 100_000
        rng = np.random.default_rng(0)
        curves = [LearningCurve(name, rng.normal(-30.0, 5.0, n), 0)
                  for name in ("lms", "slms")]
        path = tmp_path / "c.csv"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with path.open("w", newline="\n") as fh:
                cli._write_curves_csv(fh, curves)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # one curve's values as Python floats (8-byte list slot + 24-byte
        # float each), plus margin
        assert peak < 6 * 8 * n, f"peak {peak / 2**20:.1f} MiB"
        # the rows of every block, the last partial one included; compared
        # line by line, since a diff of the whole texts takes minutes
        expected = [cli.CSV_HEADER] + [f"{c.algorithm},{i},{value!r},0" for c in curves
                                       for i, value in enumerate(c.mse_db.tolist(), start=1)]
        written = path.read_text().splitlines()
        assert len(written) == len(expected)
        assert next(((w, e) for w, e in zip(written, expected) if w != e), None) is None


# validate-noise arguments and stdout as the check printed them before the CF
# was summed over blocks
VALIDATE_NOISE_OUTPUT = [
    (["--alpha", "0.5", "--beta", "-0.3", "--samples", "300000", "--seed", "4"], """\
alpha=0.5 beta=-0.3 gamma=1.0 delta=0.0 samples=300000 seed=4
     t   |empirical|    |analytic|     |error|
  0.10      0.728999      0.728893    0.000461
  0.50      0.491628      0.493069    0.001484
  1.00      0.368033      0.367879    0.000398
  2.00      0.244435      0.243117    0.001340
verdict: PASS (tolerance 0.02)
"""),
    (["--alpha", "1.0", "--beta", "0.5", "--samples", "300000", "--seed", "2"], """\
alpha=1.0 beta=0.5 gamma=1.0 delta=0.0 samples=300000 seed=2
     t   |empirical|    |analytic|     |error|
  0.10      0.904914      0.904837    0.000078
  0.50      0.605925      0.606531    0.000638
  1.00      0.366324      0.367879    0.001912
  2.00      0.135603      0.135335    0.000442
verdict: PASS (tolerance 0.02)
"""),
]


class TestValidateNoise:
    def test_gaussian_defaults_pass(self, capsys):
        assert cli.main(["validate-noise", "--alpha", "2.0"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_tiny_sample_fails(self, capsys):
        assert cli.main(["validate-noise", "--alpha", "1.2",
                         "--samples", "20", "--seed", "0"]) == 3
        assert "FAIL" in capsys.readouterr().out

    # bad arguments, by the start of the message, which names the field, or
    # the whole message line for the counts; at alpha = 0.1 the sample scale
    # gamma**(1/alpha) overflows, or underflows to 0, which would sample
    # all-zero draws.  A sample above cli.MAX_SAMPLES would run for days, so
    # it exits before anything is drawn.
    @pytest.mark.parametrize("argv,message", [
        (["--alpha", "0"], "alpha "), (["--alpha", "0.02"], "alpha "),
        (["--alpha", "1.5", "--gamma", "-1"], "gamma "),
        (["--alpha", "1.5", "--samples", "0"], "samples must be >= 1, got 0\n"),
        (["--alpha", "1.5", "--seed", "-1"], "seed must be >= 0, got -1\n"),
        (["--alpha", "0.1", "--gamma", "1e300"], "gamma "),
        (["--alpha", "0.1", "--gamma", "1e-40"], "gamma "),
        *((["--alpha", "1.2", "--samples", str(samples)],
           f"samples must be <= {cli.MAX_SAMPLES}, got {samples}\n")
          for samples in (cli.MAX_SAMPLES + 1, 10_000_000_000_000, 2**60, 2**63)),
    ], ids=["alpha0", "alpha0.02", "gamma-1", "samples0", "seed-1", "scale-inf", "scale-0",
            "samples-over-max", "samples1e13", "samples2pow60", "samples2pow63"])
    def test_bad_argument_exits_2_naming_it(self, capsys, argv, message):
        assert cli.main(["validate-noise", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize("argv,expected", VALIDATE_NOISE_OUTPUT)
    def test_output_is_unchanged(self, capsys, argv, expected):
        assert cli.main(["validate-noise", *argv]) == 0
        assert capsys.readouterr().out == expected

    # the draws are streamed, so one bound on the peak holds at any size.
    # The bound is in bytes, not in blocks: about 8 float64 blocks stay
    # live, 1 MiB at stable.BLOCK = 2**14, and blocks of 2**16 draws peak at
    # 4 MiB, which this bound refuses.  A one-draw run first does the lazy
    # imports (numpy.random), up to 0.9 MiB, which a fresh process pays once
    @pytest.mark.parametrize("samples", [1 << 17, 1 << 22])
    def test_peak_memory_below_one_and_a_half_mib(self, capsys, samples):
        cli.main(["validate-noise", "--alpha", "1.2", "--samples", "1"])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = cli.main(["validate-noise", "--alpha", "1.2", "--beta", "0.5",
                             "--samples", str(samples)])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    # the block size is a tuning constant: at each size the tests know, the
    # check prints the same bytes, and sample draws the same values and
    # leaves its generator in the same state
    def test_block_size_changes_no_output(self, monkeypatch, capsys):
        assert BLOCK in BLOCK_SIZES
        assert all(SPAN % block == 0 for block in BLOCK_SIZES)
        outputs = []
        for block in BLOCK_SIZES:
            monkeypatch.setattr(stable, "BLOCK", block)
            for argv, expected in VALIDATE_NOISE_OUTPUT:
                assert cli.main(["validate-noise", *argv]) == 0
                assert capsys.readouterr().out == expected, block
            rng = np.random.default_rng(9)
            draws = np.concatenate([sample(AlphaStableParams(1.2, 0.5), rng, size=2 * SPAN + 3),
                                    sample(AlphaStableParams(1.0, 0.5), rng, size=SPAN - 1)])
            outputs.append((draws, rng.bit_generator.state))
        for block, (draws, state) in zip(BLOCK_SIZES, outputs):
            assert np.array_equal(draws, outputs[0][0]), block
            assert state == outputs[0][1], block

    # the streamed estimates against the whole-array sample, in each sampler
    # branch, at and around the block boundaries
    @pytest.mark.parametrize("alpha,beta", [(1.2, 0.0), (1.0, 0.5), (1.2, 0.5), (2.0, 0.0)],
                             ids=["sym", "alpha1", "skew", "gauss"])
    @pytest.mark.parametrize("samples", [1, SPAN - 1, SPAN, SPAN + 1, 2 * SPAN + 3])
    def test_estimates_equal_the_whole_array_oracle(self, monkeypatch, capsys,
                                                    alpha, beta, samples):
        estimates = []

        def recording(draws):
            estimates.append(empirical_cf(draws))
            return estimates[-1]

        monkeypatch.setattr(cli, "empirical_cf", recording)
        cli.main(["validate-noise", "--alpha", str(alpha), "--beta", str(beta),
                  "--samples", str(samples), "--seed", "3"])
        whole = sample(AlphaStableParams(alpha, beta), np.random.default_rng(3), size=samples)
        assert estimates == [empirical_cf(whole)]


class TestTemplate:
    def test_round_trip(self, tmp_path, capsys):
        assert cli.main(["template"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "t.ini"
        path.write_text(text)
        config = parse_config(str(path))
        assert config.n_taps == 128

    def test_write_to_file(self, tmp_path):
        out = str(tmp_path / "t.ini")
        assert cli.main(["template", "--out", out]) == 0
        assert Path(out).read_text() == cli.TEMPLATE

    def test_unwritable_out_exits_4(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.ini"
        assert cli.main(["template", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output: ")
        assert captured.out == ""
        assert not out.exists()


class TestPackaging:
    def _pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        with (ROOT / "pyproject.toml").open("rb") as fh:
            return tomllib.load(fh)

    def test_version_is_held_once_by_the_package(self):
        pyproject = self._pyproject()
        assert "version" not in pyproject["project"]
        assert "version" in pyproject["project"]["dynamic"]
        assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "sparselms.__version__"}

    def test_console_script_is_main(self):
        assert self._pyproject()["project"]["scripts"] == {"sparselms": "sparselms.cli:main"}

    # the benchmark runs the CLI as ``python -m sparselms.cli``; stdout is
    # captured, a full device, or a pipe whose reader has gone
    @pytest.mark.parametrize("argv,stdout,code,message", [
        (["validate-noise", "--alpha", "0"], None, 2, "error: alpha"),
        (["template"], "/dev/full", 4, "error: cannot write output: "),
        (["validate-noise", "--samples", "1000"], "/dev/full", 4, "error: cannot write output: "),
        (["validate-noise", "--samples", "1000"], "closed pipe", 4,
         "error: cannot write output: "),
    ], ids=["bad-input", "template-full", "validate-noise-full", "validate-noise-closed-pipe"])
    def test_module_run_exits_with_mains_code(self, argv, stdout, code, message):
        fd = subprocess.PIPE
        if stdout == "closed pipe":
            read, fd = os.pipe()
            os.close(read)
        elif stdout is not None:
            if not os.path.exists(stdout):
                pytest.skip(f"no {stdout}")
            fd = os.open(stdout, os.O_WRONLY)
        # stdout buffered, as by default, so a failed write can wait for a flush
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(ROOT / "src")
        try:
            proc = subprocess.run([sys.executable, "-m", "sparselms.cli", *argv], stdout=fd,
                                  stderr=subprocess.PIPE, text=True, env=env)
        finally:
            if fd != subprocess.PIPE:
                os.close(fd)
        assert proc.returncode == code
        # one line, and no traceback from a failed write at interpreter exit
        assert proc.stderr.startswith(message)
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestReadme:
    """The README's config example and penalty table against the tables
    that the parser and the template derive from, and its library example
    against the package namespace."""

    def test_ini_example_equals_the_template(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        # the example runs as written
        path = tmp_path / "readme.ini"
        path.write_text(block)
        parse_config(str(path))
        readme = configparser.ConfigParser(interpolation=None)
        readme.read_string(block)
        template = configparser.ConfigParser(interpolation=None)
        template.read_string(cli.TEMPLATE)
        assert readme.sections()
        for name in readme.sections():
            assert dict(readme[name]) == dict(template[name]), name

    def test_penalty_table_equals_penalty_params(self):
        text = README.read_text()
        table = text[text.index("| penalty | keys and defaults |"):].split("\n\n")[0]
        rows = dict(tuple(cell.strip() for cell in line.strip("|").split("|"))
                    for line in table.splitlines()[2:])
        assert rows == {
            penalty: ", ".join(f"`{cli._CONFIG_KEYS.get(field, field)} = {value}`"
                               for field, value in params.items()) or "-"
            for penalty, params in PENALTY_PARAMS.items()}

    def test_namespace_holds_each_name_once(self):
        names = sparselms.__all__
        assert len(names) == len(set(names))
        assert all(hasattr(sparselms, name) for name in names)
        # one-row scaffolding stays in its module, out of the namespace
        for name in ("run_trial", "regressor"):
            assert name not in names and not hasattr(sparselms, name), name

    def test_library_example_imports_are_exported(self):
        text = README.read_text()
        block = re.search(r"## Library use\n.*?```python\n(.*?)```", text, re.S).group(1)
        imported = {alias.name for node in ast.walk(ast.parse(block))
                    if isinstance(node, ast.ImportFrom) and node.module == "sparselms"
                    for alias in node.names}
        assert imported and imported <= set(sparselms.__all__)
