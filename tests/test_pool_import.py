"""The process pool's modules load only when a pool starts, and OpenSSL never.

``concurrent.futures.process`` pulls in ``multiprocessing``, ``socket``,
``subprocess`` and more; a serial command never starts a pool, so it must
not pay for them.  ``numpy.random`` pulls in ``_hashlib`` and libcrypto,
which ``cli.main`` blocks when it reads ``sys.argv``, as the ``sparselms``
script calls it.  Each check but the last runs in a fresh interpreter,
where nothing else has imported them yet.
"""

import configparser
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sparselms import cli

SRC = Path(__file__).resolve().parent.parent / "src"

POOL_PREFIXES = ("concurrent", "multiprocessing")

TINY_CONFIG = """\
[channel]
n_taps = 8
sparsity = 2

[run]
iterations = 20
trials = 2
seed = 1

[algorithm.slms-za]
"""

# 100 trials of 2 algorithms at 16 taps and 250 iterations make chunks of
# 77 and 23 trials (see simulation.chunk_layout)
TWO_CHUNK_CONFIG = """\
[channel]
n_taps = 16
sparsity = 2

[noise]
alpha = 2.0

[run]
iterations = 250
trials = 100
snr_db = 20.0
seed = 2

[algorithm.slms-za]

[algorithm.lms-rl1]
"""


def _fresh_python(code, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED_AFTER = """\
import json, sys
from sparselms import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith({prefixes!r}))]))
""".format(prefixes=POOL_PREFIXES)


@pytest.mark.parametrize("argv,code", [
    ([], 0),
    (["template", "--out", "template.ini"], 0),
    # 1000 draws fail the CF check, which exits 3
    (["validate-noise", "--samples", "1000"], 3),
    (["run", "--config", "tiny.ini", "--out", "tiny.csv", "--workers", "1"], 0),
], ids=["import", "template", "validate-noise", "run-workers-1"])
def test_serial_commands_load_no_pool_module(tmp_path, argv, code):
    (tmp_path / "tiny.ini").write_text(TINY_CONFIG)
    last_line = _fresh_python(LOADED_AFTER, *argv, cwd=tmp_path).splitlines()[-1]
    assert json.loads(last_line) == [code, []]


def test_first_pool_in_a_fresh_process_matches_serial_bytes(tmp_path):
    config = tmp_path / "two_chunks.ini"
    config.write_text(TWO_CHUNK_CONFIG)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    outputs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        subprocess.run([sys.executable, "-m", "sparselms.cli", "run", "--config", str(config),
                        "--out", str(out), "--workers", workers], env=env, check=True)
        outputs[workers] = out
    assert outputs["1"].read_bytes() == outputs["2"].read_bytes()
    # the pool is min(--workers, CPUs, chunks): never more than 2 processes
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    manifest = configparser.ConfigParser(interpolation=None)
    manifest.read_string(Path(f"{outputs['2']}.manifest").read_text())
    facts = manifest["manifest"]
    assert [facts[key] for key in ("workers", "chunks", "processes")] == [
        "2", "2", str(min(2, cpus))]


NAME_CONTRACT = """\
import sys
from sparselms import simulation
assert "concurrent.futures" not in sys.modules
import concurrent.futures
assert simulation.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
assert not hasattr(simulation, "no_such_name")
print("ok")
"""


def test_pool_name_resolves_to_the_standard_pool_before_first_use(tmp_path):
    assert _fresh_python(NAME_CONTRACT, cwd=tmp_path) == "ok\n"


NO_OPENSSL_AFTER = """\
import json, os, pathlib, sys
from sparselms import cli
codes = []
for argv in (["validate-noise", "--samples", "1000"],
             ["run", "--config", "tiny.ini", "--out", "tiny.csv", "--workers", "1"]):
    sys.argv = ["sparselms", *argv]  # main() reads them, as the script does
    codes.append(cli.main())
maps = "/proc/self/maps"
libcrypto = "libcrypto" in pathlib.Path(maps).read_text() if os.path.exists(maps) else None
import hashlib
print(json.dumps([codes, sys.modules["_hashlib"] is None, libcrypto,
                  hashlib.sha256(b"sparselms").hexdigest()]))
"""

SHA256_SPARSELMS = "237078112499c7efdd5a675883664f1a357071ba831ad8759cf448b779b359cc"


def test_drawing_commands_never_load_openssl(tmp_path):
    (tmp_path / "tiny.ini").write_text(TINY_CONFIG)
    last_line = _fresh_python(NO_OPENSSL_AFTER, cwd=tmp_path).splitlines()[-1]
    codes, blocked, libcrypto, digest = json.loads(last_line)
    # 1000 draws fail the CF check, which exits 3
    assert codes == [3, 0]
    assert blocked
    assert digest == SHA256_SPARSELMS  # CPython's builtin sha256
    if libcrypto is None:
        pytest.skip("no /proc/self/maps on this platform")
    assert not libcrypto


HASHLIB_AFTER_ARGV = """\
import importlib.util, json, sys, types
from sparselms import cli
available = importlib.util.find_spec("_hashlib") is not None
code = cli.main(["validate-noise", "--samples", "1000"])
import hashlib
print(json.dumps([available, code, isinstance(sys.modules.get("_hashlib"), types.ModuleType),
                  hasattr(hashlib, "scrypt")]))
"""


def test_main_given_argv_keeps_the_full_hashlib(tmp_path):
    last_line = _fresh_python(HASHLIB_AFTER_ARGV, cwd=tmp_path).splitlines()[-1]
    available, code, loaded, scrypt = json.loads(last_line)
    if not available:
        pytest.skip("no _hashlib in this Python")
    assert code == 3
    assert loaded and scrypt


def test_main_keeps_a_hashlib_already_loaded(tmp_path, monkeypatch):
    loaded = pytest.importorskip("_hashlib")
    # restored at teardown, should main replace it
    monkeypatch.setitem(sys.modules, "_hashlib", loaded)
    # main reads sys.argv, as the script calls it, so it sets the block
    monkeypatch.setattr(sys, "argv", ["sparselms", "template", "--out",
                                      str(tmp_path / "template.ini")])
    assert cli.main() == 0
    assert sys.modules["_hashlib"] is loaded
