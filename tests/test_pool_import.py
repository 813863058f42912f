"""The process pool's modules load only when a pool starts.

``concurrent.futures.process`` pulls in ``multiprocessing``, ``socket``,
``subprocess`` and more; a serial command never starts a pool, so it must
not pay for them.  Each check runs in a fresh interpreter, where nothing
else has imported them yet.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    manifest = Path(f"{outputs['2']}.manifest").read_text().splitlines()
    assert manifest[5:8] == ["workers = 2", "chunks = 2", f"processes = {min(2, cpus)}"]


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
