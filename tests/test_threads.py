"""The one-BLAS-thread policy: set on import, overridable, never changes an answer.

Each check runs in a fresh interpreter, because OpenBLAS reads its thread
count once, when numpy and scipy load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

VAR = "OPENBLAS_NUM_THREADS"


def _run(args, threads, cwd=None):
    env = {k: v for k, v in os.environ.items() if k != VAR}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env[VAR] = threads
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)


@pytest.mark.parametrize("threads, expected", [(None, "1"), ("3", "3")],
                         ids=("unset", "caller-set"))
def test_import_sets_one_thread_unless_caller_chose(threads, expected):
    done = _run(["-c", f"import reachwarp, os; print(os.environ['{VAR}'])"], threads)
    assert done.stdout.strip() == expected


def _threaded_problem(path: Path) -> None:
    # 32 states and 16000 steps: the only problem size where products are
    # large enough for OpenBLAS to split them over threads
    rng = np.random.default_rng(2024)
    n, m = 32, 3
    A = 0.5 * rng.standard_normal((n, n)) / np.sqrt(n) - 0.5 * np.eye(n)
    d = rng.standard_normal(n)
    cfg = {
        "A": A.tolist(), "X0": rng.standard_normal(n).tolist(), "T": 1.5,
        "control": {"type": "box", "lo": [-1.0] * m, "hi": [1.0] * m},
        "admissible": {"type": "frobenius_ball",
                       "center": rng.standard_normal((n, m)).tolist(), "radius": 0.5},
        "direction": (d / np.linalg.norm(d)).tolist(), "sense": "grow",
        "steps": 16000,
    }
    path.write_text(json.dumps(cfg), encoding="utf-8")


def test_thread_count_does_not_change_optimize_output(tmp_path):
    config = tmp_path / "n32.json"
    _threaded_problem(config)
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        done = _run(["-m", "reachwarp", "optimize", "--config", str(config),
                     "--out", str(out)], threads)
        outputs[threads] = (done.stdout, (out / "warp_result.json").read_bytes())
    assert outputs["1"] == outputs["2"]
