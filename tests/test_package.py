import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import galcount

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve_and_none_is_a_module():
    assert galcount.__all__
    for name in galcount.__all__:
        assert not isinstance(getattr(galcount, name), types.ModuleType), name
    assert isinstance(galcount.fields, types.ModuleType)  # still reachable as an attribute


def test_readme_quick_tour_runs_and_binds_no_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert namespace["report"].holds is False
    assert (namespace["report"].witness.ind1, namespace["report"].witness.ind2) == (36, 8)


def _child(code, **env):
    # the variable is stripped explicitly: this process set it when it imported galcount
    child_env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    child_env.update(env)
    done = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_sets_one_openblas_thread():
    out = _child("import galcount, os; print(os.environ['OPENBLAS_NUM_THREADS'])")
    assert out == "1\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_thread_pool():
    out = _child("import galcount, os; print(len(os.listdir('/proc/self/task')))")
    assert out == "1\n"


def test_import_keeps_a_thread_count_already_set():
    out = _child("import galcount, os; print(os.environ['OPENBLAS_NUM_THREADS'])", OPENBLAS_NUM_THREADS="2")
    assert out == "2\n"
