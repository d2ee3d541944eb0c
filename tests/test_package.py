import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path
from typing import NamedTuple

import pytest

import galcount

ROOT = Path(__file__).resolve().parents[1]

EXPORTS = [
    "CensusFormatError", "CycleParseError", "DEFAULT_CAP",
    "DivisorBoundReport", "DominationReport", "DominationWitness", "DualRep", "EnumerationCapError",
    "FitResult", "GroupSpecError", "InconsistentDualRep", "InsufficientSamplesError", "Perm", "PermGroup",
    "Verdict", "alternating_natural", "biquadratic_samples", "check_index_domination",
    "conjecture_verdict", "coset_action", "count_biquadratic", "count_cyclic_ell",
    "count_quadratic", "cyclic_natural", "cyclic_samples", "dihedral_natural",
    "direct_product", "divisor_bound_check", "divisor_counts", "dual_regular_pair",
    "fit_exponent", "geometric_grid", "heisenberg_mod3", "ingest_census",
    "parse_cycles", "parse_group_expr", "parse_group_file", "parse_paired_file", "powerful_count",
    "powerful_numbers", "quadratic_samples", "regular_rep", "sl2_natural",
    "squarefree_sieve", "symmetric_natural", "tally_samples", "wreath",
]


def test_all_names_resolve_and_none_is_a_module():
    assert sorted(galcount.__all__) == EXPORTS
    for name in galcount.__all__:
        assert not isinstance(getattr(galcount, name), types.ModuleType), name
    assert isinstance(galcount.fields, types.ModuleType)  # still reachable as an attribute
    assert set(EXPORTS) | {"fields", "groups", "cli"} <= set(dir(galcount))


def test_star_import_binds_every_export_and_no_module():
    namespace = {}
    exec("from galcount import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == EXPORTS
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'fieldz'"):
        getattr(galcount, "fieldz")
    assert not hasattr(galcount, "numpy")


def test_moved_error_classes_keep_their_old_import_paths():
    from galcount import constructions, errors, fields, fitting, groups, groupspec, perms

    assert perms.CycleParseError is errors.CycleParseError is galcount.CycleParseError
    assert groups.EnumerationCapError is errors.EnumerationCapError
    assert groups.DEFAULT_CAP == errors.DEFAULT_CAP == galcount.DEFAULT_CAP == 10**6
    assert groupspec.GroupSpecError is errors.GroupSpecError
    assert groupspec.read_text is errors.read_text
    assert fields.CensusFormatError is errors.CensusFormatError
    assert fitting.InsufficientSamplesError is errors.InsufficientSamplesError
    assert constructions.InconsistentDualRep is errors.InconsistentDualRep


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
    out = _child("import galcount.groups, os; print(os.environ['OPENBLAS_NUM_THREADS'])")
    assert out == "1\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_thread_pool():
    # galcount.groups imports numpy, which starts OpenBLAS's pool unless the variable is set first
    out = _child("import galcount.groups, os, sys; print('numpy' in sys.modules, len(os.listdir('/proc/self/task')))")
    assert out == "True 1\n"


def test_import_keeps_a_thread_count_already_set():
    out = _child("import galcount.groups, os; print(os.environ['OPENBLAS_NUM_THREADS'])", OPENBLAS_NUM_THREADS="2")
    assert out == "2\n"


def test_import_loads_no_numpy_and_a_submodule_attribute_loads_it():
    out = _child("import galcount, sys; print('numpy' in sys.modules); galcount.fields; print('numpy' in sys.modules)")
    assert out == "False\nTrue\n"


def test_fitting_and_groupspec_import_no_numpy():
    out = _child("import galcount.fitting, galcount.groupspec, sys; print('numpy' in sys.modules)")
    assert out == "False\n"


def _cli_child(*argv, report="sorted(m for m in sys.modules if m.startswith('galcount'))"):
    """Run ``python -m galcount.cli ARGV`` in a child as ``-m`` runs it; return its exit code,
    its output before the report, its stderr, and ``report`` evaluated as the child exits."""
    code = (
        "import atexit, gc, json, os, runpy, sys; "
        f"atexit.register(lambda: print(json.dumps({report}))); "
        f"sys.argv = ['galcount', *{list(argv)!r}]; "
        "runpy.run_module('galcount.cli', run_name='__main__', alter_sys=True)"
    )
    child_env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    done = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True, timeout=60)
    *out, last = done.stdout.splitlines()
    return done.returncode, out, done.stderr, json.loads(last)


def test_cli_table_names_are_the_tables():
    from galcount import cli, tables

    assert cli.TABLE_NAMES == sorted(tables.TABLES)


def test_cli_child_sets_one_openblas_thread_before_numpy_loads():
    threads = "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1"
    code, out, _, report = _cli_child("aval", "S 3", report=f"[os.environ.get('OPENBLAS_NUM_THREADS'), {threads}]")
    assert (code, out[:3]) == (0, ["degree: 3", "order: 6", "a(G): 1"])
    assert report == ["1", 1]


def test_cli_child_freezes_the_collector_and_main_in_process_does_not(capsys):
    import gc

    from galcount.cli import main

    code, out, _, frozen = _cli_child("aval", "S 3", report="gc.get_freeze_count() > 0")
    assert (code, out[0], frozen) == (0, "degree: 3", True)
    before = gc.get_freeze_count()
    assert main(["aval", "S 3"]) == 0
    assert gc.get_freeze_count() == before


GROUP_LAYERS = ["galcount.constructions", "galcount.groups", "galcount.groupspec", "galcount.perms"]
BASE = ["galcount", "galcount.errors"]
PARSER = BASE + ["galcount.groupspec", "galcount.perms"]


class Loads(NamedTuple):
    """What a CLI child loads, and how it exits."""

    modules: list
    numpy: bool
    code: int = 0
    message: str = ""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["aval", "S 3"], Loads(BASE + GROUP_LAYERS, numpy=True)),
        (["aval", "sl2(5)"], Loads(BASE + GROUP_LAYERS + ["galcount.sieves"], numpy=True)),
        (["table", "deg6"], Loads(BASE + GROUP_LAYERS + ["galcount.tables"], numpy=True)),
        (["compare-reps", "--example", "7.4"], Loads(BASE + GROUP_LAYERS, numpy=True)),
        (["count", "quadratic"], Loads(BASE + ["galcount.fields", "galcount.fitting", "galcount.sieves"], numpy=True)),
        (["fit", "--samples", "SAMPLES"], Loads(BASE + ["galcount.fitting"], numpy=True)),
        (["aval", "wreath(C 2, A 4)"], Loads(BASE + GROUP_LAYERS, numpy=True)),
        (
            ["fit", "--samples", "TWO"],
            Loads(BASE + ["galcount.fitting"], False, 6, "error: need at least 3 usable samples with distinct x, have 2\n"),
        ),
        (["aval", "bogus(3)"], Loads(PARSER, False, 2, "error: unknown construction 'bogus'\n")),
    ],
)
def test_each_command_loads_only_the_layers_it_runs(tmp_path, argv, loaded):
    # numpy loads only with a layer that builds arrays, and no command loads numpy.ma
    files = {"SAMPLES": "x,count\n10,5\n100,30\n1000,170\n10000,1100\n", "TWO": "x,count\n10,5\n100,30\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
    report = "[sorted(m for m in sys.modules if m.startswith('galcount')), 'numpy' in sys.modules, 'numpy.ma' in sys.modules]"
    code, out, err, (modules, numpy, numpy_ma) = _cli_child(*argv, report=report)
    assert (code, err) == (loaded.code, loaded.message)
    assert bool(out) == (code == 0)
    assert modules == sorted(loaded.modules)
    assert (numpy, numpy_ma) == (loaded.numpy, False)
