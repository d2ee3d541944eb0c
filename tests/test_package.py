import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import galcount

ROOT = Path(__file__).resolve().parents[1]

EXPORTS = [
    "CensusFormatError", "CensusRecord", "CycleParseError", "DEFAULT_CAP", "DiscriminantTally",
    "DivisorBoundReport", "DominationReport", "DominationWitness", "DualRep", "EnumerationCapError",
    "FitResult", "GroupSpecError", "InconsistentDualRep", "InsufficientSamplesError", "Perm", "PermGroup",
    "TailProbeReport", "Verdict", "alternating_natural", "biquadratic_tally", "check_index_domination",
    "conjecture_verdict", "coset_action", "count_biquadratic", "count_cyclic_ell",
    "count_quadratic", "cyclic_conductors", "cyclic_natural", "cyclic_tally", "dihedral_natural",
    "direct_product", "dirichlet_tail_probe", "divisor_bound_check", "divisor_counts", "dual_regular_pair",
    "fit_exponent", "fundamental_discriminants", "geometric_grid", "heisenberg_mod3", "ingest_census",
    "parse_cycles", "parse_group_expr", "parse_group_file", "parse_paired_file", "powerful_count",
    "powerful_numbers", "quadratic_samples", "read_census_records", "regular_rep", "sl2_natural",
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


def _cli_child(*argv, report="sorted(m for m in sys.modules if m.startswith('galcount'))"):
    """Run ``python -m galcount.cli ARGV`` in a child as ``-m`` runs it; return its exit code,
    its output before the report, and ``report`` evaluated as the child exits."""
    code = (
        "import atexit, json, os, runpy, sys; "
        f"atexit.register(lambda: print(json.dumps({report}))); "
        f"sys.argv = ['galcount', *{list(argv)!r}]; "
        "runpy.run_module('galcount.cli', run_name='__main__', alter_sys=True)"
    )
    child_env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    done = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True, timeout=60)
    *out, last = done.stdout.splitlines()
    return done.returncode, out, json.loads(last)


def test_cli_table_names_are_the_tables():
    from galcount import cli, tables

    assert cli.TABLE_NAMES == sorted(tables.TABLES)


def test_cli_child_sets_one_openblas_thread_before_numpy_loads():
    threads = "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1"
    code, out, report = _cli_child("aval", "S 3", report=f"[os.environ.get('OPENBLAS_NUM_THREADS'), {threads}]")
    assert (code, out[:3]) == (0, ["degree: 3", "order: 6", "a(G): 1"])
    assert report == ["1", 1]


GROUP_LAYERS = ["galcount.constructions", "galcount.groups", "galcount.groupspec", "galcount.perms"]
BASE = ["galcount", "galcount.errors"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["aval", "S 3"], BASE + GROUP_LAYERS),
        (["aval", "sl2(5)"], BASE + GROUP_LAYERS + ["galcount.sieves"]),
        (["table", "deg6"], BASE + GROUP_LAYERS + ["galcount.tables"]),
        (["compare-reps", "--example", "7.4"], BASE + GROUP_LAYERS),
        (["count", "quadratic"], BASE + ["galcount.fields", "galcount.fitting", "galcount.sieves"]),
        (["fit", "--samples", "SAMPLES"], BASE + ["galcount.fitting"]),
    ],
)
def test_each_command_loads_only_the_layers_it_runs(tmp_path, argv, loaded):
    samples = tmp_path / "samples.csv"
    samples.write_text("x,count\n10,5\n100,30\n1000,170\n10000,1100\n", encoding="utf-8")
    code, out, modules = _cli_child(*(str(samples) if arg == "SAMPLES" else arg for arg in argv))
    assert code == 0 and out
    assert modules == sorted(loaded)
