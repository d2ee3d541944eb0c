"""galcount: permutation-group growth exponents and exact number-field counts over Q.

The library computes the exact rational invariant a(G) of a transitive
permutation group (reciprocal of the minimal permutation index), builds the
standard representations it is evaluated on (regular and coset actions,
direct and wreath products, SL2(p), the order-27 exponent-3 group), counts
quadratic, cyclic prime-degree and biquadratic fields by absolute
discriminant, and fits the counts to c * x^a * (log x)^b to compare the
empirical growth exponent with a(G).

Importing the package loads no submodule: each export below, and each
submodule as an attribute (``galcount.fields``), is imported on first access,
so a CLI command loads only the layers it runs.
"""

import importlib as _importlib
import os as _os

# OpenBLAS's worker pool costs each process about 60 ms of CPU and only serves
# the <=3-column fit; one thread keeps its floats independent of the core count.
# Set here, before any submodule imports numpy.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

_SOURCES = {
    "constructions": (
        "DominationReport",
        "DominationWitness",
        "DualRep",
        "alternating_natural",
        "check_index_domination",
        "coset_action",
        "cyclic_natural",
        "dihedral_natural",
        "direct_product",
        "dual_regular_pair",
        "heisenberg_mod3",
        "regular_rep",
        "sl2_natural",
        "symmetric_natural",
        "wreath",
    ),
    "errors": (
        "CensusFormatError",
        "CycleParseError",
        "DEFAULT_CAP",
        "EnumerationCapError",
        "GroupSpecError",
        "InconsistentDualRep",
        "InsufficientSamplesError",
    ),
    "fields": (
        "biquadratic_samples",
        "count_biquadratic",
        "count_cyclic_ell",
        "count_quadratic",
        "cyclic_samples",
        "ingest_census",
        "quadratic_samples",
        "tally_samples",
    ),
    "fitting": ("FitResult", "Verdict", "conjecture_verdict", "fit_exponent", "geometric_grid"),
    "groups": ("PermGroup",),
    "groupspec": ("parse_group_expr", "parse_group_file", "parse_paired_file"),
    "perms": ("Perm", "parse_cycles"),
    "sieves": (
        "DivisorBoundReport",
        "divisor_bound_check",
        "divisor_counts",
        "powerful_count",
        "powerful_numbers",
        "squarefree_sieve",
    ),
}
_SUBMODULES = frozenset(_SOURCES) | {"cli", "tables"}
_EXPORTS = {name: module for module, names in _SOURCES.items() for name in names}

# the submodules stay reachable as attributes, but `import *` binds none of them
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _importlib.import_module(f"{__name__}.{name}")  # the import binds it here too
    if name in _EXPORTS:
        value = getattr(_importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
