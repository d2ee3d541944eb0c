"""galcount: permutation-group growth exponents and exact number-field counts over Q.

The library computes the exact rational invariant a(G) of a transitive
permutation group (reciprocal of the minimal permutation index), builds the
standard representations it is evaluated on (regular and coset actions,
direct and wreath products, SL2(p), the order-27 exponent-3 group), counts
quadratic, cyclic prime-degree and biquadratic fields by absolute
discriminant, and fits the counts to c * x^a * (log x)^b to compare the
empirical growth exponent with a(G).
"""

import os as _os

# OpenBLAS's worker pool costs each process about 60 ms of CPU and only serves
# the <=3-column fit; one thread keeps its floats independent of the core count.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .constructions import (
    DominationReport,
    DominationWitness,
    DualRep,
    InconsistentDualRep,
    alternating_natural,
    check_index_domination,
    coset_action,
    cyclic_natural,
    dihedral_natural,
    direct_product,
    dual_regular_pair,
    heisenberg_mod3,
    regular_rep,
    sl2_natural,
    symmetric_natural,
    wreath,
)
from .fields import (
    CensusFormatError,
    CensusRecord,
    DiscriminantTally,
    biquadratic_tally,
    compose_discriminants,
    count_biquadratic,
    count_cyclic_ell,
    count_quadratic,
    cyclic_conductors,
    cyclic_tally,
    fundamental_discriminants,
    ingest_census,
    quadratic_samples,
    read_census_records,
    tally_samples,
)
from .fitting import (
    FitResult,
    InsufficientSamplesError,
    Verdict,
    conjecture_verdict,
    fit_exponent,
    geometric_grid,
)
from .groups import DEFAULT_CAP, EnumerationCapError, PermGroup
from .groupspec import GroupSpecError, parse_group_expr, parse_group_file, parse_paired_file
from .perms import CycleParseError, Perm, parse_cycles
from .sieves import (
    DivisorBoundReport,
    TailProbeReport,
    dirichlet_tail_probe,
    divisor_bound_check,
    divisor_counts,
    powerful_count,
    powerful_numbers,
    squarefree_sieve,
)

__version__ = "0.1.0"

# the submodules stay reachable as attributes, but `import *` binds none of them
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], type(_os))]
