"""locc-lab: exact analysis of entanglement transformations.

Decides deterministic convertibility between bipartite pure states under
local operations and classical communication, computes optimal conclusive
conversion probabilities, classifies incomparable pairs by their many-copy
behaviour, and verifies or searches for entanglement catalysts - all in
exact rational arithmetic on multiplicity-compressed Schmidt spectra.
"""

from .catalog import CATALOG, load_fixture
from .catalysis import (
    CatalystSearchConfig,
    catalyzes,
    grid_candidates,
    search_catalyst,
)
from .majorization import (
    Comparability,
    compare,
    majorized_by,
    vidal_pmax,
)
from .multicopy import (
    BaselineNotDeterministic,
    Obstruction,
    PairClassification,
    PairKind,
    PmaxScan,
    PmaxScanRow,
    classify_pair,
    conjecture_scan,
    find_min_deterministic_k,
    obstruction,
    pmax_scan,
)
from .spectrum import (
    InputError,
    MemoryCapExceeded,
    NegativeEntry,
    SchmidtSpectrum,
    SumNotOne,
    entropy,
    make_spectrum,
    maximally_entangled,
    tensor_power,
    tensor_product,
)
from .statefile import StateFileError, load_state

__version__ = "0.1.0"

__all__ = [
    "BaselineNotDeterministic",
    "CATALOG",
    "CatalystSearchConfig",
    "Comparability",
    "InputError",
    "MemoryCapExceeded",
    "NegativeEntry",
    "Obstruction",
    "PairClassification",
    "PairKind",
    "PmaxScan",
    "PmaxScanRow",
    "SchmidtSpectrum",
    "StateFileError",
    "SumNotOne",
    "catalyzes",
    "classify_pair",
    "compare",
    "conjecture_scan",
    "entropy",
    "find_min_deterministic_k",
    "grid_candidates",
    "load_fixture",
    "load_state",
    "majorized_by",
    "make_spectrum",
    "maximally_entangled",
    "obstruction",
    "pmax_scan",
    "search_catalyst",
    "tensor_power",
    "tensor_product",
    "vidal_pmax",
]
