"""The approximate-adder zoo: ``AdderFamily`` protocol + registry.

Importing this package registers the built-in families (ACA, CESA-R,
block-based speculative) with both the family registry and the engine's
functional-model registry.
"""

from .._lazy import lazy_exports
from .base import (AdderFamily, FamilyError, FamilyErrorModel, KernelBatch,
                   SpeculativeModel, family_names, functional_factory,
                   get_family, register_family, resolve_params,
                   unregister_family)
from ..analysis.error_model import Boundary
from .stats import EdDistribution, ed_distribution
from .blocks import (BlockSpecModel, block_boundaries, block_bounds,
                     build_block_datapath,
                     build_block_speculative)
from . import aca, blockspec, cesa  # noqa: F401  (register builtins)
from .aca import AcaFamily
from .blockspec import BlockSpecFamily
from .cesa import CesaFamily, CesaModel

#: The Pareto study characterises netlists, so its names load on first
#: use and serving code never imports the netlist stack.
_LAZY, __getattr__, __dir__ = lazy_exports(__name__, {
    ".pareto": ("ParetoPoint", "ParetoReport", "run_pareto_study",
                "write_pareto_report"),
})

__all__ = [
    "AdderFamily",
    "FamilyError",
    "FamilyErrorModel",
    "KernelBatch",
    "SpeculativeModel",
    "family_names",
    "functional_factory",
    "get_family",
    "register_family",
    "resolve_params",
    "unregister_family",
    "Boundary",
    "EdDistribution",
    "ed_distribution",
    "BlockSpecModel",
    "block_boundaries",
    "block_bounds",
    "build_block_datapath",
    "build_block_speculative",
    "AcaFamily",
    "BlockSpecFamily",
    "CesaFamily",
    "CesaModel",
    "ParetoPoint",
    "ParetoReport",
    "run_pareto_study",
    "write_pareto_report",
]
