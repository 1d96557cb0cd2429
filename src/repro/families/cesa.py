"""CESA-R: carry-estimating simultaneous adder with rectification.

Following arXiv:2008.11591, the operand is cut into ``block``-bit
segments that add simultaneously; the carry into each segment is
*estimated* as the generate of the single top bit of the previous
segment (a 1-bit lookahead, so the estimate can only under-predict).
The rectification stage computes the true segment carries with a
segment-level lookahead and compares them against the estimates —
making the CESA-R the zoo's *exact-detector* family: the flag fires if
and only if the speculative sum is actually wrong, so its flag rate
equals its error rate (no conservative over-stalling, at the price of a
detector that is as deep as the recovery carry chain).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..analysis.error_model import Boundary
from ..engine.functional import register_functional
from .base import (AdderFamily, SpeculativeModel, functional_factory,
                   register_family)
from .blocks import (BlockSpecModel, block_boundaries,
                     build_block_datapath, build_block_speculative)
from .stats import EdDistribution, ed_distribution

if TYPE_CHECKING:
    from ..circuit import Circuit

__all__ = ["CesaFamily", "CesaModel", "FAMILY"]

#: The CESA estimates each segment carry from one bit.
_LOOKAHEAD = 1


class CesaModel(BlockSpecModel):
    """Functional CESA-R configured once, reused across many additions."""

    def __init__(self, width: int, block: int):
        super().__init__(width, block, _LOOKAHEAD, detector="exact")


class CesaFamily(AdderFamily):
    """Carry-estimating simultaneous adder with rectification."""

    name = "cesa"
    title = "Carry-Estimating Simultaneous Adder (CESA-R)"
    paper = "arXiv:2008.11591"
    primary_param = "block"
    flag_event = "error"

    def default_params(self, width: int) -> Dict[str, int]:
        # Four simultaneous segments balance segment ripple against the
        # number of estimated cuts (the paper's headline configuration).
        return {"block": max(2, (width + 3) // 4)}

    def build_speculative(self, width: int, block: int) -> Circuit:
        return build_block_speculative(
            f"cesa{width}_b{block}", width, block, _LOOKAHEAD,
            primary=block)

    def build_circuit(self, width: int, block: int) -> Circuit:
        return build_block_datapath(
            f"cesa_r{width}_b{block}", width, block, _LOOKAHEAD,
            detector="exact", primary=block)

    def functional(self, width: int, block: int) -> SpeculativeModel:
        return CesaModel(width, block)

    def speculation_cuts(self, width: int, block: int) -> List[Boundary]:
        return block_boundaries(width, block, _LOOKAHEAD)

    def error_distribution(self, width: int, block: int
                           ) -> Optional[EdDistribution]:
        cuts = block_boundaries(width, min(max(1, block), width),
                                _LOOKAHEAD)
        try:
            return ed_distribution(width, cuts)
        except ValueError:
            return None


FAMILY = register_family(CesaFamily())
register_functional("cesa", functional_factory(FAMILY))
