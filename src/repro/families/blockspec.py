"""Configurable block-based approximate adder (Wu et al. style).

Following arXiv:1703.03522, the operand is cut into ``block``-bit
sub-adders and the carry into each cut is predicted from the
``lookahead`` bits directly below it (assuming no carry enters the
prediction window).  Both knobs are free, which makes this the zoo's
*configurable* family:

* ``block = 1, lookahead = w`` is (up to the speculative carry-out
  construction) the paper's ACA;
* ``lookahead = 1`` is the CESA estimate discipline;
* larger blocks with modest lookahead trade error rate against the
  detector/recovery depth.

The detector is the conservative ACA-style one — fire whenever a
prediction window is all-propagate.  The analytic rates come from the
shared carry-state engine over :func:`~repro.families.blocks.
block_boundaries`; :mod:`repro.families.stats` adds the exact
error-distance distribution that is this paper's main analytical
contribution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..analysis.error_model import Boundary, choose_window
from ..engine.functional import register_functional
from .base import (AdderFamily, SpeculativeModel, functional_factory,
                   register_family)
from .blocks import (BlockSpecModel, block_boundaries,
                     build_block_datapath, build_block_speculative)
from .stats import EdDistribution, ed_distribution

if TYPE_CHECKING:
    from ..circuit import Circuit

__all__ = ["BlockSpecFamily", "FAMILY"]


class BlockSpecFamily(AdderFamily):
    """Block-based approximate adder with configurable block/lookahead."""

    name = "blockspec"
    title = "Block-based approximate adder (Wu et al.)"
    paper = "arXiv:1703.03522"
    primary_param = "lookahead"

    def default_params(self, width: int) -> Dict[str, int]:
        # Same accuracy target as the ACA's 99.99 % window, with the
        # block size matched to the prediction depth (the paper's
        # equal-segment configuration).
        w = choose_window(width)
        return {"block": w, "lookahead": w}

    def build_speculative(self, width: int, block: int,
                          lookahead: int) -> Circuit:
        return build_block_speculative(
            f"blockspec{width}_b{block}_t{lookahead}", width, block,
            lookahead, primary=lookahead)

    def build_circuit(self, width: int, block: int,
                      lookahead: int) -> Circuit:
        return build_block_datapath(
            f"blockspec_r{width}_b{block}_t{lookahead}", width, block,
            lookahead, detector="window", primary=lookahead)

    def functional(self, width: int, block: int,
                   lookahead: int) -> SpeculativeModel:
        return BlockSpecModel(width, block, lookahead, detector="window")

    def speculation_cuts(self, width: int, block: int,
                         lookahead: int) -> List[Boundary]:
        return block_boundaries(width, block, lookahead)

    def error_distribution(self, width: int, block: int, lookahead: int
                           ) -> Optional[EdDistribution]:
        cuts = block_boundaries(width, min(max(1, block), width),
                                min(max(1, lookahead), width))
        try:
            return ed_distribution(width, cuts)
        except ValueError:
            return None


FAMILY = register_family(BlockSpecFamily())
register_functional("blockspec", functional_factory(FAMILY))
