"""The ``AdderFamily`` protocol and registry.

A *family* is one speculative-addition architecture made first-class
across every layer of the repo.  Each family binds together:

* ``build_speculative`` — the approximate adder core as a gate-level
  circuit (standard ``a``/``b`` -> ``sum``/``cout`` interface);
* ``build_circuit`` — the full variable-latency datapath: speculative
  core + error detector + rectification/recovery netlists (outputs
  ``sum``, ``cout``, ``err``, ``sum_exact``, ``cout_exact``);
* ``functional`` — a model of the *actual hardware behaviour*
  (speculative result, detector flag, exact recovery), exposing the
  uniform contract of :class:`SpeculativeModel`: the family writes its
  speculate/detect rule once (:meth:`SpeculativeModel.rule`) over the
  lane types of :mod:`repro.families.words`;
* ``numpy_kernel`` — the same rule on uint64 lanes (the serving hot
  path) at widths up to 64;
* ``speculation_cuts`` / ``flag_event`` — the cuts whose carries the
  family predicts and what makes its detector fire, declared once; the
  carry-state engine of :mod:`repro.analysis.error_model` derives the
  exact ``error_model`` the verify layer cross-checks observed counts
  against and the biased ``flag_probability`` the autotuner and the
  load generator forecast with;
* ``error_distribution`` — the exact error-distance distribution,
  where tractable;
* parameter defaulting — ``resolve_params`` is the *single* place a
  deployment knob (CLI ``--window``, service configs, the generator)
  is turned into concrete family parameters.

The registry is deterministically sorted; ``family_names()`` is the
discovery surface the CLI help, the verify registry and the bench
suites all share.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from fractions import Fraction
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple, Union)

import numpy as np

from ..analysis.error_model import Boundary, speculation_mass
from .stats import EdDistribution
from .words import WordOps, lanes, object_lanes, word_ops

if TYPE_CHECKING:  # netlists are built on demand, not imported here
    from ..circuit import Circuit

__all__ = [
    "AdderFamily",
    "FamilyError",
    "FamilyErrorModel",
    "KernelBatch",
    "SpeculativeModel",
    "register_family",
    "unregister_family",
    "get_family",
    "family_names",
    "object_lanes",
    "resolve_params",
    "uint64_kernel",
    "functional_factory",
]


class FamilyError(ValueError):
    """Raised for unknown families or invalid family parameters."""


# ----------------------------------------------------------------------
# Batch kernel output
# ----------------------------------------------------------------------
class KernelBatch(NamedTuple):
    """Output of a family's rule (:meth:`SpeculativeModel.rule`), of
    its numpy kernel and of :meth:`SpeculativeModel.run_arrays`.

    Everything the speculative/detect/recover path produces, lane by
    lane (plain values for one pair of Python ints): the raw speculative
    result, the detector flag, the recovered (always correct) result,
    and whether the speculative result was actually wrong.
    """

    spec_sums: Any
    spec_couts: Any
    exact_sums: Any
    exact_couts: Any
    flags: Any
    spec_errors: Any


# ----------------------------------------------------------------------
# Functional-model contract
# ----------------------------------------------------------------------
class SpeculativeModel:
    """Uniform contract every family functional model obeys.

    A subclass implements :meth:`rule`, the family's speculate/detect
    rule written once over :mod:`~repro.families.words` lanes.
    :meth:`add` (the speculative hardware result), :meth:`flags_error`
    (the detector), :meth:`exact` and :meth:`is_correct` are thin
    wrappers over it, on Python ints, ``dtype=object`` lanes and
    ``uint64`` lanes alike.  The batch :meth:`run_arrays` and the
    bus-level ``run_ints`` interface are shared — so the machine, the
    service executor, the numpy kernel and the verify rows treat every
    family identically.
    """

    width: int

    def rule(self, ops: WordOps, a: Any, b: Any, cin: Any) -> KernelBatch:
        """Every :class:`KernelBatch` field for operands *a*, *b* and
        carry-in *cin*, already masked to the width and to one bit.

        One body for every lane type: it combines lanes with word
        operators and takes constants and exact adds from *ops*.
        """
        raise NotImplementedError

    def evaluate(self, a: Any, b: Any, cin: Any = 0) -> KernelBatch:
        """:meth:`rule` on one pair of Python ints or on lanes; operands
        are masked to the width first."""
        ops = word_ops(self.width, a)
        return self.rule(ops, a & ops.mask, b & ops.mask, cin & ops.one)

    def add(self, a: int, b: int, cin: int = 0) -> Tuple[int, int]:
        """Speculative ``(sum, cout)`` exactly as the hardware computes it."""
        out = self.evaluate(a, b, cin)
        return out.spec_sums, out.spec_couts

    def flags_error(self, a: int, b: int) -> bool:
        """Whether the detector requests a recovery cycle (at ``cin = 0``)."""
        return self.evaluate(a, b).flags

    def exact(self, a: int, b: int, cin: int = 0) -> Tuple[int, int]:
        """Reference ``(sum, cout)``."""
        out = self.evaluate(a, b, cin)
        return out.exact_sums, out.exact_couts

    def is_correct(self, a: int, b: int, cin: int = 0) -> bool:
        """Whether speculation succeeds on this operand pair."""
        out = self.evaluate(a, b, cin)
        return ((out.spec_sums == out.exact_sums)
                & (out.spec_couts == out.exact_couts))

    def run_arrays(self, a: Union[Sequence[int], np.ndarray],
                   b: Union[Sequence[int], np.ndarray]) -> KernelBatch:
        """The whole speculate/detect/recover path for a batch of pairs.

        The one place that picks the lane type of a batch: *a* and *b*
        become :func:`~repro.families.words.lanes` (``uint64`` at widths
        up to 64, ``dtype=object`` above).  :meth:`add`,
        :meth:`flags_error` and :meth:`exact` then run once each on them,
        so a fault in any of the three shows in the batch.  Sums and
        carries come back in the lane type, ``flags``/``spec_errors`` as
        bool arrays; a detector that answers with one scalar is
        broadcast over the batch.
        """
        a = lanes(a, self.width).reshape(-1)
        b = lanes(b, self.width).reshape(-1)
        spec_sums, spec_couts = self.add(a, b)
        exact_sums, exact_couts = self.exact(a, b)
        flags = np.array(np.broadcast_to(
            np.asarray(self.flags_error(a, b), dtype=bool), a.shape))
        spec_errors = (spec_sums != exact_sums) | (spec_couts != exact_couts)
        return KernelBatch(spec_sums=spec_sums, spec_couts=spec_couts,
                           exact_sums=exact_sums, exact_couts=exact_couts,
                           flags=flags, spec_errors=spec_errors)

    def run_ints(self, vectors: Mapping[str, Union[int, Sequence[int]]]
                 ) -> Dict[str, Union[int, List[int]]]:
        """Bus-level interface mirroring the gate-level circuit.

        Same contract as :func:`repro.engine.execute_ints` on the
        family's speculative circuit: inputs ``a``/``b`` (optionally
        ``cin``), outputs ``sum``/``cout``; scalars in, scalars out.
        """
        def lanes(value: Union[int, Sequence[int]]) -> np.ndarray:
            return object_lanes([value] if isinstance(value, int)
                                else value)

        sums, couts = self.add(lanes(vectors["a"]), lanes(vectors["b"]),
                               lanes(vectors.get("cin", 0)))
        if isinstance(vectors["a"], int):
            return {"sum": sums[0], "cout": couts[0]}
        return {"sum": sums.tolist(), "cout": couts.tolist()}


def uint64_kernel(model: SpeculativeModel
                  ) -> Callable[[np.ndarray, np.ndarray], KernelBatch]:
    """*model*'s rule as a batch kernel ``kernel(a, b) -> KernelBatch``
    on uint64 lanes (widths up to 64).

    It calls :meth:`SpeculativeModel.evaluate`, not the wrappers, so the
    serving path runs the rule in one pass.
    """
    if model.width > 64:
        raise ValueError("numpy kernels support widths up to 64 bits")

    def kernel(a: np.ndarray, b: np.ndarray) -> KernelBatch:
        return model.evaluate(np.asarray(a, dtype=np.uint64),
                              np.asarray(b, dtype=np.uint64))

    return kernel


# ----------------------------------------------------------------------
# Analytic error model
# ----------------------------------------------------------------------
@dataclass
class FamilyErrorModel:
    """Exact analytic error statistics of one family configuration.

    The rational fields are exact over uniform operands (denominator a
    divisor of ``4^width``) — the verify layer multiplies them by
    ``4^width`` and demands *integer equality* with brute-force counts.
    """

    width: int
    params: Dict[str, int]
    exact_error_rate: Fraction
    exact_flag_rate: Fraction

    @property
    def error_rate(self) -> float:
        """P(speculative result wrong) on uniform operands."""
        return float(self.exact_error_rate)

    @property
    def flag_rate(self) -> float:
        """P(detector fires); >= :attr:`error_rate` (conservative)."""
        return float(self.exact_flag_rate)

    def expected_latency_cycles(self, recovery_cycles: int = 1) -> float:
        """Mean VLSA latency: 1 cycle + the penalty when flagged."""
        return 1.0 + self.flag_rate * recovery_cycles


# ----------------------------------------------------------------------
# The family protocol
# ----------------------------------------------------------------------
class AdderFamily(abc.ABC):
    """One speculative-adder architecture, end to end.

    Attributes:
        name: Registry key (stable, lowercase).
        title: Human-readable architecture name.
        paper: Reference the architecture reproduces.
        primary_param: The parameter a bare integer knob (the CLI's
            ``--window``) maps onto for this family.
    """

    name: str = "?"
    title: str = "?"
    paper: str = "?"
    primary_param: str = "window"

    # -- parameters ----------------------------------------------------
    @abc.abstractmethod
    def default_params(self, width: int) -> Dict[str, int]:
        """Default parameters for *width* (the family's 'paper' config)."""

    def normalize_params(self, width: int,
                         params: Dict[str, int]) -> Dict[str, int]:
        """Clamp/validate *params*; default clamps every value to
        ``[1, width]``."""
        out = {}
        for key, value in params.items():
            value = int(value)
            if value < 1:
                raise FamilyError(
                    f"{self.name}: parameter {key} must be >= 1")
            out[key] = min(value, width)
        return out

    def resolve_params(self, width: int,
                       window: Optional[int] = None,
                       **overrides: Optional[int]) -> Dict[str, int]:
        """Resolve the deployment knobs into concrete parameters.

        This is the single defaulting point every entry layer (CLI,
        generator, service, cluster, verify, bench) goes through.

        Args:
            width: Operand bitwidth.
            window: Bare integer knob; sets :attr:`primary_param`.
            **overrides: Per-parameter overrides (``None`` values are
                ignored so call sites can forward optional flags).
        """
        if width <= 0:
            raise FamilyError("width must be positive")
        params = dict(self.default_params(width))
        if window is not None:
            params[self.primary_param] = int(window)
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in params:
                raise FamilyError(
                    f"{self.name} has no parameter {key!r}; "
                    f"available: {sorted(params)}")
            params[key] = int(value)
        return self.normalize_params(width, params)

    def primary_value(self, width: int,
                      params: Mapping[str, int]) -> int:
        """The primary knob's value (used for report/window columns)."""
        return int(params[self.primary_param])

    # -- hardware ------------------------------------------------------
    @abc.abstractmethod
    def build_speculative(self, width: int, **params: int) -> Circuit:
        """The approximate adder core (``a``/``b`` -> ``sum``/``cout``)."""

    @abc.abstractmethod
    def build_circuit(self, width: int, **params: int) -> Circuit:
        """The full datapath: speculative core + detector + recovery
        (outputs ``sum``, ``cout``, ``err``, ``sum_exact``,
        ``cout_exact``)."""

    def design_kinds(self) -> Dict[str, Callable[[int, Optional[int]],
                                                 Circuit]]:
        """Generator entries this family contributes to ``DESIGN_KINDS``.

        Default: ``<name>`` (speculative core) and ``<name>_r``
        (datapath with rectification/recovery), both resolving their
        parameters through :meth:`resolve_params`.
        """
        def spec(width: int, window: Optional[int] = None) -> Circuit:
            return self.build_speculative(
                width, **self.resolve_params(width, window))

        def datapath(width: int, window: Optional[int] = None) -> Circuit:
            return self.build_circuit(
                width, **self.resolve_params(width, window))

        return {self.name: spec, f"{self.name}_r": datapath}

    # -- software ------------------------------------------------------
    @abc.abstractmethod
    def functional(self, width: int, **params: int) -> SpeculativeModel:
        """Bit-accurate big-int model of the hardware behaviour."""

    def numpy_kernel(self, width: int, **params: int
                     ) -> Optional[Callable[..., KernelBatch]]:
        """Vectorised uint64 batch kernel ``kernel(a, b) -> KernelBatch``:
        the :meth:`functional` model's rule on uint64 lanes
        (:func:`uint64_kernel`), or ``None`` above 64 bits."""
        if width > 64:
            return None
        return uint64_kernel(self.functional(width, **params))

    # -- analytics -----------------------------------------------------
    #: What makes the detector fire at a cut: ``"window"`` (the
    #: conservative detector: the lookahead window is all-propagate) or
    #: ``"error"`` (an exact detector: the prediction is actually wrong).
    flag_event: str = "window"

    @abc.abstractmethod
    def speculation_cuts(self, width: int, **params: int
                         ) -> List[Boundary]:
        """The cuts whose carries this configuration predicts, each
        with its lookahead (anchored cuts may be listed; they never
        err)."""

    def _cuts(self, width: int,
              params: Mapping[str, int]) -> Tuple[Boundary, ...]:
        """:meth:`speculation_cuts` of the normalized *params*, memoized
        per configuration (the policy engine asks for the same cuts on
        every decision)."""
        key = (width, tuple(sorted(params.items())))
        cache = self.__dict__.setdefault("_cuts_cache", {})
        cuts = cache.get(key)
        if cuts is None:
            cuts = cache[key] = tuple(self.speculation_cuts(
                width, **self.normalize_params(width, dict(params))))
        return cuts

    def error_model(self, width: int, **params: int) -> FamilyErrorModel:
        """Exact analytic error-rate statistics (uniform operands).

        Memoized per family instance: the model is a pure function of
        ``(width, params)``, and the verifier's per-run rate checks ask
        for it repeatedly.
        """
        key = (width, tuple(sorted(params.items())))
        cache = self.__dict__.setdefault("_error_model_cache", {})
        if key not in cache:
            params = self.normalize_params(width, dict(params))
            cuts = self._cuts(width, params)
            errors = speculation_mass(width, cuts, "error")
            flags = (errors if self.flag_event == "error" else
                     speculation_mass(width, cuts, self.flag_event))
            total = 1 << (2 * width)
            cache[key] = FamilyErrorModel(
                width=width, params=params,
                exact_error_rate=Fraction(errors, total),
                exact_flag_rate=Fraction(flags, total))
        return cache[key]

    def flag_probability(self, width: int, p_propagate: float,
                         p_generate: Optional[float] = None,
                         **params: int) -> float:
        """P(detector fires) when every bit independently propagates
        with probability *p_propagate* and generates with *p_generate*
        (default: half of the non-propagate mass, as for independent
        operands of equal bias).  At ``p_propagate = 0.5`` this is the
        exact uniform :attr:`FamilyErrorModel.flag_rate`."""
        p = p_propagate
        g = (1.0 - p) / 2.0 if p_generate is None else p_generate
        return speculation_mass(width, self._cuts(width, params),
                                self.flag_event,
                                (max(1.0 - p - g, 0.0), g, p),
                                cin=(1.0, 0.0))

    def error_distribution(self, width: int, **params: int
                           ) -> Optional[EdDistribution]:
        """Exact error-distance distribution, where tractable."""
        return None

    # -- misc ----------------------------------------------------------
    def label(self, width: int, params: Mapping[str, int]) -> str:
        tail = "_".join(f"{k[0]}{v}" for k, v in sorted(params.items()))
        return f"{self.name}{width}_{tail}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AdderFamily {self.name}>"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_FAMILIES: Dict[str, AdderFamily] = {}


def register_family(family: AdderFamily) -> AdderFamily:
    """Register *family* (replacing any previous entry of that name)."""
    if not isinstance(family, AdderFamily):
        raise FamilyError("register_family expects an AdderFamily")
    _FAMILIES[family.name] = family
    return family


def unregister_family(name: str) -> None:
    """Remove a registered family (test cleanup; builtins come back on
    the next :func:`_ensure_builtin`)."""
    _FAMILIES.pop(name, None)


def _ensure_builtin() -> None:
    if "aca" not in _FAMILIES:
        from . import aca, blockspec, cesa  # noqa: F401  (register)


def family_names() -> List[str]:
    """Registered family names, deterministically sorted."""
    _ensure_builtin()
    return sorted(_FAMILIES)


def get_family(name: str) -> AdderFamily:
    """Look up a registered family by name."""
    _ensure_builtin()
    try:
        return _FAMILIES[name]
    except KeyError:
        raise FamilyError(
            f"unknown adder family {name!r}; available: "
            f"{', '.join(family_names())}") from None


def resolve_params(name: str, width: int, window: Optional[int] = None,
                   **overrides: Optional[int]) -> Dict[str, int]:
    """Shorthand: ``get_family(name).resolve_params(...)``."""
    return get_family(name).resolve_params(width, window=window,
                                           **overrides)


def functional_factory(family: AdderFamily
                       ) -> Callable[..., SpeculativeModel]:
    """Adapter registering a family with the engine's functional-model
    registry: ``factory(width, window=None, **overrides)`` resolves the
    knobs through the family and instantiates its functional model."""
    def make(width: int, window: Optional[int] = None,
             **overrides: Optional[int]) -> SpeculativeModel:
        params = family.resolve_params(width, window=window, **overrides)
        return family.functional(width, **params)
    return make
