"""The scenario catalog: named, parameterized scenario families.

The paper's evaluation is a handful of fixed workloads mapped onto one
board family.  A *scenario family* generalises that: it is a named recipe
that turns a parameter dictionary plus a seed into one concrete
``(design, board)`` mapping instance.  Families combine the workload
builders of :mod:`repro.design.workloads`, the synthetic generator of
:mod:`repro.design.generator` and the board builders of
:mod:`repro.arch.builder`, so a single catalog covers both "the paper's
image pipeline at growing line widths" and "a synthetic board scaled to
N banks".

The families form a fixed table, built at import from the built-in
definitions at the end of this module.  Each declares its parameters
(:class:`ParamSpec`: name, type, default, meaning); instantiating a
:class:`ScenarioPoint` validates the supplied parameters against those
specs, so a typo'd knob is an :class:`UnknownScenarioError` /
:class:`ScenarioParamError` at grid-parse time rather than a silent
default deep inside a sweep.

Explore artifacts record their grid through
:func:`repro.io.scenario_grid_to_dict` (kind ``"scenario_grid"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Tuple

from ..arch.board import Board
from ..arch.builder import (
    apex_board,
    board_with_complexity,
    flex10k_board,
    heterogeneous_cost_board,
    hierarchical_board,
    virtex_board,
)
from ..design.dagsched import DagScheduleGenerator
from ..design.design import Design
from ..design.generator import DesignGenerator
from ..design.workloads import (
    fft_design,
    fir_filter_design,
    image_pipeline_design,
    matrix_multiply_design,
    motion_estimation_design,
)

__all__ = [
    "ExploreError",
    "UnknownScenarioError",
    "ScenarioParamError",
    "ParamSpec",
    "ScenarioFamily",
    "ScenarioPoint",
    "scenario_family",
    "list_scenario_families",
]


class ExploreError(Exception):
    """Base class of the explore subsystem's user-facing errors."""


class UnknownScenarioError(ExploreError):
    """A scenario family name is not one of the built-in families."""


class ScenarioParamError(ExploreError):
    """A scenario parameter is unknown or has an invalid value."""


#: Boards a workload scenario can name in its ``board`` parameter.
NAMED_BOARDS: Dict[str, Callable[[], Board]] = {
    "hierarchical": hierarchical_board,
    "virtex-xcv1000": lambda: virtex_board("XCV1000"),
    "virtex-xcv300": lambda: virtex_board("XCV300"),
    "apex-ep20k400e": lambda: apex_board("EP20K400E"),
    "flex10k-epf10k100": lambda: flex10k_board("EPF10K100"),
}


def _named_board(name: str) -> Board:
    try:
        return NAMED_BOARDS[name]()
    except KeyError:
        raise ScenarioParamError(
            f"unknown board {name!r}; scenario boards are "
            f"{', '.join(sorted(NAMED_BOARDS))}"
        ) from None


@dataclass(frozen=True)
class ParamSpec:
    """One parameter a scenario family accepts."""

    name: str
    kind: str  # "int" | "float" | "str"
    default: Any
    description: str = ""

    def coerce(self, value: Any) -> Any:
        """Parse/convert ``value`` to this parameter's type."""
        try:
            if self.kind == "int":
                if isinstance(value, float) and value != int(value):
                    raise ValueError(value)
                return int(value)
            if self.kind == "float":
                return float(value)
            if self.kind == "str":
                return str(value)
        except (TypeError, ValueError):
            raise ScenarioParamError(
                f"parameter {self.name!r} expects {self.kind}, got {value!r}"
            ) from None
        raise ScenarioParamError(
            f"parameter {self.name!r} has unsupported kind {self.kind!r}"
        )


@dataclass(frozen=True)
class ScenarioFamily:
    """A named recipe turning parameters + seed into (design, board)."""

    name: str
    description: str
    params: Tuple[ParamSpec, ...]
    builder: Callable[[Mapping[str, Any], int], Tuple[Design, Board]] = field(
        repr=False
    )
    #: Whether the builder actually consumes the seed.  The paper's fixed
    #: workloads are fully determined by their parameters; marking them
    #: insensitive lets :class:`ScenarioPoint` normalise the seed to 0 so
    #: labels and cache keys do not pretend ``~s1`` and ``~s2`` are
    #: different instances.
    seed_sensitive: bool = True

    def param(self, name: str) -> ParamSpec:
        for spec in self.params:
            if spec.name == name:
                return spec
        raise ScenarioParamError(
            f"scenario {self.name!r} has no parameter {name!r}; "
            f"it accepts {', '.join(spec.name for spec in self.params)}"
        )

    def resolve_params(self, overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """Defaults merged with validated/coerced ``overrides``."""
        resolved = {spec.name: spec.default for spec in self.params}
        for key, value in overrides.items():
            resolved[key] = self.param(key).coerce(value)
        return resolved

    def build(
        self, overrides: Mapping[str, Any], seed: int = 0
    ) -> Tuple[Design, Board]:
        return self.builder(self.resolve_params(overrides), seed)


@dataclass(frozen=True)
class ScenarioPoint:
    """One concrete scenario: a family plus explicit parameter overrides.

    Only the *overrides* are stored (the family's defaults fill the rest
    at build time), which keeps labels and serialised points minimal and
    stable when a family grows new parameters.
    """

    family: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        # Validate eagerly: a bad family or parameter should fail at
        # grid-construction time, not mid-sweep inside a worker.
        family = scenario_family(self.family)
        object.__setattr__(self, "params", dict(self.params))
        for key, value in self.params.items():
            self.params[key] = family.param(key).coerce(value)
        if not family.seed_sensitive:
            # The builder ignores the seed, so distinct seeds would only
            # fork labels and cache keys of identical instances.
            object.__setattr__(self, "seed", 0)

    def __hash__(self) -> int:
        # frozen=True's generated __hash__ would choke on the params
        # dict; hash a canonical form consistent with dict equality.
        return hash((self.family, frozenset(self.params.items()), self.seed))

    def label(self) -> str:
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        suffix = f"[{inner}]" if inner else ""
        seed = f"~s{self.seed}" if self.seed else ""
        return f"{self.family}{suffix}{seed}"

    def resolved_params(self) -> Dict[str, Any]:
        return scenario_family(self.family).resolve_params(self.params)

    def build(self) -> Tuple[Design, Board]:
        """Instantiate the (design, board) pair of this point."""
        return scenario_family(self.family).build(self.params, seed=self.seed)


# ---------------------------------------------------------------------------
# Built-in scenario families
# ---------------------------------------------------------------------------

def _build_image_pipeline(params: Mapping[str, Any], seed: int) -> Tuple[Design, Board]:
    design = image_pipeline_design(
        image_width=params["width"],
        pixel_bits=params["pixel_bits"],
        kernel_size=params["kernel"],
    )
    return design, _named_board(params["board"])


def _build_fir(params: Mapping[str, Any], seed: int) -> Tuple[Design, Board]:
    design = fir_filter_design(
        taps=params["taps"],
        block_size=params["block"],
        sample_bits=params["bits"],
    )
    return design, _named_board(params["board"])


def _build_fft(params: Mapping[str, Any], seed: int) -> Tuple[Design, Board]:
    design = fft_design(points=params["points"], sample_bits=params["bits"])
    return design, _named_board(params["board"])


def _build_matmul(params: Mapping[str, Any], seed: int) -> Tuple[Design, Board]:
    design = matrix_multiply_design(tile=params["tile"], element_bits=params["bits"])
    return design, _named_board(params["board"])


def _build_motion(params: Mapping[str, Any], seed: int) -> Tuple[Design, Board]:
    design = motion_estimation_design(
        block=params["block"],
        search_range=params["search"],
        pixel_bits=params["pixel_bits"],
    )
    return design, _named_board(params["board"])


def _build_random(params: Mapping[str, Any], seed: int) -> Tuple[Design, Board]:
    board = _named_board(params["board"])
    generator = DesignGenerator(seed=seed, conflict_density=params["conflict_density"])
    design = generator.generate(
        params["structures"],
        name=f"random-{params['structures']}seg",
        board=board,
        target_occupancy=params["occupancy"],
    )
    return design, board


def _build_board_scale(params: Mapping[str, Any], seed: int) -> Tuple[Design, Board]:
    banks = params["banks"]
    if banks < 2:
        raise ScenarioParamError("board-scale needs banks >= 2")
    # Derived so the (banks, ports, configs) triple is always consistent
    # with board_with_complexity: half the banks dual-ported, five
    # configuration settings per multi-configuration port.
    ports = banks + banks // 2
    configs = 5 * (ports // 2)
    board = board_with_complexity(
        total_banks=banks,
        total_ports=ports,
        total_configs=configs,
        seed=seed,
        name=f"scale-{banks}banks",
    )
    generator = DesignGenerator(seed=seed, conflict_density=params["conflict_density"])
    design = generator.generate(
        params["segments"],
        name=f"scale-{params['segments']}seg",
        board=board,
        target_occupancy=params["occupancy"],
    )
    return design, board


def _build_dag_schedule(params: Mapping[str, Any], seed: int) -> Tuple[Design, Board]:
    board = _named_board(params["board"])
    generator = DagScheduleGenerator(
        seed=seed,
        depth=params["depth"],
        width=params["width"],
        burstiness=params["burstiness"],
        branch_factor=params["branch"],
        slots=params["slots"],
    )
    design = generator.generate(
        board=board, target_occupancy=params["occupancy"]
    )
    return design, board


def _build_hetero_cost(params: Mapping[str, Any], seed: int) -> Tuple[Design, Board]:
    board = heterogeneous_cost_board(
        tiers=params["tiers"],
        banks_per_tier=params["banks_per_tier"],
        cost_spread=params["cost_spread"],
        seed=seed,
    )
    generator = DesignGenerator(
        seed=seed, conflict_density=params["conflict_density"]
    )
    design = generator.generate(
        params["segments"],
        name=f"hetero-{params['segments']}seg",
        board=board,
        target_occupancy=params["occupancy"],
    )
    return design, board


_BOARD_PARAM = ParamSpec(
    "board", "str", "hierarchical", "named board (see NAMED_BOARDS)"
)

_BUILTIN_FAMILIES: Tuple[ScenarioFamily, ...] = (
    ScenarioFamily(
        name="image-pipeline",
        description="2-D convolution + histogram + gamma pipeline at a line width",
        params=(
            ParamSpec("width", "int", 512, "image line width in pixels"),
            ParamSpec("kernel", "int", 3, "convolution kernel size"),
            ParamSpec("pixel_bits", "int", 8, "pixel word width"),
            _BOARD_PARAM,
        ),
        builder=_build_image_pipeline,
        seed_sensitive=False,
    ),
    ScenarioFamily(
        name="fir-filter",
        description="block-processing FIR filter",
        params=(
            ParamSpec("taps", "int", 64, "filter tap count"),
            ParamSpec("block", "int", 1024, "samples per block"),
            ParamSpec("bits", "int", 16, "sample word width"),
            _BOARD_PARAM,
        ),
        builder=_build_fir,
        seed_sensitive=False,
    ),
    ScenarioFamily(
        name="fft",
        description="iterative radix-2 FFT with ping-pong buffers",
        params=(
            ParamSpec("points", "int", 1024, "transform size"),
            ParamSpec("bits", "int", 16, "sample word width"),
            _BOARD_PARAM,
        ),
        builder=_build_fft,
        seed_sensitive=False,
    ),
    ScenarioFamily(
        name="matrix-multiply",
        description="blocked matrix multiply",
        params=(
            ParamSpec("tile", "int", 64, "tile edge length"),
            ParamSpec("bits", "int", 16, "element word width"),
            _BOARD_PARAM,
        ),
        builder=_build_matmul,
        seed_sensitive=False,
    ),
    ScenarioFamily(
        name="motion-estimation",
        description="full-search block-matching motion estimation",
        params=(
            ParamSpec("block", "int", 16, "macroblock edge length"),
            ParamSpec("search", "int", 16, "search range in pixels"),
            ParamSpec("pixel_bits", "int", 8, "pixel word width"),
            _BOARD_PARAM,
        ),
        builder=_build_motion,
        seed_sensitive=False,
    ),
    ScenarioFamily(
        name="random",
        description="seeded synthetic design on a named board",
        params=(
            ParamSpec("structures", "int", 8, "number of data structures"),
            ParamSpec("conflict_density", "float", 1.0, "conflicting pair share"),
            ParamSpec("occupancy", "float", 0.45, "target board occupancy"),
            _BOARD_PARAM,
        ),
        builder=_build_random,
    ),
    ScenarioFamily(
        name="board-scale",
        description="synthetic design on a board scaled to N banks (Table 3)",
        params=(
            ParamSpec("segments", "int", 8, "number of data structures"),
            ParamSpec("banks", "int", 8, "total physical banks"),
            ParamSpec("conflict_density", "float", 1.0, "conflicting pair share"),
            ParamSpec("occupancy", "float", 0.45, "target board occupancy"),
        ),
        builder=_build_board_scale,
    ),
    ScenarioFamily(
        name="dag-schedule",
        description="time-indexed DAG of tasks list-scheduled under per-slot capacity",
        params=(
            ParamSpec("depth", "int", 4, "layers in the task DAG"),
            ParamSpec("width", "int", 3, "base tasks per layer"),
            ParamSpec("burstiness", "float", 0.0, "layer-width swing in [0, 1]"),
            ParamSpec("branch", "float", 0.5, "inter-layer edge density in [0, 1]"),
            ParamSpec("slots", "int", 2, "schedule slots per control step"),
            ParamSpec("occupancy", "float", 0.45, "target board occupancy"),
            _BOARD_PARAM,
        ),
        builder=_build_dag_schedule,
    ),
    ScenarioFamily(
        name="hetero-cost",
        description="synthetic design on cost-tiered banks (instance-class style)",
        params=(
            ParamSpec("tiers", "int", 3, "memory cost tiers (0 = on-chip)"),
            ParamSpec("banks_per_tier", "int", 4, "bank instances per tier"),
            ParamSpec("cost_spread", "float", 2.0, "latency/pin growth per tier"),
            ParamSpec("segments", "int", 10, "number of data structures"),
            ParamSpec("conflict_density", "float", 1.0, "conflicting pair share"),
            ParamSpec("occupancy", "float", 0.45, "target board occupancy"),
        ),
        builder=_build_hetero_cost,
    ),
)

#: Every scenario family by name, fixed at import.
_FAMILIES: Mapping[str, ScenarioFamily] = MappingProxyType(
    {family.name: family for family in _BUILTIN_FAMILIES}
)


def scenario_family(name: str) -> ScenarioFamily:
    """Look up a family by name; raises :class:`UnknownScenarioError`."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario family {name!r}; known families are "
            f"{', '.join(sorted(_FAMILIES))}"
        ) from None


def list_scenario_families() -> List[ScenarioFamily]:
    """Every family, sorted by name."""
    return [_FAMILIES[name] for name in sorted(_FAMILIES)]
