"""Scenario grids: sweep specifications over the scenario families.

A grid is a list of *sweeps*.  Each sweep names one scenario family and a
set of parameter axes; its points are the Cartesian product of the axis
values, enumerated in **snake order** (last axis fastest, reversing
direction on every pass) so that consecutive points always differ in
exactly one knob.  That enumeration order is the sweep's *chain*: the
explorer hands each point's solve state to the next point as a warm
start (see :mod:`repro.ilp.context`), which only pays off when
neighbours are similar — exactly what one-knob adjacency guarantees.

Grids are written on the command line as spec strings::

    family                              # one point, all defaults
    family@knob=4                       # one point, one override
    family@knob=4:12:2                  # inclusive integer range sweep
    family@knob=0.2|0.5|0.9             # explicit value list
    family@a=1:3,b=x|y                  # 2-D sweep: (a=1,b=x), (a=1,b=y), ...

and parsed by :meth:`ScenarioGrid.parse`.  Values are typed against the
family's :class:`~repro.explore.scenarios.ParamSpec`; numeric ranges use
``lo:hi[:step]`` (step defaults to 1 and must be supplied for floats).
Bad specs raise :class:`GridSpecError` before anything runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

from .scenarios import (
    ExploreError,
    ScenarioParamError,
    ScenarioPoint,
    scenario_family,
)

__all__ = ["GridSpecError", "ScenarioSweep", "ScenarioGrid"]


class GridSpecError(ExploreError):
    """A grid spec string cannot be parsed."""


def _parse_axis_values(family: str, key: str, text: str) -> Tuple[Any, ...]:
    """Parse one axis's value expression into a tuple of typed values."""
    spec = scenario_family(family).param(key)
    if "|" in text:
        parts = [part.strip() for part in text.split("|")]
        if any(not part for part in parts):
            # "k=1|" or "k=|" used to silently drop the empty alternative,
            # turning a typo into a smaller sweep than the user asked for.
            raise GridSpecError(
                f"empty alternative in {family}@{key}={text!r}; every value "
                "between '|' separators must be non-empty"
            )
        return tuple(spec.coerce(part) for part in parts)
    if ":" in text and spec.kind in ("int", "float"):
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise GridSpecError(
                f"bad range {text!r} for {family}@{key}; use lo:hi[:step]"
            )
        if len(parts) == 2 and spec.kind == "float":
            raise GridSpecError(
                f"float range {text!r} for {family}@{key} needs an explicit "
                "step (lo:hi:step)"
            )
        try:
            lo = spec.coerce(parts[0])
            hi = spec.coerce(parts[1])
            step = spec.coerce(parts[2]) if len(parts) == 3 else 1
        except ScenarioParamError as exc:
            raise GridSpecError(str(exc)) from exc
        if step <= 0 or hi < lo:
            raise GridSpecError(
                f"bad range {text!r} for {family}@{key}; need lo <= hi, step > 0"
            )
        values: List[Any] = []
        index = 0
        while True:
            value = lo + index * step
            if value > hi + (1e-9 if spec.kind == "float" else 0):
                break
            if spec.kind == "float":
                # Rounded so labels and cache keys stay free of float
                # accumulation noise (0.6000000000000001 and the like).
                value = round(value, 10)
            values.append(spec.coerce(value))
            index += 1
        return tuple(values)
    return (spec.coerce(text),)


@dataclass(frozen=True)
class ScenarioSweep:
    """One family plus ordered parameter axes (the unit of chaining)."""

    family: str
    #: ``key -> value tuple`` in axis order; insertion order is preserved
    #: and the **last** axis varies fastest in :meth:`points`.
    axes: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        scenario_family(self.family)  # fail fast on unknown families
        object.__setattr__(self, "axes", dict(self.axes))
        for key, values in self.axes.items():
            spec = scenario_family(self.family).param(key)
            if not values:
                raise GridSpecError(f"axis {self.family}@{key} has no values")
            self.axes[key] = tuple(spec.coerce(v) for v in values)

    def __hash__(self) -> int:
        # frozen=True would generate a __hash__ over the raw fields, and
        # hashing the axes dict raises TypeError; hash a canonical form
        # instead.  frozenset keeps the hash consistent with dict
        # equality, which ignores insertion order.
        return hash((self.family, frozenset(self.axes.items())))

    @property
    def num_points(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    def iter_points(self, seed: int = 0) -> Iterator[ScenarioPoint]:
        """Lazily enumerate the Cartesian product in snake order.

        The last axis varies fastest and reverses direction on every
        pass, so *consecutive points always differ in exactly one knob* —
        including at axis rollovers — which is the adjacency the warm
        chain relies on.  Nothing is materialised: a 10^6-point sweep
        costs one :class:`~repro.explore.scenarios.ScenarioPoint` at a
        time, which is what lets the streaming explorer run grids far
        beyond what :meth:`points` could hold in memory.
        """
        keys = list(self.axes)
        if not keys:
            yield ScenarioPoint(family=self.family, params={}, seed=seed)
            return
        values = [self.axes[key] for key in keys]
        counts = [len(v) for v in values]
        # Per-axis suffix strides: axis k advances every prod(counts[k+1:])
        # ranks, and its direction flips with the parity of the enclosing
        # block index — the closed form of the nested snake expansion.
        strides = [1] * len(keys)
        for k in range(len(keys) - 2, -1, -1):
            strides[k] = strides[k + 1] * counts[k + 1]
        total = strides[0] * counts[0]
        for rank in range(total):
            combo: Dict[str, Any] = {}
            for k, key in enumerate(keys):
                block = rank // (strides[k] * counts[k])
                offset = (rank // strides[k]) % counts[k]
                if block % 2:
                    offset = counts[k] - 1 - offset
                combo[key] = values[k][offset]
            yield ScenarioPoint(family=self.family, params=combo, seed=seed)

    def points(self, seed: int = 0) -> List[ScenarioPoint]:
        """Materialised :meth:`iter_points` (small sweeps and tests)."""
        return list(self.iter_points(seed=seed))

    @classmethod
    def parse(cls, spec: str) -> "ScenarioSweep":
        """Parse a ``family[@k=v,k2=v1|v2,...]`` spec string."""
        spec = spec.strip()
        if not spec:
            raise GridSpecError("empty grid spec")
        family, _, tail = spec.partition("@")
        family = family.strip()
        scenario_family(family)
        axes: Dict[str, Tuple[Any, ...]] = {}
        if tail:
            for chunk in tail.split(","):
                chunk = chunk.strip()
                if not chunk:
                    continue
                key, eq, text = chunk.partition("=")
                key = key.strip()
                if not eq or not key or not text:
                    raise GridSpecError(
                        f"bad axis {chunk!r} in grid spec {spec!r}; use key=value"
                    )
                if key in axes:
                    raise GridSpecError(
                        f"axis {key!r} given twice in grid spec {spec!r}"
                    )
                axes[key] = _parse_axis_values(family, key, text.strip())
        return cls(family=family, axes=axes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "family": self.family,
            "axes": {key: list(values) for key, values in self.axes.items()},
        }


@dataclass(frozen=True)
class ScenarioGrid:
    """An ordered list of sweeps; one explorer run covers one grid."""

    sweeps: Tuple[ScenarioSweep, ...]

    def __post_init__(self) -> None:
        if not self.sweeps:
            raise GridSpecError("a scenario grid needs at least one sweep")
        object.__setattr__(self, "sweeps", tuple(self.sweeps))

    def __hash__(self) -> int:
        # The generated hash would recurse into the (unhashable-by-
        # default) sweeps before their explicit __hash__ existed; keep an
        # explicit one so the contract is deliberate, not incidental.
        return hash(self.sweeps)

    @classmethod
    def parse(cls, specs: Sequence[str]) -> "ScenarioGrid":
        """Build a grid from spec strings (one sweep per string)."""
        return cls(sweeps=tuple(ScenarioSweep.parse(spec) for spec in specs))

    @property
    def num_points(self) -> int:
        return sum(sweep.num_points for sweep in self.sweeps)

    def chains(self, seed: int = 0) -> List[List[ScenarioPoint]]:
        """One ordered point chain per sweep.

        The chain structure depends only on the grid (never on worker
        counts), which is what keeps warm-chained runs fingerprint-
        identical across ``--jobs`` settings.
        """
        return [sweep.points(seed=seed) for sweep in self.sweeps]

    def iter_chains(self, seed: int = 0) -> List[Iterator[ScenarioPoint]]:
        """Lazy :meth:`chains`: one point *iterator* per sweep.

        Same enumeration order as :meth:`chains`, but nothing is
        materialised — the streaming explorer pulls one point per chain
        per wave.
        """
        return [sweep.iter_points(seed=seed) for sweep in self.sweeps]

    def chain_lengths(self) -> List[int]:
        """Number of points of each chain (cheap: no enumeration)."""
        return [sweep.num_points for sweep in self.sweeps]

    def to_dict(self) -> Dict[str, Any]:
        return {"sweeps": [sweep.to_dict() for sweep in self.sweeps]}
