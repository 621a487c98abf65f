"""Cross-solve state shared by the pipeline's retry loop.

The Section 4.1 flow re-runs the global ILP whenever detailed packing
fails.  Those re-solves are near-identical — same design, same board, one
extra forbidden ``(structure, type)`` pair — so everything learned in
retry ``N-1`` is still true in retry ``N``:

* the :class:`~repro.ilp.standard_form.StandardForm` of the (unchanging)
  model can be cached instead of rebuilt,
* the previous incumbent is a strong warm start after a tiny repair,
* pseudo-cost branching statistics keep steering the tree search.

:class:`SolveContext` carries exactly that state.  It is created per
pipeline run, threaded through :class:`repro.core.GlobalMapper` into the
branch-and-bound solver; its warm-start and form-reuse counts join the
solve statistics that ``MappingResult`` / ``repro map --json`` report
(the solver counters themselves are summed from each solve's
:class:`~repro.ilp.solution.SolveStats`).  Contexts serialise to plain
dictionaries (:meth:`as_dict` / :meth:`from_dict`) so a detached copy can
be handed to another solver.

Pseudo-costs are keyed by *variable name*, not index: names are stable
across retries (the model is reused, forbidden pairs arrive as bound
fixings), and they stay meaningful even if a future model rebuild
renumbers columns.

Name-keyed state is also what makes contexts *chainable across adjacent
design points*: a sweep that changes one knob at a time (the
``repro.explore`` subsystem) keeps most structure and bank-type names
stable from one point to the next, so the previous point's incumbent
assignment remains a useful seed even though the models differ.
:meth:`SolveContext.chain_dict` exports exactly that transferable subset
(plus the root basis) and :meth:`SolveContext.from_chain_dict` rebuilds a
context from it.  Pseudo-costs stay within one solve and its retries:
every mapping model branches on its SOS-1 groups, so no chained solve
ever read them.  Model-specific state (the cached standard form, the
full-space warm-start vector, the counters) never crosses the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from .revised_simplex import BasisState
from .standard_form import StandardForm, to_standard_form

__all__ = ["PseudoCost", "SolveContext"]


@dataclass
class PseudoCost:
    """Per-variable branching history: objective gain per unit fractionality."""

    down_sum: float = 0.0
    down_count: int = 0
    up_sum: float = 0.0
    up_count: int = 0

    def update(self, direction: str, unit_gain: float) -> None:
        unit_gain = max(0.0, float(unit_gain))
        if direction == "down":
            self.down_sum += unit_gain
            self.down_count += 1
        else:
            self.up_sum += unit_gain
            self.up_count += 1

    def estimate(self, direction: str, default: float) -> float:
        if direction == "down":
            return self.down_sum / self.down_count if self.down_count else default
        return self.up_sum / self.up_count if self.up_count else default

    @property
    def observations(self) -> int:
        return self.down_count + self.up_count

    def as_dict(self) -> Dict[str, float]:
        return {
            "down_sum": self.down_sum,
            "down_count": self.down_count,
            "up_sum": self.up_sum,
            "up_count": self.up_count,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PseudoCost":
        return cls(
            down_sum=float(data.get("down_sum", 0.0)),
            down_count=int(data.get("down_count", 0)),
            up_sum=float(data.get("up_sum", 0.0)),
            up_count=int(data.get("up_count", 0)),
        )


class SolveContext:
    """Carries warm-start state and statistics across repeated solves."""

    def __init__(self) -> None:
        self.pseudocosts: Dict[str, PseudoCost] = {}
        #: full-space incumbent of the most recent successful solve
        self.warm_values: Optional[np.ndarray] = None
        #: name-keyed incumbent (``structure -> bank type``) of the most
        #: recent successful solve; unlike :attr:`warm_values` this is
        #: meaningful for a *different* model too, which is what lets the
        #: explore subsystem chain adjacent design points together.
        self.seed_assignment: Optional[Dict[str, str]] = None
        #: root-relaxation basis of the most recent revised-kernel solve;
        #: the next solve's root LP dual-warm-starts from it (validated
        #: against the new form's dimensions by the kernel itself).
        self.warm_basis: Optional[BasisState] = None
        #: incumbent updates that came from a warm start
        self.warm_start_hits: int = 0
        #: solves that reused the cached standard form
        self.form_reuses: int = 0
        self._form_cache: Tuple[Optional[object], Optional[StandardForm]] = (None, None)

    # ------------------------------------------------------------ form cache
    def standard_form(self, model) -> StandardForm:
        """``to_standard_form(model)``, cached across retries.

        Keyed by object identity — the retry loop reuses one Model — and
        verified with an ``is`` check against the strong reference held
        here, so a recycled ``id()`` can never alias a dead model.
        """
        cached_model, cached_form = self._form_cache
        if cached_model is model and cached_form is not None:
            self.form_reuses += 1
            return cached_form
        form = to_standard_form(model)
        self._form_cache = (model, form)
        return form

    # ------------------------------------------------------------ pseudo-cost
    def pseudocost(self, name: str) -> PseudoCost:
        entry = self.pseudocosts.get(name)
        if entry is None:
            entry = PseudoCost()
            self.pseudocosts[name] = entry
        return entry

    def average_unit_gain(self) -> float:
        """Mean observed unit gain, used to initialise unseen variables."""
        total = 0.0
        count = 0
        for entry in self.pseudocosts.values():
            total += entry.down_sum + entry.up_sum
            count += entry.observations
        return total / count if count else 1.0

    # -------------------------------------------------------------- incumbent
    def note_incumbent(self, values: Optional[np.ndarray]) -> None:
        """Remember the solve's incumbent as the next retry's warm start."""
        if values is not None:
            self.warm_values = np.asarray(values, dtype=np.float64).copy()

    def note_assignment(self, assignment: Optional[Mapping[str, str]]) -> None:
        """Remember the solve's assignment as the next *chained* solve's seed."""
        if assignment:
            self.seed_assignment = dict(assignment)

    def note_basis(self, basis: Optional[BasisState]) -> None:
        """Remember a solve's root basis as the next solve's warm start."""
        if basis is not None:
            self.warm_basis = basis.copy()

    # ------------------------------------------------------------ round trip
    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (crosses process boundaries with job results)."""
        return {
            "kind": "solve_context",
            "warm_start_hits": self.warm_start_hits,
            "form_reuses": self.form_reuses,
            "pseudocosts": {k: v.as_dict() for k, v in self.pseudocosts.items()},
            "warm_values": (
                None if self.warm_values is None else self.warm_values.tolist()
            ),
            "seed_assignment": (
                None if self.seed_assignment is None else dict(self.seed_assignment)
            ),
            "warm_basis": (
                None if self.warm_basis is None else self.warm_basis.as_dict()
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolveContext":
        ctx = cls()
        ctx.warm_start_hits = int(data.get("warm_start_hits", 0))
        ctx.form_reuses = int(data.get("form_reuses", 0))
        ctx.pseudocosts = {
            k: PseudoCost.from_dict(v)
            for k, v in (data.get("pseudocosts") or {}).items()
        }
        warm = data.get("warm_values")
        ctx.warm_values = None if warm is None else np.asarray(warm, dtype=np.float64)
        seed = data.get("seed_assignment")
        ctx.seed_assignment = None if seed is None else dict(seed)
        basis = data.get("warm_basis")
        ctx.warm_basis = None if basis is None else BasisState.from_dict(basis)
        return ctx

    # ---------------------------------------------------------------- chaining
    def chain_dict(self) -> Dict[str, Any]:
        """The name-keyed state transferable to an *adjacent* model's solve.

        This is the explore subsystem's chaining hook: the previous design
        point's incumbent assignment (by structure/type name) and its root
        basis.  Everything tied to this context's concrete model — the
        cached standard form, the full-space warm-start vector, the
        pseudo-costs, the counters — is deliberately left behind.
        """
        return {
            "kind": "solve_context_chain",
            "seed_assignment": (
                None if self.seed_assignment is None else dict(self.seed_assignment)
            ),
            # The root basis crosses the chain too: adjacent design
            # points frequently share the exact model shape, and the
            # kernel validates dimensions before reusing it (a mismatch
            # silently cold-starts, so a stale basis can never mislead).
            "warm_basis": (
                None if self.warm_basis is None else self.warm_basis.as_dict()
            ),
        }

    @classmethod
    def from_chain_dict(cls, data: Mapping[str, Any]) -> "SolveContext":
        """Fresh context seeded with a previous point's :meth:`chain_dict`.

        A ``pseudocosts`` key, which chains written by older versions
        carry (a resumed checkpoint, say), is ignored.
        """
        ctx = cls()
        seed = data.get("seed_assignment")
        ctx.seed_assignment = None if seed is None else dict(seed)
        basis = data.get("warm_basis")
        ctx.warm_basis = None if basis is None else BasisState.from_dict(basis)
        return ctx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SolveContext(warm_start_hits={self.warm_start_hits}, "
            f"pseudocosts={len(self.pseudocosts)})"
        )
