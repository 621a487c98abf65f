"""Global memory mapping: the ILP of Section 4.1.

Global mapping assigns every data structure to exactly one bank *type*
using only the ``Z[d][t]`` 0/1 variables.  The pre-processing of
:mod:`repro.core.preprocess` turns the architecture's instance/port/
configuration details into per-pair port and capacity loads, so three
families of linear constraints suffice:

Uniqueness
    :math:`\\sum_t Z_{dt} = 1` for every data structure *d* (each row is
    also declared as an SOS-1 group, which the branch-and-bound solver
    branches on).

Ports
    :math:`\\sum_d Z_{dt} \\cdot CP_{dt} \\le P_t \\cdot I_t` for every type *t*.

Capacity
    :math:`\\sum_d Z_{dt} \\cdot CW_{dt} \\cdot CD_{dt} \\le I_t \\cdot W_t[1] \\cdot D_t[1]`
    for every type *t*.  When conflict information shows that some
    structures can never be live simultaneously, the constraint can be
    applied per conflict clique instead of over all structures
    (``capacity_mode="clique"``), allowing storage overlap as described at
    the end of Section 4.1.2.

The objective is the weighted latency / pin-delay / pin-I/O cost of
:class:`repro.core.objective.CostModel`.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..arch.board import Board
from ..design.design import Design
from ..ilp import (
    FEASIBLE,
    OPTIMAL,
    Model,
    Solution,
    SolveContext,
    SolveStats,
    Variable,
    certified_gap,
    create_solver,
    quicksum,
)
from .mapping import GlobalMapping, MappingError
from .objective import CostModel, CostWeights
from .preprocess import Preprocessor

__all__ = ["GlobalMapper", "GlobalModelArtifacts"]

Pair = Tuple[str, str]


class _GlobalSkeleton:
    """Pre-computed constraint skeleton of one design's global ILP.

    Building a global model costs two very different things: deriving the
    numeric tables (feasibility mask, port charges, footprints, objective
    coefficients, conflict cliques) and instantiating `Model` objects.  The
    tables depend only on (design, board, weights) — never on the forbidden
    pairs the pipeline's retry loop adds — so they are computed once per
    design and reused by every build.
    """

    def __init__(
        self,
        design: Design,
        preprocessor: Preprocessor,
        cost_model: CostModel,
        capacity_mode: str,
    ) -> None:
        self.design = design
        self.preprocessor = preprocessor
        self.cost_model = cost_model

        unmappable = preprocessor.unmappable_structures()
        if unmappable:
            raise MappingError(
                "the following data structures fit on no bank type of board "
                f"{preprocessor.board.name!r}: {unmappable}"
            )
        feasible = preprocessor.feasible_pairs()
        #: per-structure admissible (bank name, d_index, t_index) candidates
        self.candidates: List[List[Tuple[str, int, int]]] = []
        board = preprocessor.board
        for d_index, ds in enumerate(design.data_structures):
            row = [
                (bank.name, d_index, t_index)
                for t_index, bank in enumerate(board.bank_types)
                if feasible[d_index, t_index]
            ]
            self.candidates.append(row)
        self.port_coeff = preprocessor.cp
        self.footprint = preprocessor.consumed_bits_table()
        self.coefficients = cost_model.coefficient_matrix()
        if capacity_mode == "strict":
            self.group_sets = [("all", [ds.name for ds in design.data_structures])]
        else:
            cliques = design.conflicts.conflict_cliques(design.data_structures)
            self.group_sets = [(f"clique{i}", clique) for i, clique in enumerate(cliques)]
        #: the model, built once per design; the solve path reuses it
        #: across the pipeline's retries and applies forbidden pairs as
        #: solver-level variable fixings.
        self.full_artifacts: Optional["GlobalModelArtifacts"] = None


class GlobalModelArtifacts:
    """The ILP model of a global-mapping instance plus its variable map.

    Exposed separately from :meth:`GlobalMapper.solve` so that tests,
    benchmarks and the solver-ablation study can inspect or re-solve the
    same model with different backends.
    """

    def __init__(
        self,
        model: Model,
        z_vars: Dict[Pair, Variable],
        preprocessor: Preprocessor,
        cost_model: CostModel,
    ) -> None:
        self.model = model
        self.z_vars = z_vars
        self.preprocessor = preprocessor
        self.cost_model = cost_model

    def assignment_from_solution(self, solution: Solution) -> Dict[str, str]:
        """Read the ``structure -> type`` assignment out of a solve result."""
        if not solution.is_success:
            raise MappingError(
                f"global mapping solve failed with status {solution.status!r}"
            )
        assignment: Dict[str, str] = {}
        for (structure, type_name), var in self.z_vars.items():
            if solution.rounded(var) == 1:
                if structure in assignment:
                    raise MappingError(
                        f"structure {structure!r} selected for two types "
                        f"({assignment[structure]!r} and {type_name!r})"
                    )
                assignment[structure] = type_name
        design = self.preprocessor.design
        missing = [ds.name for ds in design.data_structures if ds.name not in assignment]
        if missing:
            raise MappingError(f"structures left unassigned by the solver: {missing}")
        return assignment

    def warm_start_vector(self, assignment: Mapping[str, str]) -> Optional[np.ndarray]:
        """Translate an assignment into a warm-start vector for the solver."""
        values = np.zeros(self.model.num_variables)
        for (structure, type_name), var in self.z_vars.items():
            if assignment.get(structure) == type_name:
                values[var.index] = 1.0
        # Every structure must be covered, otherwise the vector is useless.
        covered = {s for (s, t) in self.z_vars if assignment.get(s) == t}
        if len(covered) != self.preprocessor.design.num_segments:
            return None
        return values


class GlobalMapper:
    """Builds and solves the global-mapping ILP for one board.

    Parameters
    ----------
    board:
        The target architecture.
    weights:
        Objective weights; defaults to normalised equal weighting.
    solver:
        Solver backend name (see :func:`repro.ilp.create_solver`).
    solver_options:
        Keyword options forwarded to the solver factory (time limits etc.).
    capacity_mode:
        ``"strict"`` (default) charges every assigned structure its full
        footprint; ``"clique"`` applies the capacity constraint per
        conflict clique, allowing non-conflicting structures to overlap in
        storage (the relaxation mentioned at the end of Section 4.1.2).
    port_estimation:
        ``"paper"`` (default) uses the Figure 3 port estimate; ``"refined"``
        uses the tighter future-work charge for banks with more than two
        ports (see :class:`repro.core.Preprocessor`).
    mode:
        ``"exact"`` (default) proves optimality.  ``"fast"`` trades the
        proof for speed under an optimality-gap contract: a greedy
        assignment that certifies within ``gap_limit`` of a structural
        lower bound is returned without ever building the ILP; otherwise
        the exact solver runs with the same ``gap_limit`` so the tree
        search may stop at the first incumbent meeting the contract.
    gap_limit:
        Relative optimality-gap contract for ``mode="fast"`` (default
        0.05, i.e. within 5% of the lower bound).  Ignored in exact mode.
    """

    def __init__(
        self,
        board: Board,
        weights: Optional[CostWeights] = None,
        solver: Optional[str] = "auto",
        solver_options: Optional[Dict[str, object]] = None,
        capacity_mode: str = "strict",
        port_estimation: str = "paper",
        mode: str = "exact",
        gap_limit: Optional[float] = None,
    ) -> None:
        if capacity_mode not in ("strict", "clique"):
            raise ValueError(f"unknown capacity_mode {capacity_mode!r}")
        if mode not in ("exact", "fast"):
            raise ValueError(f"unknown mode {mode!r} (expected 'exact' or 'fast')")
        if gap_limit is not None and gap_limit < 0:
            raise ValueError("gap_limit must be non-negative")
        self.board = board
        self.weights = weights or CostWeights()
        self.solver = solver
        self.solver_options = dict(solver_options or {})
        self.capacity_mode = capacity_mode
        self.port_estimation = port_estimation
        self.mode = mode
        self.gap_limit = (
            gap_limit if gap_limit is not None else (0.05 if mode == "fast" else None)
        )
        #: memoized constraint skeletons keyed by design identity
        self._skeletons: Dict[int, _GlobalSkeleton] = {}
        self.skeleton_builds = 0
        self.skeleton_reuses = 0

    # -------------------------------------------------------------- building
    def build_model(
        self,
        design: Design,
        preprocessor: Optional[Preprocessor] = None,
        cost_model: Optional[CostModel] = None,
    ) -> GlobalModelArtifacts:
        """Construct the ILP for ``design`` (without solving it).

        The numeric constraint skeleton (feasibility, port/capacity loads,
        objective coefficients) is memoized per design, so a rebuild only
        pays for model assembly.
        """
        skeleton = self._skeleton(design, preprocessor, cost_model)

        model = Model(name=f"global[{design.name}@{self.board.name}]")
        z_vars: Dict[Pair, Variable] = {}

        # Variables and uniqueness constraints (one SOS-1 group per segment).
        for ds, row in zip(design.data_structures, skeleton.candidates):
            row_vars: List[Variable] = []
            for bank_name, _, _ in row:
                var = model.add_binary(f"Z[{ds.name}|{bank_name}]")
                z_vars[(ds.name, bank_name)] = var
                row_vars.append(var)
            model.add_constraint(quicksum(row_vars) == 1, name=f"uniq[{ds.name}]")
            if len(row_vars) > 1:
                model.add_sos1(row_vars, name=f"sos[{ds.name}]")

        # Port constraints.
        for t_index, bank in enumerate(self.board.bank_types):
            terms = []
            for d_index, ds in enumerate(design.data_structures):
                var = z_vars.get((ds.name, bank.name))
                if var is None:
                    continue
                terms.append(int(skeleton.port_coeff[d_index, t_index]) * var)
            if terms:
                model.add_constraint(
                    quicksum(terms) <= bank.total_ports, name=f"ports[{bank.name}]"
                )

        # Capacity constraints.
        for t_index, bank in enumerate(self.board.bank_types):
            for group_name, members in skeleton.group_sets:
                terms = []
                for name in members:
                    var = z_vars.get((name, bank.name))
                    if var is None:
                        continue
                    d_index = design.index_of(name)
                    terms.append(int(skeleton.footprint[d_index, t_index]) * var)
                if terms:
                    suffix = "" if group_name == "all" else f":{group_name}"
                    model.add_constraint(
                        quicksum(terms) <= bank.total_capacity_bits,
                        name=f"capacity[{bank.name}{suffix}]",
                    )

        # Objective.
        objective_terms = []
        for (structure, type_name), var in z_vars.items():
            d_index = design.index_of(structure)
            t_index = self.board.type_index(type_name)
            objective_terms.append(float(skeleton.coefficients[d_index, t_index]) * var)
        model.set_objective(quicksum(objective_terms))

        return GlobalModelArtifacts(
            model, z_vars, skeleton.preprocessor, skeleton.cost_model
        )

    def _skeleton(
        self,
        design: Design,
        preprocessor: Optional[Preprocessor],
        cost_model: Optional[CostModel],
    ) -> _GlobalSkeleton:
        """Return (building on demand) the memoized skeleton for ``design``.

        Entries are keyed by object identity and verified with an ``is``
        check against the strong reference the entry holds, so a recycled
        ``id()`` can never alias a dead design.  A cached entry is only
        reused when the caller passed no explicit preprocessor/cost model
        or passed the exact objects the skeleton was built from.
        """
        key = id(design)
        entry = self._skeletons.get(key)
        if (
            entry is not None
            and entry.design is design
            and (preprocessor is None or entry.preprocessor is preprocessor)
            and (cost_model is None or entry.cost_model is cost_model)
        ):
            self.skeleton_reuses += 1
            return entry
        preprocessor = preprocessor or Preprocessor(
            design, self.board, port_estimation=self.port_estimation
        )
        cost_model = cost_model or CostModel(
            design, self.board, self.weights, preprocessor=preprocessor
        )
        entry = _GlobalSkeleton(design, preprocessor, cost_model, self.capacity_mode)
        if len(self._skeletons) >= 8:  # bound the cache for long sweeps
            self._skeletons.pop(next(iter(self._skeletons)))
        self._skeletons[key] = entry
        self.skeleton_builds += 1
        return entry

    def full_model_artifacts(
        self,
        design: Design,
        preprocessor: Optional[Preprocessor] = None,
        cost_model: Optional[CostModel] = None,
    ) -> GlobalModelArtifacts:
        """The model of ``design``, built once and reused.

        This is what the solve path runs against: forbidden pairs never
        remove variables from it, they become solver-level fixings
        (``fix_zero``), so the pipeline's retries share one constraint
        skeleton *and* one ``Model`` — and, through the
        :class:`~repro.ilp.SolveContext`, one cached standard form.
        """
        skeleton = self._skeleton(design, preprocessor, cost_model)
        if skeleton.full_artifacts is None:
            skeleton.full_artifacts = self.build_model(
                design,
                preprocessor=skeleton.preprocessor,
                cost_model=skeleton.cost_model,
            )
        return skeleton.full_artifacts

    def model_if_built(self, design: Design) -> Optional[GlobalModelArtifacts]:
        """The memoized model of ``design`` if a solve built it, else ``None``.

        Never builds: a fast-lane answer leaves no model behind.
        """
        entry = self._skeletons.get(id(design))
        if entry is None or entry.design is not design:
            return None
        return entry.full_artifacts

    def _fixed_indices(
        self,
        artifacts: GlobalModelArtifacts,
        design: Design,
        forbidden: Set[Pair],
    ) -> List[int]:
        """Variable indices a forbidden set pins to zero (with sanity check)."""
        if not forbidden:
            return []
        free = {ds.name: 0 for ds in design.data_structures}
        fixed: List[int] = []
        for (structure, type_name), var in artifacts.z_vars.items():
            if (structure, type_name) in forbidden:
                fixed.append(var.index)
            else:
                free[structure] += 1
        starved = [name for name, count in free.items() if count == 0]
        if starved:
            raise MappingError(
                f"structure {starved[0]!r} has no admissible bank type left "
                "(all candidates are infeasible or forbidden)"
            )
        return sorted(fixed)

    def _repaired_warm_assignment(
        self,
        skeleton: _GlobalSkeleton,
        artifacts: GlobalModelArtifacts,
        design: Design,
        context: SolveContext,
        forbidden: Set[Pair],
    ) -> Optional[Dict[str, str]]:
        """Patch the previous incumbent around newly forbidden pairs.

        The retry loop forbids exactly the pair that made detailed mapping
        fail, so the previous solve's incumbent is one reassignment away
        from a (usually feasible) warm start: move the offending structure
        to its cheapest still-admissible type and keep everything else.
        """
        values = context.warm_values
        if values is None or values.shape[0] != artifacts.model.num_variables:
            return None
        assignment: Dict[str, str] = {}
        for (structure, type_name), var in artifacts.z_vars.items():
            if values[var.index] > 0.5:
                assignment[structure] = type_name
        if len(assignment) != design.num_segments:
            return None
        for structure, type_name in list(assignment.items()):
            if (structure, type_name) not in forbidden:
                continue
            d_index = design.index_of(structure)
            options = [
                (float(skeleton.coefficients[d_index, t_index]), bank_name)
                for bank_name, _, t_index in skeleton.candidates[d_index]
                if (structure, bank_name) not in forbidden
            ]
            if not options:
                return None
            assignment[structure] = min(options)[1]
        return assignment

    def _seeded_warm_assignment(
        self,
        skeleton: _GlobalSkeleton,
        artifacts: GlobalModelArtifacts,
        design: Design,
        context: SolveContext,
        forbidden: Set[Pair],
        base: Optional[Mapping[str, str]],
    ) -> Optional[Tuple[Dict[str, str], np.ndarray]]:
        """Warm assignment seeded from an *adjacent* design point's incumbent.

        The explore subsystem chains a :meth:`SolveContext.chain_dict`
        from one design point into the next; its ``seed_assignment`` is
        keyed by structure/type *name*, so it survives the model change.
        Per structure the seed's type is adopted when it is still an
        admissible candidate here, otherwise the ``base`` (greedy) choice,
        otherwise the cheapest candidate.  The merged assignment is only
        returned when its objective beats the base assignment — a worse
        seed must never displace a better greedy incumbent.  Returns the
        assignment together with its (validated) warm-start vector so the
        caller does not rebuild it.
        """
        seed = context.seed_assignment
        if not seed:
            return None
        merged: Dict[str, str] = {}
        for d_index, ds in enumerate(design.data_structures):
            choice: Optional[str] = None
            for source in (seed, base):
                candidate = source.get(ds.name) if source else None
                if (
                    candidate is not None
                    and (ds.name, candidate) in artifacts.z_vars
                    and (ds.name, candidate) not in forbidden
                ):
                    choice = candidate
                    break
            if choice is None:
                options = [
                    (float(skeleton.coefficients[d_index, t_index]), bank_name)
                    for bank_name, _, t_index in skeleton.candidates[d_index]
                    if (ds.name, bank_name) not in forbidden
                ]
                if not options:
                    return None
                choice = min(options)[1]
            merged[ds.name] = choice

        def cost(assignment: Mapping[str, str]) -> float:
            total = 0.0
            for name, type_name in assignment.items():
                d_index = design.index_of(name)
                t_index = self.board.type_index(type_name)
                total += float(skeleton.coefficients[d_index, t_index])
            return total

        if base is not None and len(base) == design.num_segments:
            if cost(merged) >= cost(base):
                return None
        # The transplant must hold up in *this* model: an infeasible merged
        # assignment would silently displace a feasible greedy incumbent
        # (the solver validates warm starts and drops bad ones).
        vector = artifacts.warm_start_vector(merged)
        if vector is None or not artifacts.model.is_feasible(vector):
            return None
        return merged, vector

    # -------------------------------------------------------------- fast lane
    _FAST_BIG = 1e18
    #: subgradient-ascent budget of the fast lane's Lagrangian bound.
    _FAST_DUAL_ITERS = 300
    #: how often (in dual iterations) the guided construction re-runs.
    _FAST_PRIMAL_EVERY = 25

    def _fast_tables(
        self,
        design: Design,
        skeleton: _GlobalSkeleton,
        forbidden: Set[Pair],
    ) -> Tuple[np.ndarray, ...]:
        """Numpy views of the fast lane's data: costs, feasibility, loads."""
        coefficients = np.asarray(skeleton.coefficients, dtype=float)
        num_types = len(self.board.bank_types)
        feasible = np.zeros((design.num_segments, num_types), dtype=bool)
        for d_index, row in enumerate(skeleton.candidates):
            ds = design.data_structures[d_index]
            for bank_name, _, t_index in row:
                if (ds.name, bank_name) not in forbidden:
                    feasible[d_index, t_index] = True
            if not feasible[d_index].any():
                raise MappingError(
                    f"structure {ds.name!r} has no admissible bank type left "
                    "(all candidates are infeasible or forbidden)"
                )
        ports = np.asarray(skeleton.port_coeff, dtype=float)
        bits = np.asarray(skeleton.footprint, dtype=float)
        port_budget = np.array(
            [bank.total_ports for bank in self.board.bank_types], dtype=float
        )
        bit_budget = np.array(
            [bank.total_capacity_bits for bank in self.board.bank_types], dtype=float
        )
        return coefficients, feasible, ports, bits, port_budget, bit_budget

    @staticmethod
    def _fast_construct(
        order: np.ndarray,
        score: np.ndarray,
        cost: np.ndarray,
        feasible: np.ndarray,
        ports: np.ndarray,
        bits: np.ndarray,
        port_budget: np.ndarray,
        bit_budget: np.ndarray,
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Largest-first greedy by ``score``, then descent on ``cost``.

        The descent repeatedly moves one structure to the cheapest type
        with budget left until no single move improves; every visited
        state satisfies the strict port/capacity budgets, so the result
        is feasible in both capacity modes (strict budgets are a subset
        of the clique relaxation).
        """
        big = GlobalMapper._FAST_BIG
        ports_left = port_budget.copy()
        bits_left = bit_budget.copy()
        assign = np.full(order.shape[0], -1, dtype=int)
        for d in order:
            open_types = (
                feasible[d] & (ports[d] <= ports_left) & (bits[d] <= bits_left)
            )
            if not open_types.any():
                return None
            choice = int(np.where(open_types, score[d], big).argmin())
            assign[d] = choice
            ports_left[choice] -= ports[d, choice]
            bits_left[choice] -= bits[d, choice]
        improved = True
        while improved:
            improved = False
            for d in range(assign.shape[0]):
                current = int(assign[d])
                trial_ports = ports_left.copy()
                trial_bits = bits_left.copy()
                trial_ports[current] += ports[d, current]
                trial_bits[current] += bits[d, current]
                open_types = (
                    feasible[d]
                    & (ports[d] <= trial_ports)
                    & (bits[d] <= trial_bits)
                )
                candidate = np.where(open_types, cost[d], big)
                target = int(candidate.argmin())
                if candidate[target] < cost[d, current] - 1e-12:
                    ports_left = trial_ports
                    bits_left = trial_bits
                    ports_left[target] -= ports[d, target]
                    bits_left[target] -= bits[d, target]
                    assign[d] = target
                    improved = True
        return assign, ports_left, bits_left

    def _fast_mapping(
        self,
        design: Design,
        skeleton: _GlobalSkeleton,
        forbidden: Set[Pair],
    ) -> Optional[GlobalMapping]:
        """Model-free fast lane: Lagrangian bound + guided greedy descent.

        Dualising the port and capacity rows leaves one independent
        ``min`` per structure (the uniqueness rows), so each dual value
        is a valid lower bound and subgradient ascent with Polyak steps
        tightens it toward the LP bound without ever building the ILP.
        The primal side runs the largest-first greedy twice — once on
        raw costs, periodically on the dual's reduced costs, which price
        in resource scarcity — each followed by a single-move descent.
        As soon as the incumbent certifies within ``gap_limit`` of the
        best bound the mapping is returned; if the contract is still
        unmet after the iteration budget, ``None`` sends the caller to
        the exact solver (which inherits the same ``gap_limit``).
        """
        start = time.perf_counter()
        tables = self._fast_tables(design, skeleton, forbidden)
        cost, feasible, ports, bits, port_budget, bit_budget = tables
        num_structs, num_types = cost.shape
        big = self._FAST_BIG
        order = np.argsort(
            -np.array([ds.size_bits for ds in design.data_structures])
        )
        idx = np.arange(num_structs)

        best_assign: Optional[np.ndarray] = None
        best_obj = math.inf
        incumbents = 0

        def adopt(result) -> None:
            nonlocal best_assign, best_obj, incumbents
            if result is None:
                return
            assign = result[0]
            obj = float(cost[idx, assign].sum())
            if obj < best_obj - 1e-12:
                best_assign = assign
                best_obj = obj
                incumbents += 1

        adopt(
            self._fast_construct(
                order, cost, cost, feasible, ports, bits, port_budget, bit_budget
            )
        )

        # Lagrangian dual on budget-normalised rows (sum_d a_dt z_dt <= 1):
        # normalising keeps the port (units) and capacity (megabit)
        # subgradients on one scale, which Polyak steps need to converge.
        masked = np.where(feasible, cost, big)
        port_load = ports / np.maximum(port_budget, 1e-12)[None, :]
        bit_load = bits / np.maximum(bit_budget, 1e-12)[None, :]
        lam = np.zeros(num_types)
        mu = np.zeros(num_types)
        best_bound = float(masked.min(axis=1).sum())  # lam = mu = 0
        best_lam = lam.copy()
        best_mu = mu.copy()
        theta = 1.0
        stall = 0
        dual_iters = 0

        def certified(obj: float, bound: float) -> bool:
            return (
                self.gap_limit is not None
                and math.isfinite(obj)
                and certified_gap(obj, bound) <= self.gap_limit
            )

        if not certified(best_obj, best_bound):
            for iteration in range(self._FAST_DUAL_ITERS):
                dual_iters = iteration + 1
                reduced = (
                    masked + lam[None, :] * port_load + mu[None, :] * bit_load
                )
                chosen = reduced.argmin(axis=1)
                value = float(
                    reduced[idx, chosen].sum() - lam.sum() - mu.sum()
                )
                if value > best_bound + 1e-12:
                    best_bound = value
                    best_lam = lam.copy()
                    best_mu = mu.copy()
                    stall = 0
                else:
                    stall += 1
                    if stall >= 20:
                        theta *= 0.5
                        stall = 0
                if certified(best_obj, best_bound):
                    break
                over_ports = (
                    np.bincount(
                        chosen,
                        weights=port_load[idx, chosen],
                        minlength=num_types,
                    )
                    - 1.0
                )
                over_bits = (
                    np.bincount(
                        chosen,
                        weights=bit_load[idx, chosen],
                        minlength=num_types,
                    )
                    - 1.0
                )
                norm2 = float(over_ports @ over_ports + over_bits @ over_bits)
                if norm2 < 1e-18:
                    break  # dual optimum: the relaxed choice fits all budgets
                target = best_obj if math.isfinite(best_obj) else best_bound + 1.0
                step = theta * max(target - value, 1e-12) / norm2
                lam = np.maximum(0.0, lam + step * over_ports)
                mu = np.maximum(0.0, mu + step * over_bits)
                if (iteration + 1) % self._FAST_PRIMAL_EVERY == 0 or theta < 1e-4:
                    guided = (
                        masked
                        + best_lam[None, :] * port_load
                        + best_mu[None, :] * bit_load
                    )
                    adopt(
                        self._fast_construct(
                            order, guided, cost, feasible, ports, bits,
                            port_budget, bit_budget,
                        )
                    )
                    if certified(best_obj, best_bound) or theta < 1e-4:
                        break

        if best_assign is not None and not certified(best_obj, best_bound):
            # One last guided pass at the best multipliers found.
            guided = (
                masked + best_lam[None, :] * port_load + best_mu[None, :] * bit_load
            )
            adopt(
                self._fast_construct(
                    order, guided, cost, feasible, ports, bits,
                    port_budget, bit_budget,
                )
            )

        if best_assign is None or not certified(best_obj, best_bound):
            return None  # contract unmet structurally; exact solver decides

        assignment = {
            design.data_structures[d].name: self.board.bank_types[int(t)].name
            for d, t in enumerate(best_assign)
        }
        gap = certified_gap(best_obj, best_bound)
        elapsed = time.perf_counter() - start
        stats = SolveStats(
            wall_time=elapsed,
            incumbent_updates=incumbents,
            best_bound=best_bound,
            gap=gap,
            backend="fast-heuristic",
        ).as_dict()
        stats["mode"] = "fast"
        stats["extra"]["dual_iterations"] = dual_iters
        breakdown = skeleton.cost_model.evaluate_assignment(assignment)
        return GlobalMapping(
            design_name=design.name,
            board_name=self.board.name,
            assignment=assignment,
            objective=breakdown.weighted_total,
            cost=breakdown,
            solver_status=FEASIBLE,
            solve_time=elapsed,
            solver_stats=stats,
        )

    # ---------------------------------------------------------------- solving
    def solve(
        self,
        design: Design,
        warm_start: Optional[Mapping[str, str]] = None,
        forbidden_pairs: Iterable[Pair] = (),
        preprocessor: Optional[Preprocessor] = None,
        cost_model: Optional[CostModel] = None,
        context: Optional[SolveContext] = None,
    ) -> GlobalMapping:
        """Solve the global-mapping ILP and return the type assignment.

        ``context`` (optional) threads warm starts, pseudo-cost branching
        statistics and the cached standard form across repeated solves of
        the same design — the pipeline passes one context through its
        whole forbidden-pair retry loop.
        """
        forbidden: Set[Pair] = set(forbidden_pairs)
        solver_options = dict(self.solver_options)

        if self.mode == "fast":
            skeleton = self._skeleton(design, preprocessor, cost_model)
            fast = self._fast_mapping(design, skeleton, forbidden)
            if fast is not None:
                if context is not None:
                    context.note_assignment(dict(fast.assignment))
                return fast
            # Contract not met structurally: run the exact tree, but let
            # it stop at the first incumbent certifying within the gap.
            solver_options.setdefault("gap_limit", self.gap_limit)

        skeleton = self._skeleton(design, preprocessor, cost_model)
        artifacts = self.full_model_artifacts(design, preprocessor, cost_model)
        fixed = self._fixed_indices(artifacts, design, forbidden)
        if fixed:
            solver_options["fix_zero"] = fixed
        warm_vector = None
        if context is not None:
            solver_options["context"] = context
            if warm_start is None and forbidden:
                warm_start = self._repaired_warm_assignment(
                    skeleton, artifacts, design, context, forbidden
                )
            seeded = self._seeded_warm_assignment(
                skeleton, artifacts, design, context, forbidden, warm_start
            )
            if seeded is not None:
                warm_start, warm_vector = seeded
        if warm_start is not None:
            if warm_vector is None:
                warm_vector = artifacts.warm_start_vector(warm_start)
            if warm_vector is not None:
                solver_options.setdefault("warm_start", warm_vector)
        solver = create_solver(self.solver, **solver_options)

        start = time.perf_counter()
        solution = solver.solve(artifacts.model)
        elapsed = time.perf_counter() - start

        if context is not None and solution.is_success:
            # Record the incumbent here, on the caller's thread, so warm
            # retries work with every backend (scipy-milp and the racing
            # portfolio never touch the caller's context themselves).
            context.note_incumbent(solution.values)

        if not solution.is_success:
            raise MappingError(
                f"global mapping of design {design.name!r} failed: "
                f"solver status {solution.status!r}"
            )
        assignment = artifacts.assignment_from_solution(solution)
        if context is not None:
            # Name-keyed counterpart of note_incumbent: what a *chained*
            # solve of an adjacent design point can reuse as its seed.
            context.note_assignment(assignment)
        breakdown = artifacts.cost_model.evaluate_assignment(assignment)
        solver_stats = solution.stats.as_dict()
        if self.mode == "fast":
            solver_stats["mode"] = "fast"
            gap = solver_stats.get("gap")
            if solution.status == OPTIMAL and not (
                isinstance(gap, float) and math.isfinite(gap)
            ):
                # The exact fallback proved optimality, so the certified
                # gap is zero even for backends that never report one.
                solver_stats["gap"] = 0.0
        return GlobalMapping(
            design_name=design.name,
            board_name=self.board.name,
            assignment=assignment,
            objective=solution.objective,
            cost=breakdown,
            solver_status=solution.status,
            solve_time=elapsed,
            solver_stats=solver_stats,
        )
