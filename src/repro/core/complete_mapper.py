"""The complete ("flat") memory-mapping ILP — the paper's baseline.

The authors' earlier tool ([9] in the paper) solves logical-to-physical
memory mapping in a single step: one ILP simultaneously decides the bank
*type* of every data structure (``Z[d][t]``), the concrete *instances and
ports* it occupies (``X[d][t][i][p]``) and the *configuration* selected for
every used port of every instance (``Y[t][i][p][c]``).  The paper reports
that this formulation "becomes quite lengthy and the solution time explodes
for large problems", which is exactly the behaviour Table 3 / Figure 4
quantify against the global/detailed decomposition.

Reference [9] does not reproduce its full constraint set, so this module
reconstructs the flat formulation from the paper's description of the
variables and of the pre-processed quantities.  The constraints are:

* uniqueness of the type assignment (as in the global formulation),
* port-consumption linking: a structure assigned to a type must receive
  exactly its pre-processed ``CP[d][t]`` ports, spread over that type's
  instances (``sum_{i,p} X[d][t][i][p] = CP[d][t] * Z[d][t]``),
* port exclusivity: every physical port serves at most one structure (the
  paper explicitly excludes arbitration),
* configuration selection: a used port of a multi-configuration bank must
  have exactly one configuration selected,
* per-instance capacity: the space charged to an instance (each consumed
  port carries its structure's footprint share) fits in the instance.

The objective is identical to the global formulation's (the cost depends
only on the chosen *type*), so the optimal objective values of the two
formulations coincide — which is what makes the execution-time comparison
of Table 3 meaningful.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..arch.board import Board
from ..design.design import Design
from ..ilp import Model, Variable, create_solver, quicksum
from .mapping import GlobalMapping, MappingError
from .objective import CostModel, CostWeights
from .preprocess import Preprocessor

__all__ = ["CompleteMapper", "CompleteModelArtifacts", "CompleteMappingOutcome"]


class CompleteModelArtifacts:
    """The flat ILP plus its variable dictionaries (for inspection/tests)."""

    def __init__(
        self,
        model: Model,
        z_vars: Dict[Tuple[str, str], Variable],
        x_vars: Dict[Tuple[str, str, int, int], Variable],
        y_vars: Dict[Tuple[str, int, int, int], Variable],
        preprocessor: Preprocessor,
        cost_model: CostModel,
    ) -> None:
        self.model = model
        self.z_vars = z_vars
        self.x_vars = x_vars
        self.y_vars = y_vars
        self.preprocessor = preprocessor
        self.cost_model = cost_model

    @property
    def num_variables(self) -> int:
        return self.model.num_variables

    @property
    def num_constraints(self) -> int:
        return self.model.num_constraints


@dataclass
class CompleteMappingOutcome:
    """Result of a flat solve: the type assignment plus physical selections."""

    global_mapping: GlobalMapping
    #: ``structure -> list of (type, instance, port)`` physical ports granted
    port_grants: Dict[str, List[Tuple[str, int, int]]] = field(default_factory=dict)
    #: ``(type, instance, port) -> configuration index`` selections
    config_selection: Dict[Tuple[str, int, int], int] = field(default_factory=dict)
    solve_time: float = 0.0
    solver_status: str = "optimal"
    model_size: Dict[str, int] = field(default_factory=dict)


class CompleteMapper:
    """Builds and solves the single-step (flat) mapping ILP."""

    def __init__(
        self,
        board: Board,
        weights: Optional[CostWeights] = None,
        solver: Optional[str] = "auto",
        solver_options: Optional[Dict[str, object]] = None,
    ) -> None:
        self.board = board
        self.weights = weights or CostWeights()
        self.solver = solver
        self.solver_options = dict(solver_options or {})

    # -------------------------------------------------------------- building
    def build_model(
        self,
        design: Design,
        preprocessor: Optional[Preprocessor] = None,
        cost_model: Optional[CostModel] = None,
    ) -> CompleteModelArtifacts:
        preprocessor = preprocessor or Preprocessor(design, self.board)
        cost_model = cost_model or CostModel(
            design, self.board, self.weights, preprocessor=preprocessor
        )
        feasible = preprocessor.feasible_pairs()
        unmappable = preprocessor.unmappable_structures()
        if unmappable:
            raise MappingError(
                "the following data structures fit on no bank type of board "
                f"{self.board.name!r}: {unmappable}"
            )

        model = Model(name=f"complete[{design.name}@{self.board.name}]")
        coefficients = cost_model.coefficient_matrix()

        z_vars: Dict[Tuple[str, str], Variable] = {}
        x_vars: Dict[Tuple[str, str, int, int], Variable] = {}
        y_vars: Dict[Tuple[str, int, int, int], Variable] = {}

        # ---------------------------------------------------------- variables
        for d_index, ds in enumerate(design.data_structures):
            for t_index, bank in enumerate(self.board.bank_types):
                if not feasible[d_index, t_index]:
                    continue
                z_vars[(ds.name, bank.name)] = model.add_binary(
                    f"Z[{ds.name}|{bank.name}]"
                )
                for instance in range(bank.num_instances):
                    for port in range(bank.num_ports):
                        x_vars[(ds.name, bank.name, instance, port)] = model.add_binary(
                            f"X[{ds.name}|{bank.name}|{instance}|{port}]"
                        )
        for t_index, bank in enumerate(self.board.bank_types):
            if not bank.is_multi_config:
                continue
            for instance in range(bank.num_instances):
                for port in range(bank.num_ports):
                    for config in range(bank.num_configs):
                        y_vars[(bank.name, instance, port, config)] = model.add_binary(
                            f"Y[{bank.name}|{instance}|{port}|{config}]"
                        )

        # ----------------------------------------------------------- uniqueness
        for d_index, ds in enumerate(design.data_structures):
            row = [
                z_vars[(ds.name, bank.name)]
                for bank in self.board.bank_types
                if (ds.name, bank.name) in z_vars
            ]
            model.add_constraint(quicksum(row) == 1, name=f"uniq[{ds.name}]")
            if len(row) > 1:
                model.add_sos1(row, name=f"sos[{ds.name}]")

        # ------------------------------------------- port-consumption linking
        for (ds_name, type_name), z_var in z_vars.items():
            d_index = design.index_of(ds_name)
            t_index = self.board.type_index(type_name)
            bank = self.board.bank_types[t_index]
            cp = int(preprocessor.cp[d_index, t_index])
            ports = [
                x_vars[(ds_name, type_name, instance, port)]
                for instance in range(bank.num_instances)
                for port in range(bank.num_ports)
            ]
            model.add_constraint(
                quicksum(ports) == cp * z_var,
                name=f"consume[{ds_name}|{type_name}]",
            )

        # ------------------------------------------------------ port exclusivity
        for t_index, bank in enumerate(self.board.bank_types):
            for instance in range(bank.num_instances):
                for port in range(bank.num_ports):
                    users = [
                        x_vars[(ds.name, bank.name, instance, port)]
                        for ds in design.data_structures
                        if (ds.name, bank.name, instance, port) in x_vars
                    ]
                    if not users:
                        continue
                    if bank.is_multi_config:
                        configs = [
                            y_vars[(bank.name, instance, port, config)]
                            for config in range(bank.num_configs)
                        ]
                        model.add_constraint(
                            quicksum(configs) <= 1,
                            name=f"onecfg[{bank.name}|{instance}|{port}]",
                        )
                        model.add_constraint(
                            quicksum(users) <= quicksum(configs),
                            name=f"cfgsel[{bank.name}|{instance}|{port}]",
                        )
                    else:
                        model.add_constraint(
                            quicksum(users) <= 1,
                            name=f"excl[{bank.name}|{instance}|{port}]",
                        )

        # --------------------------------------------------- instance capacity
        footprint = preprocessor.consumed_bits_table()
        for t_index, bank in enumerate(self.board.bank_types):
            for instance in range(bank.num_instances):
                terms = []
                for d_index, ds in enumerate(design.data_structures):
                    if (ds.name, bank.name) not in z_vars:
                        continue
                    cp = max(1, int(preprocessor.cp[d_index, t_index]))
                    share = float(footprint[d_index, t_index]) / cp
                    for port in range(bank.num_ports):
                        terms.append(
                            share * x_vars[(ds.name, bank.name, instance, port)]
                        )
                if terms:
                    model.add_constraint(
                        quicksum(terms) <= bank.capacity_bits,
                        name=f"cap[{bank.name}|{instance}]",
                    )

        # -------------------------------------------------------------- objective
        objective_terms = []
        for (ds_name, type_name), z_var in z_vars.items():
            d_index = design.index_of(ds_name)
            t_index = self.board.type_index(type_name)
            objective_terms.append(float(coefficients[d_index, t_index]) * z_var)
        model.set_objective(quicksum(objective_terms))

        return CompleteModelArtifacts(
            model, z_vars, x_vars, y_vars, preprocessor, cost_model
        )

    # ---------------------------------------------------------------- solving
    def solve(
        self,
        design: Design,
        preprocessor: Optional[Preprocessor] = None,
        cost_model: Optional[CostModel] = None,
    ) -> CompleteMappingOutcome:
        """Solve the flat formulation and extract assignment plus port grants."""
        artifacts = self.build_model(
            design, preprocessor=preprocessor, cost_model=cost_model
        )
        start = time.perf_counter()
        solver = create_solver(self.solver, **self.solver_options)
        solution = solver.solve(artifacts.model)
        elapsed = time.perf_counter() - start

        if not solution.is_success:
            raise MappingError(
                f"complete mapping of design {design.name!r} failed: "
                f"solver status {solution.status!r}"
            )

        assignment: Dict[str, str] = {}
        for (ds_name, type_name), var in artifacts.z_vars.items():
            if solution.rounded(var) == 1:
                assignment[ds_name] = type_name
        missing = [
            ds.name for ds in design.data_structures if ds.name not in assignment
        ]
        if missing:
            raise MappingError(f"complete mapper left structures unassigned: {missing}")

        port_grants: Dict[str, List[Tuple[str, int, int]]] = {}
        for (ds_name, type_name, instance, port), var in artifacts.x_vars.items():
            if solution.rounded(var) == 1:
                port_grants.setdefault(ds_name, []).append((type_name, instance, port))
        config_selection: Dict[Tuple[str, int, int], int] = {}
        for (type_name, instance, port, config), var in artifacts.y_vars.items():
            if solution.rounded(var) == 1:
                config_selection[(type_name, instance, port)] = config

        breakdown = artifacts.cost_model.evaluate_assignment(assignment)
        global_mapping = GlobalMapping(
            design_name=design.name,
            board_name=self.board.name,
            assignment=assignment,
            objective=solution.objective,
            cost=breakdown,
            solver_status=solution.status,
            solve_time=elapsed,
            solver_stats=solution.stats.as_dict(),
        )
        return CompleteMappingOutcome(
            global_mapping=global_mapping,
            port_grants=port_grants,
            config_selection=config_selection,
            solve_time=elapsed,
            solver_status=solution.status,
            model_size={
                "variables": artifacts.num_variables,
                "constraints": artifacts.num_constraints,
                "z": len(artifacts.z_vars),
                "x": len(artifacts.x_vars),
                "y": len(artifacts.y_vars),
            },
        )
