"""Command-line interface of the memory mapper.

The CLI makes the library usable as a standalone tool in a synthesis flow::

    python -m repro boards                       # list built-in boards
    python -m repro designs                      # list built-in example designs
    python -m repro backends                     # list the ILP backends
    python -m repro describe --board virtex-xcv1000
    python -m repro map --board hierarchical --design image-pipeline
    python -m repro map --board my_board.json --design my_design.json \\
        --output mapping.json --weights latency --json
    python -m repro batch --sweep 16 --jobs 4    # parallel mapping sweep
    python -m repro table3 --points 4 --jobs 2   # scaling experiment (Table 3)
    python -m repro scenarios                    # list scenario families
    python -m repro explore \\
        --grid "random@structures=12,occupancy=0.5:0.8:0.05" \\
        --jobs 2 --artifact-dir bench-artifacts  # design-space exploration
    python -m repro serve --port 8347            # long-lived mapping service
    python -m repro submit --url http://127.0.0.1:8347 \\
        --design fir-filter --design fft         # client of a running server

Boards and designs can be given either as the name of a built-in (see
``boards`` / ``designs``) or as the path of a JSON file following the schema
of :mod:`repro.io`.

Exit codes: ``0`` success, ``1`` a mapping was infeasible or failed,
``2`` usage error (bad arguments, unreadable files).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from .arch import (
    Board,
    apex_board,
    flex10k_board,
    hierarchical_board,
    virtex_board,
)
from .core import CostWeights, MappingError, MemoryMapper
from .core.report import render_full_report
from .design import (
    Design,
    fft_design,
    fir_filter_design,
    image_pipeline_design,
    matrix_multiply_design,
    motion_estimation_design,
    random_design,
)
from .ilp import BACKENDS, resolve_backend
from .ilp.errors import ModelError as IlpModelError
from .io import (
    SerializationError,
    load_board,
    load_design,
    mapping_result_to_dict,
    save_json,
)

# The engine, explore, serve and bench layers are imported by the
# sub-commands that use them, so that ``repro map`` loads none of them.

__all__ = ["main", "BUILTIN_BOARDS", "BUILTIN_DESIGNS",
           "EXIT_OK", "EXIT_MAPPING_FAILED", "EXIT_USAGE"]

#: Process exit codes (documented in the module docstring).
EXIT_OK = 0
EXIT_MAPPING_FAILED = 1
EXIT_USAGE = 2

#: Built-in boards selectable by name on the command line.
BUILTIN_BOARDS: Dict[str, Callable[[], Board]] = {
    "hierarchical": hierarchical_board,
    "virtex-xcv1000": lambda: virtex_board("XCV1000"),
    "virtex-xcv300": lambda: virtex_board("XCV300"),
    "apex-ep20k400e": lambda: apex_board("EP20K400E"),
    "flex10k-epf10k100": lambda: flex10k_board("EPF10K100"),
}

#: Built-in example designs selectable by name on the command line.
BUILTIN_DESIGNS: Dict[str, Callable[[], Design]] = {
    "image-pipeline": image_pipeline_design,
    "fir-filter": fir_filter_design,
    "fft": fft_design,
    "matrix-multiply": matrix_multiply_design,
    "motion-estimation": motion_estimation_design,
}

_WEIGHT_PRESETS: Dict[str, Callable[[], CostWeights]] = {
    "balanced": CostWeights,
    "latency": CostWeights.latency_only,
    "interconnect": CostWeights.interconnect_only,
}


#: What ``repro.bench.default_solver_backend`` picks, in words: the help
#: text does not load the bench layer to compute it.
_BENCH_SOLVER_HELP = "$REPRO_SOLVER, else scipy-milp when SciPy is installed, else auto"


class CliError(Exception):
    """User-facing CLI error (bad arguments, missing files, ...)."""


def _resolve_board(spec: str) -> Board:
    if spec in BUILTIN_BOARDS:
        return BUILTIN_BOARDS[spec]()
    path = Path(spec)
    if path.exists():
        try:
            return load_board(path)
        except SerializationError as exc:
            raise CliError(f"cannot load board from {path}: {exc}") from exc
    raise CliError(
        f"unknown board {spec!r}; use one of {', '.join(sorted(BUILTIN_BOARDS))} "
        "or the path of a board JSON file"
    )


def _resolve_solver(name: Optional[str]) -> Optional[str]:
    """Validate a solver backend name against the backend table up front."""
    if name is None:
        return None
    try:
        resolve_backend(name)
    except IlpModelError as exc:
        raise CliError(f"{exc}; see 'repro backends'") from exc
    return name


def _resolve_jobs(jobs: int) -> int:
    if jobs < 1:
        raise CliError("--jobs must be at least 1")
    return jobs


def _resolve_design(spec: str, seed: int = 0) -> Design:
    if spec in BUILTIN_DESIGNS:
        return BUILTIN_DESIGNS[spec]()
    if spec.startswith("random:"):
        try:
            segments = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise CliError(f"bad random design spec {spec!r}; use random:<segments>") from exc
        return random_design(segments, seed=seed)
    path = Path(spec)
    if path.exists():
        try:
            return load_design(path)
        except SerializationError as exc:
            raise CliError(f"cannot load design from {path}: {exc}") from exc
    raise CliError(
        f"unknown design {spec!r}; use one of {', '.join(sorted(BUILTIN_DESIGNS))}, "
        "random:<segments>, or the path of a design JSON file"
    )


# ---------------------------------------------------------------------------
# Sub-command implementations
# ---------------------------------------------------------------------------

def _cmd_boards(_: argparse.Namespace) -> int:
    from .bench.reporting import ascii_table

    rows = []
    for name in sorted(BUILTIN_BOARDS):
        board = BUILTIN_BOARDS[name]()
        complexity = board.complexity()
        rows.append(
            [name, complexity["types"], complexity["banks"], complexity["ports"],
             complexity["configs"], board.total_capacity_bits]
        )
    print(ascii_table(
        ["name", "types", "banks", "ports", "configs", "capacity (bits)"],
        rows,
        title="Built-in boards",
    ))
    return 0


def _cmd_designs(_: argparse.Namespace) -> int:
    from .bench.reporting import ascii_table

    rows = []
    for name in sorted(BUILTIN_DESIGNS):
        design = BUILTIN_DESIGNS[name]()
        rows.append(
            [name, design.num_segments, design.total_bits, len(design.conflicts)]
        )
    print(ascii_table(
        ["name", "segments", "bits", "conflict pairs"],
        rows,
        title="Built-in example designs",
    ))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    if args.board:
        print(_resolve_board(args.board).describe())
    if args.design:
        if args.board:
            print()
        print(_resolve_design(args.design).describe())
    if not args.board and not args.design:
        raise CliError("describe needs --board and/or --design")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    board = _resolve_board(args.board)
    design = _resolve_design(args.design, seed=args.seed)
    weights = _WEIGHT_PRESETS[args.weights]()
    if args.gap is not None and not args.fast:
        raise CliError("--gap only applies with --fast")
    mapper = MemoryMapper(
        board,
        weights=weights,
        solver=_resolve_solver(args.solver),
        solver_options={"time_limit": args.time_limit} if args.time_limit else None,
        capacity_mode=args.capacity_mode,
        port_estimation=args.port_estimation,
        mode="fast" if args.fast else "exact",
        gap_limit=args.gap,
    )
    try:
        result = mapper.map(design)
    except MappingError as exc:
        # Infeasible/failed mappings are a distinct outcome (exit 1), not a
        # usage error: sweep drivers branch on it.
        if args.json:
            print(json.dumps(
                {"kind": "job_result", "status": "failed",
                 "label": f"{design.name}@{board.name}", "error": str(exc)},
                indent=2,
            ))
        print(f"error: mapping failed: {exc}", file=sys.stderr)
        return EXIT_MAPPING_FAILED

    document = mapping_result_to_dict(result)
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        print(render_full_report(result))
    if args.output:
        path = save_json(document, args.output)
        if not args.json:
            print(f"\n[mapping written to {path}]")
    return EXIT_OK


def _cmd_backends(args: argparse.Namespace) -> int:
    from .bench.reporting import ascii_table

    rows = [
        {"name": name, "available": backend.available(),
         "description": backend.description}
        for name, backend in BACKENDS.items()
    ]
    if args.json:
        print(json.dumps(rows, indent=2))
        return EXIT_OK
    print(ascii_table(
        ["name", "available", "description"],
        [[row["name"], "yes" if row["available"] else "no", row["description"]]
         for row in rows],
        title="ILP solver backends",
    ))
    return EXIT_OK


def _cmd_batch(args: argparse.Namespace) -> int:
    from .bench import (
        ascii_table,
        batch_artifact,
        default_solver_backend,
        format_seconds,
        sweep_design_points,
        write_bench_artifact,
    )
    from .engine import MODE_FAST, MODE_PIPELINE, MappingEngine, MappingJob

    weights = _WEIGHT_PRESETS[args.weights]()
    solver = _resolve_solver(args.solver) or default_solver_backend()
    jobs = _resolve_jobs(args.jobs)
    solver_options = {"time_limit": args.time_limit} if args.time_limit else {}
    if args.gap is not None and not args.fast:
        raise CliError("--gap only applies with --fast")
    mode = MODE_FAST if args.fast else MODE_PIPELINE
    gap_limit = args.gap if args.fast else None

    batch: List[MappingJob] = []
    if args.sweep:
        for point in sweep_design_points(args.sweep, full=args.full):
            design, board = point.build(seed=args.seed)
            batch.append(MappingJob(
                board=board, design=design, weights=weights, solver=solver,
                solver_options=solver_options, label=point.label(),
                timeout=args.time_limit, mode=mode, gap_limit=gap_limit,
            ))
    if args.design:
        board = _resolve_board(args.board)
        for spec in args.design:
            design = _resolve_design(spec, seed=args.seed)
            batch.append(MappingJob(
                board=board, design=design, weights=weights, solver=solver,
                solver_options=solver_options, timeout=args.time_limit,
                mode=mode, gap_limit=gap_limit,
            ))
    if not batch:
        raise CliError("batch needs --design and/or --sweep N")

    engine = MappingEngine(
        jobs=jobs, cache_dir=args.cache_dir, retries=args.retries,
        timeout=args.time_limit,
    )
    start = time.perf_counter()
    results = engine.run(batch)
    elapsed = time.perf_counter() - start

    artifact = batch_artifact(
        "batch", results, elapsed, jobs, solver,
        engine.cache.stats() if engine.cache is not None else None,
    )
    if args.artifact_dir:
        write_bench_artifact("batch", artifact, args.artifact_dir)

    if args.json:
        document = dict(artifact)
        document["results"] = [r.to_dict() for r in results]
        print(json.dumps(document, indent=2))
    else:
        rows = [
            [
                r.label,
                r.status,
                "-" if r.objective is None else f"{r.objective:.4f}",
                format_seconds(r.wall_time),
                str(r.solve_stats.get("lp_solves", "-")),
                "hit" if r.cache_hit else "-",
                r.error or r.solver_status,
            ]
            for r in results
        ]
        print(ascii_table(
            ["job", "status", "objective", "time", "lp", "cache", "detail"],
            rows,
            title=f"Batch of {len(results)} mapping jobs "
                  f"({jobs} worker{'s' if jobs != 1 else ''}, "
                  f"{elapsed:.2f}s wall, "
                  f"{artifact['speedup_vs_serial']:.2f}x vs serial)",
        ))
    if args.output:
        save_json({"kind": "batch_result", **artifact,
                   "results": [r.to_dict() for r in results]}, args.output)
        if not args.json:
            print(f"\n[batch results written to {args.output}]")
    return EXIT_OK if all(r.ok for r in results) else EXIT_MAPPING_FAILED


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .bench.reporting import ascii_table
    from .explore import list_scenario_families

    families = list_scenario_families()
    if args.json:
        print(json.dumps(
            [
                {
                    "name": family.name,
                    "description": family.description,
                    "seed_sensitive": family.seed_sensitive,
                    "params": [
                        {
                            "name": spec.name,
                            "kind": spec.kind,
                            "default": spec.default,
                            "description": spec.description,
                        }
                        for spec in family.params
                    ],
                }
                for family in families
            ],
            indent=2,
        ))
        return EXIT_OK
    rows = [
        [
            family.name,
            ", ".join(
                f"{spec.name}={spec.default}" for spec in family.params
            ),
            family.description,
        ]
        for family in families
    ]
    print(ascii_table(
        ["family", "parameters (defaults)", "description"],
        rows,
        title="Registered scenario families",
    ))
    print("\nGrid syntax: family@key=value, key=lo:hi[:step], key=a|b|c "
          "(see 'repro explore --grid').")
    return EXIT_OK


def _cmd_explore(args: argparse.Namespace) -> int:
    from .bench import explore_artifact, write_bench_artifact
    from .explore import (
        DesignSpaceExplorer,
        ExploreError,
        ScenarioGrid,
        render_explore_report,
    )

    try:
        grid = ScenarioGrid.parse(args.grid)
    except ExploreError as exc:
        raise CliError(str(exc)) from exc
    solver = _resolve_solver(args.solver) or "auto"
    results_path = args.results
    if args.checkpoint and not results_path:
        # A checkpoint needs a spool to trim/replay; derive a stable one.
        results_path = f"{args.checkpoint}.results.jsonl"
    explorer = DesignSpaceExplorer(
        grid,
        jobs=_resolve_jobs(args.jobs),
        solver=solver,
        weights=_WEIGHT_PRESETS[args.weights](),
        warm_chain=not args.cold,
        seed=args.seed,
        time_limit=args.time_limit,
        cache_dir=args.cache_dir,
        retries=args.retries,
        results_path=results_path,
        checkpoint_path=args.checkpoint,
    )
    try:
        # Scenario build errors can surface here too (not just at grid
        # parse): a board name is type-checked as a plain string, so an
        # unknown board only fails when the point is built.
        result = explorer.run()
    except ExploreError as exc:
        raise CliError(str(exc)) from exc

    artifact = explore_artifact(result)
    if args.artifact_dir:
        write_bench_artifact("explore", artifact, args.artifact_dir)
    if args.json:
        print(json.dumps(artifact, indent=2))
    else:
        print(render_explore_report(result))
    if args.output:
        save_json(artifact, args.output)
        if not args.json:
            print(f"\n[exploration results written to {args.output}]")
    return EXIT_OK if result.num_failed == 0 else EXIT_MAPPING_FAILED


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .ilp import scipy_backend
    from .serve import MappingServer, MappingService

    if args.max_batch < 1:
        raise CliError("--max-batch must be at least 1")
    if args.cache_entries is not None and args.cache_entries < 1:
        raise CliError("--cache-entries must be at least 1")
    if args.memory_entries < 1:
        raise CliError("--memory-entries must be at least 1")
    # Import SciPy before the banner, so that no request pays for it.
    scipy_backend.load()
    service = MappingService(
        jobs=_resolve_jobs(args.jobs),
        max_batch=args.max_batch,
        cache_dir=args.cache_dir,
        memory_entries=args.memory_entries,
        disk_entries=args.cache_entries,
        retries=args.retries,
        default_timeout=args.time_limit,
        mp_context=args.mp_context,
    )
    server = MappingServer(service, host=args.host, port=args.port)

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platforms without loop signal handlers
        await server.start()
        print(
            f"serving mapping jobs on {server.url} "
            f"({service.engine.jobs} worker"
            f"{'s' if service.engine.jobs != 1 else ''}, "
            f"max_batch={args.max_batch})",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    except OSError as exc:
        # Bind failures (port in use, privileged port) are usage errors
        # under the CLI's 0/1/2 contract, not tracebacks.
        raise CliError(
            f"cannot serve on {args.host}:{args.port}: {exc}"
        ) from exc
    if args.artifact_dir:
        from .bench import write_bench_artifact

        path = write_bench_artifact("serve", service.artifact(), args.artifact_dir)
        print(f"[serve artifact written to {path}]")
    return EXIT_OK


def _cmd_submit(args: argparse.Namespace) -> int:
    from .bench.reporting import ascii_table
    from .io.serve import JobSubmission
    from .serve import ServeClient, ServeClientError

    try:
        client = ServeClient(args.url, timeout=args.connect_timeout)

        if args.health:
            print(json.dumps(client.health().to_wire(), indent=2))
            return EXIT_OK
        if args.shutdown:
            print(json.dumps(client.shutdown(), indent=2))
            return EXIT_OK

        if not args.design:
            raise CliError("submit needs --design (or --health / --shutdown)")
        if args.repeat < 1:
            raise CliError("--repeat must be at least 1")
        if args.gap is not None and not args.fast:
            raise CliError("--gap only applies with --fast")
        board = _resolve_board(args.board)
        weights = _WEIGHT_PRESETS[args.weights]()
        submissions = []
        for spec in args.design:
            design = _resolve_design(spec, seed=args.seed)
            for _ in range(args.repeat):
                submissions.append(JobSubmission.from_objects(
                    board,
                    design,
                    weights={
                        "latency": weights.latency,
                        "pin_delay": weights.pin_delay,
                        "pin_io": weights.pin_io,
                        "normalize": weights.normalize,
                    },
                    solver=args.solver,
                    timeout=args.time_limit,
                    priority=args.priority,
                    deadline_ms=args.deadline_ms,
                    mode="fast" if args.fast else "pipeline",
                    gap_limit=args.gap if args.fast else None,
                ))

        statuses = client.submit(submissions)
        if not args.no_wait:
            statuses = [
                client.wait(status.job_id, timeout=args.wait_timeout)
                for status in statuses
            ]

        # Only terminal outcomes can be failures: with --no-wait the jobs
        # are still queued/running, which is the expected success shape.
        failed = sum(
            1 for s in statuses
            if s.terminal and (s.state != "done" or s.result_status != "ok")
        )
        if args.json:
            print(json.dumps(
                {
                    "kind": "submit_result",
                    "url": client.url,
                    "num_jobs": len(statuses),
                    "num_failed": failed,
                    "jobs": [s.to_wire() for s in statuses],
                },
                indent=2,
            ))
        else:
            rows = [
                [
                    s.label,
                    s.state,
                    s.result_status or "-",
                    "-" if s.objective is None else f"{s.objective:.4f}",
                    "-" if s.gap is None else f"{s.gap:.3f}",
                    "-" if s.latency_ms is None else f"{s.latency_ms:.0f}ms",
                    ("hit" if s.cache_hit else "dedup" if s.deduped else "-"),
                    (s.fingerprint or "")[:12] or "-",
                    s.error,
                ]
                for s in statuses
            ]
            print(ascii_table(
                ["job", "state", "result", "objective", "gap", "latency",
                 "reuse", "fingerprint", "detail"],
                rows,
                title=f"{len(statuses)} job(s) via {client.url}",
            ))
        if args.output:
            documents = []
            for status in statuses:
                entry = status.to_wire()
                if status.state == "done":
                    try:
                        entry["result"] = client.result(status.job_id)
                    except ServeClientError:
                        entry["result"] = None
                documents.append(entry)
            save_json({"kind": "submit_result", "jobs": documents}, args.output)
            if not args.json:
                print(f"\n[job results written to {args.output}]")
        return EXIT_OK if failed == 0 else EXIT_MAPPING_FAILED
    except ServeClientError as exc:
        raise CliError(str(exc)) from exc


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .bench.loadgen import LoadgenConfig, run_loadgen
    from .io.serve import JobSubmission
    from .serve import ServeClientError

    if not args.design:
        raise CliError("loadgen needs at least one --design")
    if args.duration <= 0:
        raise CliError("--duration must be > 0")
    if args.rate <= 0:
        raise CliError("--rate must be > 0")
    board = _resolve_board(args.board)
    weights = _WEIGHT_PRESETS[args.weights]()
    templates = []
    for spec in args.design:
        design = _resolve_design(spec, seed=args.seed)
        templates.append(JobSubmission.from_objects(
            board,
            design,
            weights={
                "latency": weights.latency,
                "pin_delay": weights.pin_delay,
                "pin_io": weights.pin_io,
                "normalize": weights.normalize,
            },
            solver=args.solver,
            timeout=args.time_limit,
        ))
    config = LoadgenConfig(
        url=args.url,
        templates=templates,
        duration_s=args.duration,
        rate=args.rate,
        arrival=args.arrival,
        duplicate_ratio=args.duplicate_ratio,
        fast_ratio=args.fast_ratio,
        seed=args.seed,
    )
    try:
        report = run_loadgen(config)
    except ServeClientError as exc:
        raise CliError(str(exc)) from exc
    if args.output:
        save_json(report, args.output)
    if args.json or not args.output:
        print(json.dumps(report, indent=2))
    failed = int(report.get("errors", 0))
    return EXIT_OK if failed == 0 else EXIT_MAPPING_FAILED


def _cmd_table3(args: argparse.Namespace) -> int:
    from .bench import Table3Harness, ascii_table, default_design_points, format_seconds

    points = default_design_points(full=args.full)
    if args.points is not None:
        points = points[: args.points]
    harness = Table3Harness(
        points=points,
        solver=args.solver,
        time_limit=args.time_limit,
        run_complete=not args.skip_complete,
        jobs=_resolve_jobs(args.jobs),
        artifact_dir=args.artifact_dir,
    )
    print(
        f"Running {len(points)} design points with backend "
        f"{harness.solver!r} (time limit {harness.time_limit:.0f}s, "
        f"{harness.jobs} worker{'s' if harness.jobs != 1 else ''})..."
    )
    rows = []
    if harness.jobs > 1 or args.artifact_dir:
        # run() handles worker dispatch and artifact writing in one place.
        experiment_rows = harness.run()
    else:
        experiment_rows = []
        for point in points:
            experiment_rows.append(harness.run_point(point))
            print(f"  finished {point.label()}")
    for point, row in zip(points, experiment_rows):
        rows.append(
            [
                point.index, point.segments, point.banks, point.ports, point.configs,
                format_seconds(row.global_detailed_seconds),
                format_seconds(row.complete_seconds) if not args.skip_complete else "-",
                "yes" if row.objectives_match else "-",
            ]
        )
    print()
    print(ascii_table(
        ["#", "segs", "banks", "ports", "configs",
         "global/detailed", "complete", "same optimum"],
        rows,
        title="Table 3 (reproduced on this machine)",
    ))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Global/detailed memory mapping for FPGA-based reconfigurable systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("boards", help="list built-in boards").set_defaults(func=_cmd_boards)
    sub.add_parser("designs", help="list built-in example designs").set_defaults(
        func=_cmd_designs
    )

    backends = sub.add_parser("backends", help="list the ILP solver backends")
    backends.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON")
    backends.set_defaults(func=_cmd_backends)

    describe = sub.add_parser("describe", help="describe a board and/or design")
    describe.add_argument("--board", help="board name or JSON file")
    describe.add_argument("--design", help="design name or JSON file")
    describe.set_defaults(func=_cmd_describe)

    map_cmd = sub.add_parser("map", help="map a design onto a board")
    map_cmd.add_argument("--board", required=True, help="board name or JSON file")
    map_cmd.add_argument("--design", required=True,
                         help="design name, random:<n>, or JSON file")
    map_cmd.add_argument("--weights", choices=sorted(_WEIGHT_PRESETS), default="balanced",
                         help="objective weighting preset")
    map_cmd.add_argument("--solver", default="auto",
                         help="ILP backend (auto, bnb-pure, scipy-milp)")
    map_cmd.add_argument("--capacity-mode", choices=["strict", "clique"],
                         default="strict", help="capacity constraint mode")
    map_cmd.add_argument("--port-estimation", choices=["paper", "refined"],
                         default="paper", help="port charge model")
    map_cmd.add_argument("--time-limit", type=float, default=None,
                         help="per-solve time limit in seconds")
    map_cmd.add_argument("--fast", action="store_true",
                         help="heuristic fast mode: return the first mapping "
                              "certified within --gap of a lower bound")
    map_cmd.add_argument("--gap", type=float, default=None, metavar="FRAC",
                         help="relative optimality-gap contract for --fast "
                              "(default 0.05)")
    map_cmd.add_argument("--seed", type=int, default=0,
                         help="seed for random:<n> designs")
    map_cmd.add_argument("--output", help="write the mapping result to this JSON file")
    map_cmd.add_argument("--json", action="store_true",
                         help="print the mapping result as JSON instead of a report")
    map_cmd.set_defaults(func=_cmd_map)

    batch = sub.add_parser(
        "batch", help="map a batch of designs in parallel through the engine"
    )
    batch.add_argument("--board", default="hierarchical",
                       help="board for --design jobs (name or JSON file)")
    batch.add_argument("--design", action="append", default=[],
                       help="design to map (repeatable): name, random:<n>, or JSON file")
    batch.add_argument("--sweep", type=int, default=0, metavar="N",
                       help="add N synthetic design points (Table 3 complexity mix)")
    batch.add_argument("--full", action="store_true",
                       help="use the paper's full-size rows for --sweep points")
    batch.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process serial)")
    batch.add_argument("--weights", choices=sorted(_WEIGHT_PRESETS), default="balanced",
                       help="objective weighting preset")
    batch.add_argument("--solver", default=None,
                       help=f"ILP backend (default: {_BENCH_SOLVER_HELP}; "
                            "see 'repro backends')")
    batch.add_argument("--time-limit", type=float, default=None,
                       help="per-job wall-clock budget in seconds")
    batch.add_argument("--fast", action="store_true",
                       help="heuristic fast mode for every job in the batch")
    batch.add_argument("--gap", type=float, default=None, metavar="FRAC",
                       help="relative optimality-gap contract for --fast "
                            "(default 0.05)")
    batch.add_argument("--retries", type=int, default=0,
                       help="re-runs of a crashed job before reporting an error")
    batch.add_argument("--cache-dir",
                       help="directory of the on-disk result cache")
    batch.add_argument("--artifact-dir",
                       help="write a BENCH_batch.json artifact into this directory")
    batch.add_argument("--seed", type=int, default=0,
                       help="seed for random:<n> designs and sweep points")
    batch.add_argument("--output", help="write all job results to this JSON file")
    batch.add_argument("--json", action="store_true",
                       help="emit machine-readable results on stdout")
    batch.set_defaults(func=_cmd_batch)

    scenarios = sub.add_parser("scenarios", help="list scenario families")
    scenarios.add_argument("--json", action="store_true",
                           help="emit machine-readable JSON")
    scenarios.set_defaults(func=_cmd_scenarios)

    explore = sub.add_parser(
        "explore", help="explore a scenario grid and reduce it to Pareto fronts"
    )
    explore.add_argument("--grid", action="append", default=[], metavar="SPEC",
                         required=True,
                         help="scenario sweep spec (repeatable), e.g. "
                              "'random@structures=8:14:2,occupancy=0.6'; each "
                              "spec becomes one warm chain")
    explore.add_argument("--jobs", type=int, default=1,
                         help="worker processes (chains run concurrently)")
    explore.add_argument("--cold", action="store_true",
                         help="solve every point independently instead of "
                              "warm-chaining adjacent points (baseline mode)")
    explore.add_argument("--weights", choices=sorted(_WEIGHT_PRESETS),
                         default="balanced", help="objective weighting preset")
    explore.add_argument("--solver", default=None,
                         help="ILP backend (default: auto — warm chaining "
                              "needs a context-capable backend)")
    explore.add_argument("--time-limit", type=float, default=None,
                         help="per-point wall-clock budget in seconds")
    explore.add_argument("--retries", type=int, default=0,
                         help="re-runs of a crashed point before reporting "
                              "an error")
    explore.add_argument("--seed", type=int, default=0,
                         help="base seed for the scenario builders")
    explore.add_argument("--results", metavar="PATH",
                         help="stream per-point records to this JSONL file "
                              "instead of holding them in memory (bounded-"
                              "memory sweeps)")
    explore.add_argument("--checkpoint", metavar="PATH",
                         help="write a resumable checkpoint after every wave; "
                              "an existing compatible checkpoint is resumed "
                              "from (implies --results, defaulting to "
                              "PATH.results.jsonl)")
    explore.add_argument("--cache-dir",
                         help="directory of the on-disk result cache")
    explore.add_argument("--artifact-dir",
                         help="write a BENCH_explore.json artifact into this "
                              "directory")
    explore.add_argument("--output",
                         help="write the full exploration document to this "
                              "JSON file")
    explore.add_argument("--json", action="store_true",
                         help="emit the artifact document on stdout")
    explore.set_defaults(func=_cmd_explore)

    serve = sub.add_parser(
        "serve", help="run the long-lived mapping service (async job API)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8347,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="engine worker processes (1 = in-process)")
    serve.add_argument("--max-batch", type=int, default=4,
                       help="most queued requests shipped as one engine batch")
    serve.add_argument("--cache-dir",
                       help="on-disk result cache shared with 'repro batch'")
    serve.add_argument("--cache-entries", type=int, default=None,
                       help="bound the on-disk cache to its newest N entries "
                            "(default: unbounded)")
    serve.add_argument("--memory-entries", type=int, default=256,
                       help="in-memory result store capacity")
    serve.add_argument("--retries", type=int, default=0,
                       help="re-runs of a crashed job before reporting an error")
    serve.add_argument("--time-limit", type=float, default=None,
                       help="default per-job wall-clock budget in seconds")
    serve.add_argument("--mp-context", choices=["fork", "spawn", "forkserver"],
                       default=None,
                       help="worker start method (default: spawn when --jobs > 1)")
    serve.add_argument("--artifact-dir",
                       help="write a BENCH_serve.json artifact on shutdown")
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop traffic generator against a running 'repro serve'",
    )
    loadgen.add_argument("--url", default="http://127.0.0.1:8347",
                         help="base URL of the 'repro serve' process")
    loadgen.add_argument("--board", default="hierarchical",
                         help="board for the generated jobs (name or JSON file)")
    loadgen.add_argument("--design", action="append", default=[],
                         help="design template (repeatable; arrivals draw "
                              "from these)")
    loadgen.add_argument("--duration", type=float, default=10.0,
                         help="length of the traffic window in seconds")
    loadgen.add_argument("--rate", type=float, default=8.0,
                         help="mean arrival rate in jobs/second")
    loadgen.add_argument("--arrival", choices=["poisson", "bursty", "uniform"],
                         default="poisson",
                         help="arrival process of the open-loop schedule")
    loadgen.add_argument("--duplicate-ratio", type=float, default=0.5,
                         help="fraction of arrivals that repeat an earlier "
                              "submission verbatim (exercises dedupe)")
    loadgen.add_argument("--fast-ratio", type=float, default=0.0,
                         help="fraction of arrivals submitted as fast-mode "
                              "jobs")
    loadgen.add_argument("--weights", choices=sorted(_WEIGHT_PRESETS),
                         default="balanced", help="objective weighting preset")
    loadgen.add_argument("--solver", default="auto",
                         help="ILP backend for the generated jobs")
    loadgen.add_argument("--time-limit", type=float, default=None,
                         help="per-job wall-clock budget in seconds")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="seed of the arrival schedule and mix")
    loadgen.add_argument("--output",
                         help="write the loadgen report to this JSON file")
    loadgen.add_argument("--json", action="store_true",
                         help="emit the report on stdout even with --output")
    loadgen.set_defaults(func=_cmd_loadgen)

    submit = sub.add_parser(
        "submit", help="submit mapping jobs to a running 'repro serve'"
    )
    submit.add_argument("--url", default="http://127.0.0.1:8347",
                        help="base URL of the mapping service")
    submit.add_argument("--board", default="hierarchical",
                        help="board for the submitted jobs (name or JSON file)")
    submit.add_argument("--design", action="append", default=[],
                        help="design to map (repeatable): name, random:<n>, "
                             "or JSON file")
    submit.add_argument("--repeat", type=int, default=1,
                        help="submit each design N times (duplicates dedupe "
                             "to one solve server-side)")
    submit.add_argument("--weights", choices=sorted(_WEIGHT_PRESETS),
                        default="balanced", help="objective weighting preset")
    submit.add_argument("--solver", default="auto",
                        help="ILP backend name (see 'repro backends')")
    submit.add_argument("--priority", type=int, default=0,
                        help="queue priority (higher runs earlier)")
    submit.add_argument("--deadline-ms", type=float, default=None,
                        help="max milliseconds a job may wait in the queue")
    submit.add_argument("--time-limit", type=float, default=None,
                        help="per-job wall-clock budget in seconds")
    submit.add_argument("--fast", action="store_true",
                        help="submit as heuristic fast-mode jobs (result "
                             "carries the certified gap)")
    submit.add_argument("--gap", type=float, default=None, metavar="FRAC",
                        help="relative optimality-gap contract for --fast "
                             "(default 0.05)")
    submit.add_argument("--seed", type=int, default=0,
                        help="seed for random:<n> designs")
    submit.add_argument("--no-wait", action="store_true",
                        help="return after submission instead of polling "
                             "for results")
    submit.add_argument("--wait-timeout", type=float, default=300.0,
                        help="seconds to wait for each job (with polling)")
    submit.add_argument("--connect-timeout", type=float, default=30.0,
                        help="per-request HTTP timeout in seconds")
    submit.add_argument("--health", action="store_true",
                        help="print the service /healthz document and exit")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the service to shut down gracefully and exit")
    submit.add_argument("--output",
                        help="write job statuses + result documents to this "
                             "JSON file")
    submit.add_argument("--json", action="store_true",
                        help="emit machine-readable results on stdout")
    submit.set_defaults(func=_cmd_submit)

    table3 = sub.add_parser("table3", help="run the Table 3 scaling experiment")
    table3.add_argument("--full", action="store_true",
                        help="use the paper's full-size design points")
    table3.add_argument("--points", type=int, default=None,
                        help="only run the first N design points")
    table3.add_argument("--solver", default=None,
                        help=f"ILP backend (default: {_BENCH_SOLVER_HELP})")
    table3.add_argument("--time-limit", type=float, default=None,
                        help="per-solve time limit in seconds")
    table3.add_argument("--skip-complete", action="store_true",
                        help="measure only the global/detailed flow")
    table3.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweep")
    table3.add_argument("--artifact-dir",
                        help="write a BENCH_table3.json artifact into this directory")
    table3.set_defaults(func=_cmd_table3)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
