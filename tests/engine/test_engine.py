"""Integration tests for the parallel batch-mapping engine."""

from __future__ import annotations

import pytest

from repro.arch import flex10k_board, hierarchical_board, virtex_board
from repro.core import MemoryMapper
from repro.design import (
    fft_design,
    fir_filter_design,
    image_pipeline_design,
    matrix_multiply_design,
)
from repro.engine import (
    MODE_COMPLETE,
    STATUS_ERROR,
    STATUS_FAILED,
    STATUS_OK,
    JobResult,
    MappingEngine,
    MappingJob,
    execute_payload,
)


def small_batch():
    return [
        MappingJob(board=virtex_board("XCV1000"), design=fir_filter_design(),
                   solver="bnb-pure", label="fir"),
        MappingJob(board=hierarchical_board(), design=image_pipeline_design(),
                   solver="bnb-pure", label="image"),
        MappingJob(board=virtex_board("XCV1000"), design=matrix_multiply_design(),
                   solver="bnb-pure", label="matmul"),
    ]


class TestSerialExecution:
    def test_results_in_submission_order_with_ok_status(self):
        results = MappingEngine(jobs=1).run(small_batch())
        assert [r.label for r in results] == ["fir", "image", "matmul"]
        assert all(r.status == STATUS_OK for r in results)
        assert all(r.fingerprint for r in results)
        assert all(r.objective is not None for r in results)
        assert all(r.model_size["variables"] > 0 for r in results)

    def test_infeasible_job_reports_failed_without_aborting_batch(self):
        batch = [
            MappingJob(board=flex10k_board("EPF10K100"), design=fft_design(),
                       solver="bnb-pure", label="doomed"),
            MappingJob(board=virtex_board("XCV1000"), design=fir_filter_design(),
                       solver="bnb-pure", label="fine"),
        ]
        results = MappingEngine(jobs=1).run(batch)
        assert results[0].status == STATUS_FAILED
        assert results[0].error
        assert results[1].status == STATUS_OK

    def test_complete_mode_matches_pipeline_objective(self):
        board = virtex_board("XCV1000")
        design = fir_filter_design()
        pipeline, complete = MappingEngine(jobs=1).run([
            MappingJob(board=board, design=design, solver="bnb-pure"),
            MappingJob(board=board, design=design, solver="bnb-pure",
                       mode=MODE_COMPLETE),
        ])
        assert pipeline.status == STATUS_OK and complete.status == STATUS_OK
        assert complete.objective == pytest.approx(pipeline.objective, rel=1e-3)


class TestParallelExecution:
    def test_parallel_results_identical_to_serial(self):
        serial = MappingEngine(jobs=1).run(small_batch())
        parallel = MappingEngine(jobs=2).run(small_batch())
        assert [r.label for r in parallel] == [r.label for r in serial]
        assert [r.fingerprint for r in parallel] == [r.fingerprint for r in serial]
        assert [r.assignment for r in parallel] == [r.assignment for r in serial]

    def test_workers_actually_fan_out(self):
        results = MappingEngine(jobs=2).run(small_batch())
        assert all(r.worker_pid != 0 for r in results)


class TestResultCache:
    def test_warm_rerun_hits_for_every_job(self, tmp_path):
        engine = MappingEngine(jobs=1, cache_dir=tmp_path)
        cold = engine.run(small_batch())
        assert all(not r.cache_hit for r in cold)
        warm = engine.run(small_batch())
        assert all(r.cache_hit for r in warm)
        assert [r.fingerprint for r in warm] == [r.fingerprint for r in cold]
        assert engine.cache.stats()["hits"] == len(small_batch())

    def test_cache_shared_between_engine_instances(self, tmp_path):
        MappingEngine(jobs=1, cache_dir=tmp_path).run(small_batch())
        warm = MappingEngine(jobs=2, cache_dir=tmp_path).run(small_batch())
        assert all(r.cache_hit for r in warm)

    def test_failed_jobs_are_cached_too(self, tmp_path):
        batch = [MappingJob(board=flex10k_board("EPF10K100"), design=fft_design(),
                            solver="bnb-pure")]
        engine = MappingEngine(jobs=1, cache_dir=tmp_path)
        cold = engine.run(batch)
        warm = engine.run(batch)
        assert cold[0].status == STATUS_FAILED
        assert warm[0].status == STATUS_FAILED and warm[0].cache_hit

    def test_engine_default_timeout_participates_in_the_key(self, tmp_path):
        # A run censored by a tight engine-level budget must never be
        # served to a rerun with a larger (or no) budget.
        board, design = virtex_board("XCV1000"), fir_filter_design()
        batch = [MappingJob(board=board, design=design, solver="bnb-pure")]
        MappingEngine(jobs=1, cache_dir=tmp_path, timeout=1.0).run(batch)
        unbounded = MappingEngine(jobs=1, cache_dir=tmp_path).run(batch)
        assert not unbounded[0].cache_hit
        rerun = MappingEngine(jobs=1, cache_dir=tmp_path, timeout=1.0).run(batch)
        assert rerun[0].cache_hit

    def test_different_solver_options_miss(self, tmp_path):
        board, design = virtex_board("XCV1000"), fir_filter_design()
        engine = MappingEngine(jobs=1, cache_dir=tmp_path)
        engine.run([MappingJob(board=board, design=design, solver="bnb-pure")])
        again = engine.run([MappingJob(board=board, design=design, solver="bnb-pure",
                                       solver_options={"node_limit": 100000})])
        assert not again[0].cache_hit


class TestJobResultSchema:
    def test_round_trips_through_dict(self):
        result = MappingEngine(jobs=1).run(small_batch()[:1])[0]
        rebuilt = JobResult.from_dict(result.to_dict())
        assert rebuilt.fingerprint == result.fingerprint
        assert rebuilt.assignment == result.assignment
        assert rebuilt.status == result.status


class TestMemoryMapperBatch:
    def test_map_batch_matches_individual_map_calls(self):
        board = virtex_board("XCV1000")
        designs = [fir_filter_design(), matrix_multiply_design()]
        jobs = [MappingJob(board=board, design=design, solver="bnb-pure")
                for design in designs]
        results = MappingEngine(jobs=1).run(jobs)
        assert [r.status for r in results] == [STATUS_OK, STATUS_OK]
        for design, job_result in zip(designs, results):
            direct = MemoryMapper(board, solver="bnb-pure").map(design)
            assert job_result.objective == pytest.approx(
                direct.global_mapping.objective
            )


class TestExecutePayload:
    def test_timeout_tightens_the_solver_limit(self):
        job = MappingJob(board=virtex_board("XCV1000"), design=fir_filter_design(),
                         solver="bnb-pure", solver_options={"time_limit": 500.0},
                         timeout=0.75)
        payload = job.to_payload()
        document = execute_payload(payload)
        # The job either finished inside the budget or was cut off by the
        # tightened solver limit — never by the original 500 s one.
        assert document["wall_time"] < 30.0


    def test_exact_job_builds_the_global_model_once(self, monkeypatch):
        from repro.core.global_mapper import GlobalMapper

        calls = []
        build_model = GlobalMapper.build_model

        def counting(self, *args, **kwargs):
            calls.append(1)
            return build_model(self, *args, **kwargs)

        monkeypatch.setattr(GlobalMapper, "build_model", counting)
        job = MappingJob(board=virtex_board("XCV1000"), design=fir_filter_design())
        document = execute_payload(job.to_payload())
        assert document["status"] == STATUS_OK
        assert len(calls) == 1  # the solve's model also reports the size

    def test_fast_lane_answer_builds_no_model(self, monkeypatch):
        from repro.core.global_mapper import GlobalMapper

        calls = []
        build_model = GlobalMapper.build_model

        def counting(self, *args, **kwargs):
            calls.append(1)
            return build_model(self, *args, **kwargs)

        monkeypatch.setattr(GlobalMapper, "build_model", counting)
        job = MappingJob(board=virtex_board("XCV1000"), design=fft_design(),
                         mode="fast")
        document = execute_payload(job.to_payload())
        assert document["status"] == STATUS_OK
        assert document["solve_stats"]["backend"] == "fast-heuristic"
        assert calls == []
        assert document["model_size"] == {}

    def test_model_size_matches_a_fresh_build(self):
        board, design = virtex_board("XCV1000"), fft_design()
        document = execute_payload(
            MappingJob(board=board, design=design).to_payload()
        )
        model = MemoryMapper(board).global_mapper.build_model(design).model
        assert document["model_size"] == {
            "variables": model.num_variables,
            "constraints": model.num_constraints,
        }

    @pytest.mark.parametrize(
        "design", [fir_filter_design, matrix_multiply_design, image_pipeline_design]
    )
    def test_exact_model_size_of_each_design_matches_a_fresh_build(self, design):
        board = hierarchical_board()
        document = execute_payload(
            MappingJob(board=board, design=design(), solver="bnb-pure").to_payload()
        )
        assert document["status"] == STATUS_OK
        model = MemoryMapper(board).global_mapper.build_model(design()).model
        assert document["model_size"] == {
            "variables": model.num_variables,
            "constraints": model.num_constraints,
        }


class TestInBatchDedupe:
    def test_duplicate_jobs_in_one_batch_solve_once(self, monkeypatch):
        import repro.engine.engine as engine_module

        calls = {"n": 0}
        real = engine_module.execute_payload

        def counting(payload):
            calls["n"] += 1
            return real(payload)

        monkeypatch.setattr(engine_module, "execute_payload", counting)
        job = MappingJob(board=virtex_board("XCV1000"),
                         design=fir_filter_design(), solver="bnb-pure")
        results = MappingEngine(jobs=1).run([job, job, job])
        assert calls["n"] == 1
        assert [r.deduped for r in results] == [False, True, True]
        assert len({r.fingerprint for r in results}) == 1
        assert [r.index for r in results] == [0, 1, 2]

    def test_replicas_do_not_share_mutable_state_with_the_primary(self):
        job = MappingJob(board=virtex_board("XCV1000"),
                         design=fir_filter_design(), solver="bnb-pure")
        primary, replica = MappingEngine(jobs=1).run([job, job])
        replica.assignment["poison"] = "nope"
        replica.result["poison"] = "nope"
        assert "poison" not in primary.assignment
        assert "poison" not in primary.result

    def test_distinct_jobs_are_not_coalesced(self):
        results = MappingEngine(jobs=1).run(small_batch())
        assert not any(r.deduped for r in results)

    def test_dedupe_round_trips_through_job_result_schema(self):
        job = MappingJob(board=virtex_board("XCV1000"),
                         design=fir_filter_design(), solver="bnb-pure")
        _, replica = MappingEngine(jobs=1).run([job, job])
        rebuilt = JobResult.from_dict(replica.to_dict())
        assert rebuilt.deduped is True


class TestRetryContextPropagation:
    """A job that errors out of all its attempts must still pass its
    inherited warm-chain state downstream (regression: the error document
    used to drop it, silently cold-starting the rest of a sweep)."""

    def make_chain(self):
        seeded = MappingJob(
            board=virtex_board("XCV1000"), design=fir_filter_design(),
            solver="bnb-pure", export_context=True,
        )
        result = MappingEngine(jobs=1).run([seeded])[0]
        assert result.chain_context is not None
        return result.chain_context

    def test_error_after_retries_exports_inherited_context(self):
        chain = self.make_chain()
        doomed = MappingJob(
            board=virtex_board("XCV1000"), design=fir_filter_design(),
            solver="no-such-backend", chain_context=chain, export_context=True,
        )
        result = MappingEngine(jobs=1, retries=2).run([doomed])[0]
        assert result.status == "error"
        assert result.attempts == 3
        assert result.chain_context == chain

    def test_execute_with_retries_error_document_carries_context(self):
        engine = MappingEngine(jobs=1, retries=1)
        chain = {"kind": "chain", "incumbent": {"a": "sram"}}
        # A payload with no board/design crashes execute_payload outright.
        document = engine._execute_with_retries(
            {"mode": "pipeline", "chain_context": chain}
        )
        assert document["status"] == "error"
        assert document["attempts"] == 2
        assert document["chain_context"] == chain


def _sleepy_payload(payload):
    import time as _time

    _time.sleep(payload.get("solver_options", {}).get("nap", 3.0))
    return {"status": STATUS_OK, "wall_time": 0.0, "result": None}


class TestPoolTimeouts:
    def test_stuck_worker_reports_timeout_and_keeps_context(self, monkeypatch):
        import repro.engine.engine as engine_module

        monkeypatch.setattr(engine_module, "_TIMEOUT_GRACE", 0.2)
        monkeypatch.setattr(engine_module, "execute_payload", _sleepy_payload)
        chain = {"kind": "chain", "incumbent": {"a": "sram"}}
        jobs = [
            # Distinct nap values keep the payloads distinct, so the two
            # jobs are not coalesced and genuinely exercise the pool path.
            MappingJob(
                board=virtex_board("XCV1000"), design=fir_filter_design(),
                solver="bnb-pure", timeout=0.1, label=f"stuck-{index}",
                chain_context=chain, export_context=True,
                solver_options={"nap": 3.0 + index},
            )
            for index in range(2)
        ]
        results = MappingEngine(jobs=2).run(jobs)
        assert [r.status for r in results] == ["timeout", "timeout"]
        assert all("budget" in r.error for r in results)
        # The inherited chain state survives the timeout verdict.
        assert all(r.chain_context == chain for r in results)

    def test_mp_context_validation(self):
        with pytest.raises(ValueError):
            MappingEngine(jobs=2, mp_context="quantum-fork")

    def test_spawn_context_produces_identical_fingerprints(self):
        serial = MappingEngine(jobs=1).run(small_batch()[:2])
        spawned = MappingEngine(jobs=2, mp_context="spawn").run(small_batch()[:2])
        assert [r.fingerprint for r in spawned] == [r.fingerprint for r in serial]


class TestPersistentPool:
    def test_pool_is_reused_across_runs(self):
        engine = MappingEngine(jobs=2)
        with engine.persistent_pool():
            first = engine.run(small_batch())
            pool = engine._persistent
            assert pool is not None
            second = engine.run(small_batch())
            assert engine._persistent is pool
        # The block tears the pool down on exit.
        assert engine._persistent is None
        assert [r.fingerprint for r in first] == [r.fingerprint for r in second]

    def test_results_match_per_run_pools(self):
        engine = MappingEngine(jobs=2)
        plain = engine.run(small_batch())
        with engine.persistent_pool():
            pooled = engine.run(small_batch())
        assert [r.fingerprint for r in pooled] == [r.fingerprint for r in plain]


class TestDeadWorker:
    """A worker that dies breaks its pool; the engine must not stay broken."""

    def test_retry_runs_on_a_fresh_pool(self, dying_worker):
        results = MappingEngine(jobs=2, retries=1).run(dying_worker())
        assert [r.status for r in results] == [STATUS_OK, STATUS_OK]

    def test_only_the_job_that_dies_is_charged(self, dying_worker):
        # The healthy job is in flight when its sibling kills the shared
        # pool; it is re-run alone, not reported as an error.
        results = MappingEngine(jobs=2, retries=0).run(dying_worker(always=True))
        assert [r.status for r in results] == [STATUS_ERROR, STATUS_OK]
        assert "BrokenProcessPool" in results[0].error
        assert [r.attempts for r in results] == [1, 1]

    def test_a_job_that_dies_once_is_not_charged(self, dying_worker):
        results = MappingEngine(jobs=2, retries=0).run(dying_worker())
        assert [r.status for r in results] == [STATUS_OK, STATUS_OK]

    def test_persistent_pool_recovers_for_the_next_run(self, dying_worker):
        engine = MappingEngine(jobs=2)
        with engine.persistent_pool():
            broken = engine.run(dying_worker(always=True))
            assert [r.status for r in broken] == [STATUS_ERROR, STATUS_OK]
            # These jobs never die; they fail only if the dead pool is
            # still in use.
            for _ in range(2):
                again = engine.run(dying_worker(die=False))
                assert [r.status for r in again] == [STATUS_OK, STATUS_OK]
