"""Similarity-keyed warm starts: signatures, transplants, store, service.

Covers the whole near-duplicate path introduced for the serve tier:
structural signatures discriminate near-duplicates from unrelated
designs, the chain-context transplant is dimension- and bound-guarded,
the warm-state store ranks neighbors deterministically and bounds its
directory, and the service turns all of it into ``similar_imports`` /
``similar_rejects`` counters while serving fingerprints identical to a
cold solve.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.arch import virtex_board
from repro.bench.loadgen import near_variant
from repro.design import fft_design, fir_filter_design
from repro.engine import MappingEngine, MappingJob
from repro.ilp import SolveContext
from repro.io.serialize import design_from_dict
from repro.io.serve import JobSubmission
from repro.serve import (
    MappingService,
    WarmStateStore,
    signature_similarity,
    signatures_compatible,
    signatures_equal_shape,
    structural_signature,
)
from repro.serve.signature import MIN_SIMILARITY, SIGNATURE_VERSION, SKETCH_SLOTS


def payload(design=None, board=None, **overrides) -> dict:
    board = board or virtex_board("XCV1000")
    design = design or fir_filter_design()
    overrides.setdefault("solver", "bnb-pure")
    return MappingJob(board=board, design=design, **overrides).to_payload()


def submission(design=None, board=None, **overrides) -> JobSubmission:
    board = board or virtex_board("XCV1000")
    design = design or fir_filter_design()
    overrides.setdefault("solver", "bnb-pure")
    return JobSubmission.from_objects(board, design, **overrides)


def near_submission(index: int = 0) -> JobSubmission:
    return near_variant(submission(), index)


async def wait_done(service, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while True:
        status = service.status(job_id)
        if status is not None and status.terminal:
            return status
        assert time.monotonic() < deadline, f"job {job_id} never finished"
        await asyncio.sleep(0.01)


class TestStructuralSignature:
    def test_signature_is_deterministic_and_json_stable(self):
        first = structural_signature(payload())
        second = structural_signature(payload())
        assert first == second
        assert json.loads(json.dumps(first)) == first
        assert first["kind"] == "warm_signature"
        assert first["version"] == SIGNATURE_VERSION
        assert len(first["sketch"]) == SKETCH_SLOTS

    def test_near_duplicate_scores_above_threshold(self):
        base = submission()
        near = near_variant(base, 0)
        score = signature_similarity(
            structural_signature(payload()),
            structural_signature(payload(design=design_from_dict(near.design))),
        )
        assert score >= MIN_SIMILARITY

    def test_unrelated_design_scores_below_threshold(self):
        score = signature_similarity(
            structural_signature(payload()),
            structural_signature(payload(design=fft_design())),
        )
        assert score < MIN_SIMILARITY

    def test_different_solver_knobs_split_the_bucket(self):
        # Everything in the warm identity except the design belongs to
        # the bucket: a knob change means the stored state would steer a
        # differently-configured solve, so similarity collapses to 0.
        base = structural_signature(payload())
        other = structural_signature(
            payload(solver_options={"node_limit": 10})
        )
        assert base["bucket"] != other["bucket"]
        assert signature_similarity(base, other) == 0.0

    def test_compatibility_and_equal_shape_semantics(self):
        base = structural_signature(payload())
        near = structural_signature(
            payload(design=design_from_dict(near_submission().design))
        )
        # Dropping a conflict keeps every SOS group's geometry, so the
        # signatures stay compatible — but the dims differ, which is
        # exactly the equal-shape gate that keeps the basis from
        # transferring across models of different row counts.
        assert signatures_compatible(base, near)
        assert not signatures_equal_shape(base, near)
        assert signatures_equal_shape(base, base)

    def test_shared_structure_with_different_shape_is_incompatible(self):
        base = structural_signature(payload())
        mutated = json.loads(json.dumps(base))
        name = sorted(mutated["sos"])[0]
        depth, width = mutated["sos"][name]
        mutated["sos"][name] = [depth + 1, width]
        assert not signatures_compatible(base, mutated)


class TestTransplant:
    CHAIN = {
        "kind": "solve_context_chain",
        "pseudocosts": {"x0": {"up": 1.5, "down": 0.5}},
        "seed_assignment": {"a": "BRAM", "b": "LUTRAM"},
        "warm_basis": {"basic": [1, 2, 3]},
    }

    def test_seed_is_filtered_to_the_target_structures(self):
        chain = SolveContext.transplant_chain_dict(
            self.CHAIN, structures=["a"], keep_basis=False
        )
        assert chain["seed_assignment"] == {"a": "BRAM"}
        assert chain["warm_basis"] is None
        assert chain["pseudocosts"] == self.CHAIN["pseudocosts"]

    def test_basis_only_survives_equal_shapes(self):
        kept = SolveContext.transplant_chain_dict(
            self.CHAIN, structures=["a", "b"], keep_basis=True
        )
        assert kept["warm_basis"] == self.CHAIN["warm_basis"]
        dropped = SolveContext.transplant_chain_dict(
            self.CHAIN, structures=["a", "b"], keep_basis=False
        )
        assert dropped["warm_basis"] is None

    def test_unknown_bank_types_are_filtered(self):
        chain = SolveContext.transplant_chain_dict(
            self.CHAIN, structures=["a", "b"], bank_types=["BRAM"],
            keep_basis=False,
        )
        assert chain["seed_assignment"] == {"a": "BRAM"}

    def test_nothing_transferable_returns_none(self):
        assert SolveContext.transplant_chain_dict(
            self.CHAIN, structures=["zzz"], keep_basis=False
        ) is None
        assert SolveContext.transplant_chain_dict(
            "not a chain", structures=["a"], keep_basis=True
        ) is None

    def test_basis_alone_keeps_the_transplant_alive(self):
        chain = SolveContext.transplant_chain_dict(
            self.CHAIN, structures=["zzz"], keep_basis=True
        )
        assert chain["seed_assignment"] is None
        assert chain["warm_basis"] == self.CHAIN["warm_basis"]


class TestWarmStoreSimilarity:
    def test_find_similar_returns_the_nearest_signed_entry(self, tmp_path):
        store = WarmStateStore(tmp_path, instance="a")
        base_sig = structural_signature(payload())
        store.put("k-base", {"seed_assignment": {"s": "BRAM"}},
                  signature=base_sig)
        store.put("k-far", {"seed_assignment": {"t": "BRAM"}},
                  signature=structural_signature(payload(design=fft_design())))
        query = structural_signature(
            payload(design=design_from_dict(near_submission().design))
        )
        found = store.find_similar(query)
        assert found is not None and found["warm_key"] == "k-base"
        # find_similar is a ranking primitive: no reuse counters move.
        assert store.stats()["reuses"] == 0

    def test_find_similar_respects_exclude_and_threshold(self, tmp_path):
        store = WarmStateStore(tmp_path, instance="a")
        sig = structural_signature(payload())
        store.put("k-self", {"seed_assignment": {"s": "BRAM"}}, signature=sig)
        assert store.find_similar(sig, exclude=("k-self",)) is None
        far = structural_signature(payload(design=fft_design()))
        assert store.find_similar(far) is None

    def test_unsigned_and_corrupt_entries_are_skipped(self, tmp_path):
        store = WarmStateStore(tmp_path, instance="a")
        store.put("k-unsigned", {"seed_assignment": {"s": "BRAM"}})
        (tmp_path / "k-garbage.json").write_text("{not json", encoding="utf-8")
        sig = structural_signature(payload())
        assert store.find_similar(sig) is None
        assert store.find_similar(None) is None

    def test_sibling_exports_become_candidates(self, tmp_path):
        writer = WarmStateStore(tmp_path, instance="replica-1")
        reader = WarmStateStore(tmp_path, instance="replica-2")
        sig = structural_signature(payload())
        writer.put("k-sib", {"seed_assignment": {"s": "BRAM"}}, signature=sig)
        found = reader.find_similar(sig)
        assert found is not None and found["source"] == "replica-1"

    def test_eviction_bounds_the_shared_directory(self, tmp_path):
        store = WarmStateStore(tmp_path, instance="a", max_entries=2)
        sig = structural_signature(payload())
        for index in range(4):
            store.put(f"k-{index}", {"seed_assignment": {"s": "BRAM"}},
                      signature=sig)
        assert len(store) == 2
        assert store.stats()["evictions"] == 2

    def test_max_entries_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            WarmStateStore(tmp_path, max_entries=0)


def run_service_scenario(coro_fn, **config):
    config.setdefault("jobs", 1)
    config.setdefault("max_batch", 4)

    async def main():
        service = MappingService(**config)
        await service.start()
        try:
            return await coro_fn(service)
        finally:
            await service.stop()

    return asyncio.run(main())


class TestServiceSimilarityPath:
    def test_near_duplicate_imports_and_stays_fingerprint_identical(
        self, tmp_path
    ):
        near = near_submission()

        async def scenario(service):
            first = service.submit(submission())
            await wait_done(service, first.job_id)
            second = service.submit(near)
            final = await wait_done(service, second.job_id)
            return final, dict(service.counters), service.health_report()

        final, counters, health = run_service_scenario(
            scenario, cache_dir=str(tmp_path / "cache"), warm_sharing=True
        )
        assert final.result_status == "ok"
        assert counters["similar_imports"] == 1
        assert counters["similar_rejects"] == 0
        assert counters["warm_seeded"] >= 1

        warm_stats = health.store["warm"]
        assert warm_stats["similar_imports"] == 1
        assert "similar_rejects" in warm_stats

        direct = MappingEngine(jobs=1).run([
            MappingJob(
                board=virtex_board("XCV1000"),
                design=design_from_dict(near.design),
                solver="bnb-pure",
            )
        ])[0]
        assert final.fingerprint == direct.fingerprint

    def test_unrelated_design_falls_back_cold_without_reject(self, tmp_path):
        async def scenario(service):
            first = service.submit(submission())
            await wait_done(service, first.job_id)
            second = service.submit(submission(design=fft_design()))
            final = await wait_done(service, second.job_id)
            return final, dict(service.counters)

        final, counters = run_service_scenario(
            scenario, cache_dir=str(tmp_path / "cache"), warm_sharing=True
        )
        # Below the similarity threshold is a plain miss, not a reject:
        # nothing was close enough to even guard.
        assert final.result_status == "ok"
        assert counters["similar_imports"] == 0
        assert counters["similar_rejects"] == 0

    def _preloaded_service_run(self, tmp_path, entry_mutator):
        """Solve a near-duplicate against one crafted stored entry."""
        near = near_submission()
        cache_dir = tmp_path / "cache"
        seed_store = WarmStateStore(cache_dir / "_warm", instance="elsewhere")
        signature = structural_signature(
            payload(design=design_from_dict(near.design))
        )
        signature, chain = entry_mutator(json.loads(json.dumps(signature)))
        seed_store.put("crafted-neighbor", chain, signature=signature)

        async def scenario(service):
            status = service.submit(near)
            final = await wait_done(service, status.job_id)
            return final, dict(service.counters)

        return run_service_scenario(
            scenario, cache_dir=str(cache_dir), warm_sharing=True
        )

    def test_incompatible_sos_layout_is_rejected(self, tmp_path):
        def mutate(signature):
            # Identical sketch (similarity 1.0) but one shared SOS group
            # with different geometry: the transplant guard must refuse.
            name = sorted(signature["sos"])[0]
            depth, width = signature["sos"][name]
            signature["sos"][name] = [depth + 7, width]
            return signature, {"seed_assignment": {name: "BRAM"}}

        final, counters = self._preloaded_service_run(tmp_path, mutate)
        assert final.result_status == "ok"
        assert counters["similar_rejects"] == 1
        assert counters["similar_imports"] == 0
        assert counters["warm_seeded"] == 0

    def test_empty_transplant_overlap_is_rejected(self, tmp_path):
        def mutate(signature):
            # Perfectly compatible signature, but the stored chain seeds
            # only structures this design does not have (and carries no
            # basis): the transplant comes back empty.
            return signature, {"seed_assignment": {"no-such-structure": "BRAM"}}

        final, counters = self._preloaded_service_run(tmp_path, mutate)
        assert final.result_status == "ok"
        assert counters["similar_rejects"] == 1
        assert counters["similar_imports"] == 0

    def test_cross_instance_near_duplicate_import(self, tmp_path):
        # Two replicas over one shared cache directory: replica-1 solves
        # the original, replica-2 admits the near-duplicate and must
        # import replica-1's state through the similarity index — the
        # cross-shard path the scale benchmark gates on.
        near = near_submission()
        cache_dir = str(tmp_path / "cache")

        async def main():
            first = MappingService(
                jobs=1, max_batch=4, cache_dir=cache_dir,
                warm_sharing=True, instance_name="replica-1",
            )
            second = MappingService(
                jobs=1, max_batch=4, cache_dir=cache_dir,
                warm_sharing=True, instance_name="replica-2",
            )
            await first.start()
            await second.start()
            try:
                seed = first.submit(submission())
                await wait_done(first, seed.job_id)
                status = second.submit(near)
                final = await wait_done(second, status.job_id)
                return final, dict(second.counters)
            finally:
                await first.stop()
                await second.stop()

        final, counters = asyncio.run(main())
        assert final.result_status == "ok"
        assert counters["similar_imports"] == 1
        assert counters["warm_imports"] == 1  # the seed crossed instances

        direct = MappingEngine(jobs=1).run([
            MappingJob(
                board=virtex_board("XCV1000"),
                design=design_from_dict(near.design),
                solver="bnb-pure",
            )
        ])[0]
        assert final.fingerprint == direct.fingerprint
