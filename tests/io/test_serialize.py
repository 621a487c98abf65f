"""Unit tests for JSON serialisation of boards, designs and results."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.arch import hierarchical_board, virtex_board
from repro.core import MemoryMapper
from repro.design import ConflictSet, DataStructure, Design, image_pipeline_design
from repro.io import (
    SCHEMA_VERSION,
    SerializationError,
    board_from_dict,
    board_to_dict,
    design_from_dict,
    design_to_dict,
    detailed_mapping_to_dict,
    global_mapping_to_dict,
    load_board,
    load_design,
    load_json,
    mapping_result_to_dict,
    save_json,
)


class TestBoardRoundTrip:
    def test_round_trip_preserves_everything(self):
        board = hierarchical_board()
        rebuilt = board_from_dict(board_to_dict(board))
        assert rebuilt.name == board.name
        assert rebuilt.clock_ns == board.clock_ns
        assert rebuilt.type_names == board.type_names
        for original, copy in zip(board.bank_types, rebuilt.bank_types):
            assert copy.num_instances == original.num_instances
            assert copy.num_ports == original.num_ports
            assert copy.configurations == original.configurations
            assert copy.read_latency == original.read_latency
            assert copy.write_latency == original.write_latency
            assert copy.pins_traversed == original.pins_traversed
        assert rebuilt.complexity() == board.complexity()

    def test_document_is_json_serialisable(self):
        text = json.dumps(board_to_dict(virtex_board()))
        assert "BlockRAM" in text

    def test_kind_mismatch_rejected(self):
        with pytest.raises(SerializationError):
            board_from_dict({"kind": "design", "name": "x", "bank_types": []})

    def test_future_schema_version_rejected(self):
        doc = board_to_dict(virtex_board())
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SerializationError):
            board_from_dict(doc)

    def test_missing_field_reported(self):
        doc = board_to_dict(virtex_board())
        del doc["bank_types"][0]["num_instances"]
        with pytest.raises(SerializationError) as excinfo:
            board_from_dict(doc)
        assert "num_instances" in str(excinfo.value)

    def test_file_round_trip(self, tmp_path):
        board = virtex_board("XCV300")
        path = save_json(board_to_dict(board), tmp_path / "board.json")
        assert load_board(path).describe() == board.describe()


class TestDesignRoundTrip:
    def make_design(self):
        structures = (
            DataStructure("a", 64, 8, reads=100, writes=20, lifetime=(0, 5)),
            DataStructure("b", 128, 16),
            DataStructure("c", 32, 4, lifetime=(6, 9)),
        )
        return Design(
            name="io-design",
            data_structures=structures,
            conflicts=ConflictSet.from_pairs([("a", "b")]),
        )

    def test_round_trip_preserves_structures_and_conflicts(self):
        design = self.make_design()
        rebuilt = design_from_dict(design_to_dict(design))
        assert rebuilt.name == design.name
        assert rebuilt.segment_names == design.segment_names
        a = rebuilt.by_name("a")
        assert (a.depth, a.width, a.reads, a.writes) == (64, 8, 100, 20)
        assert a.lifetime == (0, 5)
        assert rebuilt.by_name("b").reads is None
        assert rebuilt.conflicts.conflicts("a", "b")
        assert not rebuilt.conflicts.conflicts("a", "c")

    def test_workload_round_trip(self):
        design = image_pipeline_design()
        rebuilt = design_from_dict(design_to_dict(design))
        assert rebuilt.total_bits == design.total_bits
        assert len(rebuilt.conflicts) == len(design.conflicts)

    def test_file_round_trip(self, tmp_path):
        design = self.make_design()
        path = save_json(design_to_dict(design), tmp_path / "design.json")
        assert load_design(path).segment_names == design.segment_names

    def test_invalid_json_file_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SerializationError):
            load_json(path)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(SerializationError):
            design_from_dict(board_to_dict(virtex_board()))


class TestResultSerialisation:
    @pytest.fixture(scope="class")
    def result(self):
        board = hierarchical_board()
        return MemoryMapper(board).map(image_pipeline_design())

    def test_global_mapping_document(self, result):
        doc = global_mapping_to_dict(result.global_mapping)
        assert doc["kind"] == "global_mapping"
        assert doc["assignment"] == dict(result.global_mapping.assignment)
        assert doc["objective"] == pytest.approx(result.global_mapping.objective)
        json.dumps(doc)  # must be JSON-clean

    def test_detailed_mapping_document(self, result):
        doc = detailed_mapping_to_dict(result.detailed_mapping)
        assert len(doc["placements"]) == result.detailed_mapping.num_fragments
        first = doc["placements"][0]
        assert {"structure", "bank_type", "instance", "ports", "base_word"} <= set(first)
        json.dumps(doc)

    def test_full_result_document(self, result, tmp_path):
        doc = mapping_result_to_dict(result)
        assert doc["kind"] == "mapping_result"
        assert doc["cost"]["weighted_total"] == pytest.approx(result.cost.weighted_total)
        path = save_json(doc, tmp_path / "result.json")
        loaded = load_json(path)
        assert loaded["global_mapping"]["assignment"] == dict(
            result.global_mapping.assignment
        )
        # The embedded board and design documents round-trip on their own.
        assert board_from_dict(loaded["board"]).name == result.board.name
        assert design_from_dict(loaded["design"]).num_segments == result.design.num_segments


class TestCacheKeyStability:
    """The engine's cache keys must agree between independent processes."""

    def _job_key_script(self) -> str:
        return (
            "from repro.arch import hierarchical_board\n"
            "from repro.design import image_pipeline_design\n"
            "from repro.engine import MappingJob\n"
            "job = MappingJob(board=hierarchical_board(),"
            " design=image_pipeline_design(), solver='bnb-pure')\n"
            "print(job.cache_key())\n"
        )

    def test_cache_key_stable_across_processes(self):
        keys = set()
        for _ in range(2):
            completed = subprocess.run(
                [sys.executable, "-c", self._job_key_script()],
                capture_output=True, text=True, check=True,
            )
            keys.add(completed.stdout.strip())
        assert len(keys) == 1
        (key,) = keys
        assert len(key) == 64  # sha256 hex

    def test_cache_key_matches_in_process(self):
        from repro.engine import MappingJob

        job = MappingJob(
            board=hierarchical_board(),
            design=image_pipeline_design(),
            solver="bnb-pure",
        )
        completed = subprocess.run(
            [sys.executable, "-c", self._job_key_script()],
            capture_output=True, text=True, check=True,
        )
        assert completed.stdout.strip() == job.cache_key()

    def test_cache_key_ignores_label(self):
        from repro.engine import MappingJob

        base = dict(board=hierarchical_board(), design=image_pipeline_design())
        assert MappingJob(**base).cache_key() == \
            MappingJob(label="other", **base).cache_key()

    def test_cache_key_tracks_timeout(self):
        # A budget-censored run may carry a suboptimal incumbent, so a
        # different time budget must be a different cache entry.
        from repro.engine import MappingJob

        base = dict(board=hierarchical_board(), design=image_pipeline_design())
        assert MappingJob(**base).cache_key() != \
            MappingJob(timeout=5.0, **base).cache_key()

    def test_cache_key_tracks_solver_options(self):
        from repro.engine import MappingJob

        base = dict(board=hierarchical_board(), design=image_pipeline_design())
        assert MappingJob(**base).cache_key() != \
            MappingJob(solver_options={"node_limit": 10}, **base).cache_key()
