"""Round-trip and versioning tests of the v1 serve wire schema."""

from __future__ import annotations

import pytest

from repro.arch import virtex_board
from repro.design import fir_filter_design
from repro.io import SerializationError, board_to_dict, design_to_dict
from repro.io.serve import (
    SUPPORTED_WIRE_VERSIONS,
    STATE_DONE,
    STATE_QUEUED,
    WIRE_VERSION,
    HealthReport,
    JobStatus,
    JobSubmission,
    WireVersionError,
    check_wire_version,
)


def example_submission(**overrides) -> JobSubmission:
    defaults = dict(
        board=board_to_dict(virtex_board("XCV1000")),
        design=design_to_dict(fir_filter_design()),
        solver="bnb-pure",
        label="fir",
        priority=3,
        deadline_ms=1500.0,
        timeout=30.0,
        solver_options={"node_limit": 1000},
    )
    defaults.update(overrides)
    return JobSubmission(**defaults)


class TestJobSubmissionSchema:
    def test_round_trips_through_wire(self):
        submission = example_submission()
        rebuilt = JobSubmission.from_wire(submission.to_wire())
        assert rebuilt == submission

    def test_wire_document_is_versioned(self):
        document = example_submission().to_wire()
        assert document["v"] == WIRE_VERSION
        assert document["kind"] == "job_submission"

    def test_from_objects_embeds_serialised_documents(self):
        submission = JobSubmission.from_objects(
            virtex_board("XCV1000"), fir_filter_design(), label="x"
        )
        assert submission.board["kind"] == "board"
        assert submission.design["kind"] == "design"

    def test_defaults_round_trip(self):
        submission = JobSubmission(
            board=board_to_dict(virtex_board("XCV1000")),
            design=design_to_dict(fir_filter_design()),
        )
        rebuilt = JobSubmission.from_wire(submission.to_wire())
        assert rebuilt == submission
        assert rebuilt.priority == 0
        assert rebuilt.deadline_ms is None

    def test_display_label_falls_back_to_design_at_board(self):
        board_name = virtex_board("XCV1000").name
        assert (
            example_submission(label="").display_label()
            == f"fir-filter@{board_name}"
        )
        assert example_submission().display_label() == "fir"

    def test_rejects_wrong_kind(self):
        document = example_submission().to_wire()
        document["kind"] = "board"
        with pytest.raises(SerializationError):
            JobSubmission.from_wire(document)

    def test_rejects_missing_board_or_design(self):
        document = example_submission().to_wire()
        del document["board"]
        with pytest.raises(SerializationError):
            JobSubmission.from_wire(document)

    def test_rejects_non_document_board(self):
        document = example_submission().to_wire()
        document["design"] = "fir-filter"
        with pytest.raises(SerializationError):
            JobSubmission.from_wire(document)

    def test_rejects_unknown_mode(self):
        document = example_submission().to_wire()
        document["mode"] = "quantum"
        with pytest.raises(SerializationError):
            JobSubmission.from_wire(document)

    def test_fast_mode_round_trips_with_gap_limit(self):
        submission = example_submission(mode="fast", gap_limit=0.05)
        rebuilt = JobSubmission.from_wire(submission.to_wire())
        assert rebuilt == submission
        assert rebuilt.mode == "fast"
        assert rebuilt.gap_limit == 0.05

    def test_rejects_negative_gap_limit(self):
        document = example_submission(mode="fast", gap_limit=0.05).to_wire()
        document["gap_limit"] = -0.1
        with pytest.raises(SerializationError):
            JobSubmission.from_wire(document)

    def test_rejects_non_numeric_gap_limit(self):
        document = example_submission().to_wire()
        document["gap_limit"] = "tiny"
        with pytest.raises(SerializationError):
            JobSubmission.from_wire(document)

    @pytest.mark.parametrize("body", [None, "a string", [1, 2], 7])
    def test_non_object_documents_are_serialization_errors(self, body):
        # Client garbage must surface as SerializationError (an HTTP 400),
        # never AttributeError/ValueError (an HTTP 500).
        with pytest.raises(SerializationError):
            JobSubmission.from_wire(body)
        with pytest.raises(SerializationError):
            JobStatus.from_wire(body)
        with pytest.raises(SerializationError):
            HealthReport.from_wire(body)

    @pytest.mark.parametrize("key,value", [
        ("priority", "high"), ("timeout", "soon"), ("deadline_ms", "never"),
    ])
    def test_non_numeric_fields_are_serialization_errors(self, key, value):
        document = example_submission().to_wire()
        document[key] = value
        with pytest.raises(SerializationError):
            JobSubmission.from_wire(document)

    def test_non_object_weights_are_a_serialization_error(self):
        document = example_submission().to_wire()
        document["weights"] = "balanced"
        with pytest.raises(SerializationError):
            JobSubmission.from_wire(document)

    def test_unknown_fields_are_tolerated(self):
        # Additive (forward-compatible) evolution: a newer peer may add
        # fields; an older reader must ignore them, not crash.
        document = example_submission().to_wire()
        document["carbon_budget"] = {"grams": 3}
        rebuilt = JobSubmission.from_wire(document)
        assert rebuilt == example_submission()


class TestWireVersioning:
    @pytest.mark.parametrize("builder", [
        lambda: example_submission().to_wire(),
        lambda: JobStatus(job_id="j", state=STATE_QUEUED).to_wire(),
        lambda: HealthReport().to_wire(),
    ])
    def test_missing_version_is_a_wire_version_error(self, builder):
        document = builder()
        del document["v"]
        kind = document["kind"]
        reader = {
            "job_submission": JobSubmission,
            "job_status": JobStatus,
            "health_report": HealthReport,
        }[kind]
        with pytest.raises(WireVersionError):
            reader.from_wire(document)

    @pytest.mark.parametrize("version", [2, 99, 0, -1, "1", 1.0, True])
    def test_unsupported_version_is_a_wire_version_error(self, version):
        document = example_submission().to_wire()
        document["v"] = version
        with pytest.raises(WireVersionError) as caught:
            JobSubmission.from_wire(document)
        assert caught.value.supported_versions == SUPPORTED_WIRE_VERSIONS

    def test_version_error_beats_kind_mismatch(self):
        # A future-version document of any kind must surface as the
        # structured version error, not as a kind mismatch.
        document = example_submission().to_wire()
        document["v"] = 99
        document["kind"] = "job_status"
        with pytest.raises(WireVersionError):
            JobSubmission.from_wire(document)

    def test_wire_version_error_is_a_serialization_error(self):
        # The HTTP layer's 400 ladder catches SerializationError;
        # version errors must stay inside that family.
        assert issubclass(WireVersionError, SerializationError)

    def test_check_wire_version_accepts_current(self):
        check_wire_version({"v": WIRE_VERSION}, "test")


class TestJobStatusSchema:
    def test_round_trips_through_wire(self):
        status = JobStatus(
            job_id="j1-abc",
            state=STATE_DONE,
            label="fir",
            priority=2,
            cache_key="deadbeef",
            deduped=True,
            cache_hit=True,
            submitted_at=100.0,
            started_at=100.5,
            finished_at=101.25,
            result_status="ok",
            objective=1.5,
            fingerprint="f" * 64,
            error="",
        )
        rebuilt = JobStatus.from_wire(status.to_wire())
        assert rebuilt == status

    def test_gap_round_trips_and_defaults_to_none(self):
        status = JobStatus(
            job_id="j2", state=STATE_DONE, result_status="ok",
            objective=2.5, gap=0.031,
        )
        rebuilt = JobStatus.from_wire(status.to_wire())
        assert rebuilt.gap == 0.031
        exact = JobStatus.from_wire(
            JobStatus(job_id="j3", state=STATE_QUEUED).to_wire()
        )
        assert exact.gap is None

    def test_latency_is_reported_once_finished(self):
        status = JobStatus(
            job_id="j", state=STATE_DONE, submitted_at=10.0, finished_at=10.25
        )
        assert status.latency_ms == pytest.approx(250.0)
        queued = JobStatus(job_id="j", state=STATE_QUEUED, submitted_at=10.0)
        assert queued.latency_ms is None
        assert status.to_wire()["latency_ms"] == pytest.approx(250.0)

    def test_terminal_states(self):
        assert JobStatus(job_id="j", state="done").terminal
        assert JobStatus(job_id="j", state="cancelled").terminal
        assert JobStatus(job_id="j", state="expired").terminal
        assert not JobStatus(job_id="j", state="queued").terminal
        assert not JobStatus(job_id="j", state="running").terminal

    def test_rejects_unknown_state(self):
        with pytest.raises(SerializationError):
            JobStatus.from_wire(
                {"kind": "job_status", "v": WIRE_VERSION, "job_id": "j",
                 "state": "floating"}
            )

    def test_rejects_wrong_kind(self):
        with pytest.raises(SerializationError):
            JobStatus.from_wire({"kind": "job_result", "v": WIRE_VERSION,
                                 "job_id": "j", "state": "done"})


class TestHealthReportSchema:
    def test_round_trips_through_wire(self):
        report = HealthReport(
            status="ok",
            role="service",
            uptime_seconds=12.5,
            queue_depth=3,
            inflight=2,
            workers=4,
            counters={"submitted": 10, "completed": 8},
            store={"memory_entries": 2},
            details={"max_batch": 4},
        )
        rebuilt = HealthReport.from_wire(report.to_wire())
        assert rebuilt == report

    def test_unknown_fields_are_preserved_in_extra(self):
        document = HealthReport().to_wire()
        document["gpu_temperature"] = 71
        rebuilt = HealthReport.from_wire(document)
        assert rebuilt.extra == {"gpu_temperature": 71}
        # ...and survive the next serialisation round trip verbatim.
        assert rebuilt.to_wire()["gpu_temperature"] == 71

    def test_malformed_counters_are_a_serialization_error(self):
        document = HealthReport().to_wire()
        document["counters"] = "lots"
        with pytest.raises(SerializationError):
            HealthReport.from_wire(document)
