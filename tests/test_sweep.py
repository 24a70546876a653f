"""ordered_map, and reports that do not depend on the worker count.

Failures are injected by replacing the check function a sweep hands to
ordered_map with a function of this file, which the worker processes
receive with the check, so serial and pooled runs see the same failing rows.
"""

import json

import pytest

from csneighborly import (
    build,
    certificate,
    dominant_subset_sweep,
    oracle,
    projection_containment,
    sylvester,
    verify_conditions,
    verify_k_neighborly,
)
from csneighborly.cli import main
from csneighborly.oracle import FaceReport
from csneighborly.sweep import ordered_map

# rows of block 1 at d = 16 (1024 rows) forced to fail, spread over the pool
# chunks of jobs 2 and 4; the first one in sweep order is 192
FAILING_ROWS = frozenset({900, 700, 300, 192})
_real_check_row = certificate._check_row
_real_is_face = oracle.is_face


def _check_row_failing(con, task):
    l, index = task
    result = _real_check_row(con, task)
    if l == 1 and index in FAILING_ROWS:
        return result[:2] + (False,) + result[3:]
    return result


def _is_face_failing(con, subset):
    report = _real_is_face(con, subset)
    if min(i for i, _ in subset) % 7 == 3:
        return FaceReport(report.subset, "not-face", None, None)
    return report


def _square(con, x):
    return x * x


@pytest.fixture(scope="module")
def con16():
    return build(sylvester(4))


class TestOrderedMap:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_in_task_order(self, con16, jobs):
        assert list(ordered_map(_square, con16, range(40), jobs)) == [
            x * x for x in range(40)
        ]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_stops_after_first_failure(self, con16, jobs):
        got = list(ordered_map(_square, con16, range(200), jobs,
                               failed=lambda r: r in (49, 64, 9801)))
        assert got == [x * x for x in range(8)]

    def test_empty_task_source_rejected(self, con16):
        with pytest.raises(ValueError, match="no tasks"):
            ordered_map(_square, con16, iter(()))

    def test_jobs_below_one_rejected(self, con16):
        with pytest.raises(ValueError, match="jobs"):
            ordered_map(_square, con16, range(3), jobs=0)


class TestEmptySweepsRejected:
    def test_faces_zero_samples(self, con16):
        with pytest.raises(ValueError, match="no tasks"):
            verify_k_neighborly(con16, 2, mode="sample", samples=0)

    def test_dominant_zero_samples(self, con16):
        with pytest.raises(ValueError, match="no tasks"):
            dominant_subset_sweep(con16, 2, mode="sample", samples=0)

    def test_containment_zero_samples(self, con16):
        with pytest.raises(ValueError, match="no tasks"):
            projection_containment(con16, 2, mode="sample", samples=0)


class TestFailureReportsIndependentOfJobs:
    def test_verify_conditions(self, con16, monkeypatch):
        monkeypatch.setattr(certificate, "_check_row", _check_row_failing)
        reports = [verify_conditions(con16, jobs=jobs) for jobs in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]
        block = reports[0].blocks[1]
        assert block.rows_checked == 193
        assert not block.equation_ok
        assert block.entry_bound_ok and block.certificate_ok
        assert reports[0].failures == ((1, 192, "matrix equation failed"),)
        assert [b.rows_checked for b in reports[0].blocks] == [480, 193, 480]

    def test_certify_reports(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(certificate, "_check_row", _check_row_failing)
        texts = []
        for jobs in ("1", "2", "4"):
            path = tmp_path / f"report-{jobs}.json"
            code = main(["certify", "--d", "16", "--jobs", jobs,
                         "--out", str(path)])
            assert code == 3
            texts.append(_without_duration(path.read_text()))
        assert texts[0] == texts[1] == texts[2]
        doc = json.loads(texts[0])
        assert doc["counts"]["rows_checked"] == 480 + 193 + 480
        assert not doc["counts"]["condition_b"]
        assert doc["failures"] == [
            {"block": 1, "row": 192, "reason": "matrix equation failed"}
        ]

    def test_faces_reports(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(oracle, "is_face", _is_face_failing)
        texts = []
        for jobs in ("1", "2", "4"):
            path = tmp_path / f"faces-{jobs}.json"
            code = main(["verify", "--d", "16", "--check", "faces",
                         "--mode", "sample", "--samples", "48", "--seed", "2",
                         "--jobs", jobs, "--out", str(path)])
            assert code == 3
            texts.append(_without_duration(path.read_text()))
        assert texts[0] == texts[1] == texts[2]
        doc = json.loads(texts[0])
        assert 0 < doc["counts"]["failed"] < doc["counts"]["checked"]


def _without_duration(text):
    return "\n".join(
        line for line in text.splitlines() if '"duration_seconds"' not in line
    )
