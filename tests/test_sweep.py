"""ordered_map, and reports that do not depend on the worker count.

Failures are injected by replacing a function the sweep calls (the batch
half kernel of the certificate sweep, or the face check) with a function of
this file.  The worker processes fork after the replacement, so serial and
pooled runs see the same failing halves and subsets.

The batch half kernel gets a task's parts as their weight and their packed
sums (the sums blocks.part_sums forms), with the (num, den) of their entry
bound, and returns one result per sum.  (num, den) tells the side: at
d = 16, where alpha = 1/4, it is (p, q) = (1, 4) for left parts and
(q, p*d) = (4, 16) for right parts.  Within one side and weight the sum
determines the part, as H is invertible, so a (weight, sum) key fails
exactly one part.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

import csneighborly
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
from csneighborly.blocks import unrank_part
from csneighborly.certificate import _packed_tables
from csneighborly.cli import main
from csneighborly.sweep import ordered_map
from literal import literal_part_sum

_real_halves = certificate._halves
_real_face_check = oracle._face_check
_LEFT16 = (1, 4)                   # (num, den) of a left batch at d = 16


def _failed(results, weight, totals, keys, flag):
    """results, one per part of weight with its sum in totals, with field
    flag (0: entry_ok, 1: gram_ok) set false for each part whose
    (weight, sum) is in keys."""
    return [result[:flag] + (False,) + result[flag + 1:]
            if (weight, total) in keys else result
            for total, result in zip(totals, results, strict=True)]


def _halves_left_failing(packed, num, den, weight, totals):
    # fails the entry bound of the left part -e_5, the weight-1 part whose
    # sum is minus's entry 5.  Only block 1 at d = 16 has weight-1 left
    # parts (32 of them, supports {15}, {14}, ..., {0}, each with sign +
    # then -), so -e_5 is left 2*10 + 1 = 21, and the first row that reads
    # it is 21 * 32 = 672
    results = _real_halves(packed, num, den, weight, totals)
    keys = {(1, packed.lefts[-1][5])} if (num, den) == _LEFT16 else ()
    return _failed(results, weight, totals, keys, 0)


def _halves_right_failing(packed, num, den, weight, totals):
    # fails the matrix equation f G == d*f of the right part +e_3: right
    # 2*12 = 24 of block 1 at d = 16, first read by row 24 (left 0)
    results = _real_halves(packed, num, den, weight, totals)
    keys = () if (num, den) == _LEFT16 else {(1, packed.rights[1][3])}
    return _failed(results, weight, totals, keys, 1)


_LISTED = {"left": (), "right": ()}   # (weight, sum) keys of failing parts


def _halves_listed(packed, num, den, weight, totals):
    # fails the entry bound of each listed left part and the matrix
    # equation of each listed right part
    results = _real_halves(packed, num, den, weight, totals)
    if (num, den) == _LEFT16:
        return _failed(results, weight, totals, _LISTED["left"], 0)
    return _failed(results, weight, totals, _LISTED["right"], 1)


def _face_check_failing(columns, members, witness, tau=None):
    # fails each subset but the probe whose least vertex index is 3 mod 7,
    # as an exact verdict, so its batch leaves it out of tau
    outcome, sigma = _real_face_check(columns, members, witness, tau)
    if min(i for i, _ in members) % 7 == 3:
        return (outcome[0], "not-face", None), None
    return outcome, sigma


_SQUARED = []                      # arguments _square saw in this process


def _square(con, x):
    _SQUARED.append(x)
    return x * x


@pytest.fixture(scope="module")
def con16():
    con = build(sylvester(4))
    assert con.params.alpha.as_integer_ratio() == _LEFT16
    return con


class TestOrderedMap:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_in_task_order(self, con16, jobs):
        assert list(ordered_map(_square, con16, range(40), jobs)) == [
            x * x for x in range(40)
        ]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_stops_after_first_failure(self, con16, jobs):
        # a sweep stops at its first failure by reading no further: what it
        # read is in task order, and a serial map has checked nothing after
        _SQUARED.clear()
        results = ordered_map(_square, con16, range(200), jobs)
        got = []
        for result in results:
            got.append(result)
            if result in (49, 64, 9801):
                break
        assert got == [x * x for x in range(8)]
        if jobs == 1:
            assert _SQUARED == list(range(8))
        else:
            results.close()        # ends the pool

    def test_empty_task_source_rejected(self, con16):
        with pytest.raises(ValueError, match="no tasks"):
            ordered_map(_square, con16, iter(()))

    def test_jobs_below_one_rejected(self, con16):
        with pytest.raises(ValueError, match="jobs"):
            ordered_map(_square, con16, range(3), jobs=0)

    def test_worker_death_raises(self):
        # a pooled map whose worker dies raises BrokenProcessPool rather
        # than waiting for the lost results.  It runs in a child process in
        # its own session, so that a hang is killed, workers and all, and
        # fails this test instead of holding the suite
        code = ("import os\n"
                "from concurrent.futures.process import BrokenProcessPool\n"
                "from csneighborly.sweep import ordered_map\n"
                "def check(context, x):\n"
                "    if x == 7:\n"
                "        os._exit(1)\n"
                "    return x\n"
                "try:\n"
                "    list(ordered_map(check, None, range(40), 2))\n"
                "except BrokenProcessPool:\n"
                "    print('BrokenProcessPool')\n")
        src = os.path.dirname(os.path.dirname(csneighborly.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        child = subprocess.Popen([sys.executable, "-c", code], env=env,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True,
                                 start_new_session=True)
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("a pooled map whose worker died ran past 60 s")
        assert child.returncode == 0, err
        assert out.strip() == "BrokenProcessPool"

    def test_serial_sweep_never_imports_multiprocessing(self):
        # only a pool needs multiprocessing (and the pickle, socket and
        # selectors modules it brings): a jobs=1 sweep in a fresh
        # interpreter loads none of it
        code = ("import sys\n"
                "from csneighborly import build, sylvester, "
                "verify_conditions\n"
                "assert verify_conditions(build(sylvester(3)), jobs=1).passed\n"
                "print(sorted({'multiprocessing', 'pickle', 'socket'}"
                " & set(sys.modules)))\n")
        src = os.path.dirname(os.path.dirname(csneighborly.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"


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
        monkeypatch.setattr(certificate, "_halves", _halves_left_failing)
        reports = [verify_conditions(con16, jobs=jobs) for jobs in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]
        block = reports[0].blocks[1]
        assert block.rows_checked == 673
        assert not block.entry_bound_ok
        assert block.equation_ok and block.certificate_ok
        assert reports[0].failures == ((1, 672, "entry bound exceeded"),)
        assert [b.rows_checked for b in reports[0].blocks] == [480, 673, 480]

    def test_verify_conditions_right_half(self, con16, monkeypatch):
        monkeypatch.setattr(certificate, "_halves", _halves_right_failing)
        reports = [verify_conditions(con16, jobs=jobs) for jobs in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]
        block = reports[0].blocks[1]
        assert block.rows_checked == 25
        assert block.entry_bound_ok
        assert not block.equation_ok and not block.certificate_ok
        assert reports[0].failures == ((1, 24, "matrix equation failed"),)
        assert [b.rows_checked for b in reports[0].blocks] == [480, 25, 480]

    def test_certify_reports(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(certificate, "_halves", _halves_right_failing)
        texts = []
        for jobs in ("1", "2", "4"):
            path = tmp_path / f"report-{jobs}.json"
            code = main(["certify", "--d", "16", "--jobs", jobs,
                         "--out", str(path)])
            assert code == 3
            texts.append(_without_duration(path.read_text()))
        assert texts[0] == texts[1] == texts[2]
        doc = json.loads(texts[0])
        assert doc["counts"]["rows_checked"] == 480 + 25 + 480
        assert not doc["counts"]["condition_b"]
        assert doc["failures"] == [
            {"block": 1, "row": 24, "reason": "matrix equation failed"}
        ]

    @staticmethod
    def _sampled_block_1(con16, monkeypatch, left, right, rows):
        """Fail the weight-1 left ranks `left` and right ranks `right`, which
        only block 1 reads at d = 16, and sweep d = 16 sampled for jobs 1, 2
        and 4.  Returns the report, after checking that every job count gives
        it, and the literal walk of block 1's sampled rows: (rows read up to
        the first one reading a failing part, that row's index, its left and
        right parts' ranks)."""
        packed = _packed_tables(con16.hadamard, con16.k)
        for side, table, ranks in (("left", packed.lefts, left),
                                   ("right", packed.rights, right)):
            sums = [literal_part_sum(table, *unrank_part(16, 1, r))
                    for r in range(32)]
            assert len(set(sums)) == 32        # each key fails one part
            monkeypatch.setitem(_LISTED, side, {(1, sums[r]) for r in ranks})
        monkeypatch.setattr(certificate, "_halves", _halves_listed)
        reports = [verify_conditions(con16, mode="sample", sample_rows=rows,
                                     seed=7, jobs=jobs) for jobs in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]
        for position, index in enumerate(
                certificate.block_sweep_indices(16, 2, 1, True, rows, 7)):
            i, j = divmod(index, 32)
            if i in left or j in right:
                return reports[0], (position + 1, index, i, j)

    def test_sampled_right_part_read_before_left(self, con16, monkeypatch):
        # lefts are handed out first, so the fold sees the left part's failure
        # first; the right part's first row comes earlier and is reported
        rows, lefts, rights = 300, {}, {}      # rank -> first position
        for position, index in enumerate(
                certificate.block_sweep_indices(16, 2, 1, True, rows, 7)):
            lefts.setdefault(index // 32, position)
            rights.setdefault(index % 32, position)
        left = max(lefts, key=lefts.get)       # the left part read last
        right = max((j for j in rights if 2 < rights[j] < lefts[left]),
                    key=rights.get)
        report, (checked, index, i, j) = self._sampled_block_1(
            con16, monkeypatch, {left}, {right}, rows)
        assert (checked, j) == (rights[right] + 1, right) and i != left
        block = report.blocks[1]
        assert block.sampled and block.rows_checked == checked
        assert (block.entry_bound_ok, block.equation_ok,
                block.certificate_ok) == (True, False, False)
        assert report.failures == ((1, index, "matrix equation failed"),)
        assert [b.rows_checked for b in report.blocks] == [rows + 2, checked,
                                                          rows + 2]

    def test_sampled_row_0_fails_in_both_parts(self, con16, monkeypatch):
        # row 0 reads left 0 and right 0: the left part fails the entry bound
        # and the right part the matrix equation, and the row fails both
        report, (checked, index, i, j) = self._sampled_block_1(
            con16, monkeypatch, {0}, {0}, 300)
        assert (checked, index, i, j) == (1, 0, 0, 0)
        block = report.blocks[1]
        assert block.rows_checked == 1
        assert (block.entry_bound_ok, block.equation_ok,
                block.certificate_ok) == (False, False, False)
        assert report.failures == ((1, 0, "entry bound exceeded"),)

    def test_faces_reports(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(oracle, "_face_check", _face_check_failing)
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
