"""The samples every sweep draws, pinned.

SplitMix64 is checked against its published outputs, and the first tasks
each sampled sweep draws are pinned, so a changed seed word, bound or draw
order fails here even where a report would still pass.
"""

import pytest

from csneighborly import build, certificate, oracle, sylvester
from csneighborly.blocks import block_row_count, sample_indices
from csneighborly.sampling import SplitMix64, draws


@pytest.fixture(scope="module")
def con16():
    return build(sylvester(4))


def test_splitmix64_published_outputs():
    gen = SplitMix64(1234567)
    assert [gen.next_u64() for _ in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821,
    ]


def test_draws_read_bounds_in_order():
    # one draw takes one output per bound, left to right
    gen = SplitMix64(99)
    expected = [(gen.below(10), gen.below(3)) for _ in range(4)]
    assert list(draws(99, (10, 3), 4)) == expected
    assert list(draws(99, (10,), 0)) == []


def _first_tasks(monkeypatch, sweep, con, **options):
    """The tasks the sweep hands to ordered_map."""
    seen = []
    real = oracle.ordered_map

    def spy(check, context, tasks, jobs=1):
        seen.extend(tasks)
        return real(check, context, seen, jobs)

    monkeypatch.setattr(oracle, "ordered_map", spy)
    sweep(con, mode="sample", **options)
    return seen


def test_faces_sample_d16_seed3(monkeypatch, con16):
    tasks = _first_tasks(monkeypatch, oracle.verify_k_neighborly, con16,
                         samples=6, seed=3)
    assert tasks[:4] == [
        ((0, 1), (19, -1)), ((12, 1), (16, -1)), ((2, 1), (8, -1)),
        ((15, 1), (21, 1)),
    ]


def test_dominance_sample_d16_seed4(monkeypatch, con16):
    # seed word (seed << 20) ^ (m << 8) ^ k ^ 0x515
    tasks = _first_tasks(monkeypatch, oracle.dominant_subset_sweep, con16,
                         samples=6, seed=4)
    assert tasks[:4] == [(23, 28), (28, 31), (18, 23), (3, 28)]


def test_containment_sample_d16_seed5(monkeypatch, con16):
    first = {0: [60, 204, 343], 1: [704, 94, 680], 2: [425, 296, 193]}
    for l, indices in first.items():
        assert list(sample_indices(16, 2, l, 3, seed=5)) == indices
    tasks = _first_tasks(monkeypatch, oracle.projection_containment, con16,
                         samples=3, seed=5)
    assert tasks == [(l, index) for l, indices in first.items()
                     for index in indices]


def test_certificate_block_sample_d64_seed3():
    total = block_row_count(64, 4, 2)
    assert total == 65028096
    assert list(certificate.block_sweep_indices(64, 4, 2, True, 4, 3)) == [
        0, total - 1, 40767318, 7591846, 62687125, 57948469,
    ]
