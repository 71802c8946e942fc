"""Per-part work on one thread per core (``augment.map_parts``).

The one-core side is forced by patching ``augment._cores``: pinning the
process to one core would also give OpenBLAS one thread, which changes the
rounding of the dense products on its own.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gad import augment
from gad.augment import PARALLEL_MIN_NODES, augment_partitions, map_parts
from gad.config import Config
from gad.errors import GadError
from gad.partition import partition_graph
from gad.synthetic import sbm_graph
from gad.training import train


@pytest.fixture(scope="module")
def large():
    """Two parts of 2,200 nodes on average, over the size rule."""
    g = sbm_graph([1100] * 4, 0.006, 0.0008, seed=3, feature_dim=8)
    p = partition_graph(g, 2, restarts=2, seed=3)
    assert g.num_nodes >= PARALLEL_MIN_NODES * p.k
    return g, p


@pytest.fixture
def pools(monkeypatch):
    """The executors ``map_parts`` creates, recorded as they are made."""
    made = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(augment, "ThreadPoolExecutor", Recorded)
    return made


def _on_cores(monkeypatch, n):
    monkeypatch.setattr(augment, "_cores", lambda: n)


def _config(**kw):
    return Config(**{**dict(k=2, layers=2, hidden=8, eta=1e-3, epochs=2, workers=2,
                            seed=4, pair_cap=256), **kw})


class TestSameOutputs:
    def test_records_equal_the_plain_loops(self, large, pools, monkeypatch):
        g, p = large
        runs = {}
        for cores in (1, 2):
            _on_cores(monkeypatch, cores)
            runs[cores] = augment_partitions(g, p, layers=2, alpha=0.05, seed=7)
            assert len(pools) == cores - 1   # the pool ran only on two cores
        for a, b in zip(runs[1], runs[2]):
            assert a.subgraph.part == b.subgraph.part
            assert a.subgraph.view.local_ids.tobytes() == b.subgraph.view.local_ids.tobytes()
            assert a.subgraph.view.replica_ids.tobytes() == b.subgraph.view.replica_ids.tobytes()
            assert a.subgraph.budget == b.subgraph.budget
            assert a.subgraph.shortfall == b.subgraph.shortfall
            assert a.table.candidates.tobytes() == b.table.candidates.tobytes()
            assert a.table.importance.tobytes() == b.table.importance.tobytes()
            assert a.table.total_walks == b.table.total_walks
        assert sum(r.subgraph.num_replicas for r in runs[1]) > 0

    def test_zetas_and_report_equal_the_plain_loops(self, large, pools, monkeypatch):
        g, p = large
        _on_cores(monkeypatch, 1)
        subgraphs = [r.subgraph for r in augment_partitions(g, p, layers=2, alpha=0.05, seed=7)]
        assert min(s.view.num_nodes for s in subgraphs) > 256   # every zeta sampled
        reports = {}
        for cores in (1, 2):
            _on_cores(monkeypatch, cores)
            reports[cores] = train(g, p, subgraphs, 2, _config())
            assert len(pools) == cores - 1
        assert np.array(reports[1].zetas).tobytes() == np.array(reports[2].zetas).tobytes()
        assert (json.dumps(reports[1].to_json_dict(), sort_keys=True)
                == json.dumps(reports[2].to_json_dict(), sort_keys=True))

    def test_exact_zetas_stay_in_the_loop(self, large, pools, monkeypatch):
        g, p = large
        _on_cores(monkeypatch, 2)
        subgraphs = [r.subgraph for r in augment_partitions(g, p, layers=2, alpha=0.05, seed=7)]
        pools.clear()
        train(g, p, subgraphs, 2, _config(epochs=0, pair_cap=4096))
        assert not pools


class TestSizeRule:
    def test_small_parts_make_no_executor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an executor for parts under the size rule")

        monkeypatch.setattr(augment, "ThreadPoolExecutor", refuse)
        _on_cores(monkeypatch, 2)
        g = sbm_graph([60, 50, 40, 30], 0.2, 0.02, seed=1, feature_dim=4)
        p = partition_graph(g, 4, seed=1)
        subgraphs = [r.subgraph for r in augment_partitions(g, p, layers=2, seed=1)]
        # pair_cap 8 puts every part on the sampled path
        train(g, p, subgraphs, 2, _config(k=4, pair_cap=8))
        below = [PARALLEL_MIN_NODES - 1] * 3
        assert map_parts(lambda i: i * i, range(3), below) == [0, 1, 4]

    def test_one_core_makes_no_executor(self, pools, monkeypatch):
        _on_cores(monkeypatch, 1)
        assert map_parts(str, range(4), [10 * PARALLEL_MIN_NODES] * 4) == ["0", "1", "2", "3"]
        assert not pools

    def test_results_in_part_order(self, pools, monkeypatch):
        _on_cores(monkeypatch, 2)

        def slow_first(i):
            time.sleep(0.02 if i == 0 else 0.0)
            return i

        assert map_parts(slow_first, range(5), [PARALLEL_MIN_NODES] * 5) == [0, 1, 2, 3, 4]
        assert len(pools) == 1


class TestErrors:
    @pytest.mark.parametrize("cores", [1, 2])
    def test_first_failing_part_raises(self, cores, pools, monkeypatch):
        _on_cores(monkeypatch, cores)

        def fail(i):
            if i == 1:   # fails after part 2 has already failed on the other thread
                time.sleep(0.05)
                raise GadError("part 1 failed")
            if i == 2:
                raise GadError("part 2 failed")
            return i

        with pytest.raises(GadError, match="part 1 failed"):
            map_parts(fail, range(4), [PARALLEL_MIN_NODES] * 4)
        assert len(pools) == cores - 1
