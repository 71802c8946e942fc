"""The benchmark under ``bench/`` drives gad through its public names.

These checks read the benchmark's files, never edit them, and fail when a
change to gad would break a benchmark run: a workload configuration that no
longer validates, a ``Config`` field the benchmark reads that is gone, or a
function the per-layer tracer wraps that is no longer where it looks.
"""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import gad
from gad.synthetic import sbm_graph

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_workload_config_validates(workloads):
    assert workloads.CONFIGS
    for name, overrides in workloads.CONFIGS.items():
        cfg = gad.Config(seed=101, **overrides).validate()
        assert all(getattr(cfg, k) == v for k, v in overrides.items()), name


def test_config_has_every_field_the_benchmark_reads():
    source = (BENCH / "child.py").read_text(encoding="utf-8")
    read = set(re.findall(r"\bcfg\.(\w+)", source))
    assert "importance_mode" in read
    assert read <= set(gad.Config.__dataclass_fields__)
    called = set(re.findall(r"\bgad\.(\w+)\(", source))
    assert called and all(callable(getattr(gad, name, None)) for name in called)


def test_tracer_wraps_a_pipeline_and_uninstalls():
    tracing = _load("tracing")
    originals = [(m, a, getattr(m, a)) for m, a, _ in tracing.WRAPPED]
    g = sbm_graph([30, 30, 30], 0.2, 0.02, seed=3, feature_dim=6)
    cfg = gad.Config(k=3, layers=2, hidden=8, epochs=2, workers=2, seed=3).validate()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, a) is not fn for m, a, fn in originals)
        # the calls bench/child.py makes, with its keywords
        p = gad.partition_graph(g, cfg.k, epsilon=cfg.epsilon, restarts=cfg.restarts,
                                seed=cfg.seed, target_fraction=cfg.target_fraction)
        recs = gad.augment_partitions(
            g, p, layers=cfg.layers, alpha=cfg.alpha, seed=cfg.seed, z_c=cfg.z_c,
            err_target=cfg.err_target, mode=cfg.importance_mode, enabled=cfg.augment,
        )
        gad.train(g, p, [r.subgraph for r in recs], cfg.workers, cfg)
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is fn for m, a, fn in originals)
    seconds, calls = tracer.totals()
    for name in ("partition.grow", "augment.halo", "augment.walks", "consensus.zeta",
                 "consensus.combine", "gcn.forward", "gcn.backward", "gcn.sgd",
                 "training.evaluate", "training.comm", "graph.adjacency"):
        assert calls[name] > 0, name
    assert np.isfinite(list(seconds.values())).all()


def test_tracer_counts_the_orphan_warning():
    # the tracer reads the orphan count from the warning's text: nodes 4 and 5
    # have no edge, and growth warns once, about one node
    tracing = _load("tracing")
    g = gad.Graph.from_edges(6, np.array([[0, 1], [1, 2], [2, 3]]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        gad.partition.partition_coarse(gad.partition.level_zero(g), 2, 1.0, restarts=1, seed=0)
    finally:
        tracer.uninstall()
    assert tracer.counts["partition.orphan_warnings"] == 1
    assert tracer.counts["partition.orphan_nodes"] == 1
