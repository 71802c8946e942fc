"""One pipeline iteration in its own process: load, partition, augment, train.

Run by ``bench/run.py``; prints one JSON line with the iteration's timings,
quality figures, check failures and (with ``--trace 1``) per-layer numbers.

The host's speed drifts by tens of percent over seconds, and on the small
graphs the cost of set-up, partition and augment depends on the graph drawn
by as much again.  So those stages are timed on every input graph of the
run: graph 0, whose outputs feed training, and, where the workload has
them, further graphs drawn from the same seed, which are visited after
training; their medians are reported.  Training runs once, on graph 0.
The traced iteration runs every stage once, on graph 0.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import gad

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
from workloads import CONFIGS, GRAPHS, SPLIT  # noqa: E402

# loads of each graph per iteration (set-up is timed several times a run)
LOADS = {"twin-headline": 1, "planted-50k": 3, "sbm-many-parts": 1}


def _clock(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def run(workload: str, data: Path, seed: int, traced: bool) -> dict:
    cfg = gad.Config(seed=seed, **CONFIGS[workload]).validate()
    graphs = [data / f"g{i}" for i in range(1 if traced else GRAPHS[workload])]
    loads = 1 if traced else LOADS[workload]
    tracer = barrier = None
    if traced:
        import tracing
        tracer, barrier = tracing.Tracer(), checks.BarrierCheck()
        tracer.install()

    def load(d: Path):
        inputs = json.loads((d / "inputs.json").read_text(encoding="utf-8"))
        return gad.load_dataset(str(d / inputs["edges"]), str(d / inputs["features"]), SPLIT, seed)

    def partition(g, i: int):
        # a seed of its own per graph: a slow or poor partition then stays
        # one sample of the median instead of recurring on every graph
        return gad.partition_graph(
            g, cfg.k, epsilon=cfg.epsilon, restarts=cfg.restarts, seed=GRAPHS[workload] * seed + i,
            target_fraction=cfg.target_fraction,
        )

    def augment(g, p):
        return gad.augment_partitions(
            g, p, layers=cfg.layers, alpha=cfg.alpha, seed=seed, z_c=cfg.z_c,
            err_target=cfg.err_target, mode=cfg.importance_mode, enabled=cfg.augment,
        )

    times = {"setup_s": [], "partition_s": [], "augment_s": []}
    failures, cuts = [], {}

    def visit(i: int):
        """Time the three stages on graph i; check those of graphs other than 0."""
        for _ in range(loads):
            g, dt = _clock(lambda: load(graphs[i]))
            times["setup_s"].append(dt)
        p, dt = _clock(lambda: partition(g, i))
        times["partition_s"].append(dt)
        recs, dt = _clock(lambda: augment(g, p))
        times["augment_s"].append(dt)
        if i > 0:   # graph 0 is checked with the training outputs
            cuts[i] = _check_stages(graphs[i], g, p, recs, cfg, seed, failures)[0]
        return g, p, recs

    # Graph 0 feeds training; the other graphs come after it, so that they
    # neither hold memory during training nor add to its peak.
    g, p, recs = visit(0)
    subgraphs = [r.subgraph for r in recs]
    report, train_s = _clock(lambda: gad.train(g, p, subgraphs, cfg.workers, cfg, on_barrier=barrier))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for i in range(1, len(graphs)):
        visit(i)
    if traced:
        tracer.uninstall()

    cuts[0], truth, halos = _check_stages(graphs[0], g, p, recs, cfg, seed, failures)
    failures += checks.check_comm(report.comm, halos, subgraphs, g.feature_dim)
    failures += checks.check_zeta(truth, subgraphs, report.zetas, cfg.beta, cfg.pair_cap, seed)
    dims = (g.feature_dim,) + (cfg.hidden,) * (cfg.layers - 1) + (g.num_classes,)
    failures += checks.check_training(truth, g, report, gad.init_params(dims, seed=seed).weights)
    if traced:
        failures += barrier.failures()
    elif "tracing" in sys.modules:
        failures.append("trace: the untraced run imported the wrappers")

    stage = {name: statistics.median(v) for name, v in times.items()}
    pipeline_s = stage["setup_s"] + stage["partition_s"] + stage["augment_s"] + train_s
    out = {
        "failures": failures,
        "metrics": dict(
            stage,
            train_s=train_s,
            epoch_ms=1000.0 * statistics.median(report.epoch_seconds),
            pipeline_s=pipeline_s,
            peak_rss_mb=peak_rss_mb,
            edge_cut=statistics.median(cuts.values()),
            comm_mb=report.comm.bytes_with / 1e6,
            final_loss=report.train_loss[-1],
            test_acc=report.final_test_acc,
        ),
    }
    if traced:
        out["layers"] = _layer_metrics(tracer, report, recs, train_s, pipeline_s)
        out["spans"] = tracer.spans
    return out


def _check_stages(d: Path, g, p, recs, cfg, seed: int, failures: list):
    """Load, partition and augment checks of one graph; its cut, truth and halos."""
    truth = checks.Truth(d / "truth.npz", g)
    failures += [f"{d.name}: {f}" for f in checks.check_load(truth, g)]
    cut, found = checks.check_partition(truth, p, cfg.k, cfg.epsilon, seed)
    failures += [f"{d.name}: {f}" for f in found]
    halos, found = checks.check_augment(truth, p, [r.subgraph for r in recs], cfg.layers, cfg.alpha)
    failures += [f"{d.name}: {f}" for f in found]
    return cut, truth, halos


def _layer_metrics(tracer, report, recs, train_s: float, pipeline_s: float) -> dict:
    """Per-layer figures of the traced iteration; ``*_ms`` ones are per epoch."""
    sec, calls = tracer.totals()
    counts = tracer.counts
    epochs = max(report.epochs_run, 1)

    def per_epoch_ms(name):
        return 1000.0 * sec[name] / epochs

    return {
        "graph.load_s": sec["graph.load"],
        "graph.adjacency_s": sec["graph.adjacency"],
        "graph.adjacency_calls": calls["graph.adjacency"],
        "graph.induce_s": sec["graph.induce"],
        "partition.coarsen_s": sec["partition.coarsen"],
        "partition.levels": counts["partition.levels"],
        "partition.coarsest_nodes": counts["partition.coarsest_nodes"],
        "partition.grow_s": sec["partition.grow"],
        "partition.project_s": sec["partition.project"],
        "partition.rebalance_moves": counts["partition.rebalance_moves"],
        "partition.orphan_warnings": counts["partition.orphan_warnings"],
        "partition.orphan_nodes": counts["partition.orphan_nodes"],
        "augment.halo_s": sec["augment.halo"],
        "augment.halo_calls": calls["augment.halo"],
        "augment.walks_s": sec["augment.walks"],
        "augment.walks": counts["augment.walks"],
        "augment.select_s": sec["augment.select"],
        "augment.replicas": sum(r.subgraph.num_replicas for r in recs),
        "augment.shortfall": sum(r.subgraph.shortfall for r in recs),
        "consensus.zeta_s": sec["consensus.zeta"],
        "consensus.zeta_sampled": counts["consensus.zeta_sampled"],
        "consensus.combine_ms": per_epoch_ms("consensus.combine"),
        "consensus.combine_calls": calls["consensus.combine"],
        "gcn.forward_ms": per_epoch_ms("gcn.forward"),
        "gcn.backward_ms": per_epoch_ms("gcn.backward"),
        "gcn.sgd_ms": per_epoch_ms("gcn.sgd"),
        "gcn.sgd_calls": calls["gcn.sgd"],
        "training.evaluate_ms": per_epoch_ms("training.evaluate"),
        "training.evaluate_calls": calls["training.evaluate"],
        "training.comm_s": sec["training.comm"],
        "training.prep_s": train_s - sum(report.epoch_seconds),
        "trace.pipeline_s": pipeline_s,
        "trace.spans": len(tracer.spans),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    ap.add_argument("--data", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = run(args.workload, args.data, args.seed, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
