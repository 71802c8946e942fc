"""Per-layer tracing by wrapping the program's functions where it calls them.

Each wrapper replaces a module attribute (for example ``gad.training.forward``)
for the life of one traced pipeline run and records a span per call: name,
start, end and parent span.  Counts that a layer's outputs carry (walks,
sampled zetas, coarsening levels, captured warnings) are read from the
arguments and results at the same boundary.  Nothing inside ``gad`` changes;
the untraced run never imports this module.
"""

from __future__ import annotations

import functools
import re
import time
import warnings
from collections import defaultdict

import numpy as np

import gad
import gad.augment
import gad.partition
import gad.training

# (module, attribute, span name)
WRAPPED = (
    (gad, "load_dataset", "graph.load"),
    (gad.training, "normalized_adjacency", "graph.adjacency"),
    (gad.augment, "induce_subgraph", "graph.induce"),
    (gad.partition, "coarsen", "partition.coarsen"),
    (gad.partition, "partition_coarse", "partition.grow"),
    (gad.partition, "uncoarsen", "partition.project"),
    (gad.augment, "candidate_replication_nodes", "augment.halo"),
    (gad.training, "candidate_replication_nodes", "augment.halo"),
    (gad.augment, "node_importance", "augment.walks"),
    (gad.augment, "depth_first_select", "augment.select"),
    (gad.training, "zeta", "consensus.zeta"),
    (gad.training, "weighted_consensus", "consensus.combine"),
    (gad.training, "plain_consensus", "consensus.combine"),
    (gad.training, "forward", "gcn.forward"),
    (gad.training, "loss_and_backward", "gcn.backward"),
    (gad.training, "sgd_update", "gcn.sgd"),
    (gad.training, "evaluate", "training.evaluate"),
    (gad.training, "communication_size", "training.comm"),
)

_ORPHANS = re.compile(r"^(\d+) node\(s\) with no adjacent part")


def plain_projection(levels, coarse_assignment) -> np.ndarray:
    """The coarse assignment carried to level 0 without any rebalancing."""
    assign = np.asarray(coarse_assignment, dtype=np.int64)
    for level in reversed(levels[1:]):
        assign = assign[level.fine_to_coarse]
    return assign


class Tracer:
    """Installs the wrappers and keeps spans and counts in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            span = {"name": name, "parent": parent, "start": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(idx)
            try:
                if name == "partition.grow":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    self._count_orphans(caught)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return wrapper

    def _count_orphans(self, caught) -> None:
        for w in caught:
            found = _ORPHANS.match(str(w.message))
            if found:
                self.counts["partition.orphan_warnings"] += 1
                self.counts["partition.orphan_nodes"] += int(found.group(1))
            else:   # not ours to swallow
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

    def _on_partition_project(self, part, levels, coarse_assignment, *args, **kwargs):
        self.counts["partition.levels"] += len(levels)
        self.counts["partition.coarsest_nodes"] += levels[-1].num_nodes
        moved = plain_projection(levels, coarse_assignment) != part.assignment
        self.counts["partition.rebalance_moves"] += int(moved.sum())

    def _on_augment_walks(self, result, *args, **kwargs):
        self.counts["augment.walks"] += result[0].total_walks

    def _on_consensus_zeta(self, weight, *args, **kwargs):
        self.counts["consensus.zeta_sampled"] += 0 if weight.exact else 1

    def totals(self) -> tuple[dict, dict]:
        """Summed duration and call count per span name.

        ``gcn.forward`` counts only training calls: forwards made under
        ``training.evaluate`` are kept apart as ``gcn.forward_eval``.
        """
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            name = span["name"]
            if name == "gcn.forward" and span["parent"] is not None:
                if self.spans[span["parent"]]["name"] == "training.evaluate":
                    name = "gcn.forward_eval"
            seconds[name] += span["end"] - span["start"]
            calls[name] += 1
        return seconds, calls
