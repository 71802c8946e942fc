"""Exhaustive random-walk enumeration, independent of the sampling code.

Enumerates every walk of exactly the requested step count from every
boundary start, weighting each by the product of uniform transition
probabilities, and accumulates the probability that a walk visits each
external node at least once.  Only usable on small graphs.

Also holds the per-walk scoring and selection rule for replica walks, one
walk at a time, as the reference for ``depth_first_select``.
"""

from collections import defaultdict

import numpy as np


def boundary_of(g, owned_ids):
    owned = set(int(u) for u in owned_ids)
    out = []
    for u in sorted(owned):
        if any(int(v) not in owned for v in g.neighbors(u)):
            out.append(u)
    return out


def exact_visit_probs(g, owned_ids, layers):
    """Exact P(walk visits v at least once) for every non-owned node."""
    owned = set(int(u) for u in owned_ids)
    starts = boundary_of(g, owned_ids)
    probs: dict[int, float] = defaultdict(float)
    if not starts:
        return {}

    def rec(node, steps_left, prob, seen):
        nbrs = g.neighbors(node)
        if steps_left == 0 or len(nbrs) == 0:
            for v in seen:
                probs[v] += prob / len(starts)
            return
        step = prob / len(nbrs)
        for v in nbrs:
            v = int(v)
            nxt = seen | {v} if v not in owned else seen
            rec(v, steps_left - 1, step, nxt)

    for b in starts:
        rec(b, layers, 1.0, frozenset())
    return dict(probs)


def walk_scores(table, walks):
    """Per-walk score: I(v) summed over the walk's distinct candidates.

    The rule as first written, one ``np.unique`` per walk; kept as the
    reference for the vectorised scoring in ``depth_first_select``.
    """
    imp, is_cand = _candidate_lookup(table, walks)
    scores = np.zeros(len(walks))
    for w in range(len(walks)):
        nodes = walks[w]
        nodes = np.unique(nodes[nodes >= 0])
        scores[w] = imp[nodes[is_cand[nodes]]].sum()
    return scores


def visit_counts(walks, candidates):
    """Walks visiting each candidate, one walk at a time; a walk counts once."""
    index = {int(c): j for j, c in enumerate(candidates)}
    counts = np.zeros(len(candidates), dtype=np.int64)
    for row in walks:
        for v in {int(v) for v in row if v >= 0}:
            if v in index:
                counts[index[v]] += 1
    return counts


def select_replicas(table, walks, budget):
    """Reference drain: best walk first (earlier walk on ties), new candidates in step order."""
    if budget == 0 or len(walks) == 0:
        return np.zeros(0, dtype=np.int64)
    _, is_cand = _candidate_lookup(table, walks)
    scores = walk_scores(table, walks)
    order = np.lexsort((np.arange(len(walks)), -scores))
    selected = []
    chosen = set()
    for w in order:
        if len(selected) >= budget:
            break
        for node in walks[w]:
            if node < 0:
                continue
            node = int(node)
            if is_cand[node] and node not in chosen:
                chosen.add(node)
                selected.append(node)
                if len(selected) >= budget:
                    break
    return np.array(selected, dtype=np.int64)


def _candidate_lookup(table, walks):
    """Importance and candidate flag per node id up to ``walks.max() + 1``."""
    top = int(walks.max())
    imp = np.zeros(top + 2, dtype=np.float64)
    is_cand = np.zeros(top + 2, dtype=bool)
    for j, c in enumerate(table.candidates):
        if c <= top:
            imp[c] = table.importance[j]
            is_cand[c] = True
    return imp, is_cand
