"""Output checks, computed apart from the program from the generated truth.

Each check returns a list of failure messages; an empty list means the
outputs passed.  Nothing here calls into ``gad``: the training check is
handed the weights of ``gad.init_params`` as its starting point.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

ZETA_EXACT_RTOL = 1e-9
ZETA_SAMPLED_SE = 5.0          # allowed distance, in standard errors
ZETA_SAMPLE_PAIRS = 400_000
TIE_MARGIN = 1e-9              # softmax top-2 gap below which argmax is a tie


class Truth:
    """The generated input, re-indexed to the program's node order."""

    def __init__(self, npz_path, g):
        with np.load(npz_path) as z:
            names, edges, labels, features = z["names"], z["edges"], z["labels"], z["features"]
        index = {name: i for i, name in enumerate(g.node_names)}
        prog = np.array([index[str(s)] for s in names], dtype=np.int64)
        self.n = len(names)
        e = np.sort(prog[edges], axis=1)
        self.edges = e[np.lexsort((e[:, 1], e[:, 0]))]
        # label ids follow the program's class order: sorted names, or the integers
        classes = g.class_names or tuple(str(c) for c in range(int(labels.astype(int).max()) + 1))
        lut = {c: i for i, c in enumerate(classes)}
        self.labels = np.empty(self.n, dtype=np.int64)
        self.labels[prog] = [lut[str(c)] for c in labels]
        self.features = np.empty(features.shape, dtype=np.float64)
        self.features[prog] = features
        u, v = self.edges[:, 0], self.edges[:, 1]
        ones = np.ones(2 * len(u), dtype=np.float32)
        self.adj = sp.csr_matrix(
            (ones, (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(self.n, self.n)
        )

    def induced(self, nodes: np.ndarray) -> np.ndarray:
        """Input edges with both endpoints in ``nodes`` (u < v, sorted)."""
        inside = np.zeros(self.n, dtype=bool)
        inside[nodes] = True
        keep = inside[self.edges[:, 0]] & inside[self.edges[:, 1]]
        return self.edges[keep]

    def halo(self, assign: np.ndarray, part: int, layers: int) -> np.ndarray:
        """Nodes outside ``part`` within ``layers`` hops of its boundary."""
        u, v = self.edges[:, 0], self.edges[:, 1]
        cross = assign[u] != assign[v]
        ends = np.concatenate([u[cross], v[cross]])
        boundary = np.unique(ends[assign[ends] == part])
        seen = np.zeros(self.n, dtype=bool)
        seen[boundary] = True
        frontier = seen.astype(np.float32)
        for _ in range(layers):
            step = (self.adj @ frontier > 0) & ~seen
            seen |= step
            frontier = step.astype(np.float32)
        return np.flatnonzero(seen & (assign != part))


def check_load(t: Truth, g) -> list[str]:
    out = []
    if g.num_nodes != t.n:
        out.append(f"load: {g.num_nodes} nodes, expected {t.n}")
    if not np.array_equal(g.edge_list(), t.edges):
        out.append("load: the loaded edge list differs from the written one")
    if not np.array_equal(g.features, t.features):
        out.append("load: the loaded features differ from the written ones")
    if not np.array_equal(g.labels, t.labels):
        out.append("load: the loaded labels differ from the written ones")
    return out


def check_partition(t: Truth, p, k: int, epsilon: float, seed: int) -> tuple[int, list[str]]:
    """Assignment range, balance cap, the cut recount and the random baseline."""
    out = []
    a = np.asarray(p.assignment)
    if len(a) != t.n or a.min() < 0 or a.max() >= k:
        return -1, ["partition: assignment does not give every node a part in 0..k-1"]
    sizes = np.bincount(a, minlength=k)
    cap = int(math.floor((1.0 + epsilon) * math.ceil(t.n / k)))
    if (sizes == 0).any():
        out.append(f"partition: empty part, sizes {sizes.tolist()}")
    if sizes.max() > cap:
        out.append(f"partition: part of {sizes.max()} nodes over the cap {cap}")
    cut = int((a[t.edges[:, 0]] != a[t.edges[:, 1]]).sum())
    if cut != p.edge_cut:
        out.append(f"partition: reported cut {p.edge_cut}, recounted {cut}")
    rng = np.random.default_rng([seed, 0x5EED])
    rand = rng.permutation(np.arange(t.n) % k)
    rand_cut = int((rand[t.edges[:, 0]] != rand[t.edges[:, 1]]).sum())
    if not cut < rand_cut:
        out.append(f"partition: cut {cut} not below a random balanced split's {rand_cut}")
    return cut, out


def check_augment(t: Truth, p, subgraphs, layers: int, alpha: float) -> tuple[list, list[str]]:
    """Replicas within L hops, under budget, attached, with exact induced edges."""
    out, halos = [], []
    a = np.asarray(p.assignment)
    for aug in subgraphs:
        i = aug.part
        view = aug.view
        owned = np.flatnonzero(a == i)
        halo = t.halo(a, i, layers)
        halos.append(halo)
        if not np.array_equal(np.sort(view.owned_ids), owned):
            out.append(f"augment: part {i} owns other nodes than the partition gave it")
            continue
        reps = np.sort(view.replica_ids)
        if not np.isin(reps, halo).all():
            out.append(f"augment: part {i} has replicas beyond {layers} hops of its boundary")
        n_i = len(owned)
        e_i = len(t.induced(owned))
        dens = 2.0 * e_i / (n_i * (n_i - 1)) if n_i >= 2 else 0.0
        budget = min(int(math.ceil(alpha * (1.0 + dens) * n_i)), len(halo))
        if len(reps) > budget:
            out.append(f"augment: part {i} has {len(reps)} replicas, budget {budget}")
        nodes = view.local_ids
        sub_edges = t.induced(nodes)
        if not np.array_equal(view.edge_list_global(), sub_edges):
            out.append(f"augment: part {i} edges differ from the input edges among its nodes")
        if len(reps):
            loc = np.searchsorted(nodes, sub_edges)
            m = len(nodes)
            adj = sp.csr_matrix(
                (np.ones(len(loc)), (loc[:, 0], loc[:, 1])), shape=(m, m)
            )
            _, comp = connected_components(adj, directed=False)
            has_owned = np.zeros(comp.max() + 1, dtype=bool)
            has_owned[comp[np.isin(nodes, owned)]] = True
            if not has_owned[comp[np.searchsorted(nodes, reps)]].all():
                out.append(f"augment: part {i} has a replica not connected to an owned node")
    return halos, out


def check_comm(comm, halos, subgraphs, feature_dim: int) -> list[str]:
    """Remote feature bytes with and without replicas, from the halo recount."""
    without = sum(len(h) for h in halos)
    with_ = sum(len(np.setdiff1d(h, aug.view.replica_ids)) for h, aug in zip(halos, subgraphs))
    out = []
    if comm.bytes_without != 4 * feature_dim * without:
        out.append(f"comm: bytes_without {comm.bytes_without} != 4*{feature_dim}*{without}")
    if comm.bytes_with != 4 * feature_dim * with_:
        out.append(f"comm: bytes_with {comm.bytes_with} != 4*{feature_dim}*{with_}")
    return out


def _pair_terms(x, p, ii, jj, beta):
    d = np.sqrt(((x[ii] - x[jj]) ** 2).sum(axis=1))
    return p[ii] * p[jj] / (d + beta)


def check_zeta(t: Truth, subgraphs, zetas, beta: float, pair_cap: int, seed: int) -> list[str]:
    """Exact subgraphs: own pairwise sum; sampled ones: own independent sample."""
    out = []
    for aug, z in zip(subgraphs, zetas):
        nodes = aug.view.local_ids
        n = len(nodes)
        if n < 2:
            if z != 1.0:
                out.append(f"zeta: part {aug.part} has {n} node(s) but zeta {z} != 1")
            continue
        x = t.features[nodes]
        loc = np.searchsorted(nodes, t.induced(nodes))
        deg = np.bincount(loc.ravel(), minlength=n).astype(np.float64)
        p = deg / deg.sum() if deg.sum() > 0 else np.full(n, 1.0 / n)
        if n <= pair_cap:
            sq = (x * x).sum(axis=1)
            dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0))
            terms = np.outer(p, p) / (dist + beta)
            ref = float((terms.sum() - np.trace(terms)) / 2.0)
            if abs(z - ref) > ZETA_EXACT_RTOL * abs(ref):
                out.append(f"zeta: part {aug.part} exact zeta {z!r} != own sum {ref!r}")
            continue
        rng = np.random.default_rng([seed, 0x2E7A, aug.part])
        total, sq_total = 0.0, 0.0
        for start in range(0, ZETA_SAMPLE_PAIRS, 100_000):
            m = min(100_000, ZETA_SAMPLE_PAIRS - start)
            ii = rng.integers(0, n, size=m)
            jj = rng.integers(0, n - 1, size=m)
            jj = jj + (jj >= ii)
            terms = _pair_terms(x, p, ii, jj, beta)
            total += terms.sum()
            sq_total += (terms * terms).sum()
        pairs = n * (n - 1) / 2.0
        mean = total / ZETA_SAMPLE_PAIRS
        sd = math.sqrt(max(sq_total / ZETA_SAMPLE_PAIRS - mean * mean, 0.0))
        ref = mean * pairs
        se = sd * pairs * math.sqrt(1.0 / ZETA_SAMPLE_PAIRS + 1.0 / (pair_cap * pair_cap // 2))
        if abs(z - ref) > ZETA_SAMPLED_SE * se:
            out.append(
                f"zeta: part {aug.part} sampled zeta {z:.6g} is {abs(z - ref) / se:.1f} "
                f"standard errors from own estimate {ref:.6g}"
            )
    return out


def own_forward(t: Truth, weights) -> np.ndarray:
    """Full-graph GCN forward with the benchmark's own normalized adjacency."""
    deg = np.asarray(t.adj.sum(axis=1)).ravel() + 1.0
    dinv = 1.0 / np.sqrt(deg)
    a_hat = sp.diags(dinv) @ (t.adj.astype(np.float64) + sp.eye(t.n)) @ sp.diags(dinv)
    h = t.features
    for l, w in enumerate(weights):
        z = a_hat @ (h @ w)
        if l == len(weights) - 1:
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            return e / e.sum(axis=1, keepdims=True)
        h = np.maximum(z, 0.0)


def check_training(t: Truth, g, report, init_weights) -> list[str]:
    """Initial accuracy from an own forward pass, and a falling loss."""
    out = []
    probs = own_forward(t, init_weights)
    test = np.asarray(g.test_mask)
    top2 = np.sort(probs[test], axis=1)[:, -2:]
    ties = int((top2[:, 1] - top2[:, 0] < TIE_MARGIN).sum())
    own_correct = int((probs[test].argmax(axis=1) == t.labels[test]).sum())
    prog_correct = round(report.initial_test_acc * int(test.sum()))
    if abs(prog_correct - own_correct) > ties:
        out.append(
            f"training: initial test accuracy counts {prog_correct} correct, "
            f"own forward {own_correct} ({ties} ties)"
        )
    if not report.train_loss[-1] < report.train_loss[0]:
        out.append(
            f"training: final loss {report.train_loss[-1]:.6g} not below the first "
            f"epoch's {report.train_loss[0]:.6g}"
        )
    return out


class BarrierCheck:
    """``on_barrier`` callback asserting replicas are bit-identical."""

    def __init__(self):
        self.barriers = 0
        self.mismatches = 0

    def __call__(self, epoch, rnd, replicas):
        self.barriers += 1
        ref = replicas[0].weights
        for r in replicas[1:]:
            if not all(np.array_equal(a, b) for a, b in zip(r.weights, ref)):
                self.mismatches += 1

    def failures(self) -> list[str]:
        if self.barriers == 0:
            return ["training: no barrier was reached"]
        if self.mismatches:
            return [f"training: replicas differ at {self.mismatches} of {self.barriers} barriers"]
        return []
