"""Seeded input generators and pipeline configurations of the benchmark.

Every input is made here, from the workload seed, with NumPy alone: nothing
calls ``gad.synthetic``, so a change to the program's own generators cannot
change a workload.  Only the written files reach the program.  The ground
truth (edge list, labels, features as written, and the planted blocks) is
saved beside them in ``truth.npz``, which the program never reads; the
checks use all but the blocks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Cora's class sizes (sum 2708) and names, largest class first.
TWIN_CLASSES = (
    ("Neural_Networks", 818),
    ("Probabilistic_Methods", 426),
    ("Genetic_Algorithms", 418),
    ("Theory", 351),
    ("Case_Based", 298),
    ("Reinforcement_Learning", 217),
    ("Rule_Learning", 180),
)
TWIN_EDGES = 5429
TWIN_WORDS = 1433
TWIN_WORDS_PER_PAPER = 18      # 18 / 1433 = 1.26% nonzero
TWIN_TOPIC_WORDS = 60          # words that each class owns
TWIN_TOPIC = 5                 # of a paper's words, from its class's own words
TWIN_HOMOPHILY = 0.81          # share of citations inside a class, as in Cora

PLANTED_NODES = 50_000
PLANTED_BLOCKS = 8
PLANTED_EDGES = 250_000
PLANTED_INSIDE = 0.825         # so the planted blocks cut 17.5% of edges
PLANTED_DIM = 32
PLANTED_NOISE = 2.0            # feature noise around unit-normal block centres

SBM_BLOCKS = 10
SBM_BLOCK_SIZE = 150
SBM_P_IN = (0.30, 0.04)        # dense and sparse blocks alternate
SBM_P_OUT = 0.01
SBM_DIM = 16
SBM_NOISE = (0.1, 2.5)         # tight features in dense blocks, dispersed in sparse
SBM_LABEL_NOISE = (0.0, 0.5)   # half the sparse blocks' labels are redrawn

SPLIT = (0.45, 0.18, 0.37)

# Input graphs per run: the stage timings of the small graphs depend on the
# graph drawn by some tens of percent, so their medians span several.
GRAPHS = {"twin-headline": 5, "planted-50k": 1, "sbm-many-parts": 2}

# Pipeline settings per workload; the seed is the run's --seed.
CONFIGS = {
    "twin-headline": dict(
        k=4, epsilon=0.1, restarts=8, target_fraction=0.2, layers=3, hidden=128,
        eta=1e-4, epochs=250, eval_every=1, alpha=0.01, workers=4, weighted=True,
    ),
    "planted-50k": dict(
        k=8, epsilon=0.1, restarts=8, target_fraction=0.2, layers=2, hidden=32,
        eta=1e-4, epochs=15, eval_every=1, alpha=0.01, workers=4, weighted=True,
        pair_cap=2048,
    ),
    "sbm-many-parts": dict(
        k=50, epsilon=0.1, restarts=4, target_fraction=0.2, layers=2, hidden=16,
        eta=4e-4, epochs=120, eval_every=1, alpha=0.05, workers=4, weighted=True,
    ),
}


def _rng(seed: int, tag: int, graph: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), 0xBE4C, tag, graph]))


def _unique_edges(u: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """First ``m`` distinct undirected non-loop pairs, in sampling order."""
    keep = u != v
    lo, hi = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    key = lo * (1 << 32) + hi
    _, first = np.unique(key, return_index=True)
    first.sort()
    if len(first) < m:
        raise RuntimeError(f"edge sampler produced {len(first)} < {m} distinct edges")
    first = first[:m]
    return np.stack([lo[first], hi[first]], axis=1)


def _twin(seed: int, graph: int):
    """Cora-shaped citation graph with heavy-tailed degrees and topic words."""
    rng = _rng(seed, 1, graph)
    sizes = np.array([s for _, s in TWIN_CLASSES])
    n, c = int(sizes.sum()), len(sizes)
    labels = rng.permutation(np.repeat(np.arange(c), sizes))
    members = [np.flatnonzero(labels == k) for k in range(c)]

    # Citations: every paper cites at least once, so that, as in Cora, no
    # paper is isolated; the other ends, and the remaining citing papers,
    # follow a heavy-tailed popularity weight.
    weight = rng.pareto(2.5, size=n) + 1.0

    def _pick(src: np.ndarray, inside: np.ndarray) -> np.ndarray:
        out = np.empty(len(src), dtype=np.int64)
        for k in range(c):
            for same in (True, False):
                sel = np.flatnonzero((labels[src] == k) & (inside == same))
                pool = members[k] if same else np.flatnonzero(labels != k)
                p = weight[pool] / weight[pool].sum()
                out[sel] = pool[rng.choice(len(pool), size=len(sel), p=p)]
        return out

    src = np.concatenate([np.arange(n), rng.choice(n, size=2 * TWIN_EDGES, p=weight / weight.sum())])
    inside = rng.random(len(src)) < TWIN_HOMOPHILY
    dst = _pick(src, inside)
    edges = _unique_edges(src, dst, TWIN_EDGES)

    # Words: each paper has TWIN_WORDS_PER_PAPER distinct words, TWIN_TOPIC
    # of them from its class's own block of TWIN_TOPIC_WORDS words, the rest
    # from a Zipf-like background over the words no class owns.
    # Distinct draws by the Gumbel top-k trick: the k largest of
    # log(weight) + Gumbel noise are a weighted sample without replacement.
    background = np.arange(c * TWIN_TOPIC_WORDS, TWIN_WORDS)
    popularity = rng.permutation(1.0 / np.arange(1, len(background) + 1) ** 0.7)
    rest = TWIN_WORDS_PER_PAPER - TWIN_TOPIC
    keys = np.log(popularity) + rng.gumbel(size=(n, len(background)))
    other = background[np.argpartition(-keys, rest, axis=1)[:, :rest]]
    own = np.argpartition(rng.random((n, TWIN_TOPIC_WORDS)), TWIN_TOPIC, axis=1)[:, :TWIN_TOPIC]
    own = labels[:, None] * TWIN_TOPIC_WORDS + own
    features = np.zeros((n, TWIN_WORDS), dtype=np.int8)
    rows = np.arange(n)[:, None]
    features[rows, own] = 1
    features[rows, other] = 1

    names = rng.choice(np.arange(35, 1_200_000), size=n, replace=False)
    return dict(names=names.astype(str), edges=edges, labels=labels, blocks=labels,
                features=features, class_names=[name for name, _ in TWIN_CLASSES])


def _planted(seed: int, graph: int):
    """Planted partition: equal blocks, uniform endpoints, O(m) sampling."""
    rng = _rng(seed, 2, graph)
    n, b = PLANTED_NODES, PLANTED_BLOCKS
    size = n // b
    blocks = np.arange(n) // size
    draw = int(PLANTED_EDGES * 1.01) + 100
    inside = rng.random(draw) < PLANTED_INSIDE
    bu = rng.integers(0, b, size=draw)
    bv = np.where(inside, bu, (bu + rng.integers(1, b, size=draw)) % b)
    u = bu * size + rng.integers(0, size, size=draw)
    v = bv * size + rng.integers(0, size, size=draw)
    edges = _unique_edges(u, v, PLANTED_EDGES)
    centres = rng.normal(0.0, 1.0, size=(b, PLANTED_DIM))
    features = centres[blocks] + PLANTED_NOISE * rng.normal(0.0, 1.0, size=(n, PLANTED_DIM))
    return dict(names=np.arange(n).astype(str), edges=edges, labels=blocks, blocks=blocks,
                features=features, class_names=None)


def _sbm(seed: int, graph: int):
    """Heterogeneous SBM: alternate dense/tight/clean and sparse/dispersed/noisy blocks."""
    rng = _rng(seed, 3, graph)
    b, size = SBM_BLOCKS, SBM_BLOCK_SIZE
    n = b * size
    blocks = np.arange(n) // size
    p_in = np.array([SBM_P_IN[i % 2] for i in range(b)])
    parts = []
    for a in range(b):
        for c in range(a, b):
            pairs = size * (size - 1) // 2 if a == c else size * size
            m = rng.binomial(pairs, p_in[a] if a == c else SBM_P_OUT)
            # sample distinct pairs of the block pair by rejection on keys
            u = a * size + rng.integers(0, size, size=3 * m + 10)
            v = c * size + rng.integers(0, size, size=3 * m + 10)
            parts.append(_unique_edges(u, v, m))
    edges = np.concatenate(parts)
    centres = rng.normal(0.0, 1.0, size=(b, SBM_DIM))
    noise = np.array([SBM_NOISE[i % 2] for i in range(b)])[blocks]
    features = centres[blocks] + noise[:, None] * rng.normal(0.0, 1.0, size=(n, SBM_DIM))
    lnoise = np.array([SBM_LABEL_NOISE[i % 2] for i in range(b)])[blocks]
    labels = np.where(rng.random(n) < lnoise, rng.integers(0, b, size=n), blocks)
    return dict(names=np.arange(n).astype(str), edges=edges, labels=labels, blocks=blocks,
                features=features, class_names=None)


GENERATORS = {"twin-headline": _twin, "planted-50k": _planted, "sbm-many-parts": _sbm}


def _write_native(out: Path, data) -> tuple[Path, Path]:
    feats = np.asarray(data["features"], dtype=np.float64)
    n, d = feats.shape
    labels = data["labels"]
    classes = int(labels.max()) + 1
    cols = [np.char.mod("%.6f", feats[:, j]) for j in range(d)]
    data["features"] = np.stack([col.astype(np.float64) for col in cols], axis=1)
    body = np.char.add(data["names"], " ")
    for col in cols:
        body = np.char.add(np.char.add(body, col), " ")
    body = np.char.add(body, labels.astype(str))
    fpath, epath = out / "features.txt", out / "edges.txt"
    with open(fpath, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"num_nodes": n, "dim": d, "classes": classes}) + "\n")
        fh.write("\n".join(body.tolist()) + "\n")
    _write_edges(epath, data)
    return epath, fpath


def _write_edges(path: Path, data) -> None:
    names = data["names"]
    e = data["edges"]
    lines = np.char.add(np.char.add(names[e[:, 0]], " "), names[e[:, 1]])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines.tolist()) + "\n")


def _write_cora(out: Path, data) -> tuple[Path, Path]:
    label_names = np.array(data["class_names"])[data["labels"]]
    n, d = data["features"].shape
    words = np.full((n, 2 * d), ord("\t"), dtype=np.uint8)   # "w\tw\t...w\t"
    words[:, 0::2] = np.where(data["features"] > 0, ord("1"), ord("0"))
    cpath, epath = out / "twin.content", out / "twin.cites"
    with open(cpath, "w", encoding="utf-8") as fh:
        for name, row, label in zip(data["names"], words, label_names):
            fh.write(f"{name}\t{row.tobytes().decode('ascii')}{label}\n")
    _write_edges(epath, data)
    return epath, cpath


def generate(workload: str, seed: int, out: Path) -> list[Path]:
    """Write the workload's input graphs and their ground truth under ``out``.

    Graph 0 runs the whole pipeline; the others, where the workload has
    them, widen the sample that set-up, partition and augment are timed on.
    """
    dirs = []
    for graph in range(GRAPHS[workload]):
        data = GENERATORS[workload](seed, graph)
        d = out / f"g{graph}"
        d.mkdir(parents=True, exist_ok=True)
        writer = _write_cora if workload == "twin-headline" else _write_native
        edge_path, feature_path = writer(d, data)
        names = data["class_names"]
        label_text = np.array(names)[data["labels"]] if names else data["labels"].astype(str)
        np.savez(
            d / "truth.npz", names=data["names"], edges=data["edges"], labels=label_text,
            blocks=data["blocks"], features=data["features"],
        )
        inputs = {"edges": edge_path.name, "features": feature_path.name}
        (d / "inputs.json").write_text(json.dumps(inputs) + "\n", encoding="utf-8")
        dirs.append(d)
    return dirs
