"""Row-by-row dataset loader, kept as the reference for ``load_dataset``.

Each feature value goes through Python's ``float()`` and each edge line
through one dict lookup per endpoint.  It accepts the same files and raises
the same ``GadError`` texts as the vectorised loader, with one exception:
a non-numeric value or a non-integer native label raises a bare
``ValueError`` here.  ``float()`` also accepts digit-group underscores
such as ``1_0`` and non-ASCII digits, which the program rejects.
"""

import json
from pathlib import Path

import numpy as np

from gad.errors import GadError
from gad.graph import UNLABELED, Graph, make_split_masks


def read_edge_pairs(path, name_to_idx) -> np.ndarray:
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GadError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                pairs.append((name_to_idx[parts[0]], name_to_idx[parts[1]]))
            except KeyError as exc:
                raise GadError(f"{path}:{lineno}: unknown node id {exc.args[0]!r}") from None
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def parse_feature_rows(lines, path, dim=None):
    """Parse 'id v1 ... vD label' rows; returns (names, features, raw_labels)."""
    names, feats, raw_labels = [], [], []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) < 3:
            raise GadError(f"{path}:{lineno}: malformed feature row")
        if dim is None:
            dim = len(parts) - 2
        if len(parts) != dim + 2:
            raise GadError(
                f"{path}:{lineno}: inconsistent feature dimension "
                f"(expected {dim}, got {len(parts) - 2})"
            )
        names.append(parts[0])
        feats.append([float(x) for x in parts[1:-1]])
        raw_labels.append(parts[-1])
    return names, np.array(feats, dtype=np.float64), raw_labels


def load_dataset(edge_path, feature_path, split_spec, seed: int) -> Graph:
    feature_path = Path(feature_path)
    with open(feature_path, "r", encoding="utf-8") as fh:
        lines = [(i, ln.strip()) for i, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise GadError(f"{feature_path}: empty feature file")

    class_names = None
    if lines[0][1].startswith("{"):
        header = json.loads(lines[0][1])
        names, feats, raw_labels = parse_feature_rows(
            lines[1:], feature_path, dim=int(header["dim"])
        )
        if len(names) != int(header["num_nodes"]):
            raise GadError(f"{feature_path}: row count does not match header")
        labels = np.array([int(x) for x in raw_labels], dtype=np.int64)
        n_classes = int(header["classes"])
        if labels.size and (labels.min() < UNLABELED or labels.max() >= n_classes):
            raise GadError(f"{feature_path}: label outside 0..classes-1")
    else:
        names, feats, raw_labels = parse_feature_rows(lines, feature_path)
        class_names = tuple(sorted(set(raw_labels)))
        lut = {c: i for i, c in enumerate(class_names)}
        labels = np.array([lut[x] for x in raw_labels], dtype=np.int64)

    if len(set(names)) != len(names):
        raise GadError(f"{feature_path}: duplicate node id")
    name_to_idx = {name: i for i, name in enumerate(names)}
    pairs = read_edge_pairs(edge_path, name_to_idx)
    labeled = labels != UNLABELED
    train, val, test = (m & labeled for m in make_split_masks(len(names), split_spec, seed))
    return Graph.from_edges(
        num_nodes=len(names),
        pairs=pairs,
        features=feats,
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        node_names=tuple(names),
        class_names=class_names,
    )
