import numpy as np

from gad.graph import load_dataset
from gad.synthetic import (
    CITATION_CLASS_SIZES,
    citation_graph_arrays,
    sbm_graph,
    write_citation_benchmark,
)


class TestSbm:
    def test_shape_and_labels(self):
        g = sbm_graph([30, 20], 0.2, 0.02, seed=1)
        assert g.num_nodes == 50
        assert np.bincount(g.labels).tolist() == [30, 20]

    def test_deterministic(self):
        a = sbm_graph([25, 25], 0.1, 0.01, seed=3, feature_dim=4)
        b = sbm_graph([25, 25], 0.1, 0.01, seed=3, feature_dim=4)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.features, b.features)

    def test_community_structure(self):
        g = sbm_graph([100, 100], 0.10, 0.005, seed=5)
        same = sum(1 for u, v in g.edge_list() if g.labels[u] == g.labels[v])
        assert same > 0.8 * g.num_edges

    def test_per_block_density(self):
        g = sbm_graph([100, 100], [0.2, 0.02], 0.0, seed=7)
        within = [0, 0]
        for u, v in g.edge_list():
            if g.labels[u] == g.labels[v]:
                within[g.labels[u]] += 1
        assert within[0] > 4 * within[1]

    def test_label_noise_per_block(self):
        g = sbm_graph([200, 200], 0.05, 0.0, seed=9, label_noise=[0.0, 0.5])
        block0 = g.labels[:200]
        block1 = g.labels[200:]
        assert (block0 == 0).all()
        # half of the flipped nodes land back on their own label with k=2
        assert 0.15 < (block1 != 1).mean() < 0.35

    def test_split_masks_disjoint(self):
        g = sbm_graph([50, 50], 0.1, 0.01, seed=11)
        assert not (g.train_mask & g.val_mask).any()
        assert g.train_mask.sum() == 45


class TestCitationBenchmark:
    def test_default_shape(self):
        labels, pairs, feats = citation_graph_arrays(seed=2)
        assert len(labels) == sum(CITATION_CLASS_SIZES) == 2708
        assert len(pairs) == 5429
        assert feats.shape == (2708, 1433)
        assert set(np.unique(feats)) <= {0.0, 1.0}

    def test_deterministic(self):
        a = citation_graph_arrays(seed=4)
        b = citation_graph_arrays(seed=4)
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2], b[2])

    def test_homophilous(self):
        labels, pairs, _ = citation_graph_arrays(seed=5)
        same = (labels[pairs[:, 0]] == labels[pairs[:, 1]]).mean()
        assert same > 0.7

    def test_files_load_back(self, tmp_path):
        content, cites = write_citation_benchmark(
            tmp_path, seed=6,
            class_sizes=(12, 10, 8), num_edges=40, feature_dim=10,
            words_per_class=3, mean_words=4.0,
        )
        g = load_dataset(cites, content, (0.45, 0.18, 0.37), seed=0)
        assert g.num_nodes == 30
        assert g.num_edges == 40
        assert g.feature_dim == 10
        assert g.num_classes == 3
        assert g.class_names == ("topic_0", "topic_1", "topic_2")
