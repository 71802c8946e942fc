import json
import re
from dataclasses import fields

import numpy as np
import pytest

from gad.cli import main
from gad.config import Config
from gad.synthetic import citation_graph_arrays, write_citation_benchmark


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    write_citation_benchmark(
        d, seed=1,
        class_sizes=(20, 15, 15, 10),
        num_edges=120,
        feature_dim=24,
        words_per_class=5,
        mean_words=6.0,
    )
    return d


def run(args):
    return main([str(a) for a in args])


def _with_parts(payload, **changes):
    """The augmented payload as JSON text, with ``changes`` made to every
    partition entry: a callable maps the entry's value, None drops the key."""
    parts = [
        {k: v(entry[k]) if callable(v) else v for k, v in {**entry, **changes}.items()
         if v is not None}
        for entry in payload["partitions"]
    ]
    return json.dumps({**payload, "partitions": parts})


class TestPartitionCmd:
    def test_writes_json_with_edge_cut(self, dataset, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run(["partition", dataset, "--k", "4", "--epsilon", "0.3",
                    "--seed", "1", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"k", "epsilon", "edge_cut", "assignment"}
        summary = json.loads(capsys.readouterr().out)
        assert summary["edge_cut"] == payload["edge_cut"]
        assert (tmp_path / "p.node_ids.json").exists()

    def test_k1_zero_cut(self, dataset, tmp_path):
        out = tmp_path / "p1.json"
        assert run(["partition", dataset, "--k", "1", "--seed", "1", "--out", out]) == 0
        assert json.loads(out.read_text())["edge_cut"] == 0

    def test_rerun_byte_identical(self, dataset, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["partition", dataset, "--k", "3", "--seed", "7", "--out", a])
        run(["partition", dataset, "--k", "3", "--seed", "7", "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_dataset_exit_1(self, tmp_path):
        assert run(["partition", tmp_path / "nope", "--k", "2", "--out", tmp_path / "x.json"]) == 1

    def test_out_into_a_new_directory(self, dataset, tmp_path):
        out = tmp_path / "new" / "p.json"
        assert run(["partition", dataset, "--k", "2", "--seed", "1", "--out", out]) == 0
        assert json.loads(out.read_text())["k"] == 2


class TestAugmentCmd:
    def test_stage(self, dataset, tmp_path, capsys):
        part = tmp_path / "p.json"
        run(["partition", dataset, "--k", "4", "--epsilon", "0.3", "--seed", "1", "--out", part])
        out = tmp_path / "a.json"
        capsys.readouterr()
        assert run(["augment", dataset, "--partition", part, "--seed", "1",
                    "--layers", "2", "--alpha", "0.05", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["alpha"] == 0.05
        assert "importance_mode" not in payload
        # the partition is carried over as the partition stage wrote it
        assert payload["partition"] == json.loads(part.read_text())
        for entry in payload["partitions"]:
            assert len(entry["replicas"]) <= entry["budget"] or entry["budget"] == 0
            # the replicas are the entry's non-owned nodes, ascending
            assert entry["replicas"] == [n for n, o in zip(entry["nodes"], entry["owned"]) if not o]
        summary = json.loads(capsys.readouterr().out)
        assert "total_replicas" in summary

    def test_single_part_no_replicas(self, dataset, tmp_path):
        part = tmp_path / "p1.json"
        run(["partition", dataset, "--k", "1", "--seed", "1", "--out", part])
        out = tmp_path / "a1.json"
        run(["augment", dataset, "--partition", part, "--seed", "1", "--out", out])
        payload = json.loads(out.read_text())
        assert all(not e["replicas"] for e in payload["partitions"])

    def test_missing_partition_file(self, dataset, tmp_path):
        assert run(["augment", dataset, "--partition", tmp_path / "missing.json",
                    "--out", tmp_path / "a.json"]) == 1

    def test_no_augment_flag(self, dataset, tmp_path):
        part = tmp_path / "p.json"
        run(["partition", dataset, "--k", "4", "--epsilon", "0.3", "--seed", "1", "--out", part])
        out = tmp_path / "bare.json"
        assert run(["augment", dataset, "--partition", part, "--seed", "1",
                    "--no-augment", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["augment_enabled"] is False
        assert all(not e["replicas"] for e in payload["partitions"])

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_part_id_out_of_range_exit_1(self, dataset, tmp_path, capsys, bad):
        # with k = 3 a node in part -1 or 3 would belong to no part at all
        part = tmp_path / "p.json"
        run(["partition", dataset, "--k", "3", "--seed", "1", "--out", part])
        payload = json.loads(part.read_text())
        payload["assignment"][5] = bad
        part.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["augment", dataset, "--partition", part, "--out", tmp_path / "a.json"]) == 1
        assert "part id outside 0..2" in capsys.readouterr().err
        assert not (tmp_path / "a.json").exists()

    @pytest.mark.parametrize("text, detail", [
        ("{k: 2}", "not valid JSON"),
        ('{"k": 2, "epsilon": 0.3, "edge_cut": 0, "restarts_used": 0}', "missing key 'assignment'"),
        ('{"k": "two", "epsilon": 0.3, "edge_cut": 0, "restarts_used": 0, "assignment": [0]}',
         "malformed content"),
        ('{"k": 2, "epsilon": 0.3, "edge_cut": 0, "restarts_used": 0, "assignment": "abc"}',
         "malformed content"),
        ("[2, 0.3]", "malformed content"),
        ('{"k": 4.9, "epsilon": 0.3, "edge_cut": 0, "restarts_used": 0, "assignment": [0]}',
         "malformed content (k must be int, not 4.9)"),
        ('{"k": true, "epsilon": 0.3, "edge_cut": 0, "restarts_used": 0, "assignment": [0]}',
         "malformed content (k must be int, not True)"),
        ('{"k": 2, "epsilon": "0.3", "edge_cut": 0, "restarts_used": 0, "assignment": [0]}',
         "malformed content (epsilon must be int or float, not '0.3')"),
        ('{"k": 2, "epsilon": 0.3, "edge_cut": 1.5, "restarts_used": 0, "assignment": [0]}',
         "malformed content (edge_cut must be int, not 1.5)"),
        ('{"k": 2, "epsilon": 0.3, "edge_cut": 0, "restarts_used": false, "assignment": [0]}',
         "malformed content (restarts_used must be int, not False)"),
        ('{"k": 2, "epsilon": 0.3, "edge_cut": 0, "restarts_used": 0, "assignment": [1.7, 0]}',
         "malformed content (assignment entry must be int, not 1.7)"),
        ('{"k": 2, "epsilon": 0.3, "edge_cut": 0, "restarts_used": 0, "assignment": ["1"]}',
         "malformed content (assignment entry must be int, not '1')"),
        ('{"k": 2, "epsilon": 0.3, "edge_cut": 0, "restarts_used": 0, "assignment": [true]}',
         "malformed content (assignment entry must be int, not True)"),
        ('{"k": 2, "epsilon": 0.3, "edge_cut": 0, "restarts_used": 0, "assignment": [1e400]}',
         "malformed content (assignment entry must be int, not inf)"),
        ('{"k": 2, "epsilon": 0.3, "edge_cut": 0, "restarts_used": 0, "assignment": [' + "9" * 30
         + "]}", "malformed content (Python int too large"),
    ], ids=["not_json", "no_assignment", "k_str", "assignment_str", "list", "k_float", "k_bool",
            "epsilon_str", "edge_cut_float", "restarts_bool", "assignment_float",
            "assignment_numeric_str", "assignment_bool", "assignment_inf", "assignment_huge"])
    def test_malformed_partition_file_exit_1(self, dataset, tmp_path, capsys, text, detail):
        part = tmp_path / "p.json"
        part.write_text(text)
        capsys.readouterr()
        assert run(["augment", dataset, "--partition", part, "--out", tmp_path / "a.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gad: error: {part}: {detail}") and err.count("\n") == 1


class TestTrainCmd:
    @pytest.fixture(scope="class")
    @staticmethod
    def staged(dataset, tmp_path_factory):
        d = tmp_path_factory.mktemp("staged")
        part = d / "p.json"
        aug = d / "a.json"
        run(["partition", dataset, "--k", "3", "--epsilon", "0.3", "--seed", "2", "--out", part])
        run(["augment", dataset, "--partition", part, "--seed", "2",
            "--layers", "2", "--alpha", "0.1", "--out", aug])
        return d, part, aug

    def test_train_and_report_fields(self, dataset, staged, tmp_path, capsys):
        d, part, aug = staged
        out = tmp_path / "r.json"
        code = run(["train", dataset, "--augmented", aug, "--layers", "2",
                    "--hidden", "8", "--eta", "0.001", "--epochs", "3",
                    "--workers", "2", "--seed", "2", "--out", out,
                    "--curves", tmp_path / "curves.csv"])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["epochs_run"] == 3
        assert len(rep["train_loss"]) == 3
        assert rep["comm"]["bytes_with"] <= rep["comm"]["bytes_without"]
        assert "epoch_seconds" not in rep   # timing kept out of the artifact
        assert (tmp_path / "curves.csv").read_text().startswith("epoch,")

    def test_deterministic_artifact(self, dataset, staged, tmp_path):
        d, part, aug = staged
        a, b = tmp_path / "ra.json", tmp_path / "rb.json"
        for out in (a, b):
            run(["train", dataset, "--augmented", aug, "--layers", "2",
                 "--hidden", "8", "--eta", "0.001", "--epochs", "2",
                 "--workers", "2", "--seed", "2", "--out", out])
        assert a.read_bytes() == b.read_bytes()

    def test_timing_out_one_entry_per_epoch(self, dataset, staged, tmp_path):
        d, part, aug = staged
        args = ["train", dataset, "--augmented", aug, "--layers", "2", "--hidden", "8",
                "--eta", "0.001", "--epochs", "3", "--workers", "2", "--seed", "2"]
        plain, timed, timing = tmp_path / "plain.json", tmp_path / "timed.json", tmp_path / "t.json"
        assert run(args + ["--out", plain]) == 0
        assert run(args + ["--out", timed, "--timing-out", timing]) == 0
        seconds = json.loads(timing.read_text())["epoch_seconds"]
        assert len(seconds) == json.loads(timed.read_text())["epochs_run"] == 3
        assert all(s > 0 for s in seconds)
        assert timed.read_bytes() == plain.read_bytes()   # timing stays out of the report

    def test_weighted_flag_off(self, dataset, staged, tmp_path):
        d, part, aug = staged
        out = tmp_path / "rp.json"
        assert run(["train", dataset, "--augmented", aug, "--layers", "2",
                    "--hidden", "8", "--eta", "0.001", "--epochs", "2",
                    "--workers", "2", "--seed", "2", "--no-weighted", "--out", out]) == 0
        assert json.loads(out.read_text())["config"]["weighted"] is False

    def test_no_training_node_exit_1(self, dataset, staged, tmp_path, capsys):
        d, part, aug = staged
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert run(["train", dataset, "--augmented", aug, "--split", "0", "0.5", "0.5",
                    "--epochs", "3", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == "gad: error: no subgraph has an owned training node\n"
        assert not out.exists()

    @pytest.mark.parametrize("split, empty", [(("0.5", "0.5", "0"), "test"),
                                              (("0.5", "0", "0.5"), "val")],
                             ids=["no_test", "no_val"])
    def test_empty_evaluation_split_trains(self, dataset, staged, tmp_path, capsys, split, empty):
        d, part, aug = staged
        out = tmp_path / "r.json"
        assert run(["train", dataset, "--augmented", aug, "--split", *split, "--layers", "2",
                    "--hidden", "8", "--epochs", "3", "--workers", "2", "--seed", "2",
                    "--out", out]) == 0
        rep = json.loads(out.read_text())
        kept = "val" if empty == "test" else "test"
        assert rep[f"{empty}_acc"] == [None] * 3
        assert rep[f"initial_{empty}_acc"] is rep[f"final_{empty}_acc"] is None
        assert all(isinstance(a, float) for a in rep[f"{kept}_acc"] + [rep[f"final_{kept}_acc"]])
        assert (rep["best_val_epoch"] is None) == (empty == "val")
        assert run(["report", out]) == 0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_update_exit_2_with_partial_report(self, dataset, staged, tmp_path,
                                                           capsys):
        d, part, aug = staged
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert run(["train", dataset, "--augmented", aug, "--layers", "2", "--hidden", "8",
                    "--eta", "1e308", "--epochs", "3", "--workers", "2", "--seed", "2",
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == "gad train: numerical failure: non-finite parameter values after an update\n"
        rep = json.loads(out.read_text())
        assert rep["epochs_run"] == 0 and rep["train_loss"] == []
        assert rep["notes"][-1] == "aborted: non-finite parameter values after an update"

    def test_unlabeled_nodes_train(self, tmp_path):
        # every 10th node is labeled -1 (UNLABELED) in a native dataset
        labels, pairs, feats = citation_graph_arrays(
            seed=1, class_sizes=(20, 15, 15, 10), num_edges=120, feature_dim=24,
            words_per_class=5, mean_words=6.0,
        )
        labels = np.where(np.arange(len(labels)) % 10 == 0, -1, labels)
        d = tmp_path / "data"
        d.mkdir()
        with open(d / "features.txt", "w") as fh:
            fh.write(json.dumps({"num_nodes": len(labels), "dim": 24, "classes": 4}) + "\n")
            for i, (row, label) in enumerate(zip(feats, labels)):
                fh.write(f"v{i} {' '.join(str(int(x)) for x in row)} {label}\n")
        (d / "edges.txt").write_text("".join(f"v{u} v{v}\n" for u, v in pairs))
        part, aug, out = tmp_path / "p.json", tmp_path / "a.json", tmp_path / "r.json"
        assert run(["partition", d, "--k", "3", "--seed", "2", "--out", part]) == 0
        assert run(["augment", d, "--partition", part, "--seed", "2", "--out", aug]) == 0
        assert run(["train", d, "--augmented", aug, "--hidden", "8", "--epochs", "2",
                    "--workers", "2", "--seed", "2", "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["epochs_run"] == 2 and np.isfinite(rep["train_loss"]).all()

    def test_part_id_out_of_range_exit_1(self, dataset, staged, tmp_path, capsys):
        d, part, aug = staged
        payload = json.loads(aug.read_text())
        payload["partition"]["assignment"][0] = payload["partition"]["k"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["train", dataset, "--augmented", bad, "--epochs", "1",
                    "--out", tmp_path / "r.json"]) == 1
        assert "part id outside" in capsys.readouterr().err

    def test_short_assignment_exit_1(self, dataset, staged, tmp_path, capsys):
        d, part, aug = staged
        payload = json.loads(aug.read_text())
        payload["partition"]["assignment"] = payload["partition"]["assignment"][:-5]
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["train", dataset, "--augmented", bad, "--epochs", "1",
                    "--out", tmp_path / "r.json"]) == 1
        err = capsys.readouterr().err
        assert "gad: error" in err and "assignment length" in err
        assert not (tmp_path / "r.json").exists()

    def test_short_owned_flags_exit_1(self, dataset, staged, tmp_path, capsys):
        d, part, aug = staged
        payload = json.loads(aug.read_text())
        payload["partitions"][1]["owned"] = payload["partitions"][1]["owned"][:-1]
        bad = tmp_path / "short_owned.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["train", dataset, "--augmented", bad, "--epochs", "1",
                    "--out", tmp_path / "r.json"]) == 1
        err = capsys.readouterr().err
        assert "gad: error" in err and "part 1 owned flags" in err
        assert "Traceback" not in err

    def test_owned_as_booleans_loads(self, dataset, staged, tmp_path):
        d, part, aug = staged
        ok = tmp_path / "bools.json"
        ok.write_text(_with_parts(json.loads(aug.read_text()),
                                  owned=lambda o: [bool(f) for f in o]))
        assert run(["train", dataset, "--augmented", ok, "--epochs", "1",
                    "--out", tmp_path / "r.json"]) == 0

    @pytest.mark.parametrize("edit, detail", [
        (lambda p: json.dumps(p)[:-1], "not valid JSON"),   # cut, it is not JSON
        (lambda p: _with_parts(p, budget=None), "missing key 'budget'"),
        (lambda p: _with_parts(p, part="x"), "malformed content"),
        (lambda p: json.dumps({**p, "partitions": dict(enumerate(p["partitions"]))}),
         "malformed content"),
        (lambda p: _with_parts(p, nodes=["a", "b"]), "malformed content"),
        (lambda p: json.dumps([p]), "malformed content"),
        (lambda p: _with_parts(p, owned=lambda o: ["yes" if f else "no" for f in o]),
         "malformed content (owned entry must be int or bool, not 'no')"),
        (lambda p: _with_parts(p, owned=lambda o: [2 * f for f in o]),
         "part 0 owned flags do not match the partition and replicas"),
        (lambda p: _with_parts(p, owned=lambda o: [float(f) for f in o]),
         "malformed content (owned entry must be int or bool, not 0.0)"),
        (lambda p: _with_parts(p, nodes=lambda n: [str(v) for v in n]),
         "malformed content (nodes entry must be int, not '"),
        (lambda p: _with_parts(p, nodes=lambda n: [v + 0.5 for v in n]),
         "malformed content (nodes entry must be int, not "),
        (lambda p: _with_parts(p, part=True), "malformed content (part must be int, not True)"),
        (lambda p: _with_parts(p, part=0.0), "malformed content (part must be int, not 0.0)"),
        (lambda p: _with_parts(p, budget=1.5), "malformed content (budget must be int, not 1.5)"),
        (lambda p: _with_parts(p, shortfall="0"),
         "malformed content (shortfall must be int, not '0')"),
        (lambda p: json.dumps({**p, "partition": {**p["partition"], "k": 3.9}}),
         "malformed content (k must be int, not 3.9)"),
        (lambda p: _with_parts(p, replicas=None), "missing key 'replicas'"),
        # part 0 listed twice, part 2 dropped
        (lambda p: json.dumps({**p, "partitions": [p["partitions"][0]] + p["partitions"][:2]}),
         "the entries must hold each part id 0..2 once"),
        # the part labels of entries 0 and 1 swapped
        (lambda p: json.dumps({**p, "partitions": [
            {**p["partitions"][0], "part": 1}, {**p["partitions"][1], "part": 0},
            p["partitions"][2]]}),
         "part 1 replicas must be disjoint from its owned nodes"),
        (lambda p: _with_parts(p, replicas=[]), "part 0 nodes do not match the partition and replicas"),
        (lambda p: _with_parts(p, edges=lambda e: e[1:]),
         "part 0 edges do not match the partition and replicas"),
        # an owned node of part 0 listed as its replica too
        (lambda p: json.dumps({**p, "partitions": [
            {**p["partitions"][0], "replicas": p["partitions"][0]["replicas"]
             + [n for n, o in zip(p["partitions"][0]["nodes"], p["partitions"][0]["owned"]) if o][:1]},
            *p["partitions"][1:]]}),
         "part 0 replicas must be disjoint from its owned nodes"),
    ], ids=["not_json", "no_budget", "part_str", "partitions_object", "nodes_str", "list",
            "owned_words", "owned_two", "owned_float", "nodes_numeric_str", "nodes_float",
            "part_bool", "part_float", "budget_float", "shortfall_str", "partition_k_float",
            "no_replicas", "part_twice", "parts_swapped", "replicas_dropped", "edge_dropped",
            "replica_owned"])
    def test_malformed_augmented_file_exit_1(self, dataset, staged, tmp_path, capsys, edit,
                                             detail):
        d, part, aug = staged
        bad = tmp_path / "bad.json"
        bad.write_text(edit(json.loads(aug.read_text())))
        capsys.readouterr()
        assert run(["train", dataset, "--augmented", bad, "--epochs", "1",
                    "--out", tmp_path / "r.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gad: error: {bad}: {detail}") and err.count("\n") == 1


class TestBadDataset:
    """Unreadable values in a dataset are user errors: exit 1 with path:lineno."""

    def _partition(self, d, tmp_path, capsys):
        capsys.readouterr()
        code = run(["partition", d, "--k", "2", "--seed", "1", "--out", tmp_path / "p.json"])
        return code, capsys.readouterr().err

    def test_non_numeric_feature_value_exit_1(self, tmp_path, capsys):
        d = tmp_path / "data"
        d.mkdir()
        (d / "toy.content").write_text("a 1 0 x\nb 0 1 y\nc 1 x y\n")
        (d / "toy.cites").write_text("a b\nb c\n")
        code, err = self._partition(d, tmp_path, capsys)
        assert code == 1
        assert f"gad: error: {d / 'toy.content'}:3: feature value 'x' is not a number" in err
        assert "Traceback" not in err

    def test_non_integer_label_exit_1(self, tmp_path, capsys):
        d = tmp_path / "data"
        d.mkdir()
        (d / "features.txt").write_text(
            '{"num_nodes": 3, "dim": 1, "classes": 2}\na 1 0\nb 0 1\n\nc 1 1.0\n'
        )
        (d / "edges.txt").write_text("a b\nb c\n")
        code, err = self._partition(d, tmp_path, capsys)
        assert code == 1
        assert f"gad: error: {d / 'features.txt'}:5: label '1.0' is not an integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("header, detail", [
        ("{num_nodes: 2}", "malformed header"),
        ('{"num_nodes": 2, "dim": 1}', "header has no 'classes'"),
    ], ids=["not_json", "no_classes"])
    def test_bad_native_header_exit_1(self, tmp_path, capsys, header, detail):
        d = tmp_path / "data"
        d.mkdir()
        (d / "features.txt").write_text(f"{header}\na 1 0\nb 0 1\n")
        (d / "edges.txt").write_text("a b\n")
        code, err = self._partition(d, tmp_path, capsys)
        assert code == 1
        assert f"gad: error: {d / 'features.txt'}:1: {detail}" in err
        assert "Traceback" not in err


class TestArtifactFormats:
    REPORT_KEYS = {
        "config", "evaluation", "seed", "worker_of", "zetas", "comm", "train_loss", "val_acc",
        "test_acc", "initial_val_acc", "initial_test_acc", "final_val_acc", "final_test_acc",
        "best_val_epoch", "epochs_run", "notes",
    }
    COMM_KEYS = {
        "feature_dim", "per_part_remote", "per_part_remote_after", "per_worker_remote",
        "per_worker_remote_after", "remote_without", "remote_with", "bytes_without", "bytes_with",
    }
    PARTITION_KEYS = {"k", "epsilon", "edge_cut", "restarts_used", "assignment"}

    def test_eleven_workers(self, dataset, tmp_path):
        # per-worker keys are strings, written in lexicographic order: "10" before "2"
        part, aug, out = tmp_path / "p.json", tmp_path / "a.json", tmp_path / "r.json"
        assert run(["partition", dataset, "--k", "11", "--epsilon", "0.3", "--seed", "4",
                    "--out", part]) == 0
        assert run(["augment", dataset, "--partition", part, "--seed", "4", "--layers", "2",
                    "--out", aug]) == 0
        assert run(["train", dataset, "--augmented", aug, "--layers", "2", "--hidden", "8",
                    "--epochs", "1", "--workers", "11", "--seed", "4", "--out", out]) == 0
        assert set(json.loads(part.read_text())) == self.PARTITION_KEYS
        report = json.loads(out.read_text())   # keys in the file's order
        assert set(report) == self.REPORT_KEYS
        assert set(report["comm"]) == self.COMM_KEYS
        assert set(report["config"]) == {f.name for f in fields(Config)}
        assert report["evaluation"] == "centralized_full_graph"
        workers = sorted(map(str, set(report["worker_of"])))
        assert len(workers) == 11 and workers[2] == "10"
        for key in ("per_worker_remote", "per_worker_remote_after"):
            assert list(report["comm"][key]) == workers
        assert sum(report["comm"]["per_worker_remote"].values()) == report["comm"]["remote_without"]


class TestReportCmd:
    def _train_two(self, dataset, tmp_path):
        part = tmp_path / "p.json"
        aug = tmp_path / "a.json"
        run(["partition", dataset, "--k", "2", "--epsilon", "0.3", "--seed", "3", "--out", part])
        run(["augment", dataset, "--partition", part, "--seed", "3", "--layers", "2", "--out", aug])
        reports = []
        for name, flag in (("w", "--weighted"), ("p", "--no-weighted")):
            out = tmp_path / f"{name}.json"
            run(["train", dataset, "--augmented", aug, "--layers", "2", "--hidden", "8",
                 "--eta", "0.001", "--epochs", "2", "--workers", "2", "--seed", "3",
                 flag, "--out", out])
            reports.append(out)
        return reports

    def test_single_report_row(self, dataset, tmp_path, capsys):
        r = self._train_two(dataset, tmp_path)[0]
        capsys.readouterr()
        assert run(["report", r]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2   # header + one row

    def test_delta_column_for_weighted_pair(self, dataset, tmp_path, capsys):
        ra, rb = self._train_two(dataset, tmp_path)
        assert run(["report", ra, rb, "--csv", tmp_path / "t.csv"]) == 0
        out = capsys.readouterr().out
        assert "delta(final_test_acc)" in out
        header = (tmp_path / "t.csv").read_text().splitlines()[0]
        assert "comm_reduction" in header

    def test_report_not_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "r.json"
        bad.write_text("{not json")
        capsys.readouterr()
        assert run(["report", bad]) == 1
        err = capsys.readouterr().err
        assert f"gad: error: {bad}: not valid JSON" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["[1, 2]", '{"config": 3}'], ids=["list", "config_int"])
    def test_report_malformed_exit_1(self, tmp_path, capsys, text):
        bad = tmp_path / "r.json"
        bad.write_text(text)
        capsys.readouterr()
        assert run(["report", bad]) == 1
        err = capsys.readouterr().err
        assert f"gad: error: {bad}: malformed content" in err
        assert "Traceback" not in err

    def test_comm_reduction_arithmetic(self, dataset, tmp_path, capsys):
        r = self._train_two(dataset, tmp_path)[0]
        rep = json.loads(r.read_text())
        run(["report", r, "--csv", tmp_path / "one.csv"])
        import csv as csvmod

        with open(tmp_path / "one.csv") as fh:
            row = next(csvmod.DictReader(fh))
        without = rep["comm"]["bytes_without"]
        with_ = rep["comm"]["bytes_with"]
        expect = 1 - with_ / without if without else 0.0
        assert float(row["comm_reduction"]) == pytest.approx(expect)


class TestConfigRoundTrip:
    def test_report_config_reruns_identically(self, dataset, tmp_path):
        part = tmp_path / "p.json"
        aug = tmp_path / "a.json"
        rep1 = tmp_path / "r1.json"
        run(["partition", dataset, "--k", "2", "--epsilon", "0.3", "--seed", "9", "--out", part])
        run(["augment", dataset, "--partition", part, "--seed", "9", "--layers", "2", "--out", aug])
        run(["train", dataset, "--augmented", aug, "--layers", "2", "--hidden", "8",
             "--eta", "0.001", "--epochs", "3", "--workers", "2", "--seed", "9", "--out", rep1])
        # rerun purely from the echoed config
        echoed = json.loads(rep1.read_text())["config"]
        cfg_file = tmp_path / "echo.json"
        cfg_file.write_text(json.dumps(echoed))
        rep2 = tmp_path / "r2.json"
        assert run(["train", "--config", cfg_file, "--augmented", aug, "--out", rep2]) == 0
        assert rep1.read_bytes() == rep2.read_bytes()


class TestConfigPrecedence:
    def test_flag_overrides_file(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "epsilon": 0.3}))
        out = tmp_path / "p.json"
        assert run(["partition", dataset, "--config", cfg, "--k", "3",
                    "--seed", "1", "--out", out]) == 0
        assert json.loads(out.read_text())["k"] == 3

    def test_integer_for_a_float_knob_is_written_as_a_float(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "epsilon": 1, "alpha": 1}))
        part, aug = tmp_path / "p.json", tmp_path / "a.json"
        assert run(["partition", dataset, "--config", cfg, "--seed", "1", "--out", part]) == 0
        assert run(["augment", dataset, "--config", cfg, "--partition", part, "--seed", "1",
                    "--out", aug]) == 0
        written = json.loads(part.read_text())
        assert json.dumps(written, sort_keys=True) == json.dumps(
            json.loads(aug.read_text())["partition"], sort_keys=True)
        assert type(written["epsilon"]) is float
        assert type(json.loads(aug.read_text())["alpha"]) is float

    def test_unknown_config_key_exit_1(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "typo_key": 1}))
        assert run(["partition", dataset, "--config", cfg,
                    "--out", tmp_path / "p.json"]) == 1

    def test_invalid_value_exit_1(self, dataset, tmp_path):
        assert run(["partition", dataset, "--k", "0", "--out", tmp_path / "p.json"]) == 1

    @pytest.mark.parametrize(
        "key, value",
        [("consensus", "per_epoch"), ("feature_norm", "l1"), ("zeta_distance", "l2"),
         ("loss_reduction", "sum"), ("loss_scale", "population"),
         ("target_subgraph_nodes", 100)],
    )
    def test_removed_recipe_keys_exit_1(self, dataset, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(["partition", dataset, "--config", cfg, "--out", tmp_path / "p.json"]) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_removed_target_subgraph_nodes_flag_exit_1(self, dataset, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["partition", dataset, "--target-subgraph-nodes", "20", "--out", tmp_path / "p.json"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --target-subgraph-nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("text, detail", [
        ("[2]", "malformed content"),
        ('{"k": "two"}', "config key 'k' has the wrong type"),
        ('{"k": 2.5}', "config key 'k' has the wrong type"),
        ('{"epochs": "3"}', "config key 'epochs' has the wrong type"),
        ('{"alpha": "x"}', "config key 'alpha' has the wrong type"),
        ('{"split": "abc"}', "config key 'split' has the wrong type"),
        ('{"weighted": "no"}', "config key 'weighted' has the wrong type"),
        ('{"seed": 1.5}', "config key 'seed' has the wrong type"),
    ], ids=["list", "k_str", "k_float", "epochs_str", "alpha_str", "split_str",
            "weighted_str", "seed_float"])
    def test_config_wrong_type_exit_1(self, dataset, tmp_path, capsys, text, detail):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        capsys.readouterr()
        assert run(["partition", dataset, "--config", cfg, "--out", tmp_path / "p.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gad: error: ") and err.count("\n") == 1
        assert detail in err
        assert "Traceback" not in err

    def test_importance_mode_other_than_indicator_exit_1(self, dataset, tmp_path, capsys):
        part = tmp_path / "p.json"
        run(["partition", dataset, "--k", "2", "--seed", "1", "--out", part])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"importance_mode": "multiplicity"}))
        capsys.readouterr()
        assert run(["augment", dataset, "--config", cfg, "--partition", part,
                    "--out", tmp_path / "a.json"]) == 1
        assert capsys.readouterr().err == "gad: error: importance_mode must be 'indicator'\n"
        assert not (tmp_path / "a.json").exists()
        with pytest.raises(SystemExit) as exc:
            run(["augment", dataset, "--partition", part, "--importance-mode", "indicator"])
        assert exc.value.code == 1

    def test_config_not_json_exit_1(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("k = 2\n")
        assert run(["partition", dataset, "--config", cfg, "--out", tmp_path / "p.json"]) == 1
        err = capsys.readouterr().err
        assert f"gad: error: {cfg}: not valid JSON" in err
        assert "Traceback" not in err


class TestOptions:
    # every stage's options as its --help lists them; --augment is the one
    # spelling the config-field rule added
    DATASET = ["--config", "--edges", "--features", "--help", "--seed", "--split"]
    OPTIONS = {
        "partition": DATASET + ["--epsilon", "--k", "--out", "--restarts", "--target-fraction"],
        "augment": DATASET + ["--alpha", "--augment", "--err-target", "--layers", "--no-augment",
                              "--out", "--partition", "--z-c"],
        "train": DATASET + ["--augmented", "--beta", "--curves", "--epochs", "--eta",
                            "--eval-every", "--hidden", "--layers", "--no-weighted", "--out",
                            "--pair-cap", "--timing-out", "--weighted", "--workers"],
        "report": ["--csv", "--help"],
    }

    @pytest.mark.parametrize("stage", sorted(OPTIONS))
    def test_help_lists_the_options(self, stage, capsys):
        with pytest.raises(SystemExit) as exc:
            run([stage, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == set(self.OPTIONS[stage])

    def test_flags_take_the_field_types(self, dataset, tmp_path):
        # --k 3 is an int, --epsilon a float, and a config file's value yields to a flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.3, "split": [0.5, 0.2, 0.3]}))
        out = tmp_path / "p.json"
        assert run(["partition", dataset, "--config", cfg, "--k", "3", "--epsilon", "0.25",
                    "--split", "0.6", "0.2", "0.2", "--seed", "1", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["k"] == 3 and payload["epsilon"] == 0.25
        with pytest.raises(SystemExit):
            run(["partition", dataset, "--k", "2.5", "--out", out])

    def test_last_boolean_flag_wins(self, dataset, tmp_path):
        part = tmp_path / "p.json"
        run(["partition", dataset, "--k", "2", "--seed", "1", "--out", part])
        enabled = []
        for flags in (["--no-augment", "--augment"], ["--augment", "--no-augment"], []):
            out = tmp_path / "a.json"
            assert run(["augment", dataset, "--partition", part, "--seed", "1", *flags,
                        "--out", out]) == 0
            enabled.append(json.loads(out.read_text())["augment_enabled"])
        assert enabled == [True, False, True]
        aug = out   # the last one, augmented by default
        weighted = []
        for flags in (["--weighted", "--no-weighted"], ["--no-weighted", "--weighted"]):
            out = tmp_path / "r.json"
            assert run(["train", dataset, "--augmented", aug, "--layers", "2", "--hidden", "8",
                        "--epochs", "1", "--workers", "2", "--seed", "1", *flags,
                        "--out", out]) == 0
            weighted.append(json.loads(out.read_text())["config"]["weighted"])
        assert weighted == [False, True]


def test_console_script_installed(capsys):
    """The `gad` console script declared in pyproject.toml resolves to
    gad.cli.main and runs; where an installed `gad` executable is on PATH,
    its metadata and behaviour must agree with the declaration."""
    import importlib
    import shutil
    import subprocess
    from importlib.metadata import entry_points
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "gad" in scripts, "pyproject.toml declares no `gad` console script"
    target = scripts["gad"]

    module_name, _, attr = target.partition(":")
    entry = importlib.import_module(module_name)
    for part in attr.split("."):
        entry = getattr(entry, part)
    assert callable(entry)
    assert entry is main

    # The generated wrapper does `sys.exit(main())`; --help must exit 0.
    with pytest.raises(SystemExit) as exc_info:
        entry(["--help"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gad ")

    exe = shutil.which("gad")
    if exe is not None:
        installed = {ep.name: ep.value for ep in entry_points(group="console_scripts")}
        assert installed.get("gad") == target
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
