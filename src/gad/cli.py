"""Staged command-line driver: gad partition | augment | train | report.

Each stage reads the previous stage's JSON artifact and writes its own, so
stages can be rerun and inspected independently.  All randomness flows from
--seed through fixed per-stage stream derivation; rerunning a stage with
identical inputs writes byte-identical files.  Exit codes: 0 ok, 1 user
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import rngs
from .augment import AugmentedSubgraph, augment_partitions, augment_subgraph
from .config import Config
from .errors import GadError, NumericalError
from .graph import Graph, load_dataset
from .partition import (
    Partitioning,
    balance_cap,
    json_array,
    json_checked,
    partition_graph,
)
from .training import train


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


@contextmanager
def _reading(path):
    """Report a file that is not JSON, lacks a key, holds a value of the
    wrong type or fails a check as a GadError naming it."""
    try:
        yield
    except GadError as exc:
        raise GadError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise GadError(f"{path}: not valid JSON ({exc})") from None
    except KeyError as exc:
        raise GadError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise GadError(f"{path}: malformed content ({exc})") from None


def _find_dataset(cfg: Config) -> tuple[str, str]:
    """Resolve (edge_path, feature_path) from explicit paths or a directory."""
    if cfg.edges and cfg.features:
        return cfg.edges, cfg.features
    if not cfg.data_dir:
        raise GadError("provide a data directory or --edges/--features paths")
    d = Path(cfg.data_dir)
    contents = sorted(d.glob("*.content"))
    cites = sorted(d.glob("*.cites"))
    if contents and cites:
        return str(cites[0]), str(contents[0])
    edges = d / "edges.txt"
    feats = d / "features.txt"
    if edges.exists() and feats.exists():
        return str(edges), str(feats)
    raise GadError(f"no dataset found in {d} (need *.content/*.cites or edges.txt/features.txt)")


def _load_graph(cfg: Config) -> Graph:
    edge_path, feature_path = _find_dataset(cfg)
    split_seed = int(rngs.stream(cfg.seed, rngs.SPLIT).integers(2**31))
    return load_dataset(edge_path, feature_path, cfg.split, split_seed)


_DEFAULTS = {f.name: f.default for f in fields(Config)}


def _config_from_args(args) -> Config:
    overrides = {k: v for k, v in vars(args).items() if k in _DEFAULTS}
    overrides["data_dir"] = args.data
    file_dict = None
    if args.config:
        with _reading(args.config), open(args.config, "r", encoding="utf-8") as fh:
            file_dict = json_checked(json.load(fh), "config", (dict,))
    return Config.from_sources(file_dict, overrides)


def _add_stage(sub, name: str, summary: str, func, *knobs: str) -> argparse.ArgumentParser:
    """The stage's subparser, with the dataset arguments and one flag per
    :class:`Config` field in ``knobs``: ``--field-name``, of the field
    default's type, three floats for ``split``, ``--x``/``--no-x`` for a
    boolean.  An absent flag leaves its field to the config file or default."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(func=func)
    p.add_argument("data", nargs="?", help="dataset directory")
    p.add_argument("--config", help="JSON config file (flags override it)")
    for knob in ("edges", "features", "seed", "split") + knobs:
        flag, default = "--" + knob.replace("_", "-"), _DEFAULTS[knob]
        if isinstance(default, bool):
            p.add_argument(flag, action=argparse.BooleanOptionalAction)
        elif isinstance(default, tuple):
            p.add_argument(flag, nargs=3, type=float, metavar=("TRAIN", "VAL", "TEST"))
        else:
            p.add_argument(flag, type=str if default is None else type(default))
    return p


def cmd_partition(args) -> int:
    cfg = _config_from_args(args)
    g = _load_graph(cfg)
    part = partition_graph(
        g, cfg.k, epsilon=cfg.epsilon, restarts=cfg.restarts,
        seed=cfg.seed, target_fraction=cfg.target_fraction,
    )
    out = Path(args.out)
    _write_json(out, part.to_json_dict())
    if g.node_names is not None:
        _write_json(out.with_suffix(".node_ids.json"), {"node_ids": list(g.node_names)})
    sizes = part.part_sizes()
    cap = balance_cap(g.num_nodes, cfg.k, cfg.epsilon)
    summary = {
        "k": cfg.k,
        "edge_cut": part.edge_cut,
        "restarts_used": part.restarts_used,
        "max_part_size": int(sizes.max()),
        "balance_cap": cap,
        "part_sizes": sizes.tolist(),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_augment(args) -> int:
    cfg = _config_from_args(args)
    g = _load_graph(cfg)
    with _reading(args.partition), open(args.partition, "r", encoding="utf-8") as fh:
        part = Partitioning.from_json_dict(json.load(fh))
    if len(part.assignment) != g.num_nodes:
        raise GadError("partition file does not match the dataset")
    records = augment_partitions(
        g, part, layers=cfg.layers, alpha=cfg.alpha, seed=cfg.seed,
        z_c=cfg.z_c, err_target=cfg.err_target, enabled=cfg.augment,
    )
    payload = {
        "partition": part.to_json_dict(),
        "layers": cfg.layers,
        "alpha": cfg.alpha,
        "seed": cfg.seed,
        "augment_enabled": cfg.augment,
        "partitions": [
            {
                "part": rec.subgraph.part,
                "nodes": rec.subgraph.view.local_ids.tolist(),
                "owned": rec.subgraph.view.owned.astype(int).tolist(),
                "edges": rec.subgraph.view.edge_list_global().tolist(),
                "replicas": rec.subgraph.view.replica_ids.tolist(),
                "budget": rec.subgraph.budget,
                "shortfall": rec.subgraph.shortfall,
                "walks": rec.table.total_walks,
                "importance": {
                    str(c): float(v)
                    for c, v in zip(rec.table.candidates, rec.table.importance)
                },
            }
            for rec in records
        ],
    }
    _write_json(args.out, payload)
    total = sum(len(e["replicas"]) for e in payload["partitions"])
    print(json.dumps({"k": part.k, "total_replicas": total, "alpha": cfg.alpha}, sort_keys=True))
    return 0


def _rebuild_augmented(g: Graph, path) -> tuple[Partitioning, list[AugmentedSubgraph]]:
    """Each part rebuilt from the partition record's owned nodes and the
    entry's replicas, and checked against the entry's nodes, owned flags and
    edge count.  The entries must hold each part id 0..k-1 once."""
    with _reading(path), open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
        part = Partitioning.from_json_dict(payload["partition"])
        entries = [(
            json_checked(e["part"], "part"),
            json_array(e["replicas"], "replicas"),
            json_checked(e["budget"], "budget"),
            json_checked(e.get("shortfall", 0), "shortfall"),
            json_array(e["nodes"], "nodes"),
            json_array(e["owned"], "owned", (int, bool)),
            len(e["edges"]),
        ) for e in payload["partitions"]]
        if len(part.assignment) != g.num_nodes:
            raise GadError("augmented file does not match the dataset (assignment length)")
        if sorted(e[0] for e in entries) != list(range(part.k)):
            raise GadError(f"the entries must hold each part id 0..{part.k - 1} once")
        augmented = []
        for p, replicas, budget, shortfall, nodes, owned, num_edges in entries:
            aug = augment_subgraph(g, part.part_nodes(p), replicas, p, budget, shortfall)
            for what, same in (("nodes", np.array_equal(nodes, aug.view.local_ids)),
                               ("owned flags", np.array_equal(owned, aug.view.owned)),
                               ("edges", num_edges == aug.view.num_edges)):
                if not same:
                    raise GadError(f"part {p} {what} do not match the partition and replicas")
            augmented.append(aug)
    return part, augmented


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    g = _load_graph(cfg)
    part, augmented = _rebuild_augmented(g, args.augmented)
    try:
        report = train(g, part, augmented, cfg.workers, cfg)
    except NumericalError as exc:
        partial = getattr(exc, "partial_report", None)
        if partial is not None:
            partial.notes.append(f"aborted: {exc}")
            _write_json(args.out, partial.to_json_dict())
        print(f"gad train: numerical failure: {exc}", file=sys.stderr)
        return 2
    _write_json(args.out, report.to_json_dict())
    if args.timing_out:
        _write_json(args.timing_out, {"epoch_seconds": report.epoch_seconds})
    if args.curves:
        with open(args.curves, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch", "train_loss", "val_acc", "test_acc"])
            for e in range(report.epochs_run):
                w.writerow([e, report.train_loss[e], report.val_acc[e], report.test_acc[e]])
    print(
        json.dumps(
            {
                "final_test_acc": report.final_test_acc,
                "final_val_acc": report.final_val_acc,
                "comm_bytes_with": report.comm.bytes_with,
                "comm_bytes_without": report.comm.bytes_without,
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_report(args) -> int:
    rows = []
    for path in args.reports:
        with _reading(path), open(path, "r", encoding="utf-8") as fh:
            rep = json.load(fh)
            config = rep["config"]
            comm = rep.get("comm") or {}
            without = comm.get("bytes_without", 0)
            with_ = comm.get("bytes_with", 0)
            rows.append(
                {
                    "report": Path(path).stem,
                    "weighted": config.get("weighted"),
                    "augment": config.get("augment"),
                    "epochs": rep.get("epochs_run"),
                    "final_test_acc": rep.get("final_test_acc"),
                    "final_val_acc": rep.get("final_val_acc"),
                    "best_val_epoch": rep.get("best_val_epoch"),
                    "comm_bytes_with": with_,
                    "comm_bytes_without": without,
                    "comm_reduction": (1.0 - with_ / without) if without else 0.0,
                }
            )
    cols = list(rows[0].keys())
    widths = {
        c: max(len(c), *(len(_fmt(r[c])) for r in rows)) for c in cols
    }
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(_fmt(r[c]).ljust(widths[c]) for c in cols))
    if len(rows) == 2:
        a, b = rows
        diff_keys = {
            k for k in ("weighted", "augment") if a[k] != b[k]
        }
        if diff_keys:
            delta = (b["final_test_acc"] or 0.0) - (a["final_test_acc"] or 0.0)
            print(f"delta(final_test_acc) [{'/'.join(sorted(diff_keys))}]: {delta:+.4f}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols)
            w.writeheader()
            w.writerows(rows)
    return 0


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gad", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pp = _add_stage(sub, "partition", "balanced multilevel partitioning", cmd_partition,
                    "k", "epsilon", "restarts", "target_fraction")
    pp.add_argument("--out", default="partition.json")

    pa = _add_stage(sub, "augment", "replicate important halo nodes", cmd_augment,
                    "layers", "alpha", "z_c", "err_target", "augment")
    pa.add_argument("--partition", required=True)
    pa.add_argument("--out", default="augmented.json")

    pt = _add_stage(sub, "train", "simulated multi-worker training", cmd_train,
                    "layers", "hidden", "eta", "epochs", "eval_every", "workers", "beta",
                    "pair_cap", "weighted")
    pt.add_argument("--augmented", required=True)
    pt.add_argument("--out", default="report.json")
    pt.add_argument("--timing-out")
    pt.add_argument("--curves", help="per-epoch CSV")

    pr = sub.add_parser("report", help="tabulate one or more training reports")
    pr.add_argument("reports", nargs="+")
    pr.add_argument("--csv")
    pr.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GadError, FileNotFoundError) as exc:
        print(f"gad: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
