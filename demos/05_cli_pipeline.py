"""The staged command-line pipeline, end to end.

Writes a small citation-style dataset, then drives
``gad partition -> augment -> train -> report`` the same way a shell user
would, and shows that rerunning a stage reproduces its artifact byte for
byte.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from gad.synthetic import write_citation_benchmark


def gad(*args):
    cmd = [sys.executable, "-m", "gad.cli", *map(str, args)]
    print("$ gad " + " ".join(map(str, args)))
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    print(out.stdout.rstrip())
    return out


with tempfile.TemporaryDirectory(prefix="gad_cli_") as tmp:
    work = Path(tmp)
    data = work / "data"
    write_citation_benchmark(data, seed=1, class_sizes=(40, 30, 30),
                             num_edges=260, feature_dim=48,
                             words_per_class=10, mean_words=8.0)
    print(f"dataset in {data}")

    part = work / "partition.json"
    aug = work / "augmented.json"
    gad("partition", data, "--k", 3, "--epsilon", "0.2", "--seed", 4, "--out", part)
    gad("augment", data, "--partition", part, "--layers", 2, "--alpha", "0.2",
        "--seed", 4, "--out", aug)

    reports = []
    for name, flag in (("weighted", "--weighted"), ("plain", "--no-weighted")):
        rep = work / f"report_{name}.json"
        gad("train", data, "--augmented", aug, "--layers", 2, "--hidden", 16,
            "--eta", "0.001", "--epochs", 30, "--workers", 2, "--seed", 4,
            flag, "--out", rep)
        reports.append(rep)

    gad("report", *reports, "--csv", work / "table.csv")

    part2 = work / "partition_rerun.json"
    gad("partition", data, "--k", 3, "--epsilon", "0.2", "--seed", 4, "--out", part2)
    same = part.read_bytes() == part2.read_bytes()
    print(f"rerun artifact byte-identical: {same}")
