"""perfbench: host-time benchmark of the reproduction's experiments.

Times the paper's Figure 6 sweep, its Figure 12b type-scaling study and
cold/warm ``repro all`` runs end to end (wall, set-up, CPU, peak RSS)
and, in a separate traced run, layer by layer.  See ``README.md`` for
the workloads, the metrics and how to compare two commits.

The package only builds and calls the public simulator API; it changes
nothing under ``src/``.
"""
from pathlib import Path

#: repository root (the directory holding ``BENCHMARK.json``)
ROOT = Path(__file__).resolve().parent.parent
#: the simulator's source tree, put on ``sys.path`` by ``__main__``
SRC = ROOT / "src"
#: scratch space for stores, temp files and trace dumps (git-ignored)
OUT = Path(__file__).resolve().parent / "out"
