"""Set-up cost of one chemocert run, measured from outside by the benchmark.

Usage::

    python3 perfbench/setup_child.py CONFIG

Imports chemocert, loads CONFIG and builds the initial state, then exits. It
prints one JSON line with the library versions and the imported package's
path, so the benchmark can record them and check that the checkout's own
source was imported.
"""

from __future__ import annotations

import json
import sys

import numpy
import scipy

import chemocert
from chemocert.config import load_config
from chemocert.model import initial_state


def main(argv: list[str]) -> int:
    cfg = load_config(argv[0])
    initial_state(cfg.build_initial_family().base())
    print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                      "chemocert_file": chemocert.__file__}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
