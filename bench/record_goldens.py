"""Record the cli-corpus goldens: exit code and stdout hash per fixture run.

    python3 bench/record_goldens.py

Run from the repository root, on the commit whose outputs are the
reference.  The seeded runs of the corpus are checked against known
answers instead, so they are not recorded.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.CliCorpus(0, goldens_path="").record_goldens(workloads.GOLDENS)
    print(f"wrote {workloads.GOLDENS}")
