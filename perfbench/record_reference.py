"""Record the reference value of each qtilde-ladder point in ``reference.json``.

    python3 perfbench/record_reference.py

Every seed presents the same instance of each ladder point (see
``workloads.Draws``), so one solve per point, at seed 0, gives the reference
that every run checks to ``REFERENCE_RTOL`` (relative).  That tolerance also
covers the ~1e-7 relative drift between BLAS thread counts.  Re-record after
changing how the ladder's inputs are drawn.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    import workloads

    values = {item.name: item.run()["value"] for item in workloads.qtilde_ladder(0)}
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump({"qtilde": values}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(values, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
