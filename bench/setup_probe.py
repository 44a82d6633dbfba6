"""Set-up timing in a fresh process: ``import qmixing``, then build the inputs.

    python3 bench/setup_probe.py WORKLOAD SEED

Prints one JSON line ``{"import_s": ..., "build_s": ...}``.  bench/run.py
starts it with ``src/`` on PYTHONPATH and the BLAS thread count pinned.
"""

import json
import sys
import time

start = time.perf_counter()
import qmixing  # noqa: E402,F401

imported = time.perf_counter()
import workloads  # noqa: E402

ready = time.perf_counter()
workloads.build(sys.argv[1], int(sys.argv[2]))
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "build_s": built - ready}))
