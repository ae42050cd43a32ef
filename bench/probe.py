"""Cold start of one workload, run in a fresh interpreter.

Imports ``bifurcbox.cli`` and builds every case's inputs through the
public API (``find_group``, ``ReducedFunctional.for_group`` and, for verify
cases, ``build_laplacian``), with no search and no solve.  Prints one JSON
line with the import time, the build time and the imported file.

    python3 bench/probe.py <workload>

``bench/run.py`` launches it with ``src`` on ``PYTHONPATH``.
"""

import json
import sys
import time

from workloads import WORKLOADS


def main(workload: str) -> None:
    t0 = time.perf_counter()
    import bifurcbox.cli

    t1 = time.perf_counter()
    from bifurcbox import DomainSpec, ReducedFunctional, build_laplacian, find_group

    for case in WORKLOADS[workload]:
        domain = DomainSpec.square() if case.domain == "square" else DomainSpec.cube()
        group = find_group(domain, eigenvalue=case.lam)
        ReducedFunctional.for_group(group, domain)
        if case.grid is not None:
            build_laplacian(domain, case.grid, group)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1,
                      "cli": bifurcbox.cli.__file__}))


if __name__ == "__main__":
    main(sys.argv[1])
