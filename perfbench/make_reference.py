"""Regenerate the reference digests in perfbench/reference/.

    python3 perfbench/make_reference.py

Run on a commit whose outputs are known good.  sparse-large gets references
for seed 1 (the default) and seed 2 (held out: not used while tuning, so a
later claim can be re-checked on it); the other two workloads do not depend
on the seed.  The `compute --all` probes are recorded as "OK", the correct
outcome, even where the program at hand fails them.
"""

import json
import os

import time

from run import DATA, HERE, run_worker, write_sparse_graph

REFERENCE_SEEDS = (1, 2)


def digests(workload, seed=1):
    report = run_worker(time.monotonic() + 600, workload, seed)
    if report["checks"]:
        raise SystemExit(f"{workload} seed {seed}: identity checks failed: {report['checks']}")
    return report["digests"]


def save(workload, content):
    with open(os.path.join(HERE, "reference", f"{workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(content, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main():
    os.makedirs(DATA, exist_ok=True)
    seeds = {}
    for seed in REFERENCE_SEEDS:
        write_sparse_graph(seed)
        seeds[str(seed)] = digests("sparse-large", seed)
    save("sparse-large", {"seeds": seeds})
    save("verify-wide", {"digests": digests("verify-wide")})
    catalog = digests("catalog-families")
    catalog.update({key: "OK" for key in catalog if key.startswith("probe|")})
    save("catalog-families", {"digests": catalog})


if __name__ == "__main__":
    main()
