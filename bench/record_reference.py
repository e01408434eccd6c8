"""Record the IPCW IBS each workload reaches at each seed into reference.json.

The benchmark's correctness gate compares every run's IBS with the value
recorded here for its seed. Record again only when a change is meant to
alter model behaviour, and say so in that change. From the repository root:

    python3 bench/record_reference.py --workloads cli-functional,mar-sweep --seeds 0-39
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="cli-functional,mar-sweep,cli-cohort")
    p.add_argument("--seeds", default="0-39", help="inclusive range lo-hi")
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    run.load_package()
    import workloads

    path = run.BENCH / "reference.json"
    ref = json.loads(path.read_text())
    for name in args.workloads.split(","):
        for seed in range(lo, hi + 1):
            workdir = run.WORK / ("%s-s%d" % (name, seed))
            workdir.mkdir(parents=True, exist_ok=True)
            workload = workloads.make(name, seed, str(workdir))
            ops = workloads.Ops()
            workload.setup(ops)
            result = workload.iterate()
            errors = ops.errors + result["ops"].errors
            if errors:
                sys.exit("%s seed %d failed: %s" % (name, seed, errors))
            ref["ibs"].setdefault(name, {})[str(seed)] = result["ibs"]
            path.write_text(json.dumps(ref, sort_keys=True, indent=1) + "\n")
            print(name, seed, result["ibs"], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
