"""Recompute the recorded output fingerprints for a range of seeds.

    python3 perfbench/record_fingerprints.py 0 20

Rewrites perfbench/fingerprints.json for demo-solve (sha256 of solutions.csv
and selected.json) and resnet50-enumerate (sha256 of the sorted solution keys
at both budgets). Only a change that is meant to alter those outputs should
rerun it, and it should say why.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    first, stop = int(sys.argv[1]), int(sys.argv[2])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import DemoSolve, FINGERPRINTS, ResnetEnumerate

    table = {}
    for cls in (DemoSolve, ResnetEnumerate):
        for seed in range(first, stop):
            workdir = os.path.join(ROOT, ".perfbench", "work", "fingerprint-%s-%d" % (cls.name, seed))
            wl = cls(workdir, seed)
            wl.known = None
            try:
                wl.generate()
                wl.prepare()
                failed = sum(wl.run_pass().failed for _ in range(cls.cycle))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if failed:
                sys.exit("%s seed %d failed: %s" % (cls.name, seed, wl.failures))
            table.setdefault(cls.name, {})[str(seed)] = wl.fingerprint
            print(cls.name, seed, wl.fingerprint, flush=True)
    with open(FINGERPRINTS, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
