"""Record the corpus-analyze reference: corpus properties and output digests per seed.

    python3 perfbench/record.py FIRST_SEED LAST_SEED

Runs one untimed ``classify`` + ``analyze`` operation per seed, checks
its outputs structurally, and stores into ``reference.json`` the output
digests (which ``run.py`` then requires for that seed) and the corpus
properties: papers, edges, self-citation edges, eligible share, census,
and the share of eligible papers above the ``Oth`` citation threshold.
Re-record only when a change to citeprof alters these outputs on purpose.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys

import checks
import run

OTH_THRESHOLD = 10  # ClassifierConfig.oth_citation_threshold


def record(seed: int, launcher: run.Launcher) -> dict:
    work = run.WORK / f"record-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = run.prepare("corpus-analyze", seed, work)
    wl.reference = None
    op = run.run_op(wl, launcher, work / "stderr.log")
    problems = op.problems or wl.verify(wl.out)
    if problems:
        raise run.BenchError(f"seed {seed}: {problems}")
    census = json.loads((wl.out / "classify" / "census.json").read_text())
    with open(wl.out / "classify" / "labels.csv", newline="") as fh:
        totals = [int(row["total_citations_10y"]) for row in csv.DictReader(fh)]
    eligible = census["n_classified"]
    properties = dict(wl.properties)
    properties["eligible_share"] = round(eligible / wl.papers, 6)
    properties["census"] = census["counts"]
    properties["oth_share"] = round(census["counts"]["Oth"] / eligible, 6)
    properties["above_oth_threshold_share"] = round(
        sum(1 for t in totals if t > OTH_THRESHOLD) / eligible, 6)
    entry = {"properties": properties, "digests": checks.digests(wl.out)}
    shutil.rmtree(work)
    return entry


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    launcher = run.Launcher(dict(os.environ, PYTHONPATH=str(run.SRC)))
    try:
        for seed in range(first, last + 1):
            entry = record(seed, launcher)
            reference = json.loads(run.REFERENCE.read_text())
            reference.setdefault("corpus-analyze", {})[str(seed)] = entry
            run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"seed {seed}: {json.dumps(entry['properties'], sort_keys=True)}", flush=True)
    finally:
        launcher.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
