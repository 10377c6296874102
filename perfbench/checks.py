"""Output checks for benchmark operations.

Each checker takes an operation's output directory and returns a list of
problems; an empty list means the outputs are correct. Checkers stop at
the first broken record, so a corrupted file is reported quickly.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

CATEGORIES = ("PeakInit", "PeakMul", "PeakLate", "MonDec", "MonIncr", "Oth")
CLASSIFY_OUTPUTS = ("labels.csv", "census.json")
ANALYZE_OUTPUTS = (
    "belts.csv",
    "buckets.csv",
    "confusion.csv",
    "degrees.csv",
    "flows.csv",
    "peakstats.json",
    "selfcite_timing.csv",
    "shells.csv",
    "venue.csv",
)


def output_files(out: Path) -> list[Path]:
    """Every output file under ``out`` except the manifests, which embed input paths."""
    return sorted(p for p in out.rglob("*") if p.is_file() and p.name != "manifest.json")


def digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in output_files(out)
    }


def check_simulation(out: Path, replicas: int, papers_per_replica: int) -> list[str]:
    """Structural checks of ``simulate`` outputs against the growth config."""
    nodes: dict[tuple[int, str], list] = {}  # (replica, id) -> [year, in_degree, edges in]
    with open(out / "nodes.jsonl") as fh:
        for line_no, line in enumerate(fh, 1):
            rec = json.loads(line)
            key = (rec["replica"], rec["id"])
            if key in nodes:
                return [f"nodes.jsonl:{line_no}: duplicate node {key}"]
            if rec["category"] not in CATEGORIES:
                return [f"nodes.jsonl:{line_no}: unknown category {rec['category']!r}"]
            nodes[key] = [rec["year"], rec["in_degree"], 0]
    if len(nodes) != replicas * papers_per_replica:
        return [f"nodes.jsonl: {len(nodes)} nodes, expected {replicas} x {papers_per_replica}"]
    seen: set[tuple[int, str, str]] = set()
    with open(out / "edges.jsonl") as fh:
        for line_no, line in enumerate(fh, 1):
            rec = json.loads(line)
            replica = rec["replica"]
            citing = nodes.get((replica, rec["citing"]))
            cited = nodes.get((replica, rec["cited"]))
            if citing is None or cited is None:
                return [f"edges.jsonl:{line_no}: endpoint missing from replica {replica}"]
            key = (replica, rec["citing"], rec["cited"])
            if key in seen:
                return [f"edges.jsonl:{line_no}: duplicate edge {key}"]
            seen.add(key)
            if not citing[0] > cited[0] or rec["year"] != citing[0]:
                return [f"edges.jsonl:{line_no}: citing year {citing[0]} vs cited {cited[0]}"]
            cited[2] += 1
    for key, (_, in_degree, edges_in) in nodes.items():
        if in_degree != edges_in:
            return [f"nodes.jsonl: {key} in_degree {in_degree} but {edges_in} edges in"]
    with open(out / "profiles.csv", newline="") as fh:
        belt_categories = {row["category"] for row in csv.DictReader(fh)}
    if belt_categories != set(CATEGORIES):
        return [f"profiles.csv: categories {sorted(belt_categories)}"]
    return []


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def check_corpus_analysis(out: Path, papers: int) -> list[str]:
    """Structural checks of ``classify`` + ``analyze`` outputs for a corpus of ``papers``."""
    cls, ana = out / "classify", out / "analyze"
    missing = [f"classify/{n}" for n in CLASSIFY_OUTPUTS if not (cls / n).is_file()]
    missing += [f"analyze/{n}" for n in ANALYZE_OUTPUTS if not (ana / n).is_file()]
    if missing:
        return [f"missing outputs: {missing}"]
    census = json.loads((cls / "census.json").read_text())
    if census["n_classified"] + census["n_ineligible"] != papers:
        return [f"census.json: classified + ineligible != {papers} papers"]
    if sum(census["counts"].values()) != census["n_classified"]:
        return ["census.json: category counts do not sum to n_classified"]
    with open(cls / "labels.csv", newline="") as fh:
        labels = [row["category"] for row in csv.DictReader(fh)]
    label_counts = {c: labels.count(c) for c in CATEGORIES}
    if label_counts != census["counts"]:
        return [f"labels.csv counts {label_counts} != census {census['counts']}"]
    if count_lines(ana / "shells.csv") != papers + 1:
        return [f"shells.csv: expected one row per paper ({papers})"]
    window_totals: dict[str, int] = {}
    with open(ana / "flows.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            window_totals[row["window"]] = window_totals.get(row["window"], 0) + int(row["count"])
    if len(set(window_totals.values())) != 1:
        return [f"flows.csv: windows do not conserve papers: {window_totals}"]
    return []
