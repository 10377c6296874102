"""Command-line entry point for reproducible classification, simulation
and analysis runs.

Exit codes: 0 ok, 2 usage/config error, 3 missing data capability,
4 internal error. Every run writes a ``manifest.json`` with the resolved
configuration, input digests, seed and output list; re-running with the
same manifest configuration reproduces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__, growth, netanalysis, report
from .ingest import IngestError, build_graph, extract_series, parse_dataset
from .profiles import (
    CATEGORIES,
    ClassifierConfig,
    ProfileCategory,
    category_from_label,
    census_to_json,
    classify_corpus,
    labels_to_csv_rows,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_DATA = 3
EXIT_INTERNAL = 4

ANALYSES = ("buckets", "venue", "selfcite", "stability", "kshell", "peakstats", "belts", "degrees")

# Rows converted to Python objects at a time when writing simulation output.
WRITE_CHUNK = 4096
CATEGORY_JSON = [json.dumps(c.value) for c in CATEGORIES]  # indexed by category code


class UsageError(Exception):
    pass


class MissingDataError(Exception):
    pass


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(
    out_dir: Path,
    command: str,
    config: dict,
    inputs: Sequence[Path],
    seed,
    outputs: Sequence[str],
) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "seed": seed,
        "tool_version": __version__,
        "outputs": sorted(outputs),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow(row)


def _apply_overrides(config: dict, overrides: Sequence[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise UsageError(f"--set path {key!r} crosses a non-object value")
        node[parts[-1]] = value
    return config


def _load_json_config(path: str | None, overrides: Sequence[str]) -> dict:
    config: dict = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise UsageError(f"config not found: {path}")
        try:
            config = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {path}: malformed JSON: {exc}") from exc
    return _apply_overrides(config, overrides)


def _classifier_config(config: dict) -> ClassifierConfig:
    kwargs = {
        k: config[k]
        for k in (
            "min_history_years",
            "max_window_years",
            "oth_citation_threshold",
            "smoothing_window",
            "peak_height_fraction",
            "peak_min_separation",
            "early_peak_bound",
        )
        if k in config
    }
    try:
        return ClassifierConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_records(path: str, fmt: str | None):
    p = Path(path)
    if not p.exists():
        raise UsageError(f"input not found: {path}")
    if fmt is None:
        fmt = "csv" if p.suffix == ".csv" else "jsonl"
    with open(p, "rb") as fh:
        return parse_dataset(fh, format=fmt)


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    config = _load_json_config(args.config, args.set or [])
    cfg = _classifier_config(config)
    records, ingest_report = _load_records(args.input, args.format)
    graph = build_graph(records, strict_chronology=args.strict_chronology)
    corpus = classify_corpus(graph, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "labels.csv", labels_to_csv_rows(corpus))
    (out / "census.json").write_text(census_to_json(corpus) + "\n")
    resolved = {
        "classifier": vars(cfg) | {},
        "strict_chronology": args.strict_chronology,
        "ingest": {
            "n_records": ingest_report.n_records,
            "n_rejected": ingest_report.n_rejected,
            "reject_reasons": ingest_report.reject_reasons,
            "dangling_references_dropped": graph.dangling_dropped,
        },
    }
    _write_manifest(
        out, "classify", resolved, [Path(args.input)], None, ["labels.csv", "census.json"]
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _parse_dist(raw, path: str) -> growth.EmpiricalDist:
    if isinstance(raw, dict) and "geometric" in raw:
        spec = raw["geometric"]
        try:
            return growth.geometric_ref_dist(
                mean=_config_float(spec.get("mean", 8), f"{path}.geometric.mean"),
                max_value=_config_int(
                    spec.get("max_value", 100), f"{path}.geometric.max_value"
                ),
            )
        except ValueError as exc:
            raise growth.GrowthConfigError(f"{path}.geometric", str(exc)) from exc
    if isinstance(raw, dict):
        pairs = sorted(
            (_config_int(k, f"{path}.{k}"), _config_float(v, f"{path}.{k}"))
            for k, v in raw.items()
        )
    elif isinstance(raw, list):
        pairs = list(_config_pairs(raw, path))
    else:
        raise growth.GrowthConfigError(path, f"unsupported distribution spec: {raw!r}")
    try:
        return growth.EmpiricalDist(
            values=tuple(v for v, _ in pairs), probs=tuple(p for _, p in pairs)
        )
    except ValueError as exc:
        raise growth.GrowthConfigError(path, str(exc)) from exc


def _config_int(value, path: str) -> int:
    """``value`` as an int; anything else with no integer value is a config error."""
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise growth.GrowthConfigError(path, f"expected an integer, got {value!r}") from None


def _config_float(value, path: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise growth.GrowthConfigError(path, f"expected a number, got {value!r}") from None


def _config_pairs(raw, path: str):
    """(value, probability) from each [value, probability] entry of a list."""
    if not isinstance(raw, list):
        raise growth.GrowthConfigError(path, "expected a list of [value, probability] pairs")
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != 2:
            raise growth.GrowthConfigError(
                f"{path}[{i}]", f"expected [value, probability], got {entry!r}"
            )
        yield entry[0], _config_float(entry[1], f"{path}[{i}]")


def _config_category(label, path: str) -> ProfileCategory:
    try:
        return category_from_label(label)
    except ValueError as exc:
        raise growth.GrowthConfigError(path, str(exc)) from exc


def _parse_peak_dist(raw: dict) -> dict:
    out = {}
    for name, spec in raw.items():
        path = f"peak_time_dist.{name}"
        cat = _config_category(name, path)
        values, probs = [], []
        for value, prob in _config_pairs(spec, path):
            values.append(tuple(value) if isinstance(value, list) else value)
            probs.append(prob)
        try:
            out[cat] = growth.EmpiricalDist(values=tuple(values), probs=tuple(probs))
        except ValueError as exc:
            raise growth.GrowthConfigError(path, str(exc)) from exc
    return out


def load_growth_config(
    config: dict, seed_override: int | None = None
) -> tuple[growth.GrowthInputs, growth.GrowthParams]:
    """Build validated growth inputs/params from the JSON config schema."""
    if "pub_dist" not in config:
        raise growth.GrowthConfigError("pub_dist", "missing")
    if not isinstance(config["pub_dist"], dict):
        raise growth.GrowthConfigError("pub_dist", "expected an object of year: count")
    pub_dist = {
        _config_int(y, f"pub_dist.{y}"): _config_int(n, f"pub_dist.{y}")
        for y, n in config["pub_dist"].items()
    }
    if "ref_dist" not in config:
        raise growth.GrowthConfigError("ref_dist", "missing")
    ref_dist = _parse_dist(config["ref_dist"], "ref_dist")

    rho = dict(growth.DEFAULT_RHO)
    for name, value in (config.get("rho") or {}).items():
        rho[_config_category(name, f"rho.{name}")] = _config_float(value, f"rho.{name}")
    tau = dict(growth.DEFAULT_TAU)
    for name, value in (config.get("tau") or {}).items():
        tau[_config_category(name, f"tau.{name}")] = _config_int(value, f"tau.{name}")
    if seed_override is not None:
        seed = seed_override
    else:
        seed = _config_int(config.get("seed", 0), "seed")
    params = growth.GrowthParams(
        rho=rho,
        tau=tau,
        replicas=_config_int(config.get("replicas", 100), "replicas"),
        rng_seed=seed,
    )

    peak_dist = _parse_peak_dist(config.get("peak_time_dist") or {})

    raw_boot = config.get("bootstrap")
    if not raw_boot:
        raise growth.GrowthConfigError("bootstrap", "missing")
    if "synthetic" in raw_boot:
        spec = raw_boot["synthetic"]
        path = "bootstrap.synthetic"
        fractions = {
            _config_category(name, f"{path}.fractions.{name}"): _config_float(
                v, f"{path}.fractions.{name}"
            )
            for name, v in spec.get("fractions", {}).items()
        } or growth.PAPER_CATEGORY_FRACTIONS
        default_start = min(pub_dist) - 6 if pub_dist else 1970
        bootstrap = growth.synthetic_bootstrap(
            n=_config_int(spec.get("n", 600), f"{path}.n"),
            fractions=fractions,
            start_year=_config_int(spec.get("start_year", default_start), f"{path}.start_year"),
            n_years=_config_int(spec.get("n_years", 6), f"{path}.n_years"),
            refs_mean=_config_int(spec.get("refs_mean", 3), f"{path}.refs_mean"),
            rng=np.random.default_rng(_config_int(spec.get("seed", seed), f"{path}.seed")),
        )
    elif "records" in raw_boot:
        records = raw_boot["records"]
        if not isinstance(records, list):
            raise growth.GrowthConfigError("bootstrap.records", "expected a list of objects")
        nodes = []
        edges = []
        ids = set()
        for i, rec in enumerate(records):
            path = f"bootstrap.records[{i}]"
            if not isinstance(rec, dict):
                raise growth.GrowthConfigError(path, "expected an object")
            for key in ("id", "year", "category"):
                if key not in rec:
                    raise growth.GrowthConfigError(f"{path}.{key}", "missing")
            pid = rec["id"]
            if not isinstance(pid, str) or not pid:
                raise growth.GrowthConfigError(
                    f"{path}.id", f"expected a non-empty string, got {pid!r}"
                )
            if growth.is_generated_id(pid):
                raise growth.GrowthConfigError(
                    f"{path}.id", f"{pid!r} has the form s<year>_<index> of a generated paper"
                )
            refs = rec.get("references", [])
            if not isinstance(refs, list) or not all(isinstance(r, str) for r in refs):
                raise growth.GrowthConfigError(f"{path}.references", "expected a list of ids")
            nodes.append(
                (
                    pid,
                    _config_int(rec["year"], f"{path}.year"),
                    _config_category(rec["category"], f"{path}.category"),
                )
            )
            ids.add(pid)
        for rec in records:
            for ref in rec.get("references", []):
                if ref in ids:
                    edges.append((rec["id"], ref))
        bootstrap = growth.BootstrapGraph(nodes=tuple(nodes), edges=tuple(edges))
    else:
        raise growth.GrowthConfigError("bootstrap", "expected 'synthetic' or 'records'")

    inputs = growth.GrowthInputs(
        pub_dist=pub_dist, ref_dist=ref_dist, bootstrap=bootstrap, peak_time_dist=peak_dist
    )
    return inputs, params


def _write_replica(nodes_fh, edges_fh, ri: int, replica: growth.ReplicaResult) -> None:
    """Append one replica's nodes.jsonl and edges.jsonl lines.

    Each line is what json.dumps(row, sort_keys=True) gives, formatted
    directly: keys in sorted order, ids (always strings) encoded once.
    Arrays become Python ints WRITE_CHUNK rows at a time, so a replica's
    lines never exist all at once.
    """
    ids = [json.dumps(pid) for pid in replica.paper_ids]
    in_degrees = replica.in_degrees()
    for start in range(0, len(ids), WRITE_CHUNK):
        chunk = slice(start, start + WRITE_CHUNK)
        nodes_fh.writelines(
            f'{{"category": {CATEGORY_JSON[code]}, "id": {pid}, "in_degree": {k}, '
            f'"replica": {ri}, "year": {year}}}\n'
            for pid, code, k, year in zip(
                ids[chunk],
                replica.category[chunk].tolist(),
                in_degrees[chunk].tolist(),
                replica.birth[chunk].tolist(),
            )
        )
    for start in range(0, len(replica.edges), WRITE_CHUNK):
        citing, cited, year = replica.edges[start : start + WRITE_CHUNK].T.tolist()
        edges_fh.writelines(
            f'{{"cited": {ids[v]}, "citing": {ids[u]}, "replica": {ri}, "year": {y}}}\n'
            for u, v, y in zip(citing, cited, year)
        )


def cmd_simulate(args) -> int:
    config = _load_json_config(args.config, args.set or [])
    inputs, params = load_growth_config(config, seed_override=args.seed)
    result = growth.simulate(inputs, params, threads=args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "nodes.jsonl", "w") as nodes_fh, open(out / "edges.jsonl", "w") as edges_fh:
        for ri, replica in enumerate(result.replicas):
            _write_replica(nodes_fh, edges_fh, ri, replica)
    belts = report.belts_by_category(result.profiles_by_category, normalized=True)
    _write_csv(out / "profiles.csv", report.belt_csv_rows(belts))
    resolved = dict(config)
    resolved["seed"] = params.rng_seed
    resolved["replicas"] = params.replicas
    _write_manifest(
        out,
        "simulate",
        resolved,
        [Path(args.config)] if args.config else [],
        params.rng_seed,
        ["nodes.jsonl", "edges.jsonl", "profiles.csv"],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _read_labels_csv(path: Path) -> dict[str, ProfileCategory]:
    labels = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            labels[row["paper_id"]] = category_from_label(row["category"])
    return labels


def cmd_analyze(args) -> int:
    config = _load_json_config(args.config, args.set or [])
    cfg = _classifier_config(config)
    which = list(args.which) if args.which else list(ANALYSES)
    for name in which:
        if name not in ANALYSES:
            raise UsageError(f"unknown analysis: {name}")
    records, _ = _load_records(args.input, args.format)
    # Data needs are checked before any output is written.
    if "selfcite" in which and not any(r.author_ids for r in records):
        raise MissingDataError("authors")
    if args.labels and not Path(args.labels).exists():
        raise UsageError(f"labels not found: {args.labels}")
    graph = build_graph(records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.labels:
        labels = _read_labels_csv(Path(args.labels))
        corpus = None
    else:
        corpus = classify_corpus(graph, cfg)
        labels = corpus.labels

    outputs: list[str] = []

    def emit(name: str, rows) -> None:
        _write_csv(out / name, rows)
        outputs.append(name)

    series = {
        pid: extract_series(graph, pid, horizon_years=cfg.max_window_years)
        for pid in labels
    }

    if "buckets" in which:
        totals = {pid: s.total() for pid, s in series.items()}
        buckets = netanalysis.citation_bucket_histogram(labels, totals)
        rows = [["category", "bucket_lo", "bucket_hi", "probability"]]
        for cat in CATEGORIES:
            for (lo, hi), p in zip(buckets.boundaries, buckets.probabilities[cat]):
                rows.append([cat.value, lo, hi, f"{p:.8f}"])
        emit("buckets.csv", rows)
    if "venue" in which:
        table = netanalysis.venue_year_composition(labels, graph.records)
        rows = [["category", "n_papers", "mean_year", "std_year", "pct_conference", "pct_journal"]]
        for row in table:
            rows.append(
                [
                    row.category.value,
                    row.n_papers,
                    f"{row.mean_year:.4f}",
                    f"{row.std_year:.4f}",
                    f"{row.pct_conference:.4f}",
                    f"{row.pct_journal:.4f}",
                ]
            )
        emit("venue.csv", rows)
    if "selfcite" in which:
        matrices, timing = netanalysis.self_citation_confusion(graph, cfg)
        rows = [["threshold", "from", "to", "fraction"]]
        for threshold in sorted(matrices):
            m = matrices[threshold]
            for src in CATEGORIES:
                for dst in CATEGORIES:
                    rows.append([threshold, src.value, dst.value, f"{m.entry(src, dst):.8f}"])
        emit("confusion.csv", rows)
        rows = [["category", "age", "fraction"]]
        for cat in CATEGORIES:
            for age, frac in enumerate(timing[cat]):
                rows.append([cat.value, age, f"{frac:.8f}"])
        emit("selfcite_timing.csv", rows)
    if "stability" in which:
        flow = netanalysis.stability_flows(graph, cfg)
        rows = [["window", "from", "to", "count"]]
        rows.extend(flow.alluvial_rows())
        emit("flows.csv", rows)
    if "kshell" in which:
        assignment = netanalysis.kshell_decompose(graph)
        rows = [["paper_id", "shell", "broad_shell"]]
        for pid in sorted(assignment.shells):
            rows.append(
                [pid, assignment.shells[pid], assignment.broad_shells.get(pid, 0)]
            )
        emit("shells.csv", rows)
    if "peakstats" in which:
        stats = netanalysis.peakmul_statistics(labels, series, cfg)
        payload = {
            "fraction_two_peaks": stats.fraction_two_peaks,
            "mean_positions_by_rank": list(stats.mean_positions_by_rank),
            "mean_heights_by_rank": list(stats.mean_heights_by_rank),
            "single_peak_stats": {
                cat.value: {"mean_position": pos, "mean_height": height}
                for cat, (pos, height) in stats.single_peak_stats.items()
            },
        }
        (out / "peakstats.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        outputs.append("peakstats.json")
    if "belts" in which:
        by_cat: dict[ProfileCategory, list] = {c: [] for c in CATEGORIES}
        for pid, cat in labels.items():
            by_cat[cat].append(series[pid].counts)
        belts = report.belts_by_category(by_cat)
        emit("belts.csv", report.belt_csv_rows(belts))
    if "degrees" in which:
        dists = report.indegree_distribution(graph, labels)
        emit("degrees.csv", report.degree_csv_rows(dists))

    inputs = [Path(args.input)] + ([Path(args.labels)] if args.labels else [])
    _write_manifest(
        out,
        "analyze",
        {"classifier": vars(cfg) | {}, "which": sorted(which)},
        inputs,
        None,
        outputs,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--threads", type=int, default=1, help="parallelism degree")
    parser.add_argument("--format", choices=("jsonl", "csv"), default=None)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="dotted-path config override (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="citeprof")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify citation profiles of a dataset")
    p.add_argument("input", help="records file (jsonl or csv)")
    p.add_argument("--strict-chronology", action="store_true",
                   help="drop citations dated before the cited paper at ingest")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("simulate", help="run the growth model")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    for name, which in (("analyze", None), ("kshell", ["kshell"]), ("selfcite", ["selfcite"])):
        p = sub.add_parser(name, help=f"run analyses ({name})")
        p.add_argument("input", help="records file (jsonl or csv)")
        p.add_argument("--labels", default=None, help="labels CSV from `classify`")
        if which is None:
            p.add_argument("--which", nargs="+", choices=ANALYSES, default=None)
        _add_common(p)
        p.set_defaults(func=cmd_analyze, which=which)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, IngestError, growth.GrowthConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MissingDataError as exc:
        print(f"error: analysis requires missing field: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
