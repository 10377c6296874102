import csv
import json

import pytest

from citeprof import growth
from citeprof.cli import EXIT_MISSING_DATA, EXIT_OK, EXIT_USAGE, load_growth_config, main
from citeprof.ingest import PaperRecord, write_jsonl
from citeprof.profiles import CATEGORIES, ProfileCategory

from conftest import FIXTURE_SERIES, corpus_from_series


@pytest.fixture()
def corpus_path(tmp_path):
    series_map = {f"fx_{cat.value}": counts for cat, counts in FIXTURE_SERIES.items()}
    records = corpus_from_series(series_map)
    path = tmp_path / "corpus.jsonl"
    with open(path, "w") as fh:
        write_jsonl(records, fh)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_classify_end_to_end(tmp_path, corpus_path):
    out = tmp_path / "out"
    assert main(["classify", str(corpus_path), "--out", str(out)]) == EXIT_OK
    labels = read_csv(out / "labels.csv")
    assert labels[0][0] == "paper_id"
    by_id = {row[0]: row[1] for row in labels[1:]}
    for cat in ProfileCategory:
        assert by_id[f"fx_{cat.value}"] == cat.value
    census = json.loads((out / "census.json").read_text())
    assert census["n_classified"] == len(labels) - 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "classify"
    assert sorted(manifest["outputs"]) == ["census.json", "labels.csv"]
    digest = next(iter(manifest["inputs"].values()))
    assert len(digest) == 64  # sha256 of the input file
    assert "timestamp" not in json.dumps(manifest)


def test_classify_set_override_changes_census(tmp_path, corpus_path):
    out = tmp_path / "strict"
    code = main(
        [
            "classify",
            str(corpus_path),
            "--out",
            str(out),
            "--set",
            "oth_citation_threshold=1000",
        ]
    )
    assert code == EXIT_OK
    census = json.loads((out / "census.json").read_text())
    assert census["counts"]["Oth"] == census["n_classified"]


def test_missing_input_is_usage_error(tmp_path):
    assert main(["classify", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)]) == EXIT_USAGE


def test_bad_set_syntax_is_usage_error(tmp_path, corpus_path):
    code = main(["classify", str(corpus_path), "--out", str(tmp_path), "--set", "oops"])
    assert code == EXIT_USAGE


def test_invalid_config_value_is_usage_error(tmp_path, corpus_path):
    code = main(
        ["classify", str(corpus_path), "--out", str(tmp_path), "--set", "smoothing_window=0"]
    )
    assert code == EXIT_USAGE


def test_analyze_produces_artifacts(tmp_path, corpus_path):
    out = tmp_path / "analysis"
    code = main(
        ["analyze", str(corpus_path), "--out", str(out), "--which", "buckets", "kshell", "degrees"]
    )
    assert code == EXIT_OK
    for name in ("buckets.csv", "shells.csv", "degrees.csv", "manifest.json"):
        assert (out / name).exists()
    assert not (out / "flows.csv").exists()


def test_kshell_alias(tmp_path, corpus_path):
    out = tmp_path / "ks"
    assert main(["kshell", str(corpus_path), "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "shells.csv")
    assert rows[0] == ["paper_id", "shell", "broad_shell"]


def test_selfcite_without_authors_is_missing_data(tmp_path, corpus_path):
    out = tmp_path / "sc"
    code = main(["selfcite", str(corpus_path), "--out", str(out)])
    assert code == EXIT_MISSING_DATA


def test_analyze_with_precomputed_labels(tmp_path, corpus_path):
    cls_out = tmp_path / "cls"
    main(["classify", str(corpus_path), "--out", str(cls_out)])
    out = tmp_path / "re"
    code = main(
        [
            "analyze",
            str(corpus_path),
            "--labels",
            str(cls_out / "labels.csv"),
            "--out",
            str(out),
            "--which",
            "venue",
        ]
    )
    assert code == EXIT_OK
    rows = read_csv(out / "venue.csv")
    assert rows[0][0] == "category"


def growth_config(tmp_path, replicas=2, seed=3):
    config = {
        "pub_dist": {str(year): 15 for year in range(1976, 1990)},
        "ref_dist": {"geometric": {"mean": 5}},
        "replicas": replicas,
        "seed": seed,
        "bootstrap": {"synthetic": {"n": 60, "seed": 1}},
    }
    path = tmp_path / "growth.json"
    path.write_text(json.dumps(config))
    return path


def test_simulate_end_to_end(tmp_path):
    config = growth_config(tmp_path)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
    nodes = [json.loads(line) for line in (out / "nodes.jsonl").read_text().splitlines()]
    assert {n["replica"] for n in nodes} == {0, 1}
    assert all(n["category"] in {c.value for c in ProfileCategory} for n in nodes)
    edges = [json.loads(line) for line in (out / "edges.jsonl").read_text().splitlines()]
    ids = {(n["replica"], n["id"]) for n in nodes}
    assert all((e["replica"], e["citing"]) in ids for e in edges)
    profiles = read_csv(out / "profiles.csv")
    assert profiles[0] == ["category", "age", "q1", "mean", "q3"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3


def test_simulate_profiles_leave_out_bootstrap_papers(tmp_path):
    # Only the bootstrap paper b0 has 10 years of history by 1980.
    config = {
        "pub_dist": {str(year): 5 for year in range(1976, 1981)},
        "ref_dist": [[1, 1.0]],
        "replicas": 1,
        "bootstrap": {
            "records": [
                {"id": "b0", "year": 1970, "category": "MonDec"},
                {"id": "b1", "year": 1975, "category": "MonDec", "references": ["b0"]},
            ]
        },
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert read_csv(out / "profiles.csv") == [["category", "age", "q1", "mean", "q3"]]


def test_simulate_missing_bootstrap_is_usage_error(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"pub_dist": {"1980": 5}, "ref_dist": {"1": 1.0}}))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_USAGE


def test_simulate_records_bootstrap(tmp_path):
    config = {
        "pub_dist": {"1976": 5, "1977": 5},
        "ref_dist": [[2, 1.0]],
        "replicas": 1,
        "bootstrap": {
            "records": [
                {"id": "b0", "year": 1970, "category": "Oth"},
                {"id": "b1", "year": 1975, "category": "PeakInit", "references": ["b0"]},
            ]
        },
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
    nodes = [json.loads(line) for line in (out / "nodes.jsonl").read_text().splitlines()]
    assert len(nodes) == 12  # 2 bootstrap + 10 simulated


def test_malformed_config_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"pub_dist": {"1980": 5},')
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    assert "malformed JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "pub_dist, field",
    [({"1980": 5, "19x1": 5}, "pub_dist.19x1"), ({"1980": "five"}, "pub_dist.1980"),
     ({"1980": 2.5}, "pub_dist.1980")],
)
def test_non_integer_pub_dist_is_usage_error(tmp_path, capsys, pub_dist, field):
    path = tmp_path / "g.json"
    config = json.loads(growth_config(tmp_path).read_text())
    path.write_text(json.dumps(config | {"pub_dist": pub_dist}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")]) == EXIT_USAGE
    assert f"error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, field",
    [
        ({"ref_dist": {"x": 1.0}}, "ref_dist.x"),
        ({"ref_dist": {"geometric": {"mean": 0.5}}}, "ref_dist.geometric"),
        ({"replicas": "two"}, "replicas"),
        ({"rho": {"MonDec": "steep"}}, "rho.MonDec"),
        ({"tau": {"Nope": 3}}, "tau.Nope"),
        ({"bootstrap": {"synthetic": {"n": "many"}}}, "bootstrap.synthetic.n"),
        ({"ref_dist": [[1]]}, "ref_dist[0]"),
        ({"peak_time_dist": {"PeakLate": [[7, 0.5], [9]]}}, "peak_time_dist.PeakLate[1]"),
        ({"bootstrap": {"records": 5}}, "bootstrap.records"),
    ],
)
def test_bad_growth_config_value_is_usage_error(tmp_path, capsys, override, field):
    path = tmp_path / "g.json"
    config = json.loads(growth_config(tmp_path).read_text())
    path.write_text(json.dumps(config | override))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")]) == EXIT_USAGE
    assert f"error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["id", "year", "category"])
def test_bootstrap_record_missing_field_is_usage_error(tmp_path, capsys, key):
    records = [
        {"id": "b0", "year": 1970, "category": "Oth"},
        {"id": "b1", "year": 1975, "category": "PeakInit", "references": ["b0"]},
    ]
    del records[1][key]
    config = {"pub_dist": {"1976": 5}, "ref_dist": [[1, 1.0]], "replicas": 1,
              "bootstrap": {"records": records}}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")]) == EXIT_USAGE
    assert f"error: bootstrap.records[1].{key}: missing" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, field",
    [
        ({"id": "s1972_00000"}, "id"),  # the id of the first paper generated in 1972
        ({"id": ["b1"]}, "id"),
        ({"id": ""}, "id"),
        ({"references": "b0"}, "references"),
        ({"references": [["b0"]]}, "references"),
    ],
)
def test_bad_bootstrap_record_is_usage_error(tmp_path, capsys, change, field):
    records = [
        {"id": "b0", "year": 1970, "category": "Oth"},
        {"id": "b1", "year": 1971, "category": "PeakInit", "references": ["b0"]} | change,
    ]
    config = {"pub_dist": {"1972": 3}, "ref_dist": [[1, 1.0]], "replicas": 1,
              "bootstrap": {"records": records}}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "s"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    assert f"error: bootstrap.records[1].{field}:" in capsys.readouterr().err
    assert not out.exists()


def json_lines_oracle(result):
    """nodes.jsonl and edges.jsonl text written row by row with json.dumps."""
    nodes, edges = [], []
    for ri, replica in enumerate(result.replicas):
        ids = replica.paper_ids
        for pid, year, code, k in zip(
            ids, replica.birth.tolist(), replica.category.tolist(), replica.in_degrees().tolist()
        ):
            row = {"replica": ri, "id": pid, "year": year, "category": CATEGORIES[code].value,
                   "in_degree": k}
            nodes.append(json.dumps(row, sort_keys=True) + "\n")
        for citing, cited, year in replica.edges.tolist():
            row = {"replica": ri, "citing": ids[citing], "cited": ids[cited], "year": year}
            edges.append(json.dumps(row, sort_keys=True) + "\n")
    return "".join(nodes), "".join(edges)


def test_simulate_lines_match_json_dumps(tmp_path):
    ids = ['q"uote', "back\\slash", "caf\u00e9", "bell\x07", "tab\tline\n", "plain"]
    records = [
        {"id": pid, "year": 1970 + i, "category": "PeakInit", "references": ids[:i]}
        for i, pid in enumerate(ids)
    ]
    config = {"pub_dist": {str(year): 8 for year in range(1976, 1980)},
              "ref_dist": {"geometric": {"mean": 3}}, "replicas": 2, "seed": 5,
              "bootstrap": {"records": records}}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
    nodes = (out / "nodes.jsonl").read_text()
    edges = (out / "edges.jsonl").read_text()
    for line in nodes.splitlines() + edges.splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True)
    written = {json.loads(line)["id"] for line in nodes.splitlines()}
    assert set(ids) <= written
    cited = {json.loads(line)["cited"] for line in edges.splitlines()}
    assert set(ids[:-1]) <= cited
    inputs, params = load_growth_config(config)
    assert (nodes, edges) == json_lines_oracle(growth.simulate(inputs, params))


def test_analyze_without_authors_writes_nothing(tmp_path, corpus_path):
    out = tmp_path / "analysis"
    out.mkdir()
    assert main(["analyze", str(corpus_path), "--out", str(out)]) == EXIT_MISSING_DATA
    assert list(out.iterdir()) == []
