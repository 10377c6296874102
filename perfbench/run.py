"""citeprof benchmark: the CLI timed end to end, plus a traced pass for per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a citeprof checkout. Every operation runs the
checkout's own ``src/`` through ``python -m citeprof.cli`` as a child
process: one closed-loop client issues one operation at a time until
``--seconds`` of operation time has been measured (always at least one).
Wall time spans process start to exit; CPU time and peak RSS come from
``os.wait4`` on that child. Before every operation and after the last,
the runner times the fixed kernel in ``speedref.py``; reported times are
rescaled to reference speed by the kernel times around them, because the
host's speed drifts over minutes. Output directories are made and removed
outside the timed region. Every operation's outputs are checked: the
first structurally (and against recorded digests where the workload has
them), later ones byte for byte against the first.

With ``--trace 1`` the same loop runs, then one more operation runs
through ``traced_cli.py``, which wraps every public function of the six
layer modules; its outputs must match the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md for
the workloads and for which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import corpus
import speedref
import traced_cli

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_REPEATS = 3  # before every operation and after the last
CHILD_TIMEOUT_S = 150.0
MIB = float(1 << 20)

# Growth configuration of tests/conftest.py::desk_scale_config; the
# workload seed goes to --seed, the bootstrap keeps its own seed.
SIM_YEARS = range(1976, 2006)
BOOTSTRAP = {"synthetic": {"n": 600, "seed": 42, "start_year": 1970, "n_years": 6, "refs_mean": 3}}
SIMULATIONS = {
    "simulate-desk": {"per_year": 100, "replicas": 20, "threads": 2},
    "simulate-large": {"per_year": 1000, "replicas": 1, "threads": 1},
}
WORKLOADS = (*SIMULATIONS, "corpus-analyze")

END_TO_END = {
    "wall_s": "s",
    "edges_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "output_mb": "MiB",
    "setup_s": "s",
}
SPAN_CALLS = (
    "ingest.build_graph",
    "ingest.extract_series",
    "profiles.classify_corpus",
    "profiles.classify",
    "growth.simulate_replica",
    "growth.simulate_step",
    "growth.citation_series",
)
SPAN_SELF = (
    "ingest.parse_dataset",
    "ingest.build_graph",
    "ingest.extract_series",
    "profiles.classify_corpus",
    "profiles.classify",
    "growth.simulate",
    "growth.simulate_replica",
    "growth.simulate_step",
    "growth.citation_series",
    "netanalysis.self_citation_confusion",
    "netanalysis.strip_self_citations",
    "netanalysis.stability_flows",
    "netanalysis.kshell_decompose",
    "netanalysis.citation_bucket_histogram",
    "netanalysis.venue_year_composition",
    "netanalysis.peakmul_statistics",
    "report.belts_by_category",
    "report.citation_belt",
    "report.indegree_distribution",
    "cli.cmd_simulate",
    "cli.cmd_classify",
    "cli.cmd_analyze",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


class Launcher:
    """Client of launcher.py, which starts every timed process (see there why)."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")], env=env, cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], log: Path) -> Proc:
        request = {"cmd": cmd, "log": str(log), "timeout_s": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the launcher process exited")
        return Proc(**json.loads(reply))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@dataclass
class Workload:
    name: str
    seed: int
    invocations: list[list[str]]  # citeprof argv, one per process of an operation
    out: Path
    edges: int = 0  # edges produced (simulate) or ingested (corpus)
    papers: int = 0
    replicas: int = 0
    reference: dict | None = None  # recorded digests and corpus properties for the seed
    properties: dict = field(default_factory=dict)

    def verify(self, out: Path) -> list[str]:
        if self.name in SIMULATIONS:
            return checks.check_simulation(out, self.replicas, self.papers)
        problems = checks.check_corpus_analysis(out, self.papers)
        if not problems and self.reference is not None:
            if checks.digests(out) != self.reference["digests"]:
                problems.append(f"digests differ from reference.json for seed {self.seed}")
        return problems


def prepare(name: str, seed: int, work: Path) -> Workload:
    out = work / "out"
    if name in SIMULATIONS:
        sim = SIMULATIONS[name]
        config = {
            "pub_dist": {str(y): sim["per_year"] for y in SIM_YEARS},
            "ref_dist": {"geometric": {"mean": 8}},
            "replicas": sim["replicas"],
            "seed": 7,
            "bootstrap": BOOTSTRAP,
        }
        path = work / "growth.json"
        path.write_text(json.dumps(config, indent=1) + "\n")
        argv = ["simulate", "--config", str(path), "--threads", str(sim["threads"]),
                "--seed", str(seed), "--out", str(out)]
        return Workload(name, seed, [argv], out, replicas=sim["replicas"],
                        papers=BOOTSTRAP["synthetic"]["n"] + sim["per_year"] * len(SIM_YEARS))
    records, properties = corpus.generate(seed)
    path = work / "corpus.jsonl"
    corpus.write_jsonl(records, path)
    reference = json.loads(REFERENCE.read_text()).get(name, {}).get(str(seed))
    invocations = [
        ["classify", str(path), "--out", str(out / "classify")],
        ["analyze", str(path), "--labels", str(out / "classify" / "labels.csv"),
         "--out", str(out / "analyze")],
    ]
    return Workload(name, seed, invocations, out, edges=properties["edges"],
                    papers=properties["papers"], reference=reference, properties=properties)


@dataclass
class Op:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    output_mb: float = 0.0
    problems: list[str] = field(default_factory=list)


def run_op(wl: Workload, launcher: Launcher, log: Path, traced: list[Path] | None = None) -> Op:
    """One operation: every invocation of the workload, in order, into a fresh output dir."""
    shutil.rmtree(wl.out, ignore_errors=True)
    wl.out.mkdir(parents=True)
    op = Op()
    for i, argv in enumerate(wl.invocations):
        if traced is None:
            cmd = [sys.executable, "-m", "citeprof.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(traced[i]), "--", *argv]
        proc = launcher.run(cmd, log)
        op.wall_s += proc.wall_s
        op.cpu_s += proc.cpu_s
        op.peak_rss_mb = max(op.peak_rss_mb, proc.peak_rss_mb)
        if proc.returncode != 0:
            op.problems.append(f"citeprof {argv[0]} exited {proc.returncode}; see {log}")
            return op
    op.output_mb = sum(p.stat().st_size for p in checks.output_files(wl.out)) / MIB
    return op


def self_check(wl: Workload, first: dict[str, str]) -> list[str]:
    """Corrupt one output of a checked operation; both checks must reject it."""
    if wl.name in SIMULATIONS:
        path = wl.out / "edges.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        edge = json.loads(lines[0])
        edge["citing"], edge["cited"] = edge["cited"], edge["citing"]
        lines[0] = json.dumps(edge, sort_keys=True) + "\n"
        path.write_text("".join(lines))
    else:
        path = wl.out / "classify" / "census.json"
        census = json.loads(path.read_text())
        census["counts"]["Oth"] += 1
        path.write_text(json.dumps(census, sort_keys=True, indent=2) + "\n")
    problems = []
    if checks.digests(wl.out) == first:
        problems.append("self-check: a corrupted output kept its digests")
    if not wl.verify(wl.out):
        problems.append(f"self-check: a corrupted {path.name} passed the output checks")
    return problems


def environment(env: dict) -> dict:
    probe = (
        "import json, os, sys, numpy, citeprof; print(json.dumps({'citeprof': citeprof.__file__,"
        " 'python': sys.version.split()[0], 'numpy': numpy.__version__, 'nproc': os.cpu_count()}))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"cannot import citeprof from {SRC}: {done.stderr.strip()}")
    info = json.loads(done.stdout)
    if not Path(info["citeprof"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"citeprof imported from {info['citeprof']}, not from {SRC}")
    info["citeprof"] = str(Path(info["citeprof"]).relative_to(ROOT))
    info["git_sha"] = info["dirty"] = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True)
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.strip()
            info["dirty"] = bool(status.stdout.strip())
    return info


def layer_metrics(traces: list[Path], traced_wall: float, overhead_ratio: float) -> dict:
    """Per-layer metrics from the traces of one traced operation."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters = dict.fromkeys(traced_cli.COUNTER_NAMES, 0)
    root_s = 0.0
    for path in filter(Path.exists, traces):  # a crashed traced process writes none
        trace = json.loads(path.read_text())
        for span in trace["spans"]:
            calls[span["name"]] = calls.get(span["name"], 0) + span["calls"]
            self_s[span["name"]] = self_s.get(span["name"], 0.0) + span["self_s"]
            if span["parent"] is None:
                root_s += span["total_s"]
        for name, value in trace["counters"].items():
            counters[name] += value
    metrics = {f"{n}.calls": (calls.get(n, 0), "count") for n in SPAN_CALLS}
    metrics |= {f"{n}.self_s": (self_s.get(n, 0.0), "s") for n in SPAN_SELF}
    metrics |= {n: (v, "count") for n, v in counters.items()}
    refs = counters["growth.refs_sampled"]
    metrics["growth.refs_realized_ratio"] = (
        counters["growth.edges_drawn"] / refs if refs else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (overhead_ratio - 1.0, "ratio")
    metrics["trace.wall_s"] = (traced_wall, "s")
    # Share of the traced wall time inside spans; the rest is interpreter
    # start, imports and exit. Self times of all spans sum to the root spans.
    metrics["trace.spanned_frac"] = (root_s / traced_wall, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "citeprof" / "cli.py").is_file():
        raise BenchError(f"no citeprof source at {SRC}; run from the root of a checkout")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "stderr.log"
    info = environment(env)
    launcher = Launcher(env)
    try:
        return measure(args, work, log, info, launcher)
    finally:
        launcher.close()


def measure(args, work: Path, log: Path, info: dict, launcher: Launcher) -> int:
    version = [sys.executable, "-m", "citeprof.cli", "--version"]
    setups: list[tuple[float, int]] = []  # (wall seconds, index of the speed timing after it)
    refs: list[float] = []  # reference-kernel seconds, before every operation and after the last

    def calibrate() -> None:
        for _ in range(SETUP_REPEATS):
            proc = launcher.run(version, log)
            if proc.returncode != 0:
                raise BenchError(f"citeprof --version failed; see {log}")
            setups.append((proc.wall_s, len(refs)))
        refs.append(speedref.measure())

    wl = prepare(args.workload, args.seed, work)
    ops: list[Op] = []
    first: dict[str, str] | None = None
    problems: list[str] = []
    while not ops or sum(op.wall_s for op in ops) < args.seconds:
        calibrate()
        op = run_op(wl, launcher, log)
        if not op.problems:
            if first is None:
                op.problems = wl.verify(wl.out)
                if not op.problems:
                    first = checks.digests(wl.out)
                    if wl.name in SIMULATIONS:
                        wl.edges = checks.count_lines(wl.out / "edges.jsonl")
                    problems += self_check(wl, first)
            elif checks.digests(wl.out) != first:
                op.problems.append("outputs differ from the first operation of this run")
        ops.append(op)
    calibrate()
    # Times are rescaled to reference speed: REF_S over the mean kernel time around the operation.
    scales = [speedref.REF_S * 2 / (refs[i] + refs[i + 1]) for i in range(len(ops))]
    wall = [op.wall_s * k for op, k in zip(ops, scales)]

    per_layer = None
    if args.trace:
        traces = [work / f"trace-{i}.json" for i in range(len(wl.invocations))]
        traced = run_op(wl, launcher, log, traced=traces)
        if not traced.problems and (first is None or checks.digests(wl.out) != first):
            traced.problems.append("traced outputs differ from the untraced ones")
        refs.append(speedref.measure())
        traced_wall = traced.wall_s * speedref.REF_S * 2 / (refs[-2] + refs[-1])
        per_layer = layer_metrics(traces, traced.wall_s, traced_wall / statistics.median(wall))
    shutil.rmtree(wl.out, ignore_errors=True)
    for path in work.glob("*.jsonl"):
        path.unlink()  # the generated corpus

    every_op = ops + ([traced] if args.trace else [])
    failed = sum(1 for op in every_op if op.problems)
    for i, op in enumerate(every_op):
        problems += [f"operation {i}: {p}" for p in op.problems]
    e2e = {
        "wall_s": statistics.median(wall),
        "edges_per_s": statistics.median(wl.edges / w for w in wall),
        "cpu_s": statistics.median(op.cpu_s * k for op, k in zip(ops, scales)),
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in ops),
        "output_mb": statistics.median(op.output_mb for op in ops),
        "setup_s": statistics.median(w * speedref.REF_S / refs[j] for w, j in setups),
    }
    raw = {
        "wall_s": statistics.median(op.wall_s for op in ops),
        "cpu_s": statistics.median(op.cpu_s for op in ops),
        "setup_s": statistics.median(w for w, _ in setups),
    }
    print(f"environment {json.dumps(info, sort_keys=True)}")
    if wl.properties:
        print(f"corpus {json.dumps(wl.properties, sort_keys=True)}"
              + ("" if wl.reference else f" (no recorded digests for seed {args.seed})"))
    print(f"{args.workload} seed {args.seed}: {len(ops)} timed operations, {len(setups)} setups,"
          f" {failed} of {len(every_op)} operations failed")
    print(f"  reference kernel s: {' '.join(f'{r:.3f}' for r in refs)}")
    print(f"  operation wall_s:   {' '.join(f'{op.wall_s:.3f}' for op in every_op)} (as measured)")
    for name, unit in END_TO_END.items():
        samples = len(setups) if name == "setup_s" else len(ops)
        note = f", {raw[name]:.4f} as measured" if name in raw else ""
        print(f"  {name:<12} {e2e[name]:>14.4f} {unit:<4} median of {samples}{note}")
    print(f"  {'failed_frac':<12} {failed / len(every_op):>14.4f} {'1':<4} {failed} of {len(every_op)}")
    if per_layer:
        for name, (value, unit) in per_layer.items():
            print(f"  {name:<45} {value:>14.4f} {unit}")
    for problem in problems:
        print(f"FAILED {problem}")

    metrics = per_layer if per_layer else {n: (e2e[n], u) for n, u in END_TO_END.items()}
    result = {
        "correct": not problems,
        "attempted": len(every_op),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
