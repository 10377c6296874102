"""Traced pass: one citeprof CLI invocation in-process, with spans around
the public functions of every layer module.

    python perfbench/traced_cli.py TRACE.json -- <citeprof argv...>

Each public function of ``citeprof.ingest``, ``profiles``, ``growth``,
``netanalysis``, ``report`` and ``cli`` (plus the method
``ReplicaResult.citation_series``) is replaced by a wrapper under every
``citeprof.*`` module attribute that points at it, so bindings made at
import time (``cli.build_graph``, ``netanalysis.classify_corpus``) are
traced too. The originals are restored afterwards.

Spans are aggregated in memory per (function, parent function) into
call count, total time and self time (total minus child spans), because
the hot functions run hundreds of thousands of times. Data counters are
read from the return values at the same boundaries. Work done inside
worker processes of ``growth.simulate`` is not collected. The trace is
written as JSON when the command ends; the exit code is the command's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("ingest", "profiles", "growth", "netanalysis", "report", "cli")


def _count_parse(c, result, args):
    _, report = result
    c["ingest.records"] += report.n_records
    c["ingest.rejected"] += report.n_rejected


def _count_graph(c, graph, args):
    c["ingest.edges"] += graph.n_edges


def _count_corpus(c, corpus, args):
    c["profiles.classified"] += len(corpus.results)
    c["profiles.ineligible"] += len(corpus.ineligible)


def _count_simulation(c, result, args):
    bootstrap_edges = len(args[0].bootstrap.edges)
    for replica in result.replicas:
        c["growth.papers_inserted"] += len(replica.sampled_out_degrees)
        c["growth.edges_drawn"] += len(replica.edges) - bootstrap_edges
        c["growth.refs_sampled"] += sum(replica.sampled_out_degrees)


def _count_selfcite(c, result, args):
    _, log = result
    c["netanalysis.selfcite_edges_removed"] += len(log.removed)


COUNTERS = {
    "ingest.parse_dataset": _count_parse,
    "ingest.build_graph": _count_graph,
    "profiles.classify_corpus": _count_corpus,
    "growth.simulate": _count_simulation,
    "netanalysis.strip_self_citations": _count_selfcite,
}
COUNTER_NAMES = (
    "ingest.records",
    "ingest.rejected",
    "ingest.edges",
    "profiles.classified",
    "profiles.ineligible",
    "growth.papers_inserted",
    "growth.edges_drawn",
    "growth.refs_sampled",
    "netanalysis.selfcite_edges_removed",
)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, child seconds]
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [calls, total_s, self_s]
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)

    def wrap(self, name: str, fn):
        stack, spans, counters = self.stack, self.spans, self.counters
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                agg = spans.get((name, parent))
                if agg is None:
                    agg = spans[(name, parent)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
            if count is not None:
                count(counters, result, args)
            return result

        return traced


def _targets(modules) -> dict[int, tuple[str, object]]:
    """id(original function) -> (span name, function) for every traced function."""
    targets = {}
    for layer in LAYERS:
        module = modules[f"citeprof.{layer}"]
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                targets[id(value)] = (f"{layer}.{attr}", value)
    return targets


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function under every binding; return the undo list."""
    import citeprof.cli  # noqa: F401  (imports every layer module)
    from citeprof.growth import ReplicaResult

    modules = sys.modules
    targets = _targets(modules)
    wrappers = {key: tracer.wrap(name, fn) for key, (name, fn) in targets.items()}
    undo = []
    for mod_name, module in list(modules.items()):
        if mod_name != "citeprof" and not mod_name.startswith("citeprof."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))  # ids are unique while targets holds the originals
            if wrapper is not None:
                undo.append((module, attr, value))
                setattr(module, attr, wrapper)
    method = ReplicaResult.citation_series
    undo.append((ReplicaResult, "citation_series", method))
    ReplicaResult.citation_series = tracer.wrap("growth.citation_series", method)
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced_cli.py TRACE.json -- <citeprof argv...>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    undo = install(tracer)
    try:
        import citeprof.cli

        code = citeprof.cli.main(cli_argv)
    finally:
        uninstall(undo)
    spans = [
        {"name": name, "parent": parent, "calls": calls, "total_s": total, "self_s": self_s}
        for (name, parent), (calls, total, self_s) in sorted(
            tracer.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
        )
    ]
    with open(out_path, "w") as fh:
        json.dump({"spans": spans, "counters": tracer.counters}, fh, indent=1)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
