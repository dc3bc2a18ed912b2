"""Which public ``repro`` functions form each layer, and the metrics traced.

:func:`install` wraps every function below with a span named after its
layer; :func:`layer_metrics` turns the recorded spans into the per-layer
metrics that BENCHMARK.json lists under ``per_layer``.  Self times of all
layers plus ``runner.self_s`` add up to ``trace.wall_s``; a layer the
workload never reaches reports 0.
"""

from __future__ import annotations

import importlib

from perfbench.tracing import END, NAME, START, ReturnHook, Tracer
from perfbench.workloads import EXPERIMENTS

PACKAGE = "repro"

#: (span name, module, function or ``Class.method``).  A method is wrapped
#: on its class and on every loaded subclass that overrides it.
FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.network", "NetworkSimulator.run"),
    ("sim.run", "repro.sim.batched", "BatchedSimulator.run"),
    ("sim.run", "repro.sim.batched", "BatchedSimulator.run_closed_loop"),
    ("sim.assemble", "repro.experiments.common", "build_synthetic_sim"),
    ("sim.stats", "repro.sim.stats", "SimStats.summary"),
    ("workloads.generate", "repro.workloads.motif", "Motif.generate"),
    ("workloads.run_motif", "repro.workloads.runner", "run_motif"),
    ("workloads.run_collective", "repro.workloads.collectives", "run_collective"),
    ("graphs.bfs", "repro.graphs.bfs", "bfs_distances"),
    ("graphs.bfs", "repro.graphs.bfs", "distance_matrix"),
    ("graphs.bfs", "repro.graphs.bfs", "distance_profile"),
    ("graphs.metrics", "repro.graphs.metrics", "diameter"),
    ("graphs.metrics", "repro.graphs.metrics", "average_distance"),
    ("graphs.metrics", "repro.graphs.metrics", "girth"),
    ("graphs.failures", "repro.graphs.failures", "resilience_trials"),
    ("graphs.failures", "repro.graphs.failures", "delete_random_edges"),
    ("partition.bisection", "repro.partition.multilevel", "bisection_bandwidth"),
    ("spectral.eigen", "repro.spectral.eigen", "mu1"),
    ("spectral.eigen", "repro.spectral.eigen", "lambda_g"),
    ("spectral.eigen", "repro.spectral.eigen", "adjacency_extremes"),
    ("topology.build", "repro.topology.catalog", "build_size_class"),
    ("routing.tables", "repro.routing.tables", "RoutingTables.__init__"),
    ("store.put", "repro.utils.diskcache", "DiskCache.put"),
    ("store.get", "repro.utils.diskcache", "DiskCache.get"),
)

#: Span names of the layers, in FUNCTIONS order; each has a ``<name>_s``
#: self-time metric.  With ``runner.self_s`` they partition the traced wall.
LAYER_SPANS: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in FUNCTIONS))

#: Modules imported before wrapping, so every alias exists to be rebound.
PRELOAD = ("repro", "repro.workloads", "repro.experiments.common")

#: Root span of the traced pass, and the prefix of per-experiment spans;
#: both are runner time, not a layer.
ROOT = "runner"
EXPERIMENT_SPAN = "experiments."

#: Layer spans whose outermost-call count is a metric of its own.
_CALL_COUNTS = {
    "sim.run": "sim.run_calls",
    "graphs.bfs": "graphs.bfs_calls",
    "partition.bisection": "partition.bisection_calls",
    "spectral.eigen": "spectral.eigen_calls",
    "topology.build": "topology.build_calls",
    "store.put": "store.puts",
}


def install(tracer: Tracer, on_generate: ReturnHook) -> None:
    """Wrap every layer function (all aliases) and the sim-size builders.

    ``on_generate`` receives the message list of each outermost
    ``Motif.generate`` call.
    """
    for module in PRELOAD:
        importlib.import_module(module)
    hooks = {"workloads.generate": on_generate}
    for name, module, qualname in FUNCTIONS:
        owner = importlib.import_module(module)
        cls, _, attr = qualname.rpartition(".")
        if cls:
            tracer.wrap_method(getattr(owner, cls), attr, name, hooks.get(name))
        else:
            tracer.wrap_function(getattr(owner, attr), name, PACKAGE, hooks.get(name))
    from repro.topology import SIM_CONFIGS

    for config in SIM_CONFIGS.values():
        for spec in config["topologies"].values():
            tracer.wrap_item(spec, "build", "topology.build")


def layer_metrics(tracer: Tracer, delivered: int, injected: int, messages: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (store/process/trace.* excluded).

    ``delivered`` and ``injected`` are the packets of every simulation
    summary, ``messages`` the messages every motif generated.
    """
    names = tracer.by_name()
    out: dict[str, float] = {}
    for span in LAYER_SPANS:
        out[f"{span}_s"] = names.get(span, {}).get("self_s", 0.0)
    for span, metric in _CALL_COUNTS.items():
        out[metric] = names.get(span, {}).get("calls", 0)
    out["sim.packets_delivered"] = delivered
    out["sim.packets_per_s"] = delivered / out["sim.run_s"] if out["sim.run_s"] > 0 else 0.0
    out["sim.delivered_ratio"] = delivered / injected if injected else 0.0
    out["workloads.messages"] = messages
    out["runner.self_s"] = sum(v["self_s"] for k, v in names.items()
                               if k == ROOT or k.startswith(EXPERIMENT_SPAN))
    walls = {name: 0.0 for name in EXPERIMENTS}
    for span in tracer.spans:
        if span[NAME].startswith(EXPERIMENT_SPAN):
            walls[span[NAME][len(EXPERIMENT_SPAN):]] += span[END] - span[START]
    for name, wall in walls.items():
        out[f"experiments.{name}.wall_s"] = wall
    out["trace.wall_s"] = sum(s[END] - s[START] for s in tracer.spans if s[NAME] == ROOT)
    return out
