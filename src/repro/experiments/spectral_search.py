"""Spectral design-space search — searched candidates vs the catalog.

The paper's families (LPS, SlimFly) hit only a sparse lattice of
``(radix, size)`` points; the ROADMAP's last open item asks whether
*searched* graphs can fill the gaps.  Each sweep cell fixes a
``(seed_family, radix, search_budget)`` combination and

1. builds the search seed (a Jellyfish sample, or a catalog instance —
   Paley / LPS / SlimFly — at that radix),
2. refines it with degree-preserving double-edge-swap annealing
   (:mod:`repro.search.swap`) at equal ``(n, radix)``,
3. doubles it with a signing-searched 2-lift (:mod:`repro.search.lift`)
   to a ``2n`` size the algebraic families can't hit, and
4. ranks every candidate against its seed and fresh Jellyfish references
   on ``lambda(G)``, Ramanujan-bound slack, and simulated latency
   (open-loop random traffic through the same engines as Fig. 6).

Not every family exists at every radix (Paley needs ``q = 2*radix + 1``
a prime power ``= 1 (mod 4)``, etc.); infeasible combinations are skipped
and listed in the notes, so the cross-product presets stay rectangular.

Everything is seeded: the cell seed is a deterministic function of the
experiment seed and the cell axes, so re-runs reproduce candidates (and
their latency figures) bit-identically.
"""

from __future__ import annotations

import zlib

from repro.errors import ParameterError
from repro.experiments.common import ExperimentResult, run_synthetic_sim
from repro.spectral.bounds import ramanujan_bound
from repro.spectral.eigen import is_ramanujan, lambda_g, spectral_gap
from repro.topology import build_jellyfish, build_lps, build_paley, build_slimfly
from repro.topology.base import Topology
from repro.topology.searched import lifted_topology, swap_searched_topology

#: Catalog seeds per (family, radix).  ``jellyfish`` is feasible at any
#: radix (handled separately); the algebraic families only exist where
#: their number theory allows.
_CATALOG_SEEDS = {
    ("paley", 6): lambda: build_paley(13),
    ("paley", 14): lambda: build_paley(29),
    ("lps", 4): lambda: build_lps(3, 5),
    ("slimfly", 7): lambda: build_slimfly(5),
}

SEED_FAMILIES = ("jellyfish", "paley", "lps", "slimfly")


def _cell_seed(seed: int, family: str, radix: int, budget: int) -> int:
    """Deterministic per-cell RNG seed (stable across runs and processes)."""
    key = f"{family}:{radix}:{budget}".encode()
    return (int(seed) * 7_919 + zlib.crc32(key)) % (2**31 - 1)


def _seed_topology(
    family: str, radix: int, n_routers: int, cell_seed: int
) -> Topology | None:
    if family == "jellyfish":
        if radix >= n_routers or (n_routers * radix) % 2:
            return None
        return build_jellyfish(n_routers, radix, seed=cell_seed)
    builder = _CATALOG_SEEDS.get((family, radix))
    return builder() if builder else None


def _latency(topo: Topology, routing, load, concentration, packets_per_rank,
             n_ranks, cell_seed, backend) -> dict:
    ranks = min(n_ranks, topo.endpoints(concentration))
    return run_synthetic_sim(
        topo, routing, "random", load,
        concentration=concentration, n_ranks=ranks,
        packets_per_rank=packets_per_rank, seed=cell_seed, backend=backend,
    )


def run(
    seed_families: tuple[str, ...] = ("jellyfish", "paley"),
    radixes: tuple[int, ...] = (4, 6),
    budgets: tuple[int, ...] = (80, 200),
    n_routers: int = 44,
    schedule: str = "anneal",
    objective: str = "spectral_gap",
    restarts: int = 2,
    passes: int = 2,
    routing: str = "minimal",
    load: float = 0.5,
    concentration: int = 2,
    n_ranks: int = 64,
    packets_per_rank: int = 6,
    seed: int = 0,
    backend: str = "batched",
) -> ExperimentResult:
    """Sweep seed-family × radix × search-budget; rank candidates."""
    unknown = set(seed_families) - set(SEED_FAMILIES)
    if unknown:
        raise ParameterError(
            f"unknown seed families {sorted(unknown)}; options: {SEED_FAMILIES}"
        )
    rows: list[dict] = []

    def _blank_row(family, radix, budget):
        """Explicit row for an infeasible (family, radix) — no silent skips."""
        return {
            "seed_family": family, "radix": radix, "budget": budget,
            "role": "skipped", "name": f"no {family} instance at radix {radix}",
            "routers": "", "lambda": "", "spectral_gap": "",
            "ramanujan_slack": "", "is_ramanujan": "", "beats_seed": "",
            "rank": "", "mean_latency_ns": "", "max_latency_ns": "",
        }

    for family in seed_families:
        for radix in radixes:
            for budget in budgets:
                cseed = _cell_seed(seed, family, radix, budget)
                seed_topo = _seed_topology(family, radix, n_routers, cseed)
                if seed_topo is None:
                    rows.append(_blank_row(family, radix, budget))
                    continue

                swapped = swap_searched_topology(
                    seed_topo.n_routers, radix, budget=budget, seed=cseed,
                    schedule=schedule, objective=objective,
                    seed_topology=seed_topo,
                )
                # Lift the strongest n-vertex graph we have: the searched
                # candidate for random seeds, the algebraic graph itself
                # for catalog seeds (its structure is the point of lifting).
                lift_base = swapped if family == "jellyfish" else seed_topo
                lifted = lifted_topology(
                    lift_base, seed=cseed, restarts=restarts, passes=passes,
                )

                candidates = [("seed", seed_topo), ("swap", swapped),
                              ("lift", lifted)]
                if family != "jellyfish":
                    ref = build_jellyfish(
                        seed_topo.n_routers, radix, seed=cseed + 1)
                    candidates.append(("jellyfish-ref", ref))
                ref2n = build_jellyfish(
                    2 * seed_topo.n_routers, radix, seed=cseed + 2)
                candidates.append(("jellyfish-2n-ref", ref2n))

                stats = {}
                for role, topo in candidates:
                    lam = lambda_g(topo.graph)
                    stats[role] = {
                        "lambda": lam,
                        "gap": spectral_gap(topo.graph),
                        "slack": ramanujan_bound(topo.radix) - lam,
                        "ram": is_ramanujan(topo.graph),
                    }
                beats = stats["swap"]["gap"] > stats["seed"]["gap"]

                # Rank on lambda within each size level (n vs 2n).
                for level in ({"seed", "swap", "jellyfish-ref"},
                              {"lift", "jellyfish-2n-ref"}):
                    group = [r for r, _ in candidates if r in level]
                    order = sorted(group, key=lambda r: stats[r]["lambda"])
                    for r in group:
                        stats[r]["rank"] = order.index(r) + 1

                for role, topo in candidates:
                    sim = _latency(topo, routing, load, concentration,
                                   packets_per_rank, n_ranks, cseed, backend)
                    s = stats[role]
                    rows.append({
                        "seed_family": family,
                        "radix": radix,
                        "budget": budget,
                        "role": role,
                        "name": topo.name,
                        "routers": topo.n_routers,
                        "lambda": round(s["lambda"], 4),
                        "spectral_gap": round(s["gap"], 4),
                        "ramanujan_slack": round(s["slack"], 4),
                        "is_ramanujan": s["ram"],
                        "beats_seed": (beats if role == "swap" else ""),
                        "rank": s["rank"],
                        "mean_latency_ns": round(sim["mean_latency_ns"], 1),
                        "max_latency_ns": round(sim["max_latency_ns"], 1),
                    })

    notes = (
        "rank 1 = smallest lambda(G) within a cell's size level (n-vertex "
        "candidates vs each other, 2n-vertex lift vs its Jellyfish "
        "reference); ramanujan_slack = 2*sqrt(k-1) - lambda (positive = "
        "inside the bound); beats_seed marks swap candidates whose "
        "spectral gap strictly exceeds their seed's; latency via open-loop "
        f"random traffic, {routing} routing, load {load} (docs/search.md)."
    )
    return ExperimentResult(
        experiment="Spectral design-space search — swaps + 2-lifts vs the catalog",
        rows=rows,
        notes=notes,
    )


if __name__ == "__main__":
    print(run().to_text())
