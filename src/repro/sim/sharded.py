"""Process-sharded batched engine for open-loop runs at scale.

At 10^5+ routers a single cycle loop is the wall-clock bottleneck: every
cycle touches the whole waiting set even though contention is embarrassingly
parallel across routers (one winner *per output port*, and every port
belongs to exactly one router).  This module shards the
:class:`~repro.sim.batched.BatchedSimulator` cycle loop across a fork-based
process pool:

* The parent runs ``_inject()`` as usual — all per-packet state arrays
  exist before the fork, so workers inherit them copy-on-write and no
  packet state is ever serialised at startup.
* Worker ``w`` owns the contiguous router span ``[lo, hi)`` from
  :func:`repro.partition.contiguous_ranges`.  Ownership is by *current
  router*: the worker owning a packet's router runs its routing decision,
  queues it on the chosen output port, and arbitrates that port's
  contention.  Contiguity means the span's directed-edge ids are one
  contiguous block of the head-major CSR edge order, and the ejection
  ports of its routers' endpoints are contiguous too — no port is shared.
* The loop is bulk-synchronous: each cycle, every worker runs the
  single-process engine's own cycle step,
  :meth:`~repro.sim.batched.BatchedSimulator._step`, over its share of
  the waiting set (winner pick, wait accounting, eject or advance), and
  reports packets whose next router lies outside its span to the parent
  hub (full state: id, router, hops, wait, uncontested, Valiant
  intermediate, phase).  The worker itself only speaks the hub protocol:
  it applies imports, injects its sources, and splits moved packets into
  local and exported.  The hub forwards each export to its new owner for
  the next cycle, computes the global next cycle (idle-skipping exactly
  like the single-process loop), and detects termination (no queued
  packets, no pending injections, no in-flight exports anywhere).
* On stop, workers return their delivered packets' final counters; the
  parent scatters them into its own arrays and runs the inherited
  analytic ``_drain()``.
* A worker that dies mid-run surfaces as a structured
  :class:`~repro.errors.ShardWorkerError` naming the worker and its
  router span; the hub then terminates and joins every other worker.

Determinism and equivalence: each worker draws from its own
``default_rng((root, wid))`` stream, where ``root`` comes from the parent
policy RNG — a run is exactly reproducible for a fixed ``(seed,
shard_workers)`` pair, and *statistically* equivalent to (not bit-identical
with) the single-process batched engine, the same contract the batched
engine itself has against the event engine (docs/performance.md).

Capability surface: **open-loop only** (see the matrix in
:mod:`repro.sim.capabilities`).  Fault epochs, UGAL's global queue signal,
credit chains and channel draws all couple state across shard boundaries;
those scenarios stay on the ``event``/``batched`` backends.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np

from repro.errors import ShardWorkerError
from repro.partition import contiguous_ranges
from repro.sim import capabilities
from repro.sim.batched import BatchedSimulator
from repro.sim.stats import SimStats

#: Below this many packets the fork + per-cycle pipe traffic costs more
#: than it saves; the run falls through to the inherited single-process
#: cycle loop (same results contract either way).
MIN_PACKETS_TO_SHARD = 4096


class ShardedSimulator(BatchedSimulator):
    """Open-loop :class:`BatchedSimulator` sharded over a process pool.

    ``config.shard_workers`` sets the pool size; ``0``/``1`` (or too few
    packets to amortise the forks) runs the inherited single-process loop.
    """

    backend = "sharded"

    def __init__(self, topo, routing, config, tables=None, faults=None):
        if routing.name not in ("minimal", "valiant"):
            # UGAL-family policies read global queue state no shard can
            # see; the matrix names the backends that do support them.
            capabilities.require(
                "sharded", capabilities.ADAPTIVE_ROUTING,
                context=f"routing={routing.name!r}",
            )
        if faults is not None:
            capabilities.require("sharded", capabilities.FAULTS)
        super().__init__(topo, routing, config, tables=tables, faults=faults)

    # -- refused features (state couples across shard boundaries) -----------
    def set_fault_schedule(self, schedule) -> None:
        capabilities.require("sharded", capabilities.FAULTS)

    def run_closed_loop(self, messages, rank_to_ep):
        capabilities.require("sharded", capabilities.MOTIFS)

    # -- the sharded run -----------------------------------------------------
    def run(self, until=None, max_events=None) -> SimStats:
        if until is not None or max_events is not None:
            capabilities.require("sharded", capabilities.PAUSE_RESUME)
        if self.on_delivery is not None:
            capabilities.require("sharded", capabilities.DELIVERY_CALLBACKS)
        n_pkts = self._inject()
        if n_pkts == 0:
            return self.stats
        workers = int(getattr(self.config, "shard_workers", 0) or 0)
        if workers <= 1 or n_pkts < MIN_PACKETS_TO_SHARD:
            self._cycle_loop()
        else:
            self._cycle_loop_sharded(min(workers, self.n_routers))
        self._drain()
        return self.stats

    def _cycle_loop_sharded(self, workers: int) -> None:
        spans = contiguous_ranges(self.n_routers, workers)
        owner = np.repeat(
            np.arange(workers, dtype=np.int64),
            np.diff(np.array([lo for lo, _ in spans] + [self.n_routers])),
        )
        # The worker RNG root comes from the parent policy stream so runs
        # are reproducible per (seed, shard_workers).
        root = int(self.rng.integers(np.iinfo(np.int64).max))
        ctx = mp.get_context("fork")
        conns, procs = [], []

        def failed(w: int, detail: str) -> ShardWorkerError:
            procs[w].join(timeout=1.0)  # collect the exit code if it died
            return ShardWorkerError(
                w, spans[w], exitcode=procs[w].exitcode, detail=detail
            )

        def send(w: int, msg) -> None:
            try:
                conns[w].send(msg)
            except OSError as e:
                raise failed(w, f"pipe closed ({e})") from None

        def recv(w: int):
            try:
                return conns[w].recv()
            except (EOFError, OSError):
                raise failed(w, "pipe closed mid-run") from None

        try:
            for wid, (lo, hi) in enumerate(spans):
                parent_c, child_c = ctx.Pipe()
                p = ctx.Process(
                    target=self._worker_main,
                    args=(wid, lo, hi, child_c, root),
                    daemon=True,
                )
                p.start()
                child_c.close()
                conns.append(parent_c)
                procs.append(p)

            # next_local[w]: the next cycle at which worker w has work of
            # its own (queued packets or a pending injection); None = idle.
            next_local: list[int | None] = [None] * workers
            for w in range(workers):
                tag, nxt = recv(w)
                if tag != "ready":
                    raise failed(w, f"expected a ready handshake, got {tag!r}")
                next_local[w] = nxt
            imports: list[list[np.ndarray]] = [[] for _ in range(workers)]
            c = None
            while True:
                cands = [v for v in next_local if v is not None]
                if any(imports):
                    # Exports produced at cycle c arrive at cycle c + 1;
                    # they cap any idle skip.
                    cands.append(c + 1)
                if not cands:
                    break
                c = min(cands)
                for w in range(workers):
                    send(w, (c, imports[w]))
                    imports[w] = []
                for w in range(workers):
                    nxt, exports = recv(w)
                    next_local[w] = nxt
                    if exports is not None:
                        to = owner[exports[:, 1]]
                        for t in np.unique(to):
                            imports[int(t)].append(exports[to == t])

            # Gather: delivered counters + per-worker stats.
            stats = self.stats
            n_moves = 0
            max_q = 0
            for w in range(workers):
                send(w, None)  # stop
                done, hops, wait, unc, st = recv(w)
                self._hops[done] = hops
                self._wait[done] = wait
                self._uncontested[done] = unc
                n_moves += st["n_moves"]
                max_q = max(max_q, st["max_q"])
                stats.minimal_choices += st["minimal_choices"]
                stats.valiant_choices += st["valiant_choices"]
        finally:
            for conn in conns:
                conn.close()
            for p in procs:
                if p.is_alive():
                    p.terminate()
                p.join()
        n = len(self._t0)
        stats.n_events = 2 * n + n_moves
        stats.max_queue_bytes = max_q * self._size

    # -- worker side ---------------------------------------------------------
    def _worker_main(self, wid, lo, hi, conn, root) -> None:
        try:
            self._worker_loop(wid, lo, hi, conn, root)
        finally:
            conn.close()  # a crash reaches the hub as a closed pipe

    def _migrating_state(self) -> tuple[np.ndarray, ...]:
        """Per-packet arrays a packet carries when it changes shards.

        An export row is the packet id followed by these, in order.
        """
        return (
            self._cur, self._hops, self._wait, self._uncontested,
            self._inter, self._phase,
        )

    def _worker_loop(self, wid, lo, hi, conn, root) -> None:
        """One shard's cycle loop (runs in a forked child).

        Serves routers ``[lo, hi)`` with the inherited :meth:`_step`; this
        loop keeps only the hub protocol: apply imports, inject the span's
        sources, and split the moved packets into local and exported.
        """
        self.rng = np.random.default_rng((root, wid))
        self.routing.rng = self.rng
        stats = self.stats
        stats.minimal_choices = 0
        stats.valiant_choices = 0
        self._start_loop()
        ws = self._waiting

        mine = np.nonzero((self._cur >= lo) & (self._cur < hi))[0]
        order = mine[np.argsort(self._c0[mine], kind="stable")]
        c0_sorted = self._c0[order]
        inj_ptr = 0
        n_inj = len(order)
        pending = np.empty(0, dtype=np.int64)

        conn.send(("ready", int(c0_sorted[0]) if n_inj else None))
        while (msg := conn.recv()) is not None:
            c, imports = msg
            if imports:
                rows = np.concatenate(imports)
                pid = rows[:, 0]
                # The exporter's copies of these rows are authoritative;
                # ours went stale the moment the packet left our span.
                for col, arr in enumerate(self._migrating_state(), 1):
                    arr[pid] = rows[:, col]
                self._arrive(pid, c, at_source=False)
            if pending.size:
                self._arrive(pending, c, at_source=False)
            hi_p = int(np.searchsorted(c0_sorted, c, side="right"))
            if hi_p > inj_ptr:
                self._arrive(order[inj_ptr:hi_p], c, at_source=True)
                inj_ptr = hi_p

            pending = np.empty(0, dtype=np.int64)
            exports = None
            if ws.size:
                moved = self._step(c, grew=True)
                away = (self._cur[moved] < lo) | (self._cur[moved] >= hi)
                pending = moved[~away]
                exp = moved[away]
                if exp.size:
                    exports = np.stack(
                        [exp] + [a[exp] for a in self._migrating_state()],
                        axis=1,
                    )

            if ws.size or pending.size:
                nxt_c: int | None = c + 1
            elif inj_ptr < n_inj:
                nxt_c = int(c0_sorted[inj_ptr])
            else:
                nxt_c = None
            conn.send((nxt_c, exports))

        ids = np.nonzero(self._ejected)[0]
        conn.send(
            (
                ids,
                self._hops[ids],
                self._wait[ids],
                self._uncontested[ids],
                {
                    "n_moves": self._n_moves,
                    "max_q": self._max_q,
                    "minimal_choices": stats.minimal_choices,
                    "valiant_choices": stats.valiant_choices,
                },
            )
        )
