"""Cell-parallel, cache-aware execution of experiment specs.

``run_experiment`` is the one entry point: it resolves a registry name (or
:class:`ExperimentDef`) into fully-parameterized specs, serves previously
computed results straight from the content-addressed disk cache, splits
cache misses into independent cells along the experiment's declared axes,
fans the cells across a process pool, and writes every cell *and* the
merged result back to the cache.  Overlapping sweeps therefore only pay for
the cells they have not seen before.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable

from repro.errors import CellExecutionError, JobCancelledError
from repro.experiments.common import ExperimentResult
from repro.runner.registry import ExperimentDef, get_experiment
from repro.runner.spec import CellOutcome, ExperimentSpec, RunReport
from repro.utils.diskcache import DiskCache, configure_cache, get_default_cache

_RESULT_KEY = "experiment-result"

Progress = Callable[[str], None] | None

#: An event sink receives one dict per execution event (``type`` keys:
#: ``cell-start``, ``cell-result``, ``experiment-cached``).  ``cell-result``
#: events carry the cell's rows, so a sink sees results incrementally as
#: cells finish instead of waiting for the merged :class:`RunReport` — the
#: streaming channel the experiment service exposes per job.
EventSink = Callable[[dict[str, Any]], None] | None


class CancelToken:
    """Cooperative cancellation flag threaded through ``run_experiment``.

    The submitter keeps a reference and calls :meth:`cancel`; the executor
    checks :attr:`cancelled` at every cell boundary (and while waiting on
    the process pool) and raises :class:`JobCancelledError`.  Cells that
    already completed stay cached — they are valid results — so nothing
    partial or poisoned is ever written.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


def _result_key(spec: ExperimentSpec) -> tuple[str, str]:
    return (_RESULT_KEY, spec.spec_hash())


# ---------------------------------------------------------------------------
# Worker-side entry points (must be importable, hence module top level).
def _worker_init(cache_root: str, cache_enabled: bool, extra_path: list[str]) -> None:
    for p in reversed(extra_path):
        if p not in sys.path:
            sys.path.insert(0, p)
    configure_cache(cache_root, enabled=cache_enabled)


def _execute_payload(payload: tuple[str, str, tuple]) -> tuple[ExperimentResult, float]:
    """Run one cell in a worker process; returns (result, seconds)."""
    name, fn, params = payload
    spec = ExperimentSpec(name=name, fn=fn, params=params)
    t0 = time.perf_counter()
    result = spec.execute()
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
def _merge_cells(spec: ExperimentSpec, results: list[ExperimentResult]) -> ExperimentResult:
    """Concatenate cell rows back into one result (deterministic order).

    Notes from *every* cell are kept, de-duplicated in cell order — a cell
    that observed something (a deadlock warning, a fallback) must not have
    its note silently dropped because it was not the first cell.  Columns
    must agree across cells; a disagreement means the cells did not come
    from the same driver configuration and concatenating their rows under
    the first cell's header would mislabel data, so it raises instead.
    """
    first = results[0]
    columns = first.columns
    for res in results[1:]:
        if res.columns != columns:
            raise ValueError(
                f"cannot merge cells of {spec.name}: column disagreement "
                f"({columns!r} vs {res.columns!r})"
            )
    rows: list[dict[str, Any]] = []
    notes: list[str] = []
    for res in results:
        rows.extend(res.rows)
        if res.notes and res.notes not in notes:
            notes.append(res.notes)
    return ExperimentResult(
        experiment=first.experiment,
        rows=rows,
        notes="\n".join(notes),
        columns=columns,
    )


def _run_cells(
    cells: list[ExperimentSpec],
    jobs: int,
    cache: DiskCache,
    force: bool,
    progress: Progress,
    events: EventSink = None,
    cancel: CancelToken | None = None,
) -> tuple[list[ExperimentResult], list[CellOutcome]]:
    """Execute the cell list, serving cached cells and pooling the misses."""
    results: list[ExperimentResult | None] = [None] * len(cells)
    outcomes: list[CellOutcome | None] = [None] * len(cells)
    n = len(cells)
    done_cells = 0

    def emit(event: dict[str, Any]) -> None:
        if events is not None:
            events(event)

    def check_cancel() -> None:
        if cancel is not None and cancel.cancelled:
            raise JobCancelledError(
                f"cancelled with {done_cells}/{n} cells complete"
            )

    def serve(i: int, result: ExperimentResult, from_cache: bool, seconds: float) -> None:
        nonlocal done_cells
        results[i] = result
        outcomes[i] = CellOutcome(cells[i], from_cache=from_cache, seconds=seconds)
        done_cells += 1
        emit(
            {
                "type": "cell-result",
                "cell": cells[i].name,
                "index": i,
                "total": n,
                "from_cache": from_cache,
                "seconds": round(seconds, 3),
                "rows": result.rows,
                "notes": result.notes,
            }
        )
        if progress:
            label = "cached" if from_cache else f"{seconds:.1f}s"
            progress(f"  [{i + 1}/{n}] {cells[i].name}: {label}")

    misses: list[int] = []
    check_cancel()
    for i, cell in enumerate(cells):
        hit = None if force else cache.get(_result_key(cell))
        if hit is not None:
            serve(i, hit, from_cache=True, seconds=0.0)
        else:
            misses.append(i)

    def record(i: int, result: ExperimentResult, seconds: float) -> None:
        cache.put(_result_key(cells[i]), result)
        serve(i, result, from_cache=False, seconds=seconds)

    # Failure contract (tests/test_runner_executor.py): a cell whose driver
    # raises must never reach cache.put (a poisoned entry would be served as
    # a result forever), must not leave the pool hanging (pending cells are
    # cancelled; in-flight ones finish with the context manager), and must
    # surface as a CellExecutionError carrying the failing cell's spec.
    # Cancellation follows the same no-poisoning rule: it is honoured at
    # cell boundaries (and while waiting on the pool), so every entry that
    # does reach the cache is a complete, valid cell result.
    def fail(i: int, exc: BaseException) -> CellExecutionError:
        return CellExecutionError(
            f"cell {cells[i].name} failed: {exc!r}", spec=cells[i]
        )

    if misses and jobs > 1:
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(misses)),
            initializer=_worker_init,
            initargs=(str(cache.root), cache.enabled, [src_root]),
        ) as pool:
            futures = {
                pool.submit(
                    _execute_payload, (cells[i].name, cells[i].fn, cells[i].params)
                ): i
                for i in misses
            }
            for i in misses:
                emit({"type": "cell-start", "cell": cells[i].name,
                      "index": i, "total": n})
            pending = set(futures)
            try:
                while pending:
                    check_cancel()
                    done, pending = wait(
                        pending,
                        timeout=0.2 if cancel is not None else None,
                        return_when=FIRST_COMPLETED,
                    )
                    for fut in done:
                        try:
                            result, seconds = fut.result()
                        except Exception as exc:
                            raise fail(futures[fut], exc) from exc
                        record(futures[fut], result, seconds)
            except BaseException:
                # Cell failure or cancellation: drop queued cells; the
                # context manager waits out in-flight ones, whose results
                # are discarded unrecorded (nothing reaches the cache).
                for p in pending:
                    p.cancel()
                raise
    else:
        for i in misses:
            check_cancel()
            emit({"type": "cell-start", "cell": cells[i].name,
                  "index": i, "total": n})
            t0 = time.perf_counter()
            try:
                result = cells[i].execute()
            except Exception as exc:
                raise fail(i, exc) from exc
            record(i, result, time.perf_counter() - t0)

    return list(results), list(outcomes)  # type: ignore[arg-type]


def _run_single(
    exp: ExperimentDef,
    spec: ExperimentSpec,
    jobs: int,
    cache: DiskCache,
    force: bool,
    progress: Progress,
    events: EventSink = None,
    cancel: CancelToken | None = None,
) -> RunReport:
    t0 = time.perf_counter()
    if not force:
        hit = cache.get(_result_key(spec))
        if hit is not None:
            if events is not None:
                events(
                    {
                        "type": "experiment-cached",
                        "experiment": spec.name,
                        "rows": len(hit.rows),
                    }
                )
            return RunReport(
                name=spec.name,
                result=hit,
                seconds=time.perf_counter() - t0,
                from_cache=True,
            )
    cells = exp.cells(spec)
    cell_results, outcomes = _run_cells(
        cells, jobs, cache, force, progress, events=events, cancel=cancel
    )
    merged = _merge_cells(spec, cell_results)
    if len(cells) > 1:
        # Unsplit specs share their spec hash with their single cell, which
        # _run_cells already stored — don't write the same pickle twice.
        cache.put(_result_key(spec), merged)
    return RunReport(
        name=spec.name,
        result=merged,
        seconds=time.perf_counter() - t0,
        cells=outcomes,
    )


def run_experiment(
    experiment: str | ExperimentDef,
    preset: str = "small",
    overrides: dict[str, Any] | None = None,
    jobs: int = 1,
    cache: DiskCache | None = None,
    force: bool = False,
    progress: Progress = None,
    events: EventSink = None,
    cancel: CancelToken | None = None,
) -> list[RunReport]:
    """Run one registered experiment (or composite) and return its reports.

    Parameters
    ----------
    experiment:
        Registry name (``"fig6"``) or an :class:`ExperimentDef`.
    preset:
        ``"small"`` (laptop-scale defaults) or ``"full"`` (paper-scale).
    overrides:
        Parameter overrides applied on top of the preset (CLI ``--set``).
        A key no driver takes raises :class:`ParameterError` before any
        cell runs; a composite forwards each part only the keys it takes.
    jobs:
        Worker processes for independent cells; 1 runs everything inline.
    cache:
        Result cache; defaults to the process-wide disk cache.
    force:
        Recompute even when cached results exist (results are re-stored).
    progress:
        Optional callable receiving one human-readable line per cell.
    events:
        Optional :data:`EventSink` receiving structured execution events —
        one ``cell-result`` per finished cell, rows included, so callers
        (the experiment service) can stream results incrementally.
    cancel:
        Optional :class:`CancelToken`; once cancelled, execution stops at
        the next cell boundary with :class:`JobCancelledError`.  Finished
        cells stay cached; nothing partial is written.

    Returns one :class:`RunReport` per driver — a single report for plain
    experiments, one per part for composites like ``fig4``.
    """
    exp = get_experiment(experiment) if isinstance(experiment, str) else experiment
    cache = cache if cache is not None else get_default_cache()
    # plan() validates every spec (override keys, backend) before any runs.
    return [
        _run_single(
            part, spec, jobs, cache, force, progress, events=events, cancel=cancel
        )
        for part, spec in exp.plan(preset, overrides)
    ]
