"""The experiment job queue: async submission, workers, cancellation.

:class:`JobQueue` turns ``run_experiment`` into a long-lived service
core: submissions validate eagerly (unknown experiment, bad preset, bad
override, unsupported backend — all rejected at submit time, before the
job queues), then run FIFO across a fixed pool of worker *threads*, each
of which may fan its job's cells across worker *processes*
(``jobs_per_run``).  Every job shares one
:class:`~repro.service.store.ArtifactStore`, so overlapping sweeps from
concurrent tenants deduplicate cell-by-cell through the content-addressed
cache; per-cell results stream out through each job's event log.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from repro.errors import JobCancelledError
from repro.runner.executor import run_experiment
from repro.runner.registry import ExperimentDef, get_experiment
from repro.service.jobs import Job, JobState
from repro.service.store import ArtifactStore
from repro.utils.diskcache import DiskCache


class JobQueue:
    """FIFO experiment jobs over shared worker threads and one store."""

    def __init__(
        self,
        store: DiskCache | ArtifactStore,
        workers: int = 2,
        jobs_per_run: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.jobs_per_run = max(1, jobs_per_run)
        self._jobs: dict[str, Job] = {}
        self._pending: deque[Job] = deque()
        self._cond = threading.Condition()
        self._shutdown = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-job-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # -- submission / lookup ------------------------------------------------
    def submit(
        self,
        experiment: str | ExperimentDef,
        preset: str = "small",
        overrides: dict[str, Any] | None = None,
        force: bool = False,
    ) -> Job:
        """Validate and enqueue one experiment run; returns the Job.

        Validation happens *now*, in the submitter's thread: resolving the
        registry name, building the spec (which checks preset existence,
        override shapes, and backend capabilities) — so a bad submission
        fails the caller instead of failing a queued job minutes later.
        """
        exp = (
            get_experiment(experiment)
            if isinstance(experiment, str)
            else experiment
        )
        unknown = sorted(set(overrides or {}) - exp.accepted_params())
        if unknown:
            raise KeyError(
                f"experiment {exp.name!r}: unknown override key(s) "
                f"{', '.join(unknown)}; driver accepts "
                f"{', '.join(sorted(exp.accepted_params()))}"
            )
        exp.plan(preset, overrides)  # the same checks run_experiment makes
        job = Job(name=exp.name, preset=preset, overrides=overrides,
                  jobs=self.jobs_per_run, force=force)
        job._exp = exp  # resolved def travels with the job
        with self._cond:
            if self._shutdown:
                raise RuntimeError("job queue is shut down")
            self._jobs[job.id] = job
            self._pending.append(job)
            self._cond.notify()
        job.emit("submitted", {"experiment": exp.name, "preset": preset,
                               "overrides": overrides or {}})
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(
                f"unknown job {job_id!r}; known: {', '.join(self._jobs) or '(none)'}"
            ) from None

    def jobs(self) -> list[Job]:
        with self._cond:
            return list(self._jobs.values())

    # -- cancellation ---------------------------------------------------------
    def cancel(self, job_id: str) -> Job:
        """Request cancellation; pending jobs die now, running ones soon.

        A running job's executor honours the token at the next cell
        boundary, so completed cells stay cached and nothing partial is
        written (the no-poisoning contract of ``CancelToken``).
        """
        job = self.get(job_id)
        job.cancel_token.cancel()
        with self._cond:
            if job.state is JobState.PENDING:
                try:
                    self._pending.remove(job)
                except ValueError:
                    pass  # a worker grabbed it; the token will stop it
                else:
                    job.finish(JobState.CANCELLED, error="cancelled while queued")
                    job.emit("job-cancelled", {"reason": "cancelled while queued"})
                    return job
        if not job.is_terminal:
            job.emit("cancel-requested", {})
        return job

    # -- status ----------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        """Service-wide snapshot: every job plus the shared store's stats."""
        with self._cond:
            jobs = list(self._jobs.values())
            queued = len(self._pending)
        return {
            "workers": len(self._threads),
            "jobs_per_run": self.jobs_per_run,
            "queued": queued,
            "jobs": [j.snapshot() for j in jobs],
            "store": self.store.stats(),
        }

    # -- worker loop -------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(lambda: self._pending or self._shutdown)
                if self._shutdown and not self._pending:
                    return
                job = self._pending.popleft()
            if job.cancel_token.cancelled:
                job.finish(JobState.CANCELLED, error="cancelled while queued")
                job.emit("job-cancelled", {"reason": "cancelled while queued"})
                continue
            self._run(job)

    def _run(self, job: Job) -> None:
        job.mark_running()
        job.emit("job-start", {"experiment": job.name, "preset": job.preset})

        def sink(event: dict[str, Any]) -> None:
            payload = dict(event)
            job.emit(payload.pop("type"), payload)

        try:
            reports = run_experiment(
                job._exp,
                preset=job.preset,
                overrides=job.overrides,
                jobs=job.jobs,
                cache=self.store,
                force=job.force,
                events=sink,
                cancel=job.cancel_token,
            )
        except JobCancelledError as exc:
            job.finish(JobState.CANCELLED, error=str(exc))
            job.emit("job-cancelled", {"reason": str(exc)})
        except BaseException as exc:  # noqa: BLE001 — job isolation boundary
            job.finish(JobState.FAILED, error=f"{type(exc).__name__}: {exc}")
            job.emit("job-failed", {"error": job.error})
        else:
            job.reports = reports
            job.finish(JobState.DONE)
            job.emit(
                "job-done",
                {
                    "reports": [
                        {
                            "name": r.name,
                            "rows": len(r.result.rows),
                            "seconds": round(r.seconds, 3),
                            "n_cells": r.n_cells,
                            "n_cached_cells": r.n_cached_cells,
                            "from_cache": r.from_cache,
                        }
                        for r in reports
                    ]
                },
            )

    # -- shutdown ------------------------------------------------------------
    def shutdown(self, cancel_running: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting work; optionally cancel in-flight jobs; join."""
        with self._cond:
            self._shutdown = True
            pending = list(self._pending)
            self._pending.clear()
            self._cond.notify_all()
        for job in pending:
            job.finish(JobState.CANCELLED, error="service shut down")
            job.emit("job-cancelled", {"reason": "service shut down"})
        if cancel_running:
            for job in self.jobs():
                if not job.is_terminal:
                    job.cancel_token.cancel()
        for t in self._threads:
            t.join(timeout=timeout)
