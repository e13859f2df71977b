"""The asyncio generation service: queue -> scheduler -> engine thread.

:class:`GenerationService` turns the one-shot
:func:`repro.engine.run_generation` machinery into a long-lived server:

* **bounded request queue** — :meth:`~GenerationService.submit` enqueues a
  :class:`~repro.engine.GenerationRequest` and returns a
  :class:`ResultStream`; when the queue is full, submission awaits
  (backpressure) instead of growing memory without bound;
* **cross-client micro-batching** — a gather window collects co-arriving
  requests, and the :class:`~repro.service.scheduler.MicroBatchScheduler`
  coalesces compatible ones (same backend/deck/shape) into micro-batches:
  with a pack-capable backend the model stage samples **chunks from
  different requests as shared full-width model batches**, and the DRC
  stage runs as **one** cached sweep over the whole micro-batch;
* **one engine thread** — each gather window is handed whole to a single
  engine thread that owns the warm engine state (one backend per
  (name, deck), one executor per deck, worker pools from one
  :class:`~repro.engine.PoolRegistry`) and serves the window's
  micro-batches in turn;
* **commit thread** — the engine thread only runs the compute stages;
  it then hands the window's requests, sorted by arrival, to a commit
  thread that admits them in that order, so session stores grow exactly
  as they would under serial :func:`~repro.engine.run_generation` calls
  (the load-bearing determinism invariant) while admission overlaps the
  next window's compute.  Scaling out is the fleet's job
  (:class:`~repro.service.fleet.FleetService`, ``repro serve --workers``);
* **streaming results** — each request's proposal is streamed back as
  :class:`~repro.engine.CandidateBatch` chunks, followed by the final
  :class:`~repro.engine.GenerationBatch`;
* **per-stage latency histograms** — every request's ``queue``,
  ``gather``, ``model``, ``drc`` and ``admit`` latencies are filed into
  :class:`~repro.service.stats.StageLatencies` histograms, exported by
  the ``op: "stats"`` TCP verb (see ``docs/SERVING.md``).
"""

from __future__ import annotations

import asyncio
import os
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import AsyncIterator, Callable

import numpy as np

from ..engine import (
    BatchExecutor,
    CandidateBatch,
    ExecutionPlan,
    ExecutionTuner,
    ExecutorConfig,
    GenerationBatch,
    GenerationRequest,
    GeneratorBackend,
    PoolRegistry,
    RetryPolicy,
    StageTimings,
    deck_key,
    get_backend,
    resolve_exec_mode,
)
from ..engine.tuner import TunerDecision, pow2_bucket
from .faults import maybe_fire, protected
from .scheduler import MicroBatch, MicroBatchScheduler, PendingRequest, SchedulerConfig
from .session import SessionConfig, SessionManager
from .stats import StageLatencies

__all__ = [
    "DeadlineExceeded",
    "RequestCancelled",
    "ServiceConfig",
    "ServiceStats",
    "ResultStream",
    "GenerationService",
]


class DeadlineExceeded(TimeoutError):
    """A request's ``deadline_s`` passed before it finished.

    Raised through the request's :class:`ResultStream` when a stage
    boundary (dispatch, model, admit) finds the deadline expired; the
    request is dropped there rather than burning compute a client has
    already given up on.
    """


class RequestCancelled(RuntimeError):
    """The request was cancelled (``op: "cancel"``, client disconnect,
    or :meth:`GenerationService.cancel`) before it completed."""

_DONE = object()  # chunk-queue sentinel: no more chunks
_STOP = object()  # engine/commit-queue sentinel: finish queued work, exit


def _split_by_share(total: int, sizes: list[int]) -> list[int]:
    """Split an integer ``total`` proportionally to ``sizes`` (sums exactly).

    Cumulative rounding: share_i = floor(total * cum_i / n) - floor(total *
    cum_{i-1} / n), so the parts always add up to ``total``.
    """
    n = sum(sizes)
    if n == 0:
        return [0] * len(sizes)
    out, cum, prev = [], 0, 0
    for size in sizes:
        cum += size
        cut = total * cum // n
        out.append(cut - prev)
        prev = cut
    return out


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs.

    ``queue_size`` bounds the request queue (submission awaits when
    full).  ``jobs``/``pool``/``model_jobs`` configure the engine
    thread's executors exactly like :func:`repro.engine.run_generation`'s
    parameters, so a service-served request is bit-identical to a serial
    one.  ``stream_chunk`` is the number of candidates per streamed
    :class:`~repro.engine.CandidateBatch` chunk.  ``pack_models``
    enables cross-request model-batch packing for micro-batches whose
    backend supports it (``pack_jobs``/``pack_model_fn``); packing only
    changes which forwards sample together — per-request outputs are
    bit-identical either way — so disabling it is purely a
    benchmarking/debugging knob.

    ``exec_mode`` selects the model-stage dispatch strategy: ``auto``
    (the default; also the resolution of ``None`` when
    ``$REPRO_EXEC_MODE`` is unset) lets one shared
    :class:`~repro.engine.ExecutionTuner` pick packed / pooled / serial
    per micro-batch from observed throughput; ``serial``/``pooled``/
    ``packed`` force one strategy.  All strategies are bit-identical —
    the knob moves wall-clock, never outputs.  ``tuner_dir`` persists
    the tuner's measurements across restarts (fingerprint-guarded JSON,
    co-located with the disk DRC cache by the CLI) and warm-starts the
    on-disk :func:`~repro.diffusion.plan.sampler_plan` cache.
    """

    queue_size: int = 64
    jobs: int = 1
    pool: str = "thread"
    model_jobs: int = 1
    stream_chunk: int = 32
    pack_models: bool = True
    exec_mode: str | None = None
    tuner_dir: str | None = None
    #: Retry policy for the retryable micro-batch stages (model propose,
    #: DRC sweep): bounded attempts with capped exponential backoff and
    #: request-seeded jitter, so retries are deterministic.  A retried
    #: model stage re-seeds the plan's root rng first — a request that
    #: succeeds on attempt 2 is bit-identical to one that succeeded on
    #: attempt 1.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    sessions: SessionConfig = field(default_factory=SessionConfig)

    def __post_init__(self) -> None:
        if self.queue_size < 1:
            raise ValueError("queue_size must be positive")
        if self.jobs < 1 or self.model_jobs < 1:
            raise ValueError("jobs and model_jobs must be positive")
        if self.stream_chunk < 1:
            raise ValueError("stream_chunk must be positive")
        # Resolve once at construction (explicit mode wins, else the
        # $REPRO_EXEC_MODE escape, else "auto") so every executor sees
        # one consistent mode.
        object.__setattr__(
            self, "exec_mode", resolve_exec_mode(self.exec_mode)
        )


@dataclass
class ServiceStats:
    """Lifetime counters, gauges, and the per-stage latency histograms.

    Counters are cumulative; cross-thread increments are serialized by
    the service's stats lock.  The gauges describe *current* state
    rather than history: ``queue_depth`` is the submit-queue depth when
    the latest cycle was dispatched, and ``last_pack_fill`` is the fill
    ratio of the latest packed model stage (packed jobs / packed slots;
    0.0 until something packs).

    ``stages`` holds the per-stage latency histograms
    (``queue``/``gather``/``model``/``drc``/``admit``).  All of it is
    exported over the wire by the ``op: "stats"`` verb (see
    ``docs/SERVING.md``) so a load balancer can see saturation without
    scraping logs.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    # Fault-tolerance counters: every recovery event is visible on the
    # ``stats`` verb.  ``retries`` counts retried stage attempts (model
    # propose + DRC sweep), ``deadline_drops`` requests failed with
    # DeadlineExceeded, ``cancelled`` requests failed with
    # RequestCancelled (both are also included in ``failed``).
    retries: int = 0
    deadline_drops: int = 0
    cancelled: int = 0
    cycles: int = 0
    micro_batches: int = 0
    peak_coalesced: int = 0  # most requests ever served by one micro-batch
    checkpoints: int = 0
    packed_batches: int = 0  # shared model batches dispatched
    packed_jobs: int = 0  # sampling jobs served through packed batches
    packed_fallbacks: int = 0  # packed stages that fell back to per-request
    last_pack_fill: float = 0.0  # gauge: latest packed stage's fill ratio
    queue_depth: int = 0  # gauge: submit-queue depth at latest cycle dispatch
    # Self-tuning executor: per-mode decision counts for the micro-batch
    # model stage, split by how each decision was made — explores are
    # tuner-store misses (cold signature being measured), exploits are
    # store hits (chosen from observed throughput), forced are explicit
    # --exec-mode/$REPRO_EXEC_MODE overrides.
    tuner_decisions: dict[str, int] = field(default_factory=dict)
    tuner_explores: int = 0
    tuner_exploits: int = 0
    tuner_forced: int = 0
    stages: StageLatencies = field(default_factory=StageLatencies)


@dataclass
class _CommitToken:
    """One request's entry in the commit stage.

    Every dispatched request gets exactly one token — ``ready`` carries
    the staged results awaiting admission, ``None`` marks a request that
    already failed (its error was delivered) and only needs its
    in-flight slot released.  ``pending`` is always set: the commit
    stage uses it to release the request from the live (cancellable)
    registry exactly once.
    """

    pending: PendingRequest
    ready: "tuple | None" = None


class _EngineState:
    """The engine thread's warm state.

    One long-lived backend per (name, deck) — a model loads once — and
    one :class:`~repro.engine.BatchExecutor` per deck, every executor
    drawing its worker pools from one :class:`~repro.engine.PoolRegistry`
    (so pool rebuilds and circuit breakers are service-wide).  Only the
    engine thread builds entries; the commit thread reuses the executor
    a token carries.
    """

    def __init__(
        self,
        config: ServiceConfig,
        tuner: ExecutionTuner,
        backend_factory: Callable = get_backend,
    ):
        self.pools = PoolRegistry()
        self._config = config
        self._tuner = tuner
        self._backend_factory = backend_factory
        self._backends: dict[tuple, GeneratorBackend] = {}
        self._executors: dict[tuple, BatchExecutor] = {}

    def backend_for(self, request: GenerationRequest) -> GeneratorBackend:
        """The long-lived backend for this request (built once).

        Backends that accept ``jobs``/``model_jobs``/``exec_mode``/
        ``tuner`` get the service's worker config, execution mode and
        shared :class:`~repro.engine.ExecutionTuner` forwarded, so a
        1-request micro-batch samples with the same parallelism and mode
        policy as everything else; worker counts and dispatch modes
        never change seeded outputs (rng.spawn discipline), so this is
        purely a throughput knob.
        """
        name, request_deck_key, _, _ = request.compatibility_key()
        key = (name, request_deck_key)
        backend = self._backends.get(key)
        if backend is not None:
            return backend
        cfg = self._config
        kwargs = {"deck": request.deck} if request.deck is not None else {}
        parallel = (
            {"jobs": cfg.jobs, "model_jobs": cfg.model_jobs}
            if cfg.jobs > 1 or cfg.model_jobs > 1 else {}
        )
        # Richest signature first; factories that take worker counts but
        # not the tuner kwargs still deserve the parallelism config.
        attempts = [
            {**parallel, "exec_mode": cfg.exec_mode, "tuner": self._tuner}
        ]
        if parallel:
            attempts.append(parallel)
        for extra in attempts:
            try:
                backend = self._backend_factory(name, **kwargs, **extra)
                break
            except TypeError:  # factory without these kwargs
                continue
        else:
            backend = self._backend_factory(name, **kwargs)
        self._backends[key] = backend
        return backend

    def executor_for(self, deck) -> BatchExecutor:
        """The warm executor for this deck (pools from the shared registry)."""
        key = deck_key(deck)
        executor = self._executors.get(key)
        if executor is None:
            cfg = self._config
            executor = BatchExecutor(
                deck.engine(),
                ExecutorConfig(
                    jobs=cfg.jobs,
                    pool=cfg.pool,
                    model_jobs=cfg.model_jobs,
                    exec_mode=cfg.exec_mode,
                ),
                pools=self.pools,
                tuner=self._tuner,
            )
            self._executors[key] = executor
        return executor

    def close(self) -> None:
        """Release backends and executors, then close the shared pools."""
        for executor in self._executors.values():
            executor.close()
        for backend in self._backends.values():
            close = getattr(backend, "close", None)
            if callable(close):
                close()
        self._executors.clear()
        self._backends.clear()
        self.pools.close()


class ResultStream:
    """Per-request handle: an async iterator of chunks plus the final batch.

    Chunks arrive as the model stage finishes (before DRC), so a client
    can render candidates while legality checking is still running; the
    final :class:`~repro.engine.GenerationBatch` carries the verdicts and
    admission counts.  Iterating chunks is optional — awaiting
    :meth:`result` alone is the common fast path.
    """

    def __init__(self, request: GenerationRequest, loop: asyncio.AbstractEventLoop):
        self.request = request
        self._loop = loop
        self._chunks: asyncio.Queue = asyncio.Queue()
        self._final: asyncio.Future = loop.create_future()
        # Retrieve the exception eagerly so an un-awaited failed stream
        # does not warn at GC time; result() still raises for callers.
        self._final.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._drained = False

    @property
    def request_id(self) -> str:
        return self.request.request_id

    @property
    def done(self) -> bool:
        return self._final.done()

    # -- worker-thread side (always via loop.call_soon_threadsafe) ------
    def _deliver_chunk(self, chunk: CandidateBatch) -> None:
        self._chunks.put_nowait(chunk)

    def _deliver_result(self, batch: GenerationBatch) -> None:
        if not self._final.done():
            self._final.set_result(batch)
        self._chunks.put_nowait(_DONE)

    def _deliver_error(self, error: BaseException) -> None:
        if not self._final.done():
            self._final.set_exception(error)
        self._chunks.put_nowait(_DONE)

    # -- client side -----------------------------------------------------
    async def next_chunk(self) -> CandidateBatch | None:
        """The next streamed chunk, or ``None`` once the stream ended."""
        if self._drained:
            return None
        item = await self._chunks.get()
        if item is _DONE:
            self._drained = True
            return None
        return item

    async def chunks(self) -> AsyncIterator[CandidateBatch]:
        """Async-iterate the streamed :class:`CandidateBatch` chunks."""
        while (chunk := await self.next_chunk()) is not None:
            yield chunk

    def __aiter__(self) -> AsyncIterator[CandidateBatch]:
        return self.chunks()

    async def result(self) -> GenerationBatch:
        """Await the final batch (raises if the request failed)."""
        return await asyncio.shield(self._final)

    def result_now(self) -> GenerationBatch:
        """The final batch if the stream already resolved (no awaiting).

        For consumers whose event loop is gone (e.g. a client read after
        close); raises ``RuntimeError`` when no result was delivered.
        """
        if not self._final.done():
            raise RuntimeError("request has not completed")
        return self._final.result()

    def next_chunk_now(self) -> CandidateBatch | None:
        """Pop a delivered chunk without awaiting; ``None`` when drained.

        Only meaningful once no more deliveries can arrive (stream done
        or service stopped): an empty queue then means the stream ended.
        """
        if self._drained:
            return None
        try:
            item = self._chunks.get_nowait()
        except asyncio.QueueEmpty:
            return None
        if item is _DONE:
            self._drained = True
            return None
        return item


class GenerationService:
    """Serves concurrent generation requests over shared engine state."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        session_manager: SessionManager | None = None,
        backend_factory=get_backend,
    ):
        self.config = config or ServiceConfig()
        self.scheduler = MicroBatchScheduler(self.config.scheduler)
        self.sessions = session_manager or SessionManager(self.config.sessions)
        self.stats = ServiceStats()
        self._backend_factory = backend_factory
        # The engine thread, its queue of gather windows and its warm
        # state, built on start().
        self._engine: _EngineState | None = None
        self._engine_queue: queue_module.Queue | None = None
        self._engine_thread: threading.Thread | None = None
        # The ExecutionTuner every model stage consults (and feeds).
        # Built on start(), loading any persisted measurements from
        # config.tuner_dir; saved on stop().
        self.tuner: ExecutionTuner | None = None
        self._stats_lock = threading.Lock()
        self._queue: asyncio.Queue[PendingRequest] | None = None
        self._task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._submit_lock: asyncio.Lock | None = None
        self._arrival = 0
        # Commit stage: the engine thread pushes one token per request,
        # in arrival order; the commit thread admits them FIFO.
        self._commit_queue: queue_module.Queue | None = None
        self._commit_thread: threading.Thread | None = None
        # Dispatch backpressure: requests handed to the engine thread but
        # not yet committed; the gather loop pauses above the limit.
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._dispatch_event: asyncio.Event | None = None
        # Cancellation registry: request_id -> PendingRequest for every
        # request between submit and commit, plus the ids cancel() has
        # marked.  Marks take effect at the next stage boundary.
        self._live: dict[str, PendingRequest] = {}
        self._cancelled: set[str] = set()
        self._live_lock = threading.Lock()
        # Draining: submissions are refused while the service finishes
        # what it already accepted (graceful shutdown; see drain()).
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting in the global submit queue."""
        return self._queue.qsize() if self._queue is not None else 0

    @property
    def pools(self) -> PoolRegistry | None:
        """The engine thread's worker-pool registry (``None`` when stopped)."""
        return self._engine.pools if self._engine is not None else None

    def queue_depths(self) -> dict:
        """Everything queued anywhere: ``{"submit": N, "in_flight": M}``.

        ``submit`` is the bounded submit queue and ``in_flight`` the
        dispatched-but-uncommitted total.
        """
        return {"submit": self.queue_depth, "in_flight": self._inflight}

    async def start(self) -> "GenerationService":
        """Start the scheduler loop, engine and commit threads (idempotent)."""
        if self.running:
            return self
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.config.queue_size)
        self._submit_lock = asyncio.Lock()
        self._dispatch_event = asyncio.Event()
        self._inflight = 0
        with self._live_lock:
            self._live.clear()
            self._cancelled.clear()
        self._draining = False
        cfg = self.config
        self.tuner = ExecutionTuner(store_dir=cfg.tuner_dir)
        if cfg.tuner_dir is not None:
            # The tuner dir doubles as the warm-start home for the
            # on-disk SamplerPlan coefficient cache, so a restarted
            # service skips plan recomputation too.
            from ..diffusion.plan import configure_plan_cache

            configure_plan_cache(cfg.tuner_dir)
        self._engine = _EngineState(cfg, self.tuner, self._backend_factory)
        self._engine_queue = queue_module.Queue()
        self._engine_thread = threading.Thread(
            target=self._engine_loop, name="repro-service-engine", daemon=True
        )
        self._engine_thread.start()
        self._commit_queue = queue_module.Queue()
        self._commit_thread = threading.Thread(
            target=self._commit_loop, name="repro-service-commit", daemon=True
        )
        self._commit_thread.start()
        self._task = self._loop.create_task(self._run())
        return self

    async def stop(self, *, checkpoint: bool = True) -> None:
        """Drain and shut down (idempotent).

        Dispatched gather windows finish on the engine thread and commit
        (their streams resolve); requests still queued fail with
        ``RuntimeError``.  Sessions with snapshot directories take a
        final checkpoint unless ``checkpoint=False``.
        """
        loop = asyncio.get_running_loop()
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        # The engine thread drains first (every dispatched window emits
        # its commit tokens), then the commit thread flushes and exits.
        engine_thread, self._engine_thread = self._engine_thread, None
        if engine_thread is not None:
            self._engine_queue.put(_STOP)
            await loop.run_in_executor(None, engine_thread.join)
        self._engine_queue = None
        commit_thread, self._commit_thread = self._commit_thread, None
        if commit_thread is not None:
            self._commit_queue.put(_STOP)
            await loop.run_in_executor(None, commit_thread.join)
        self._commit_queue = None
        if self._queue is not None:
            while not self._queue.empty():
                self._fail_pending(self._queue.get_nowait())
            self._queue = None
        with self._live_lock:
            self._live.clear()
            self._cancelled.clear()
        if checkpoint:
            self.stats.checkpoints += len(self.sessions.checkpoint_all())
        engine, self._engine = self._engine, None
        if engine is not None:
            # After the commit stage: admissions lease executor pools.
            await loop.run_in_executor(None, engine.close)
        if self.tuner is not None and self.config.tuner_dir is not None:
            # Persist what this run learned, so the next process exploits
            # instead of re-exploring (the restart warm-start story).
            self.tuner.save()

    async def __aenter__(self) -> "GenerationService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        request: GenerationRequest,
        *,
        session: str | None = None,
    ) -> ResultStream:
        """Queue a request; returns its :class:`ResultStream`.

        Awaits when the queue is full (backpressure).  ``session`` names
        the library scope; ``None`` gives the request a private fresh
        store, like a serial :func:`~repro.engine.run_generation` call.

        A draining service (graceful shutdown in progress) refuses new
        submissions with ``RuntimeError`` while it finishes the requests
        it already accepted.  The request's ``deadline_s``, if any,
        starts counting here.
        """
        if not self.running or self._queue is None:
            raise RuntimeError("generation service is not running")
        if self._draining:
            raise RuntimeError(
                "generation service is draining (not accepting requests)"
            )
        if session is not None:
            # Syntax-check the id here (bad ids fail the submit); the
            # store itself — possibly a large snapshot load — is
            # materialised lazily on the engine thread, never on the
            # event loop.
            self.sessions.validate_id(session)
        stream = ResultStream(request, self._loop)
        # The lock serialises (index assignment, enqueue) so queue order
        # always equals arrival order, even when the queue is full and
        # several submitters are waiting.
        async with self._submit_lock:
            submitted_at = time.perf_counter()
            pending = PendingRequest(
                arrival=self._arrival,
                request=request,
                session_id=session,
                stream=stream,
                submitted_at=submitted_at,
                deadline_at=(
                    submitted_at + request.deadline_s
                    if request.deadline_s is not None
                    else None
                ),
            )
            self._arrival += 1
            # Register as live *before* the enqueue: once the queue holds
            # the entry the engine (or commit) thread may finish it at
            # any moment, and its release must find the registration.
            with self._live_lock:
                self._live[request.request_id] = pending
            await self._queue.put(pending)
        if not self.running:
            # stop() ran while we were waiting on a full queue; the drain
            # may already have missed this entry, so fail it here (the
            # stream's done-guard makes a double delivery harmless).
            self._fail_pending(pending)
        self.stats.submitted += 1
        return stream

    # ------------------------------------------------------------------
    # Cancellation, deadlines, drain, health
    # ------------------------------------------------------------------
    def cancel(self, request_id: str) -> bool:
        """Mark a live request cancelled; ``True`` when the mark took.

        Cancellation is a *boundary* operation: the mark is honoured at
        the next stage boundary (dispatch, model, admit), where the
        request fails with :class:`RequestCancelled` and emits its one
        commit token — a stage already past its last boundary completes
        normally.  ``False`` means the id is unknown or already done.
        Thread-safe; callable from any thread (the TCP server calls it
        from connection handlers and on client disconnect).
        """
        with self._live_lock:
            pending = self._live.get(request_id)
            if pending is None or pending.stream.done:
                return False
            self._cancelled.add(request_id)
            return True

    def _release_live(self, pending: PendingRequest) -> None:
        """Drop a finished request from the cancellation registry."""
        with self._live_lock:
            if self._live.get(pending.request.request_id) is pending:
                del self._live[pending.request.request_id]
            self._cancelled.discard(pending.request.request_id)

    def _boundary_error(self, pending: PendingRequest) -> "Exception | None":
        """The stage-boundary verdict: cancelled, past deadline, or None."""
        with self._live_lock:
            if pending.request.request_id in self._cancelled:
                return RequestCancelled(
                    f"request {pending.request.request_id} was cancelled"
                )
        if (
            pending.deadline_at is not None
            and time.perf_counter() >= pending.deadline_at
        ):
            return DeadlineExceeded(
                f"request {pending.request.request_id} missed its "
                f"{pending.request.deadline_s:g}s deadline"
            )
        return None

    def _fail_request(
        self, pending: PendingRequest, error: BaseException
    ) -> None:
        """Deliver a terminal error (any thread; done-guarded counters)."""
        if not pending.stream.done:
            self._count_failure(error)
        self._publish(pending.stream, ResultStream._deliver_error, error)

    def _count_failure(self, error: BaseException) -> None:
        """File a terminal error under ``failed`` (and its kind)."""
        with self._stats_lock:
            self.stats.failed += 1
            if isinstance(error, DeadlineExceeded):
                self.stats.deadline_drops += 1
            elif isinstance(error, RequestCancelled):
                self.stats.cancelled += 1

    async def drain(self, timeout: "float | None" = None) -> bool:
        """Refuse new submissions and await in-flight completion.

        Returns ``True`` once the queue and all in-flight requests are
        empty, ``False`` when ``timeout`` seconds pass first (the
        remaining requests are still being served — callers typically
        proceed to :meth:`stop`, which fails whatever is still queued).
        Idempotent; the service keeps running either way so a final
        checkpoint can still happen.
        """
        self._draining = True
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            queued = self._queue.qsize() if self._queue is not None else 0
            if queued == 0 and self._inflight == 0:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.02)

    def health(self) -> dict:
        """Liveness + degradation snapshot (the ``op: "health"`` verb).

        ``status`` is ``"ok"``, ``"degraded"`` (any pool circuit breaker
        currently open — those stages run serial until the cooldown
        passes) or ``"stopped"``; the rest is the recovery telemetry:
        per-pool breaker state, pool rebuilds, retry / deadline / cancel
        counters and the draining flag.
        """
        breakers: list[dict] = []
        rebuilds = 0
        registry = self.pools
        if registry is not None:
            breakers = registry.breakers.snapshot()
            rebuilds = registry.rebuilds
        degraded = any(entry.get("state") == "open" for entry in breakers)
        if not self.running:
            status = "stopped"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        with self._stats_lock:
            counters = {
                "retries": self.stats.retries,
                "deadline_drops": self.stats.deadline_drops,
                "cancelled": self.stats.cancelled,
            }
        return {
            "status": status,
            "draining": self._draining,
            "breakers": breakers,
            "breaker_trips": sum(
                int(entry.get("trips", 0)) for entry in breakers
            ),
            "pool_rebuilds": rebuilds,
            "snapshot_load_fallbacks": self.sessions.load_fallbacks,
            **counters,
        }

    def stats_payload(self) -> dict:
        """The ``op: "stats"`` verb's full JSON payload.

        Lives on the service (rather than inline in the TCP handler) so
        every front end — the line-JSON server, the in-process client,
        and the fleet front, which overrides this to aggregate across
        worker processes — exports exactly the same shape.  See
        ``docs/SERVING.md`` for the field reference.
        """
        from ..diffusion.plan import plan_cache_stats
        from ..engine.modelpool import model_cache_stats
        from .faults import injection_stats

        stats = self.stats
        with self._stats_lock:
            tuner_decisions = dict(stats.tuner_decisions)
        return {
            "submitted": stats.submitted,
            "completed": stats.completed,
            "failed": stats.failed,
            # Recovery telemetry: stage retries, requests dropped at a
            # deadline boundary, cancellations.
            "retries": stats.retries,
            "deadline_drops": stats.deadline_drops,
            "cancelled": stats.cancelled,
            "cycles": stats.cycles,
            "micro_batches": stats.micro_batches,
            "peak_coalesced": stats.peak_coalesced,
            # Live queue occupancy now; the stats gauge holds the depth
            # at the latest cycle dispatch.
            "queue_depth": self.queue_depth,
            "queue_depth_at_cycle": stats.queue_depth,
            "packed_batches": stats.packed_batches,
            "packed_jobs": stats.packed_jobs,
            "packed_fallbacks": stats.packed_fallbacks,
            "pack_fill": round(stats.last_pack_fill, 4),
            # Self-tuning executor: per-mode decision counts (explore =
            # tuner-store miss, exploit = store hit) plus the shared
            # tuner's store state, and the warm-start cache counters.
            "tuner": {
                "decisions": tuner_decisions,
                "explores": stats.tuner_explores,
                "exploits": stats.tuner_exploits,
                "forced": stats.tuner_forced,
                "exec_mode": self.config.exec_mode,
                "store": (
                    self.tuner.snapshot() if self.tuner is not None else None
                ),
            },
            "warm_caches": {
                "sampler_plan": plan_cache_stats(),
                "checkpoints": model_cache_stats(),
            },
            # Active fault-injection plan state (chaos runs;
            # {"installed": false} in normal operation).
            "faults": injection_stats(),
            # Per-stage latency histograms (queue/gather/model/drc/
            # admit); see docs/SERVING.md for the bucket format.
            "stages": stats.stages.snapshot(),
        }

    # ------------------------------------------------------------------
    # Scheduler loop (event-loop side)
    # ------------------------------------------------------------------
    def _fail_pending(self, pending: PendingRequest) -> None:
        """Fail an undelivered request (loop thread; double-safe)."""
        if not pending.stream.done:
            with self._stats_lock:
                self.stats.failed += 1
        pending.stream._deliver_error(
            RuntimeError("generation service stopped")
        )
        self._release_live(pending)

    def _dequeued(self, pending: PendingRequest) -> PendingRequest:
        """Stamp a request as pulled off the submit queue (loop thread)."""
        pending.dequeued_at = time.perf_counter()
        return pending

    async def _run(self) -> None:
        assert self._queue is not None and self._loop is not None
        cfg = self.config.scheduler
        # In-flight limit: dispatched-but-uncommitted requests.  Above
        # it the gather loop pauses *before dequeuing* (dequeued
        # requests are always dispatched promptly, so commit order can
        # never deadlock against this backpressure).
        limit = max(self.config.queue_size, cfg.max_batch_requests)
        while True:
            batch: list[PendingRequest] = []
            try:
                while self._inflight >= limit:
                    self._dispatch_event.clear()
                    await self._dispatch_event.wait()
                batch.append(self._dequeued(await self._queue.get()))
                deadline = self._loop.time() + cfg.gather_window_s
                while len(batch) < cfg.max_batch_requests:
                    try:
                        batch.append(
                            self._dequeued(self._queue.get_nowait())
                        )
                        continue
                    except asyncio.QueueEmpty:
                        pass
                    remaining = deadline - self._loop.time()
                    if remaining <= 0:
                        break
                    try:
                        batch.append(
                            self._dequeued(
                                await asyncio.wait_for(
                                    self._queue.get(), remaining
                                )
                            )
                        )
                    except asyncio.TimeoutError:
                        break
            except asyncio.CancelledError:
                # stop() cancelled us mid-gather: requests already pulled
                # off the queue would otherwise never resolve.  They were
                # never dispatched, so no commit tokens are owed.
                for pending in batch:
                    self._fail_pending(pending)
                raise
            self._dispatch(batch)

    def _dispatch(self, batch: list[PendingRequest]) -> None:
        """Hand one gather window to the engine thread (loop thread)."""
        # compatibility_key() evaluates user-supplied fields (deck,
        # params reprs); a poisoned request must fail alone — not
        # its co-arriving neighbours, and never the scheduler loop.
        with self._inflight_lock:
            self._inflight += len(batch)
        healthy = []
        failed = []
        for pending in batch:
            # Dequeue-time boundary: a request already cancelled, or
            # whose deadline passed while it queued, is dropped before
            # it costs the engine anything.
            error = self._boundary_error(pending)
            if error is None:
                try:
                    pending.request.compatibility_key()
                except Exception as bad:  # noqa: BLE001 - bad fields
                    error = bad
            if error is not None:
                self._fail_request(pending, error)
                # Its token still releases the in-flight slot.
                failed.append(_CommitToken(pending))
            else:
                healthy.append(pending)
        micro_batches = self.scheduler.coalesce(healthy)
        # Queue-depth gauge: what is still waiting now that this
        # cycle's requests have been pulled off the queue.
        self.stats.queue_depth = self._queue.qsize()
        self.stats.cycles += 1
        now = time.perf_counter()
        for pending in healthy:
            self.stats.stages.observe(
                "queue", max(0.0, pending.dequeued_at - pending.submitted_at)
            )
            self.stats.stages.observe(
                "gather", max(0.0, now - pending.dequeued_at)
            )
        self._engine_queue.put((failed, micro_batches))

    # ------------------------------------------------------------------
    # Engine thread
    # ------------------------------------------------------------------
    def _publish(self, stream: ResultStream, method, payload) -> None:
        self._loop.call_soon_threadsafe(method.__get__(stream), payload)

    def _engine_loop(self) -> None:
        """Serve gather windows in dispatch order until stopped."""
        while (window := self._engine_queue.get()) is not _STOP:
            self._serve_window(*window)

    def _serve_window(
        self, tokens: list[_CommitToken], micro_batches: list[MicroBatch]
    ) -> None:
        """Serve a gather window's micro-batches, then queue its commits.

        The scheduler groups a window by compatibility key, so serving
        it micro-batch by micro-batch finishes requests out of arrival
        order; sorting the window's tokens before queueing them — and
        windows being served FIFO — is what lets the commit thread
        admit in plain FIFO order.
        """
        for micro in micro_batches:
            tokens.extend(self._lane_serve(self._engine, micro))
        tokens.sort(key=lambda token: token.pending.arrival)
        for token in tokens:
            self._commit_queue.put(token)

    # perfbench/tracer.py wraps _lane_serve and _commit_one by name.
    def _lane_serve(
        self, engine_state: _EngineState, micro: MicroBatch
    ) -> list[_CommitToken]:
        """Serve one micro-batch; one commit token per request it carried.

        ``ready`` results await admission; failures (already delivered
        on this thread) carry no results, so a crash anywhere in the
        compute stages can never stall the requests behind it.
        """
        with self._stats_lock:
            self.stats.micro_batches += 1
            self.stats.peak_coalesced = max(
                self.stats.peak_coalesced, len(micro)
            )
        ready: list[tuple] = []
        try:
            ready = self._run_micro_batch(micro, engine_state)
        except Exception as error:  # noqa: BLE001 - engine must survive
            for pending in micro.entries:
                self._fail_request(pending, error)
        staged = {id(item[0]): item for item in ready}
        return [
            _CommitToken(pending, staged.get(id(pending)))
            for pending in micro.entries
        ]

    def _choose_model_mode(self, executor, prepared, micro) -> TunerDecision:
        """Pick this micro-batch's model-stage dispatch mode.

        The micro-batch-level alternatives are **packed** (one shared
        model stage across requests, when the backend supports it and at
        least two requests coalesced) versus **per-request** execution —
        labelled ``pooled`` or ``serial`` by the executor's model-pooling
        capability; the per-chunk serial/pooled choice *inside* a
        per-request stage is tuned separately at the engine level under
        its own ``model`` signature.  Under ``exec_mode="auto"`` the
        shared tuner decides from observed per-job seconds, keyed by a
        ``micro`` workload signature (compatibility-key digest x total
        jobs x request count, counts bucketed to powers of two so
        traffic-dependent coalescing doesn't fragment the store, plus
        host CPU count).  A forced ``serial``/``pooled`` mode never
        packs; forced ``packed`` packs whenever packing can engage.
        Every alternative is bit-identical — the decision moves
        wall-clock only.
        """
        backend = prepared[0][1].backend
        packable = (
            self.config.pack_models
            and len(prepared) >= 2
            and getattr(backend, "pack_jobs", None) is not None
            and getattr(backend, "pack_model_fn", None) is not None
        )
        per_request = (
            "pooled" if executor.config.model_jobs > 1 else "serial"
        )
        candidates = (["packed"] if packable else []) + [per_request]
        requested = self.config.exec_mode
        if requested in ("serial", "pooled"):
            # An explicitly non-packed mode must never pack; the inner
            # executors honour the forced mode themselves.
            candidates = [per_request]
        total_jobs = sum(p.request.count for p, _ in prepared)
        signature = (
            "micro",
            ExecutionTuner.signature_digest(tuple(micro.key)),
            pow2_bucket(total_jobs),
            pow2_bucket(len(prepared)),
            os.cpu_count() or 1,
        )
        decision = self.tuner.choose(
            signature, candidates, requested=requested
        )
        with self._stats_lock:
            self.stats.tuner_decisions[decision.mode] = (
                self.stats.tuner_decisions.get(decision.mode, 0) + 1
            )
            if decision.explored:
                self.stats.tuner_explores += 1
            elif decision.exploited:
                self.stats.tuner_exploits += 1
            elif decision.reason == "forced":
                self.stats.tuner_forced += 1
        return decision

    def _packed_model_stage(self, executor, prepared):
        """Sample the micro-batch's model stages as shared packed batches.

        Returns ``True`` after setting every prepared plan's
        ``proposal``/``generate_seconds``, or ``False`` to fall back to
        per-request execution — packing disabled, fewer than two
        requests, a backend without the ``pack_jobs``/``pack_model_fn``
        hooks, or a packed-stage failure (counted in
        ``stats.packed_fallbacks``; every plan's root rng is re-seeded
        first, so the per-request fallback remains bit-identical to a
        serial run even if the packed stage had already consumed
        spawns).
        """
        if not self.config.pack_models or len(prepared) < 2:
            return False
        backend = prepared[0][1].backend
        pack_jobs = getattr(backend, "pack_jobs", None)
        pack_model_fn = getattr(backend, "pack_model_fn", None)
        if pack_jobs is None or pack_model_fn is None:
            return False
        cfg = executor.config
        # Chunk capacity must mirror the backend's serial model stage
        # (its propose-side rng spawn discipline), not this executor's.
        pack_model_batch = getattr(backend, "pack_model_batch", None)
        capacity = (
            pack_model_batch() if pack_model_batch is not None
            else cfg.model_batch
        )
        try:
            job_lists = [pack_jobs(plan.request) for _, plan in prepared]
            packing = self.scheduler.pack(
                [len(templates) for templates, _ in job_lists],
                capacity,
            )
            spec = None
            pack_spec = getattr(backend, "pack_spec", None)
            if (
                pack_spec is not None
                and cfg.model_jobs > 1
                and len(packing.batches) > 1
            ):
                spec = pack_spec()
            result = executor.run_model_packed(
                pack_model_fn(),
                job_lists,
                [plan.rng for _, plan in prepared],
                packing=packing,
                spec=spec,
            )
        except Exception:  # noqa: BLE001 - packed stage is best-effort
            for _, plan in prepared:
                plan.rng = plan.request.rng()
            with self._stats_lock:
                self.stats.packed_fallbacks += 1
            return False
        for (pending, plan), (templates, _), raws, seconds in zip(
            prepared, job_lists, result.outputs, result.seconds
        ):
            plan.proposal = CandidateBatch(
                raws=raws,
                templates=list(templates),
                attempts=len(templates),
                generate_seconds=seconds,
            )
            plan.generate_seconds = seconds
        with self._stats_lock:
            self.stats.packed_batches += len(result.plan.batches)
            self.stats.packed_jobs += result.plan.packed_jobs
            slots = result.plan.capacity * len(result.plan.batches)
            self.stats.last_pack_fill = (
                result.plan.packed_jobs / slots if slots else 0.0
            )
        return True

    def _count_retry(self, attempt: int, error: BaseException) -> None:
        """on_retry hook: surface every retried stage attempt in stats."""
        with self._stats_lock:
            self.stats.retries += 1

    def _execute_with_retry(self, executor, pending, plan) -> CandidateBatch:
        """Run the model stage under the service's retry policy.

        Each retry re-seeds the plan's root rng from the request before
        re-proposing: a failed attempt may have consumed part of the
        stream, and the contract is that a request served on attempt N
        is bit-identical to one served on attempt 1.  The backoff jitter
        is drawn from a request-derived generator, so the retry schedule
        itself is deterministic per request.
        """

        def on_retry(attempt: int, error: BaseException) -> None:
            plan.rng = pending.request.rng()
            plan.proposal = None
            self._count_retry(attempt, error)

        with protected():  # env-scoped fault plans may fire in here
            return self.config.retry.run(
                lambda: executor.execute(plan),
                rng=np.random.default_rng(
                    [0x6D6F64656C, abs(int(pending.request.seed))]
                ),
                on_retry=on_retry,
            )

    def _run_micro_batch(self, micro: MicroBatch, engine: _EngineState):
        """Model stage (packed when possible) + denoise per request, then
        one DRC sweep; no admission (the commit stage owns that)."""
        prepared: list[tuple[PendingRequest, ExecutionPlan]] = []
        executor = None
        for pending in micro.entries:
            request = pending.request
            boundary = self._boundary_error(pending)
            if boundary is not None:
                # Dropped at the engine's entry boundary; it still
                # gets its (empty) commit token.
                self._fail_request(pending, boundary)
                continue
            try:
                backend = engine.backend_for(request)
                deck = request.deck if request.deck is not None else backend.deck
                executor = engine.executor_for(deck)
                library = None
                if pending.session_id is not None:
                    library = self.sessions.get(pending.session_id).store
                plan = executor.plan(request, backend=backend, library=library)
                prepared.append((pending, plan))
            except Exception as error:  # noqa: BLE001 - surfaced per request
                self._fail_request(pending, error)
        if not prepared:
            return []

        # Model-stage dispatch is a per-micro-batch decision: the shared
        # tuner picks packed (one cross-request model stage — chunks from
        # different requests share full-width batches, per-chunk rng
        # spawned from each request's own stream) versus per-request
        # execution, from observed throughput.  Either way outputs are
        # bit-identical to serial; the wall clock of whatever ran is
        # recorded back into the tuner under this micro-batch's workload
        # signature.
        decision = self._choose_model_mode(executor, prepared, micro)
        total_jobs = sum(p.request.count for p, _ in prepared)
        packed = False
        if decision.mode == "packed":
            t_packed = time.perf_counter()
            packed = self._packed_model_stage(executor, prepared)
            if packed:
                self.tuner.record(
                    decision.signature,
                    "packed",
                    time.perf_counter() - t_packed,
                    total_jobs,
                )

        staged: list[tuple[PendingRequest, ExecutionPlan, list[np.ndarray], float]] = []
        sample_seconds = 0.0
        for pending, plan in prepared:
            boundary = self._boundary_error(pending)
            if boundary is not None:
                # Model-stage boundary: cancelled / expired between plan
                # and sampling.
                self._fail_request(pending, boundary)
                continue
            try:
                t_model = time.perf_counter()
                proposal = (
                    plan.proposal if packed
                    else self._execute_with_retry(executor, pending, plan)
                )
                if not packed:
                    sample_seconds += plan.generate_seconds
                for chunk in proposal.chunks(self.config.stream_chunk):
                    if chunk.raws:
                        self._publish(
                            pending.stream, ResultStream._deliver_chunk, chunk
                        )
                clips, denoise_seconds = executor.denoise_batch(
                    proposal.raws, proposal.templates, plan.rng
                )
                # Model-stage latency: sampling (attributed job share
                # under packing) plus this request's denoise.
                model_seconds = (
                    plan.generate_seconds if packed
                    else time.perf_counter() - t_model
                ) + denoise_seconds
                self.stats.stages.observe("model", model_seconds)
                staged.append((pending, plan, clips, denoise_seconds))
            except Exception as error:  # noqa: BLE001 - surfaced per request
                self._fail_request(pending, error)
        if not staged:
            return []
        if not packed:
            # Per-request sampling ran (chosen, forced, or the fallback
            # after a packed-stage failure): attribute its seconds to the
            # per-request capability label so future decisions
            # compare it against packed on real measurements.
            per_request = (
                "pooled" if executor.config.model_jobs > 1 else "serial"
            )
            self.tuner.record(
                decision.signature, per_request, sample_seconds, total_jobs
            )

        # One cached DRC sweep over the whole micro-batch: per-clip
        # verdicts are content-keyed, so splitting the mask back per
        # request is bit-identical to per-request sweeps.
        all_clips = [clip for _, _, clips, _ in staged for clip in clips]
        cache = executor.engine.cache
        hits0, misses0 = cache.hits, cache.misses
        try:
            # The sweep is retryable: DRC is a pure content-keyed check,
            # so re-running it consumes no request rng state.  The
            # jitter generator is fixed-seeded — the sweep is shared, so
            # no single request's seed may steer it.
            with protected():  # env-scoped fault plans may fire in here
                legal_all, drc_seconds = self.config.retry.run(
                    lambda: executor.check_batch(all_clips),
                    rng=np.random.default_rng(0x647263),
                    on_retry=self._count_retry,
                )
        except Exception as error:  # noqa: BLE001 - fail the whole batch
            for pending, _, _, _ in staged:
                self._fail_request(pending, error)
            return []
        # Attribute the sweep's cache traffic by candidate share, so a
        # request's batch reports its own traffic, not the whole sweep's.
        sizes = [len(clips) for _, _, clips, _ in staged]
        hit_shares = _split_by_share(cache.hits - hits0, sizes)
        miss_shares = _split_by_share(cache.misses - misses0, sizes)

        out = []
        offset = 0
        total = max(len(all_clips), 1)
        for (pending, plan, clips, denoise_seconds), hits, misses in zip(
            staged, hit_shares, miss_shares
        ):
            legal = legal_all[offset:offset + len(clips)]
            offset += len(clips)
            drc_share = drc_seconds * (len(clips) / total)
            self.stats.stages.observe("drc", drc_share)
            timings = StageTimings(
                denoise_seconds=denoise_seconds,
                # The shared sweep's cost, attributed by candidate share.
                drc_seconds=drc_share,
            )
            out.append(
                (pending, executor, plan, clips, legal, timings, hits, misses)
            )
        return out

    # ------------------------------------------------------------------
    # Commit stage (commit-thread side)
    # ------------------------------------------------------------------
    def _commit_loop(self) -> None:
        """Admit engine results in the order the engine thread queued
        them — arrival order (see :meth:`_serve_window`)."""
        while (token := self._commit_queue.get()) is not _STOP:
            self._commit_one(token)

    def _commit_one(self, token: _CommitToken) -> None:
        """Admit one request's results (or release a failed slot)."""
        pending = token.pending
        outcome = None
        try:
            if token.ready is not None:
                outcome = self._admit(pending, token.ready)
        finally:
            # Release the in-flight slot before publishing: a client
            # that has seen its result must also see it reflected in the
            # stats and gauges.
            self._release_live(pending)
            self._committed()
        if outcome is not None:
            self._publish(pending.stream, *outcome)

    def _admit(self, pending: PendingRequest, ready: tuple) -> tuple:
        """Admit staged results; returns the ``(deliver, payload)`` to
        publish on the request's stream."""
        _, executor, plan, clips, legal, timings, hits, misses = ready
        # Last boundary check: a request cancelled (or expired) while it
        # waited for commit is dropped *before* admission — nothing of
        # it reaches the session store.
        boundary = self._boundary_error(pending)
        if boundary is not None:
            self._count_failure(boundary)
            return ResultStream._deliver_error, boundary
        t0 = time.perf_counter()
        try:
            # Narrow protected() scope: the admit site is covered
            # (errors here are contained to this request), but the
            # session checkpoint below is not — an env-scoped snapshot
            # fault must not fail an unrelated request.
            with protected():
                maybe_fire("admit")
            legal_clips = [c for c, ok in zip(clips, legal) if ok]
            admitted = sum(executor.admit_batch(plan.library, legal_clips))
            batch = executor.assemble(
                plan, clips, legal, admitted, timings,
                cache_hits=hits, cache_misses=misses,
            )
            if pending.session_id is not None:
                session = self.sessions.get(pending.session_id)
                if session.record_batch() is not None:
                    with self._stats_lock:
                        self.stats.checkpoints += 1
        except Exception as error:  # noqa: BLE001 - surfaced per request
            self._count_failure(error)
            outcome = (ResultStream._deliver_error, error)
        else:
            with self._stats_lock:
                self.stats.completed += 1
            outcome = (ResultStream._deliver_result, batch)
        self.stats.stages.observe("admit", time.perf_counter() - t0)
        return outcome

    def _committed(self) -> None:
        """Release one in-flight slot and wake a paused gather loop."""
        with self._inflight_lock:
            self._inflight -= 1
        loop, event = self._loop, self._dispatch_event
        if loop is None or event is None:
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:  # loop already closed (late shutdown)
            pass
