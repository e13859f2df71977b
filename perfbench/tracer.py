"""Span tracing of the program from outside: wrap public functions at the
names their callers look them up by, record spans in memory, and write
each process's spans to its own file when the process ends.

Used only by traced runs.  :func:`install` runs inside a program process
(the ``generate`` child, or the ``repro serve`` launcher); forked pool and
fleet workers inherit the wrappers and flush their own spans at exit.
End-to-end metrics never come from a traced process.

A span is ``[name, start, end, parent, request_ids, attrs]``; ``parent``
is the index of the enclosing span on the same thread (or -1), and
``request_ids`` is a list of the request ids the span serves (inherited
from the parent when the call itself names none).  Times are
``time.perf_counter()``, which on Linux reads ``CLOCK_MONOTONIC`` and so
compares across processes of one host.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: Set (to a directory) in a program process's environment to trace it.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Recorder:
    """Per-process span, mark and counter store."""

    def __init__(self) -> None:
        self.directory: Path | None = None
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.marks: list[list] = []
        self.counters: dict[str, float] = {}
        self.local = threading.local()
        self.lock = threading.Lock()
        self.flushed = False

    # -- recording ------------------------------------------------------
    def begin(self, name: str, req) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        parent = stack[-1] if stack else None
        if req is None and parent is not None:
            req = parent[4]
        record = [name, time.perf_counter(), None,
                  parent[6] if parent is not None else -1, req, None, 0]
        with self.lock:
            record[6] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        return record

    def end(self, record: list, attrs) -> None:
        record[2] = time.perf_counter()
        record[5] = attrs
        stack = self.local.stack
        if stack and stack[-1] is record:
            stack.pop()
        elif record in stack:  # pragma: no cover - unbalanced exit
            stack.remove(record)

    def mark(self, name: str, req) -> None:
        with self.lock:
            self.marks.append([name, time.perf_counter(), req])

    def count(self, increments: dict) -> None:
        with self.lock:
            for key, value in increments.items():
                self.counters[key] = self.counters.get(key, 0) + value

    # -- output ---------------------------------------------------------
    def flush(self) -> None:
        if self.flushed or self.directory is None or os.getpid() != self.pid:
            return
        self.flushed = True
        # Indices are parent links, so unfinished spans stay (zero-length).
        spans = [[s[0], s[1], s[1] if s[2] is None else s[2], s[3], s[4], s[5]]
                 for s in self.spans]
        payload = {
            "pid": self.pid,
            "ppid": os.getppid(),
            "spans": spans,
            "marks": self.marks,
            "counters": self.counters,
        }
        path = self.directory / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)


#: The process's recorder.  Module-level on purpose: wrappers installed on
#: the program's classes and modules have no other way to reach it, and a
#: forked child resets it (see :func:`install`).
REC = Recorder()


def _after_fork_in_child() -> None:
    REC.reset()


def _after_mp_fork(recorder: Recorder) -> None:
    # multiprocessing clears its finalizer registry in a forked child
    # before running after-fork hooks, so the exit flush is registered
    # here; the child runs it from ``util._exit_function`` on exit.
    from multiprocessing import util

    util.Finalize(recorder, recorder.flush, exitpriority=100)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def span_wrapper(fn, name: str, *, req=None, attrs=None):
    """``fn`` timed as a span; ``req(args, kwargs)`` names its requests,
    ``attrs(args, kwargs, result)`` records numbers about the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = REC.begin(name, req(args, kwargs) if req else None)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            REC.end(record, None)
            raise
        REC.end(record, attrs(args, kwargs, result) if attrs else None)
        return result

    return wrapper


def mark_wrapper(fn, name: str, *, req=None):
    """Record the call instant (works for coroutine functions too)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rid = req(args, kwargs) if req else None
        if rid is not False:
            REC.mark(name, rid)
        return fn(*args, **kwargs)

    return wrapper


def count_wrapper(fn, counts):
    """Add ``counts(args, kwargs, result)`` to the process counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        REC.count(counts(args, kwargs, result))
        return result

    return wrapper


def patch_method(cls, attr: str, make) -> None:
    setattr(cls, attr, make(getattr(cls, attr)))


def patch_function(module, attr: str, make) -> None:
    """Replace a function in every loaded ``repro`` module that binds it.

    Callers that did ``from .x import f`` hold their own reference, so the
    function is swapped at each name it is looked up by.
    """
    original = getattr(module, attr)
    wrapper = make(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _request_ids(items) -> list[str]:
    return [getattr(getattr(e, "request", None), "request_id", "") for e in items]


def _wrap_sequencer_release(fn):
    """Time from a result's release to its in-order publication."""

    @functools.wraps(fn)
    def release(self, arrival, publish):
        released = time.perf_counter()

        def timed_publish():
            REC.count({"fleet.sequencer.releases": 1,
                       "fleet.sequencer.wait_s": time.perf_counter() - released})
            return publish()

        return fn(self, arrival, timed_publish)

    return release


def install(directory: str | os.PathLike) -> None:
    """Wrap every traced layer in this process; flush at exit."""
    import importlib

    REC.directory = Path(directory)
    REC.directory.mkdir(parents=True, exist_ok=True)
    os.register_at_fork(after_in_child=_after_fork_in_child)
    from multiprocessing import util

    util.register_after_fork(REC, _after_mp_fork)
    atexit.register(REC.flush)

    mods = {
        name: importlib.import_module(name)
        for name in (
            "repro.cli", "repro.nn.layers", "repro.nn.blocks", "repro.nn.unet",
            "repro.diffusion.inpaint", "repro.engine.executor",
            "repro.engine.modelpool", "repro.engine.tuner",
            "repro.core.template_denoise", "repro.drc.engine", "repro.drc.cache",
            "repro.library.store", "repro.library.sharded",
            "repro.library.persist", "repro.service.service",
            "repro.service.session", "repro.service.fleet",
            "repro.service.payload", "repro.service.server",
            "repro.zoo.artifacts", "repro.core.pipeline",
            "repro.engine.backends",
        )
    }
    layers, blocks, unet = (mods["repro.nn.layers"], mods["repro.nn.blocks"],
                            mods["repro.nn.unet"])

    # repro.nn
    patch_method(unet.TimeUnet, "forward", lambda f: span_wrapper(
        f, "nn.forward", attrs=lambda a, k, r: {"batch": int(a[1].shape[0])}))
    patch_method(layers.Conv2d, "forward", lambda f: span_wrapper(f, "nn.conv"))
    patch_method(layers.GroupNorm, "forward",
                 lambda f: span_wrapper(f, "nn.groupnorm"))
    patch_function(layers, "gn_silu", lambda f: span_wrapper(f, "nn.groupnorm"))
    patch_method(layers.SiLU, "forward", lambda f: span_wrapper(f, "nn.silu"))
    patch_method(blocks.SelfAttention2d, "forward",
                 lambda f: span_wrapper(f, "nn.attention"))

    # repro.diffusion
    inpaint = mods["repro.diffusion.inpaint"]
    for attr in ("inpaint", "inpaint_packed"):
        patch_function(inpaint, attr,
                       lambda f: span_wrapper(f, "diffusion.inpaint"))

    # repro.engine: model dispatch, pool chunks, post-processing
    executor = mods["repro.engine.executor"].BatchExecutor
    for attr in ("run_model_batched", "run_model_packed"):
        patch_method(executor, attr, lambda f: span_wrapper(f, "engine.model"))
    modelpool = mods["repro.engine.modelpool"]
    for attr in ("run_inpaint_chunk", "run_inpaint_packed_batch"):
        patch_function(modelpool, attr,
                       lambda f: span_wrapper(f, "engine.pool_chunk"))
    patch_method(mods["repro.engine.tuner"].ExecutionTuner, "choose",
                 lambda f: count_wrapper(
                     f, lambda a, k, r: {f"engine.model.mode.{r.mode}": 1}))
    patch_method(executor, "denoise_batch",
                 lambda f: span_wrapper(f, "engine.denoise"))
    patch_method(executor, "check_batch", lambda f: span_wrapper(f, "engine.drc"))
    patch_method(executor, "admit_batch",
                 lambda f: span_wrapper(f, "engine.admit"))

    # repro.core
    patch_function(mods["repro.core.template_denoise"], "template_denoise",
                   lambda f: span_wrapper(f, "core.template_denoise"))

    # repro.drc
    drc = mods["repro.drc.engine"].DrcEngine
    patch_method(drc, "check_batch", lambda f: span_wrapper(
        f, "drc.check_batch", attrs=lambda a, k, r: {"clips": int(len(r))}))
    patch_method(mods["repro.drc.cache"].DrcCache, "get", lambda f: count_wrapper(
        f, lambda a, k, r: {"drc.cache.lookups": 1,
                            "drc.cache.hits": int(r is not None)}))

    # repro.library
    def admit_attrs(a, k, r):
        flags = list(r)
        return {"offered": len(flags), "admitted": int(sum(flags))}

    for cls in (mods["repro.library.store"].InMemoryStore,
                mods["repro.library.sharded"].ShardedStore):
        for attr in ("admit_many", "merge"):
            patch_method(cls, attr, lambda f: span_wrapper(
                f, "library.admit", attrs=admit_attrs))
    patch_function(mods["repro.library.persist"], "save_library",
                   lambda f: span_wrapper(f, "library.snapshot"))

    # repro.service (worker side)
    service = mods["repro.service.service"].GenerationService
    patch_method(service, "_lane_serve", lambda f: span_wrapper(
        f, "service.lane_serve", req=lambda a, k: _request_ids(a[2].entries),
        attrs=lambda a, k, r: {"requests": len(a[2].entries)}))
    patch_method(service, "_commit_one", lambda f: span_wrapper(
        f, "service.commit",
        req=lambda a, k: ([a[1].pending.request.request_id]
                          if a[1].pending is not None else None)))

    # repro.service.fleet (front side)
    fleet = mods["repro.service.fleet"]
    patch_method(fleet.FleetService, "submit", lambda f: mark_wrapper(
        f, "fleet.submit", req=lambda a, k: [a[1].request_id]))
    patch_method(fleet._WorkerHandle, "send", lambda f: mark_wrapper(
        f, "fleet.send",
        req=lambda a, k: ([a[1][1].request_id]
                          if a[1] and a[1][0] == "submit" else False)))
    patch_method(fleet._CommitSequencer, "release", _wrap_sequencer_release)
    patch_method(fleet.FleetService, "_fork_worker",
                 lambda f: span_wrapper(f, "setup.pool_spawn"))
    patch_method(fleet.FleetService, "_await_ready",
                 lambda f: span_wrapper(f, "setup.pool_spawn"))

    # Wire: payload encoding and framing (front side)
    payload = mods["repro.service.payload"]
    patch_function(payload, "encode_payload",
                   lambda f: span_wrapper(f, "wire.encode"))
    patch_function(payload, "payload_frames", lambda f: span_wrapper(
        f, "wire.encode", req=lambda a, k: [a[0]],
        attrs=lambda a, k, r: {"kind": a[1]}))

    # Set-up: model rehydration
    artifacts = mods["repro.zoo.artifacts"]
    for attr in ("finetuned", "pretrained"):
        patch_function(artifacts, attr,
                       lambda f: span_wrapper(f, "setup.model_load"))


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def load(directory: Path) -> list[dict]:
    """Every process's flushed trace file in ``directory``."""
    out = []
    for path in sorted(Path(directory).glob("spans-*.json")):
        out.append(json.loads(path.read_text()))
    return out


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append(span)
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        kids = [(max(start, c[1]), min(end, c[2]))
                for c in children.get(index, ()) if c[2] > start and c[1] < end]
        out.append((end - start) - covered(kids))
    return out


def outermost(spans: list, index: int) -> bool:
    """True when no ancestor of span ``index`` has the same name."""
    name = spans[index][0]
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True
