"""The per-layer ledger of a traced run.

Spans come from every program process's trace file; a span counts when it
starts inside the measured window.  Counters (DRC cache lookups, tuner
mode choices, sequencer waits) cover the whole traced process lifetime,
warm-up included.  The ``op: "stats"`` deltas, ``/proc`` CPU and the
client-side wire counts come from the same run.
"""

from __future__ import annotations

import statistics

import tracer

#: Per-layer metrics: (name, unit, better).  Every traced run reports all
#: of them; a layer a workload does not reach reads 0.
PER_LAYER = (
    ("nn.forward.calls", "count", "lower"),
    ("nn.forward.busy_s", "s", "lower"),
    ("nn.forward.batch_mean", "count", "higher"),
    ("nn.forward.ms_per_sample", "ms", "lower"),
    ("nn.conv.self_s", "s", "lower"),
    ("nn.groupnorm.self_s", "s", "lower"),
    ("nn.silu.self_s", "s", "lower"),
    ("nn.attention.self_s", "s", "lower"),
    ("diffusion.inpaint.calls", "count", "lower"),
    ("diffusion.inpaint.self_s", "s", "lower"),
    ("diffusion.steps_per_call", "count", "lower"),
    ("engine.model.busy_s", "s", "lower"),
    ("engine.model.mode.serial", "count", "lower"),
    ("engine.model.mode.pooled", "count", "higher"),
    ("engine.model.mode.packed", "count", "higher"),
    ("engine.model.dispatch_overhead_s", "s", "lower"),
    ("engine.denoise.busy_s", "s", "lower"),
    ("engine.drc.busy_s", "s", "lower"),
    ("engine.admit.busy_s", "s", "lower"),
    ("engine.retries", "count", "lower"),
    ("core.template_denoise.calls", "count", "lower"),
    ("core.template_denoise.busy_s", "s", "lower"),
    ("drc.check_batch.calls", "count", "lower"),
    ("drc.check_batch.busy_s", "s", "lower"),
    ("drc.clips", "count", "lower"),
    ("drc.cache.hit_ratio", "ratio", "higher"),
    ("library.admit.busy_s", "s", "lower"),
    ("library.admit.offered", "count", "higher"),
    ("library.admit.new_ratio", "ratio", "higher"),
    ("library.snapshot.writes", "count", "lower"),
    ("library.snapshot.busy_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.gather_s", "s", "lower"),
    ("service.model_stage_s", "s", "lower"),
    ("service.drc_stage_s", "s", "lower"),
    ("service.admit_stage_s", "s", "lower"),
    ("service.microbatches", "count", "lower"),
    ("service.requests_per_microbatch", "count", "higher"),
    ("service.packed_fill", "ratio", "higher"),
    ("service.commit_wait_s", "s", "lower"),
    ("fleet.route_wait_s", "s", "lower"),
    ("fleet.sequencer_wait_s", "s", "lower"),
    ("fleet.worker_share_max", "ratio", "lower"),
    ("fleet.respawns", "count", "lower"),
    ("wire.encode.busy_s", "s", "lower"),
    ("wire.bytes_per_request", "B", "lower"),
    ("wire.frames_per_request", "count", "lower"),
    ("wire.pages_per_request", "count", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.model_load_s", "s", "lower"),
    ("setup.pool_spawn_s", "s", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("proc.cpu_s.front", "s", "lower"),
    ("proc.cpu_s.worker", "s", "lower"),
    ("proc.cpu_s.pool", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


class Spans:
    """Flattened spans of several processes, with self times."""

    def __init__(self, procs: list[dict], window: tuple[float, float] | None):
        self.rows = []  # (name, start, end, self, outermost, attrs, req, pid)
        self.marks = []
        self.counters: dict[str, float] = {}
        lo, hi = window if window else (float("-inf"), float("inf"))
        for proc in procs:
            spans = proc["spans"]
            selfs = tracer.self_times(spans)
            for index, span in enumerate(spans):
                if lo <= span[1] <= hi:
                    self.rows.append((span[0], span[1], span[2], selfs[index],
                                      tracer.outermost(spans, index), span[5] or {},
                                      span[4], proc["pid"]))
            self.marks.extend((m[0], m[1], m[2], proc["pid"]) for m in proc["marks"]
                              if lo <= m[1] <= hi)
            for key, value in proc["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + value

    def named(self, name: str, outer_only: bool = True):
        return [r for r in self.rows if r[0] == name and (r[4] or not outer_only)]

    def calls(self, name: str) -> int:
        return len(self.named(name, outer_only=False))

    def busy(self, name: str) -> float:
        return sum(r[2] - r[1] for r in self.named(name))

    def self_s(self, name: str) -> float:
        return sum(r[3] for r in self.rows if r[0] == name)

    def attr_sum(self, name: str, key: str) -> float:
        return sum(r[5].get(key, 0) for r in self.named(name))


def _layers(spans: Spans) -> dict:
    """Metrics computed the same way for every workload."""
    forwards = spans.named("nn.forward", outer_only=False)
    batch = sum(r[5].get("batch", 0) for r in forwards)
    forward_busy = spans.busy("nn.forward")
    inpaints = spans.calls("diffusion.inpaint")
    offered = spans.attr_sum("library.admit", "offered")
    lookups = spans.counters.get("drc.cache.lookups", 0)
    return {
        "nn.forward.calls": len(forwards),
        "nn.forward.busy_s": forward_busy,
        "nn.forward.batch_mean": batch / len(forwards) if forwards else 0.0,
        "nn.forward.ms_per_sample": 1000.0 * forward_busy / batch if batch else 0.0,
        "nn.conv.self_s": spans.self_s("nn.conv"),
        "nn.groupnorm.self_s": spans.self_s("nn.groupnorm"),
        "nn.silu.self_s": spans.self_s("nn.silu"),
        "nn.attention.self_s": spans.self_s("nn.attention"),
        "diffusion.inpaint.calls": inpaints,
        "diffusion.inpaint.self_s": spans.self_s("diffusion.inpaint"),
        "diffusion.steps_per_call": len(forwards) / inpaints if inpaints else 0.0,
        "engine.model.busy_s": spans.busy("engine.model"),
        "engine.model.mode.serial": spans.counters.get("engine.model.mode.serial", 0),
        "engine.model.mode.pooled": spans.counters.get("engine.model.mode.pooled", 0),
        "engine.model.mode.packed": spans.counters.get("engine.model.mode.packed", 0),
        "engine.denoise.busy_s": spans.busy("engine.denoise"),
        "engine.drc.busy_s": spans.busy("engine.drc"),
        "engine.admit.busy_s": spans.busy("engine.admit"),
        "core.template_denoise.calls": spans.calls("core.template_denoise"),
        "core.template_denoise.busy_s": spans.busy("core.template_denoise"),
        "drc.check_batch.calls": spans.calls("drc.check_batch"),
        "drc.check_batch.busy_s": spans.busy("drc.check_batch"),
        "drc.clips": spans.attr_sum("drc.check_batch", "clips"),
        "drc.cache.hit_ratio": (spans.counters.get("drc.cache.hits", 0) / lookups
                                if lookups else 0.0),
        "library.admit.busy_s": spans.busy("library.admit"),
        "library.admit.offered": offered,
        "library.admit.new_ratio": (spans.attr_sum("library.admit", "admitted") / offered
                                    if offered else 0.0),
        "library.snapshot.writes": spans.calls("library.snapshot"),
        "library.snapshot.busy_s": spans.busy("library.snapshot"),
    }


def _pooled_dispatch(spans: Spans) -> tuple[float, float]:
    """Mean (dispatch overhead, pool start-up) over pooled model stages.

    Overhead is the stage's wall minus its longest worker chunk; start-up
    is the wait from the stage's start to the first chunk starting.
    """
    chunks = spans.named("engine.pool_chunk", outer_only=False)
    overheads, startups = [], []
    for stage in spans.named("engine.model"):
        inside = [c for c in chunks if stage[1] <= c[1] <= stage[2] and c[7] != stage[7]]
        if inside:
            overheads.append((stage[2] - stage[1]) - max(c[2] - c[1] for c in inside))
            startups.append(min(c[1] for c in inside) - stage[1])
    return _mean(overheads), _mean(startups)


def _service_zero() -> dict:
    return {name: 0.0 for name, _, _ in PER_LAYER
            if name.split(".")[0] in ("service", "fleet", "wire")}


def generate_ledger(ctx, *, window, readies, warmup_s, cpu, overhead) -> dict:
    spans = Spans(tracer.load(ctx.trace_dir), window)
    overhead_s, startup_s = _pooled_dispatch(spans)
    metrics = _service_zero()
    metrics.update(_layers(spans))
    metrics.update({
        "engine.model.dispatch_overhead_s": overhead_s,
        "engine.retries": 0,
        "setup.import_s": statistics.median(r["import_s"] for r in readies),
        "setup.model_load_s": statistics.median(r["model_load_s"] for r in readies),
        "setup.pool_spawn_s": startup_s,
        "setup.warmup_s": warmup_s,
        "proc.cpu_s.front": cpu["front"],
        "proc.cpu_s.worker": 0.0,
        "proc.cpu_s.pool": cpu["pool"],
        "trace.overhead_ratio": overhead,
    })
    return metrics


def serve_ledger(ctx, *, window, items, timeline, overhead) -> dict:
    procs = tracer.load(ctx.trace_dir)
    front = timeline["pid"]
    mine = [p for p in procs if p["pid"] == front or p["ppid"] == front]
    spans = Spans(mine, window)
    setup = Spans(mine, None)
    stats = timeline["stats"]

    commits = {r[6][0]: r[2] for r in spans.named("service.commit") if r[6]}
    published = {r[6][0]: r[1] for r in spans.named("wire.encode", outer_only=False)
                 if r[5].get("kind") == "result" and r[6]}
    submits = {m[2][0]: m[1] for m in spans.marks if m[0] == "fleet.submit"}
    sends = {m[2][0]: m[1] for m in spans.marks if m[0] == "fleet.send"}
    releases = spans.counters.get("fleet.sequencer.releases", 0)
    lanes = spans.named("service.lane_serve")

    metrics = _layers(spans)
    overhead_s, _ = _pooled_dispatch(spans)
    n = max(len(items), 1)
    metrics.update({
        "engine.model.dispatch_overhead_s": overhead_s,
        "engine.retries": stats["retries"],
        "service.queue_wait_s": stats["stage.queue"],
        "service.gather_s": stats["stage.gather"],
        "service.model_stage_s": stats["stage.model"],
        "service.drc_stage_s": stats["stage.drc"],
        "service.admit_stage_s": stats["stage.admit"],
        "service.microbatches": stats["micro_batches"],
        "service.requests_per_microbatch": _mean(r[5].get("requests", 0) for r in lanes),
        "service.packed_fill": stats["pack_fill"],
        "service.commit_wait_s": _mean(published[rid] - end for rid, end in commits.items()
                                       if rid in published),
        "fleet.route_wait_s": _mean(sends[rid] - t for rid, t in submits.items()
                                    if rid in sends),
        "fleet.sequencer_wait_s": (spans.counters.get("fleet.sequencer.wait_s", 0.0)
                                   / releases if releases else 0.0),
        "fleet.worker_share_max": stats["worker_share_max"],
        "fleet.respawns": stats["respawns"],
        "wire.encode.busy_s": spans.busy("wire.encode"),
        "wire.bytes_per_request": sum(p.bytes for p in items) / n,
        "wire.frames_per_request": sum(p.frames for p in items) / n,
        "wire.pages_per_request": sum(p.pages for p in items) / n,
        "setup.import_s": setup.busy("setup.import"),
        "setup.model_load_s": setup.busy("setup.model_load"),
        "setup.pool_spawn_s": setup.busy("setup.pool_spawn"),
        "setup.warmup_s": timeline["warmup_s"],
        "proc.cpu_s.front": timeline["cpu"]["front"],
        "proc.cpu_s.worker": timeline["cpu"]["worker"],
        "proc.cpu_s.pool": timeline["cpu"]["pool"],
        "trace.overhead_ratio": overhead,
    })
    return metrics
