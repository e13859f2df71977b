"""The three workloads: ``generate``, ``serve_pp`` and ``serve_rule``.

Each returns a :class:`Outcome`: the end-to-end metrics (untraced runs),
or the per-layer ledger (traced runs), plus the output-check verdict and
a report of everything else worth reading (tail percentile and sample
counts, generator lateness, per-phase counts, host, checkpoint digest).
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    BENCH,
    CACHE,
    start_time,
    tree_depths,
    cpu_by_role,
    cpu_snapshot,
    median,
    percentile,
    program_env,
    RssMonitor,
    tail,
)
import ledger
from loadgen import Connection, Pending
import tracer

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: End-to-end metrics (name, unit) every untraced run reports.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("samples_per_s", "1/s"),
    ("peak_rps", "1/s"),
    ("slo_share", "ratio"),
    ("yield_per_cpu_s", "1/s"),
    ("legality", "ratio"),
    ("diversity_h2", "bits"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: int
    trace: bool
    rundir: Path
    artifacts: Path

    def env(self, traced: bool = False) -> dict:
        extra = {}
        if traced:
            extra[tracer.TRACE_DIR_ENV] = str(self.trace_dir)
        return program_env(self.tmpdir, self.artifacts, extra)

    @property
    def tmpdir(self) -> Path:
        path = self.rundir / "tmp"
        path.mkdir(parents=True, exist_ok=True)
        return path

    @property
    def trace_dir(self) -> Path:
        return self.rundir / "trace"

    def rng(self, tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tag])


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    correct: bool
    report: dict = field(default_factory=dict)


def _readline(stream, timeout: float) -> str:
    ready, _, _ = select.select([stream], [], [], timeout)
    if not ready:
        raise TimeoutError("program process did not answer in time")
    line = stream.readline()
    if not line:
        raise RuntimeError("program process exited unexpectedly")
    return line


def _stop(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """Stop a program process and every process under it.

    SIGTERM lets ``repro serve`` drain and stop its fleet, and the
    ``generate`` child close its pools; whatever of the tree is still
    alive after ``timeout`` is killed, and the call returns once all of
    it is gone.
    """
    tree = {pid: start_time(pid) for pid in tree_depths(proc.pid)}
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass

    def alive():  # same pid *and* start time: never a recycled pid
        return [pid for pid, started in tree.items()
                if pid != proc.pid and started is not None
                and start_time(pid) == started]

    for pid in alive():
        os.kill(pid, signal.SIGKILL)
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    deadline = time.monotonic() + timeout
    while alive() and time.monotonic() < deadline:
        time.sleep(0.02)


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# generate: offline library generation, closed loop, one call at a time
# ----------------------------------------------------------------------
GEN_COUNT = 64
GEN_LIMIT_S = 15.0

#: Request seeds of ``generate``, taken in a seed-shuffled order.  Quality
#: (legality, diversity, yield) is averaged per distinct seed, so every
#: run scores the same inputs: with a fresh seed per call, legality's
#: spread over ten runs was 0.2 of its median.
GEN_SEEDS = (1009, 2011)

#: The untimed warm-up: a small call through the same path, which loads
#: the modules and caches a first call would otherwise pay for.
GEN_WARMUP = (7, 8)  # (seed, count)


class GenChild:
    """One ``gen_child.py`` process, spoken to over pipes."""

    def __init__(self, ctx: Context, traced: bool):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "gen_child.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=open(ctx.rundir / "program.log", "a"),
            env=ctx.env(traced), cwd=ctx.rundir, text=True,
        )
        try:
            self.ready = json.loads(_readline(self.proc.stdout, 120))
        except BaseException:
            _stop(self.proc)
            raise
        self.setup_s = time.perf_counter() - self.start

    def call(self, seed: int, count: int = GEN_COUNT) -> dict:
        self.proc.stdin.write(json.dumps({"op": "call", "seed": seed,
                                          "count": count}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(_readline(self.proc.stdout, 150))
        if reply["event"] != "done":
            raise RuntimeError(f"generate call failed: {reply.get('message')}")
        return reply

    def close(self) -> None:
        try:
            self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        _stop(self.proc)


def _reference_digests(weights: str) -> Path:
    """Per-seed output digests of earlier runs on the same model."""
    return CACHE / "refs" / f"generate-{weights[:16]}.json"


def run_generate(ctx: Context, weights: str) -> Outcome:
    order = ctx.rng(1).permutation(len(GEN_SEEDS))
    seeds = [GEN_SEEDS[order[i % len(GEN_SEEDS)]] for i in range(64)]
    report: dict = {}
    overhead = None
    if ctx.trace:
        # Untraced reference for the tracing overhead: the first timed
        # call's seed, in a warmed-up child.
        plain = GenChild(ctx, traced=False)
        try:
            plain.call(*GEN_WARMUP)
            overhead = plain.call(seeds[0])["wall"]
        finally:
            plain.close()

    readies, setups = [], []
    child = None
    for i in range(SETUPS):
        child = GenChild(ctx, traced=ctx.trace)
        readies.append(child.ready)
        setups.append(child.setup_s)
        if i < SETUPS - 1:
            child.close()
    try:
        with RssMonitor(child.proc.pid) as rss:
            warm = child.call(*GEN_WARMUP)
            t0 = time.perf_counter()
            calls, cpus = [], []
            while True:
                before = cpu_snapshot(child.proc.pid)
                calls.append(child.call(seeds[len(calls)]))
                cpus.append(cpu_by_role(before, cpu_snapshot(child.proc.pid),
                                        {0: "front", 1: "pool"}))
                if len(calls) >= 2 and time.perf_counter() - t0 >= ctx.seconds:
                    break
            t1 = time.perf_counter()
    finally:
        child.close()

    # Output check: a seed's outputs must match every other call of that
    # seed, in this run and in earlier runs in this checkout.
    mismatches = []
    ref_path = _reference_digests(weights)
    refs = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    for seed, count, call in [(*GEN_WARMUP, warm)] + [
            (seed, GEN_COUNT, call) for seed, call in zip(seeds, calls)]:
        known = refs.setdefault(f"{seed}/{count}", call["sha256"])
        if known != call["sha256"]:
            mismatches.append(f"seed {seed}: outputs differ from an earlier call")
        if call["attempts"] != count or call["clips"] != count:
            mismatches.append(f"seed {seed}: {call['clips']} clips for "
                              f"{call['attempts']} attempts")
    ref_path.parent.mkdir(parents=True, exist_ok=True)
    ref_path.write_text(json.dumps(refs, sort_keys=True))
    failed = len({m.split(":")[0] for m in mismatches})

    walls = [c["wall"] for c in calls]
    cpu = {role: sum(c[role] for c in cpus) for role in ("front", "pool")}
    per_seed: dict[int, list] = {}
    for seed, call, used in zip(seeds, calls, cpus):
        per_seed.setdefault(seed, []).append(
            (call["legal"] / call["attempts"], call["h2"],
             call["admitted"] / sum(used.values())))
    quality = [np.mean(v, axis=0) for v in per_seed.values()]
    tail_value, tail_pct, beyond = tail(walls)
    report.update(
        phases={"warmup": {"sent": 1, "succeeded": 1, "failed": 0},
                "timed": {"sent": len(calls), "succeeded": len(calls) - failed,
                          "failed": failed}},
        calls=len(calls),
        seeds=seeds[:len(calls)],
        modes=[c["modes"] for c in calls],
        tail_percentile=tail_pct,
        tail_beyond=beyond,
        samples=len(walls),
        walls=walls,
        warmup_s=warm["wall"],
        setups=setups,
        cpu_s=cpu,
        mismatches=mismatches,
        fail_share=_share(failed, len(calls) + 1),
    )
    if ctx.trace:
        metrics = ledger.generate_ledger(
            ctx, window=(t0, t1), readies=readies, warmup_s=warm["wall"],
            cpu=cpu, overhead=calls[0]["wall"] / overhead,
        )
    else:
        metrics = {
            "setup_s": median(setups),
            "latency_p50_s": median(walls),
            "latency_tail_s": tail_value,
            "samples_per_s": GEN_COUNT * len(calls) / sum(walls),
            "peak_rps": len(calls) / sum(walls),
            "slo_share": _share(sum(w <= GEN_LIMIT_S for w in walls), len(calls)),
            "yield_per_cpu_s": float(np.mean([q[2] for q in quality])),
            "legality": float(np.mean([q[0] for q in quality])),
            "diversity_h2": float(np.mean([q[1] for q in quality])),
            "peak_rss_mb": rss.peak_mb,
        }
    return Outcome(metrics, attempted=len(calls) + 1, failed=failed,
                   correct=not mismatches, report=report)


# ----------------------------------------------------------------------
# serve_*: open loop against `repro serve --workers 2`
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeSpec:
    backend: str
    count: int
    payload: str
    rate: float          # nominal arrivals per second
    limit_s: float       # latency limit at the nominal rate
    warmup: int          # warm-up requests, one per tenant at a time
    burst: int           # saturation-phase requests, due at once
    checks: int          # reference-checked requests per tenant
    sessions: bool       # tenants as sessions (else as params)
    pool: int            # request seeds come from range(pool)
    cycle: bool          # each pool seed in turn (else drawn at random)


SERVE = {
    "serve_pp": ServeSpec("patternpaint", 2, "npz", rate=2.0, limit_s=1.5,
                          warmup=8, burst=24, checks=3, sessions=False,
                          pool=27, cycle=True),
    "serve_rule": ServeSpec("rule", 8, "b64", rate=20.0, limit_s=0.25,
                            warmup=40, burst=240, checks=24, sessions=True,
                            pool=200, cycle=False),
}
TENANTS = ("tenant-a", "tenant-b")


#: The generator fell behind when its nominal sends ran this late at p99
#: (sustained), or any one of them this late (a stall).
LATE_P99_S = 0.025
LATE_MAX_S = 0.500


def build_schedule(spec: ServeSpec, rng: np.random.Generator,
                   seconds: float) -> dict[str, list[Pending]]:
    """Every request of a run, by phase; a pure function of ``rng``.

    ``due`` offsets are relative to their phase's start; nominal arrivals
    are evenly spaced at the spec's rate (see README.md).  ``serve_pp``
    cycles its 27 seeds in a shuffled order (twice over its 54 timed
    requests at 15 s), so every run serves the same inputs and its
    quality metrics compare like with like.  ``serve_rule`` draws from 200 seeds: later requests
    repeat earlier clips (DRC cache hits, dedup rejects) while the first
    sight of a seed drives admission and snapshot writes.
    """
    nominal = max(1, round(spec.rate * seconds))
    offsets = [(i + 1) / spec.rate for i in range(nominal)]
    phases: dict[str, list[Pending]] = {}
    order = rng.permutation(spec.pool)
    drawn = 0
    for phase, n, dues in (
        ("warmup", spec.warmup, [0.0] * spec.warmup),
        ("nominal", nominal, offsets),
        ("saturation", spec.burst, [0.0] * spec.burst),
    ):
        items = []
        for i in range(n):
            tenant = TENANTS[i % 2]  # one per worker: an even split
            if phase == "warmup":
                seed = 1_000_000_000 + i  # outside the pool: no cache warm-up
            elif spec.cycle:
                seed = int(order[drawn % spec.pool])
                drawn += 1
            else:
                seed = int(rng.integers(spec.pool))
            message = {
                "backend": spec.backend,
                "count": spec.count,
                "seed": seed,
                "payload": spec.payload,
                "request_id": f"{phase[0]}{i:05d}",
            }
            if spec.sessions:
                message["session"] = tenant
            else:
                message["params"] = {"tenant": tenant}
            items.append(Pending(message=message, phase=phase, due=dues[i]))
        phases[phase] = items
    return phases


class Server:
    """One ``repro serve --workers 2`` process (plain or traced)."""

    def __init__(self, ctx: Context, spec: ServeSpec, traced: bool, tag: str):
        args = ["serve", "--port", "0", "--workers", "2", "--deck", "advanced"]
        if spec.sessions:
            session_dir = ctx.rundir / f"sessions-{tag}"
            shutil.rmtree(session_dir, ignore_errors=True)
            args += ["--session-dir", str(session_dir), "--checkpoint-every", "8"]
        if traced:
            cmd = [sys.executable, str(BENCH / "serve_launcher.py"), *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE,
            stderr=open(ctx.rundir / "program.log", "a"),
            env=ctx.env(traced), cwd=ctx.rundir, text=True,
        )
        try:
            line = _readline(self.proc.stdout, 60)
            if "listening on" not in line:
                raise RuntimeError(f"unexpected server banner: {line!r}")
            self.port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", self.port), timeout=60) as sock:
                sock.sendall(b'{"op": "ping"}\n')
                reply = sock.makefile().readline()
            if json.loads(reply).get("event") != "pong":
                raise RuntimeError(f"unexpected ping reply: {reply!r}")
        except BaseException:
            _stop(self.proc)
            raise
        self.setup_s = time.perf_counter() - self.start

    def stop(self) -> None:
        _stop(self.proc)


def _stats_delta(before: dict, after: dict) -> dict:
    out = {key: after.get(key, 0) - before.get(key, 0)
           for key in ("completed", "failed", "retries", "micro_batches",
                       "checkpoints", "packed_batches", "packed_jobs")}
    for stage in ("queue", "gather", "model", "drc", "admit"):
        a, b = after["stages"].get(stage, {}), before["stages"].get(stage, {})
        count = a.get("count", 0) - b.get("count", 0)
        total = a.get("total_ms", 0.0) - b.get("total_ms", 0.0)
        out[f"stage.{stage}"] = total / 1000.0 / count if count else 0.0
    fleet_a, fleet_b = after.get("fleet", {}), before.get("fleet", {})
    out["respawns"] = fleet_a.get("respawns", 0) - fleet_b.get("respawns", 0)
    routed_b = {w["worker"]: w["routed"] for w in fleet_b.get("workers", [])}
    routed = [w["routed"] - routed_b.get(w["worker"], 0)
              for w in fleet_a.get("workers", [])]
    out["worker_share_max"] = _share(max(routed, default=0), sum(routed))
    fills = [(w["stats"].get("packed_batches", 0), w["stats"].get("pack_fill", 0.0))
             for w in fleet_a.get("workers", []) if "stats" in w]
    out["pack_fill"] = _share(sum(n * f for n, f in fills), sum(n for n, _ in fills))
    return out


async def _drive(ctx: Context, spec: ServeSpec, server: Server,
                 phases: dict[str, list[Pending]], rss: RssMonitor) -> dict:
    """Warm-up, nominal and saturation phases, one connection each.

    A fresh connection per phase keeps the generator to one connection at
    a time while letting the server release the previous phase's streams.
    """
    timeline = {}

    async def phase(name: str, start_delay: float, timeout: float, before=None,
                    step: int | None = None):
        """Run a phase; with ``step``, in closed-loop groups of that size."""
        conn = await Connection.open("127.0.0.1", server.port)
        try:
            if before is not None:
                await before(conn)
            items = phases[name]
            step = step or len(items)
            start = time.perf_counter() + start_delay
            for first in range(0, len(items), step):
                await conn.run(items[first:first + step],
                               max(start, time.perf_counter()), timeout)
            return start, conn, time.perf_counter()
        finally:
            if name != "saturation":
                await conn.close()

    async def window_start(conn):
        timeline["stats0"] = await conn.op({"op": "stats"})
        timeline["cpu0"] = cpu_snapshot(server.proc.pid)
        timeline["t0"] = time.perf_counter()

    # One request per tenant at a time: the warm-up loads the model and
    # fills caches without packing, whose batch sizes depend on timing.
    start, _, end = await phase("warmup", 0.0, 60, step=len(TENANTS))
    timeline["warmup_s"] = end - start
    await phase("nominal", 0.05, ctx.seconds + 60, before=window_start)
    rss.sample()
    timeline["rss_nominal_mb"] = rss.peak_mb
    burst_start, conn, timeline["t1"] = await phase("saturation", 0.0, 90)
    try:
        done = [p.done for p in phases["saturation"] if p.ok]
        timeline["burst_s"] = (max(done) if done else timeline["t1"]) - burst_start
        cpu1 = cpu_snapshot(server.proc.pid)
        stats1 = await conn.op({"op": "stats"})
    finally:
        await conn.close()
    timeline["cpu"] = cpu_by_role(timeline.pop("cpu0"), cpu1,
                                  {0: "front", 1: "worker", 2: "pool"})
    timeline["stats"] = _stats_delta(timeline.pop("stats0"), stats1)
    return timeline


def _check_outputs(spec: ServeSpec, phases: dict, rng: np.random.Generator) -> list[str]:
    """Wire-level sanity for every request, and bit-identity with a serial
    ``run_generation`` for a seeded sample of each tenant's requests."""
    from repro.drc.decks import deck_by_name
    from repro.engine import GenerationRequest, run_generation
    from repro.zoo.corpora import EXPERIMENT_GRID

    problems = []
    timed = phases["nominal"] + phases["saturation"]
    for item in phases["warmup"] + timed:
        if not item.ok:
            problems.append(f"{item.request_id}: {item.error or 'no result'}")
            continue
        result, clips = item.result, item.clips or []
        mask = result.get("legal_mask", [])
        if not (result["attempts"] == spec.count == len(clips) == len(mask)
                and result["legal"] == sum(mask)):
            problems.append(f"{item.request_id}: inconsistent result frame")
    deck = deck_by_name("advanced", EXPERIMENT_GRID)
    bad = {problem.split(":")[0] for problem in problems}
    for tenant in TENANTS:
        mine = [p for p in timed if p.request_id not in bad and tenant in (
            p.message.get("session"), p.message.get("params", {}).get("tenant"))]
        picks = rng.choice(len(mine), size=min(spec.checks, len(mine)), replace=False)
        for index in sorted(int(i) for i in picks):
            item = mine[index]
            msg = item.message
            batch = run_generation(GenerationRequest(
                backend=msg["backend"], count=msg["count"], seed=msg["seed"],
                deck=deck, params=msg.get("params", {}),
            ))
            same = (
                len(batch.clips) == len(item.clips)
                and all(a.dtype == b.dtype and np.array_equal(a, b)
                        for a, b in zip(batch.clips, item.clips))
                and [int(v) for v in batch.legal] == item.result["legal_mask"]
            )
            if not same:
                problems.append(f"{item.request_id}: differs from serial run_generation")
    return problems


def run_serve(ctx: Context, weights: str) -> Outcome:
    spec = SERVE[ctx.workload]
    report: dict = {}
    overhead = None
    if ctx.trace:
        # Untraced reference for the tracing overhead: the same schedule,
        # compared on the saturation burst's wall time.
        plain = Server(ctx, spec, traced=False, tag="plain")
        try:
            overhead = asyncio.run(_drive(
                ctx, spec, plain, build_schedule(spec, ctx.rng(2), ctx.seconds),
                RssMonitor(plain.proc.pid),
            ))["burst_s"]
        finally:
            plain.stop()

    phases = build_schedule(spec, ctx.rng(2), ctx.seconds)
    setups = []
    server = None
    for i in range(SETUPS):
        server = Server(ctx, spec, traced=ctx.trace, tag=str(i))
        setups.append(server.setup_s)
        if i < SETUPS - 1:
            server.stop()
    try:
        with RssMonitor(server.proc.pid) as rss:
            timeline = asyncio.run(_drive(ctx, spec, server, phases, rss))
        timeline["pid"] = server.proc.pid
    finally:
        server.stop()

    problems = _check_outputs(spec, phases, ctx.rng(3))
    nominal, burst = phases["nominal"], phases["saturation"]
    lates = [p.late for p in nominal]
    behind = (percentile(lates, 99) > LATE_P99_S or max(lates) > LATE_MAX_S)
    bad = {p.split(":")[0] for p in problems}
    window = nominal + burst
    ok = [p for p in window if p.request_id not in bad]
    # Quality counts every request of the run: more clips, steadier ratios.
    served = [p for p in phases["warmup"] + window if p.request_id not in bad]
    latencies = [p.latency for p in nominal if p.request_id not in bad]
    if not latencies:
        raise RuntimeError(f"no nominal request succeeded: {problems[:5]}")
    tail_value, tail_pct, beyond = tail(latencies)
    attempts = sum(p.result["attempts"] for p in served)
    legal_clips = {}
    for p in served:
        for clip, legal in zip(p.clips, p.result["legal_mask"]):
            if legal:
                legal_clips.setdefault(clip.tobytes(), clip)
    all_items = phases["warmup"] + window
    report.update(
        tail_percentile=tail_pct,
        tail_beyond=beyond,
        samples=len(latencies),
        latency_s={f"p{q}": percentile(latencies, q) for q in (50, 90, 95, 99, 100)},
        generator_late_ms={"max": 1000 * max(lates),
                           "p99": 1000 * percentile(lates, 99)},
        generator_behind=behind,
        phases={
            name: {"sent": len(items),
                   "succeeded": sum(p.ok and p.request_id not in bad for p in items),
                   "failed": sum(not p.ok or p.request_id in bad for p in items)}
            for name, items in phases.items()
        },
        warmup_s=timeline["warmup_s"],
        burst_s=timeline["burst_s"],
        peak_rss_run_mb=rss.peak_mb,
        setups=setups,
        cpu_s=timeline["cpu"],
        stats=timeline["stats"],
        problems=problems[:20],
        fail_share=_share(len(bad), len(all_items)),
    )
    if ctx.trace:
        metrics = ledger.serve_ledger(
            ctx, window=(timeline["t0"], timeline["t1"]), items=window,
            timeline=timeline, overhead=timeline["burst_s"] / overhead,
        )
    else:
        from repro.metrics.diversity import summarize_library

        metrics = {
            "setup_s": median(setups),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_value,
            "samples_per_s": spec.count * len(burst) / timeline["burst_s"],
            "peak_rps": len(burst) / timeline["burst_s"],
            "slo_share": _share(sum(p.latency <= spec.limit_s for p in nominal
                                    if p.request_id not in bad), len(nominal)),
            "yield_per_cpu_s": sum(p.result["admitted"] for p in ok)
            / sum(timeline["cpu"].values()),
            "legality": _share(sum(p.result["legal"] for p in served), attempts),
            "diversity_h2": summarize_library(list(legal_clips.values())).h2,
            # Through the nominal phase: the burst's packed-batch workspaces
            # depend on how the burst happens to coalesce (see README.md).
            "peak_rss_mb": timeline["rss_nominal_mb"],
        }
    return Outcome(metrics, attempted=len(all_items), failed=len(bad),
                   correct=not problems and not behind, report=report)


def run(ctx: Context, weights: str) -> Outcome:
    if ctx.workload == "generate":
        return run_generate(ctx, weights)
    return run_serve(ctx, weights)
