"""Self-tuning execution-mode selection (:class:`ExecutionTuner`).

``BENCH_sampler.json`` showed the process-pooled model path *losing* to
single-process inference at bench scale: pool fan-out only pays above
some workload size, and the caller had to guess ``--jobs``/``--model-jobs``
per run.  The tuner removes the guess.  It is a small cost model:

* **observations** — every model stage reports its wall-clock seconds,
  the dispatch mode that ran (``serial`` / ``pooled`` / ``packed``, plus
  ``thread``/``process`` for the post-processing stages, which are
  recorded for attribution) and the job count; the tuner keeps a running
  mean of *seconds per job* for each ``(signature, mode)`` pair;
* **workload signatures** — observations are keyed by what actually
  determines relative mode cost: the model spec fingerprint (the
  content-addressed checkpoint name), image size, sampler step count,
  chunk count and the host CPU count.  A different model, shape or host
  never pollutes another workload's measurements;
* **explore / exploit** — :meth:`ExecutionTuner.choose` picks the mode
  with the lowest observed per-job seconds once every candidate has at
  least ``explore_min`` samples; until then, cold candidates are measured
  in candidate order (the first candidate is the legacy default, so a
  cold tuner behaves exactly like the pre-tuner executor on its first
  call).  A forced mode (``--exec-mode``/``$REPRO_EXEC_MODE``) bypasses
  the model entirely;
* **persistence** — :meth:`save` writes the measurement store to
  ``tuner.json`` under ``--tuner-dir`` (atomic tmp + rename), and
  :meth:`load` pre-seeds a fresh tuner from it, so a restarted service
  exploits immediately instead of re-exploring.  Like the disk DRC cache
  the store is fingerprint-guarded: every entry records its full
  signature, and an entry whose signature does not hash back to its own
  key (edited, corrupt, or written by another schema) is skipped rather
  than trusted.  The CPU count inside each signature keeps measurements
  from one host from steering another.

Determinism is non-negotiable: every candidate mode the tuner may pick is
bit-identical to serial execution for a fixed seed (the ``rng.spawn()``
per-chunk discipline), so mode choice is purely a throughput knob — the
all-mode sweep tests in ``tests/engine`` and ``tests/service`` enforce it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "EXEC_MODES",
    "EXEC_MODE_ENV",
    "ExecutionTuner",
    "TunerDecision",
    "pow2_bucket",
    "resolve_exec_mode",
]

#: The user-facing execution modes (``--exec-mode`` / ``$REPRO_EXEC_MODE``).
#: ``auto`` lets the tuner choose; the rest force one dispatch strategy.
EXEC_MODES = ("auto", "serial", "pooled", "packed")

#: Environment override for the execution mode when the config leaves it
#: ``auto``.  The CI matrix leg uses it to force every mode over the full
#: engine + service test suites and prove they stay bit-identical.
EXEC_MODE_ENV = "REPRO_EXEC_MODE"

#: On-disk store schema version; files with another version are skipped.
_STORE_FORMAT = 1

#: Signatures retained in the persisted store (drop-oldest beyond this;
#: a runaway signature space must not grow the JSON without bound).
_MAX_ENTRIES = 1024


def resolve_exec_mode(configured: str | None = None) -> str:
    """The effective execution mode: explicit config, else env, else auto.

    An explicit non-``auto`` ``configured`` value wins; when the config
    is unset or ``auto``, ``$REPRO_EXEC_MODE`` may force a mode (the CI
    matrix sets it process-wide without touching call sites).  Raises
    ``ValueError`` on an unknown mode from either source.
    """
    if configured is not None and configured != "auto":
        if configured not in EXEC_MODES:
            raise ValueError(
                f"unknown exec mode {configured!r} (use one of {EXEC_MODES})"
            )
        return configured
    raw = os.environ.get(EXEC_MODE_ENV)
    if raw is None or not raw.strip():
        return "auto"
    mode = raw.strip().lower()
    if mode not in EXEC_MODES:
        raise ValueError(
            f"{EXEC_MODE_ENV} must be one of {EXEC_MODES}, got {raw!r}"
        )
    return mode


def pow2_bucket(n: int) -> int:
    """Round ``n`` up to a power of two (bucketing for signature keys).

    Micro-batch shapes vary run to run (coalescing is traffic-dependent);
    bucketing request/job counts keeps near-identical workloads on one
    signature instead of fragmenting the store into cold singletons.
    """
    n = int(n)
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class TunerDecision:
    """One mode choice: what ran and why.

    ``reason`` is ``"forced"`` (explicit mode), ``"only"`` (a single
    candidate), ``"explore"`` (cold signature being measured — a store
    miss) or ``"exploit"`` (predicted-fastest from observations — a
    store hit).
    """

    mode: str
    reason: str
    signature: tuple

    @property
    def explored(self) -> bool:
        return self.reason == "explore"

    @property
    def exploited(self) -> bool:
        return self.reason == "exploit"


class _ModeStats:
    """Running mean of per-job seconds for one (signature, mode) pair."""

    __slots__ = ("count", "mean")

    def __init__(self, count: int = 0, mean: float = 0.0):
        self.count = count
        self.mean = mean

    def update(self, per_job_seconds: float) -> None:
        self.count += 1
        self.mean += (per_job_seconds - self.mean) / self.count


class ExecutionTuner:
    """Observed-cost execution-mode selection with a persistent store.

    Thread-safe: the service's engine thread records measurements while
    the ``stats`` verb snapshots the store from the event loop.
    Constructing with ``store_dir`` loads any persisted measurements
    immediately (``loaded`` reports how many survived the fingerprint
    guard) and makes :meth:`save` default to the same directory.
    """

    def __init__(
        self,
        *,
        store_dir: "str | Path | None" = None,
        explore_min: int = 1,
    ):
        if explore_min < 1:
            raise ValueError("explore_min must be positive")
        self.explore_min = explore_min
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self._lock = threading.Lock()
        # digest -> (signature, {mode: _ModeStats})
        self._entries: dict[str, tuple[tuple, dict[str, _ModeStats]]] = {}
        # Decision counters (hit/miss story for ServiceStats / op:"stats").
        self.decisions: dict[str, int] = {}
        self.explores = 0  # store misses: cold signature, measuring
        self.exploits = 0  # store hits: chosen from observations
        self.forced = 0
        self.loaded = 0
        self.last_decision: TunerDecision | None = None
        if self.store_dir is not None:
            self.loaded = self.load(self.store_dir)

    # ------------------------------------------------------------------
    # Signatures
    # ------------------------------------------------------------------
    @staticmethod
    def signature_digest(signature: tuple) -> str:
        """Filename/key-safe digest of a workload signature."""
        return hashlib.sha1(repr(tuple(signature)).encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Observation and choice
    # ------------------------------------------------------------------
    def record(
        self, signature: tuple, mode: str, seconds: float, jobs: int = 1
    ) -> None:
        """File one measurement: ``seconds`` of wall clock over ``jobs`` jobs."""
        per_job = max(0.0, float(seconds)) / max(int(jobs), 1)
        signature = tuple(signature)
        digest = self.signature_digest(signature)
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                entry = (signature, {})
                self._entries[digest] = entry
            stats = entry[1].get(mode)
            if stats is None:
                stats = entry[1][mode] = _ModeStats()
            stats.update(per_job)

    def observations(self, signature: tuple) -> dict[str, tuple[int, float]]:
        """``{mode: (count, mean_per_job_seconds)}`` for one signature."""
        digest = self.signature_digest(tuple(signature))
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                return {}
            return {
                mode: (stats.count, stats.mean)
                for mode, stats in entry[1].items()
            }

    def choose(
        self,
        signature: tuple,
        candidates: "list[str] | tuple[str, ...]",
        *,
        requested: str = "auto",
    ) -> TunerDecision:
        """Pick a mode from ``candidates`` for this workload signature.

        ``candidates`` must list only strategies that are bit-identical
        for the workload (the caller's contract); their order matters:
        the first candidate is the legacy default, explored first when
        the signature is cold.  ``requested`` other than ``"auto"``
        forces that mode when it is among the candidates (an unavailable
        forced mode — e.g. ``packed`` where packing cannot engage —
        falls back to the auto policy rather than failing the request).
        """
        candidates = list(candidates)
        if not candidates:
            raise ValueError("choose() needs at least one candidate mode")
        signature = tuple(signature)
        if requested != "auto" and requested in candidates:
            decision = TunerDecision(requested, "forced", signature)
        elif len(candidates) == 1:
            decision = TunerDecision(candidates[0], "only", signature)
        else:
            observed = self.observations(signature)
            cold = [
                mode for mode in candidates
                if observed.get(mode, (0, 0.0))[0] < self.explore_min
            ]
            if cold:
                # Measure the least-sampled cold candidate, earliest in
                # candidate order on ties — deterministic exploration.
                decision = TunerDecision(
                    min(cold, key=lambda m: observed.get(m, (0, 0.0))[0]),
                    "explore",
                    signature,
                )
            else:
                decision = TunerDecision(
                    min(candidates, key=lambda m: observed[m][1]),
                    "exploit",
                    signature,
                )
        with self._lock:
            self.decisions[decision.mode] = (
                self.decisions.get(decision.mode, 0) + 1
            )
            if decision.reason == "explore":
                self.explores += 1
            elif decision.reason == "exploit":
                self.exploits += 1
            elif decision.reason == "forced":
                self.forced += 1
            self.last_decision = decision
        return decision

    # ------------------------------------------------------------------
    # Persistence (fingerprint-guarded, like the disk DRC cache)
    # ------------------------------------------------------------------
    @staticmethod
    def store_path(root: "str | Path") -> Path:
        return Path(root) / "tuner.json"

    def save(self, root: "str | Path | None" = None) -> "Path | None":
        """Persist the measurement store (atomic tmp + rename).

        Uses ``store_dir`` when ``root`` is omitted; a tuner with
        neither configured is in-memory only and returns ``None``.
        """
        root = Path(root) if root is not None else self.store_dir
        if root is None:
            return None
        root.mkdir(parents=True, exist_ok=True)
        with self._lock:
            items = list(self._entries.items())
        if len(items) > _MAX_ENTRIES:
            items = items[-_MAX_ENTRIES:]
        payload = {
            "format": _STORE_FORMAT,
            "entries": {
                digest: {
                    "signature": list(signature),
                    "modes": {
                        mode: {"count": stats.count, "mean_s": stats.mean}
                        for mode, stats in modes.items()
                    },
                }
                for digest, (signature, modes) in items
            },
        }
        path = self.store_path(root)
        tmp = path.with_suffix(f".tmp-{os.getpid()}.json")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload))
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
        return path

    def load(self, root: "str | Path") -> int:
        """Pre-seed the store from ``root``; returns entries accepted.

        The staleness guard mirrors the disk DRC cache: an entry is only
        trusted when its recorded signature hashes back to its own key —
        edited or corrupt entries (or a whole wrong-format file) are
        skipped, so the worst case of a bad store is a cold tuner, never
        a poisoned one.  In-memory measurements win over disk.
        """
        path = self.store_path(root)
        try:
            payload = json.loads(path.read_text())
            if payload.get("format") != _STORE_FORMAT:
                return 0
            entries = payload["entries"]
            if not isinstance(entries, dict):
                return 0
        except (OSError, ValueError, KeyError, TypeError):
            return 0
        accepted = 0
        for digest, entry in entries.items():
            try:
                signature = tuple(
                    tuple(part) if isinstance(part, list) else part
                    for part in entry["signature"]
                )
                modes = {
                    str(mode): _ModeStats(
                        count=int(stats["count"]),
                        mean=float(stats["mean_s"]),
                    )
                    for mode, stats in entry["modes"].items()
                    if int(stats["count"]) > 0
                    and float(stats["mean_s"]) >= 0.0
                }
            except (ValueError, KeyError, TypeError):
                continue  # corrupt entry: skip, never trust
            if self.signature_digest(signature) != digest:
                continue  # stale: signature no longer matches its key
            if not modes:
                continue
            with self._lock:
                if digest not in self._entries:
                    self._entries[digest] = (signature, modes)
                    accepted += 1
        return accepted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        """JSON-ready counters for ``ServiceStats`` / the ``stats`` verb."""
        with self._lock:
            return {
                "decisions": dict(self.decisions),
                "explores": self.explores,
                "exploits": self.exploits,
                "forced": self.forced,
                "store_entries": len(self._entries),
                "store_loaded": self.loaded,
                "store_dir": (
                    str(self.store_dir) if self.store_dir is not None else None
                ),
            }
