"""Shared infrastructure for the paper-reproduction experiments.

Experiment scale
----------------
The paper generates 20k (initial) + 50k (iterative) samples per model on an
A100.  The numpy stack reproduces the same pipelines at a reduced default
budget; set the ``REPRO_SCALE`` environment variable to scale every sample
count (1.0 = the CPU-friendly defaults documented in EXPERIMENTS.md, 10.0 =
closer to paper scale, at 10x the wall-clock).

Caching
-------
Every experiment run is cached under ``.artifacts/results`` keyed by its
parameters, so benches re-render tables instantly after the first run and
Table III can re-score the raw samples produced for Table I without
regenerating them.

Generation itself is *not* implemented here: every campaign routes
through :mod:`repro.engine` (the backend registry plus the shared
batched/cached executor), so the table modules only aggregate and format.
DRC re-scoring additionally benefits from the engine's content-hash
legality cache, which is shared across all harnesses over the same deck.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..core.pipeline import GenerationStats
from ..zoo.artifacts import artifacts_dir

__all__ = [
    "repro_scale",
    "scaled",
    "results_dir",
    "bench_dir",
    "bench_host",
    "bench_gate",
    "format_table",
    "ModelRun",
    "save_model_run",
    "load_model_run",
]


def repro_scale() -> float:
    """The global sample-count multiplier (``REPRO_SCALE``, default 1.0)."""
    try:
        value = float(os.environ.get("REPRO_SCALE", "1.0"))
    except ValueError:
        raise ValueError("REPRO_SCALE must be a number") from None
    if value <= 0:
        raise ValueError("REPRO_SCALE must be positive")
    return value


def scaled(n: int, minimum: int = 1) -> int:
    """Scale a default sample count by ``REPRO_SCALE``."""
    return max(minimum, int(round(n * repro_scale())))


def results_dir() -> Path:
    """Cache directory for experiment outputs."""
    path = artifacts_dir() / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def bench_dir() -> Path:
    """Where ``BENCH_*.json`` artifacts land: the repo root by default.

    The benchmark trajectory is tracked at the repo root (CI uploads
    ``BENCH_*.json`` from there), unlike cached experiment outputs which
    stay under the git-ignored ``.artifacts/``.  Override with
    ``REPRO_BENCH_DIR`` for ad-hoc runs that should not touch the tree.
    """
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        path = Path(override)
    else:
        path = Path(__file__).resolve().parents[3]
    path.mkdir(parents=True, exist_ok=True)
    return path


def bench_host() -> dict:
    """The host shape a ``BENCH_*.json`` artifact was measured on: core
    count plus the BLAS/OMP thread pinning in effect (unset variables
    reported as ``None``), so runs on different machines compare like
    against like."""
    return {
        "cpus": os.cpu_count(),
        "thread_env": {
            name: os.environ.get(name)
            for name in (
                "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS",
                "MKL_NUM_THREADS",
            )
        },
    }


def bench_gate(ratio: float, floor: float, *, single_core_skip: bool) -> dict:
    """One benchmark gate's verdict: ``passed`` when ``ratio >= floor``.

    With ``single_core_skip`` a shortfall on a single-core host is
    ``skipped`` instead of ``failed``: the gate measures a parallel
    mechanism that one core cannot express.
    """
    if ratio >= floor:
        status, reason = "passed", f"{ratio:.2f}x >= {floor:.3g}x"
    elif single_core_skip and (os.cpu_count() or 1) < 2:
        status = "skipped"
        reason = (
            f"single-core host: {ratio:.2f}x < {floor:.3g}x "
            "(the gate needs >= 2 CPUs)"
        )
    else:
        status, reason = "failed", f"{ratio:.2f}x < {floor:.3g}x"
    return {
        "status": status,
        "ratio": round(ratio, 3),
        "floor": floor,
        "reason": reason,
    }


def format_table(
    headers: list[str], rows: list[list], *, title: str | None = None
) -> str:
    """Render an aligned plain-text table (papers' row layout)."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class ModelRun:
    """A cached PatternPaint run of one model variant.

    ``stats`` holds one entry per stage ("init", "iter-1", ...);
    ``library`` the final deduplicated legal clips; ``raw`` the pre-denoise
    float outputs of the *initial* stage paired with their templates
    (needed by Table III).
    """

    name: str
    stats: list[GenerationStats] = field(default_factory=list)
    library: list[np.ndarray] = field(default_factory=list)
    raw: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    @property
    def init_stats(self) -> GenerationStats:
        return self.stats[0]

    @property
    def total_generated(self) -> int:
        return sum(s.generated for s in self.stats)

    @property
    def total_legal(self) -> int:
        return sum(s.legal for s in self.stats)


def _stats_to_dict(stats: GenerationStats) -> dict:
    return asdict(stats)


def _stats_from_dict(payload: dict) -> GenerationStats:
    return GenerationStats(**payload)


def save_model_run(run: ModelRun, path: Path) -> None:
    """Persist a model run (stats JSON + packed clips + raw floats)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: dict[str, np.ndarray] = {}
    meta = {
        "name": run.name,
        "stats": [_stats_to_dict(s) for s in run.stats],
        "n_library": len(run.library),
        "n_raw": len(run.raw),
    }
    payload["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    if run.library:
        payload["library"] = np.stack(run.library).astype(np.uint8)
    if run.raw:
        payload["raw_outputs"] = np.stack(
            [pair[0] for pair in run.raw]
        ).astype(np.float32)
        payload["raw_templates"] = np.stack(
            [pair[1] for pair in run.raw]
        ).astype(np.uint8)
    np.savez_compressed(path, **payload)


def load_model_run(path: Path) -> ModelRun:
    """Load a run saved by :func:`save_model_run`."""
    with np.load(path) as archive:
        meta = json.loads(archive["meta"].tobytes().decode("utf-8"))
        library = (
            [clip for clip in archive["library"]] if "library" in archive else []
        )
        raw: list[tuple[np.ndarray, np.ndarray]] = []
        if "raw_outputs" in archive:
            raw = list(
                zip(list(archive["raw_outputs"]), list(archive["raw_templates"]))
            )
    return ModelRun(
        name=meta["name"],
        stats=[_stats_from_dict(s) for s in meta["stats"]],
        library=library,
        raw=raw,
    )
