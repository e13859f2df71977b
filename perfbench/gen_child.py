"""The ``generate`` workload's program process.

Started by the benchmark with the program's environment.  It imports
``repro.cli``, rehydrates the ``sd1-ft`` model, reports ready, then runs
``run_generation`` calls on command, each with the arguments
``repro generate --backend patternpaint -n COUNT -j 2`` uses: a fresh
backend and tuner per call, closed afterwards.  Commands arrive as JSON
lines on stdin; replies leave on the original stdout, while anything the
program prints goes to stderr.
"""

import hashlib
import json
import os
import sys
import time

JOBS = 2


def generate(seed: int, count: int) -> dict:
    from repro.drc.decks import deck_by_name
    from repro.engine import (
        ExecutionTuner,
        GenerationRequest,
        get_backend,
        run_generation,
    )
    from repro.metrics.diversity import summarize_library
    from repro.zoo.corpora import EXPERIMENT_GRID

    deck = deck_by_name("advanced", EXPERIMENT_GRID)
    start = time.perf_counter()
    tuner = ExecutionTuner(store_dir=None)
    backend = get_backend(
        "patternpaint", deck=deck, jobs=JOBS, model_jobs=JOBS,
        exec_mode="auto", tuner=tuner,
    )
    try:
        batch = run_generation(
            GenerationRequest(backend="patternpaint", count=count, seed=seed,
                              deck=deck),
            jobs=JOBS, model_jobs=JOBS, backend=backend, library=None,
            exec_mode="auto", tuner=tuner,
        )
    finally:
        backend.close()
    wall = time.perf_counter() - start
    outputs = hashlib.sha256()
    for clip in batch.clips:
        outputs.update(clip.dtype.str.encode())
        outputs.update(clip.tobytes())
    outputs.update(bytes(int(v) for v in batch.legal))
    admitted = list(batch.library.clips)
    return {
        "wall": wall,
        "attempts": batch.attempts,
        "clips": len(batch.clips),
        "legal": batch.legal_count,
        "admitted": batch.admitted,
        "modes": dict(tuner.decisions),
        "sha256": outputs.hexdigest(),
        "h2": summarize_library(admitted).h2 if admitted else 0.0,
    }


def main() -> None:
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # program prints must not interleave with replies

    def reply(payload: dict) -> None:
        out.write(json.dumps(payload) + "\n")
        out.flush()

    started = time.perf_counter()
    import repro.cli  # noqa: F401  (what `repro generate` imports first)

    import_s = time.perf_counter() - started
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if trace_dir:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer

        tracer.install(trace_dir)
    from repro.zoo.artifacts import finetuned

    started = time.perf_counter()
    finetuned("sd1")
    reply({"event": "ready", "import_s": import_s,
           "model_load_s": time.perf_counter() - started})
    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "exit":
            break
        try:
            reply({"event": "done", **generate(command["seed"], command["count"])})
        except Exception as error:  # noqa: BLE001 - reported to the benchmark
            reply({"event": "error", "message": f"{type(error).__name__}: {error}"})


if __name__ == "__main__":
    main()
