"""Served all-mode determinism sweep and tuner-store warm restarts.

The self-tuning executor's service-level contract: every ``exec_mode``
(forced serial/pooled/packed and the tuner's ``auto``) serves bit-identical
results, and a fresh service process over a populated
``--tuner-dir`` exploits its persisted measurements on the very first
micro-batch instead of re-exploring.
"""

import os

import numpy as np
import pytest

from repro.core import PatternPaintConfig
from repro.diffusion import Ddpm, InpaintConfig, linear_schedule
from repro.drc import basic_deck
from repro.engine import (
    ExecutionTuner,
    GenerationRequest,
    register_backend,
    run_generation,
)
from repro.engine.backends import PatternPaintBackend
from repro.engine.tuner import EXEC_MODES, pow2_bucket
from repro.geometry import Grid
from repro.nn import TimeUnet, UNetConfig
from repro.service import (
    SchedulerConfig,
    ServiceClient,
    ServiceConfig,
)

GRID = Grid(nm_per_px=32.0, width_px=16, height_px=16)

TINY = UNetConfig(
    image_size=16, base_channels=8, channel_mults=(1,), num_res_blocks=1,
    groups=4, time_dim=8, attention=False, seed=11,
)

_DDPM = Ddpm(TimeUnet(TINY), linear_schedule(20))

_STARTERS = [
    np.random.default_rng(70 + i).integers(0, 2, (16, 16)).astype(np.uint8)
    for i in range(3)
]

_PP_CONFIG = PatternPaintConfig(
    inpaint=InpaintConfig(num_steps=2), model_batch=4
)


def _pp_factory(deck=None, **tuning):
    """Pack-capable backend over an injected tiny model.

    Accepts the service's tuning kwargs (``jobs``/``model_jobs``/
    ``exec_mode``/``tuner``) so served runs exercise the full tuning plumb-through.
    """
    return PatternPaintBackend(
        deck=deck if deck is not None else basic_deck(GRID),
        ddpm=_DDPM,
        config=_PP_CONFIG,
        templates=_STARTERS,
        **tuning,
    )


register_backend("pp-exec-test", _pp_factory, overwrite=True)


@pytest.fixture(scope="module")
def deck():
    return basic_deck(GRID)


def _requests(deck, n, *, count=3, base_seed=0, params=None):
    return [
        GenerationRequest(
            backend="pp-exec-test", count=count, seed=base_seed + i,
            deck=deck, params=params or {},
        )
        for i in range(n)
    ]


def _assert_batches_identical(a, b):
    assert a.attempts == b.attempts
    assert len(a.clips) == len(b.clips)
    for x, y in zip(a.clips, b.clips):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a.legal, b.legal)
    assert a.admitted == b.admitted


class TestServedModeSweep:
    def test_all_modes_bit_identical_on_mixed_keys(self, deck):
        """Tentpole: serve the same mixed-key burst under every exec
        mode; every mode must match the serial per-request reference
        bitwise."""
        group_a = _requests(deck, 2, base_seed=20, params={"flavour": "a"})
        group_b = _requests(deck, 2, base_seed=20, params={"flavour": "b"})
        requests = [group_a[0], group_b[0], group_a[1], group_b[1]]
        reference = [run_generation(request) for request in requests]
        for mode in EXEC_MODES:
            config = ServiceConfig(
                exec_mode=mode,
                scheduler=SchedulerConfig(gather_window_s=0.05),
            )
            with ServiceClient(config) as client:
                served = client.generate_many(requests)
                stats = client.service.stats
                decisions = dict(stats.tuner_decisions)
            assert sum(decisions.values()) >= 2, (
                f"mode {mode!r}: no per-micro-batch decisions were made"
            )
            for a, b in zip(reference, served):
                _assert_batches_identical(a, b)

    def test_forced_serial_never_packs(self, deck):
        requests = _requests(deck, 4, base_seed=40)
        reference = [run_generation(request) for request in requests]
        config = ServiceConfig(
            exec_mode="serial",
            scheduler=SchedulerConfig(gather_window_s=0.05),
        )
        with ServiceClient(config) as client:
            served = client.generate_many(requests)
            stats = client.service.stats
        assert stats.packed_jobs == 0
        assert stats.tuner_forced > 0
        for a, b in zip(reference, served):
            _assert_batches_identical(a, b)


class TestTunerStoreRestart:
    def _signature(self, request, *, total_jobs, n_requests):
        """The exact ``micro`` signature the service computes."""
        return (
            "micro",
            ExecutionTuner.signature_digest(tuple(request.compatibility_key())),
            pow2_bucket(total_jobs),
            pow2_bucket(n_requests),
            os.cpu_count() or 1,
        )

    def test_warm_store_makes_non_default_first_choice(
        self, deck, tmp_path, monkeypatch
    ):
        """A fresh process over a populated --tuner-dir exploits at once.

        The persisted store says per-request ("serial") beats packed for
        this workload, so the restarted service's *first* micro-batch
        must choose serial — the non-default choice (a cold tuner would
        explore packed first) — without any in-process measurement.
        """
        from repro.engine.tuner import EXEC_MODE_ENV

        monkeypatch.delenv(EXEC_MODE_ENV, raising=False)
        requests = _requests(deck, 2, base_seed=60)
        seed_store = ExecutionTuner(store_dir=tmp_path)
        signature = self._signature(
            requests[0],
            total_jobs=sum(r.count for r in requests),
            n_requests=len(requests),
        )
        seed_store.record(signature, "packed", 10.0, jobs=6)
        seed_store.record(signature, "serial", 0.1, jobs=6)
        seed_store.save()

        reference = [run_generation(request) for request in requests]
        config = ServiceConfig(
            tuner_dir=str(tmp_path),
            scheduler=SchedulerConfig(gather_window_s=0.1),
        )
        with ServiceClient(config) as client:
            assert client.service.tuner.loaded == 1
            served = client.generate_many(requests)
            stats = client.service.stats
        # Both requests coalesced into one packable micro-batch whose
        # decision came from the warm store: exploit, serial, no packing.
        assert stats.peak_coalesced == 2, "requests failed to coalesce"
        assert stats.micro_batches == 1
        assert stats.tuner_exploits == 1
        assert stats.tuner_explores == 0
        assert stats.tuner_decisions == {"serial": 1}
        assert stats.packed_jobs == 0
        for a, b in zip(reference, served):
            _assert_batches_identical(a, b)

    def test_stale_store_entries_fall_back_to_exploring(
        self, deck, tmp_path, monkeypatch
    ):
        """A tampered store entry is skipped: the service explores cold."""
        import json

        from repro.engine.tuner import EXEC_MODE_ENV

        monkeypatch.delenv(EXEC_MODE_ENV, raising=False)
        requests = _requests(deck, 2, base_seed=80)
        seed_store = ExecutionTuner(store_dir=tmp_path)
        signature = self._signature(
            requests[0],
            total_jobs=sum(r.count for r in requests),
            n_requests=len(requests),
        )
        seed_store.record(signature, "packed", 10.0, jobs=6)
        seed_store.record(signature, "serial", 0.1, jobs=6)
        path = seed_store.save()
        payload = json.loads(path.read_text())
        for entry in payload["entries"].values():
            entry["signature"][-1] = 999999  # fingerprint mismatch
        path.write_text(json.dumps(payload))

        config = ServiceConfig(
            tuner_dir=str(tmp_path),
            scheduler=SchedulerConfig(gather_window_s=0.1),
        )
        with ServiceClient(config) as client:
            assert client.service.tuner.loaded == 0
            client.generate_many(requests)
            stats = client.service.stats
        assert stats.tuner_exploits == 0
        assert stats.tuner_explores + stats.tuner_forced >= 1

    def test_service_persists_store_on_stop(self, deck, tmp_path):
        requests = _requests(deck, 2, base_seed=90)
        config = ServiceConfig(
            tuner_dir=str(tmp_path),
            scheduler=SchedulerConfig(gather_window_s=0.1),
        )
        with ServiceClient(config) as client:
            client.generate_many(requests)
        path = ExecutionTuner.store_path(tmp_path)
        assert path.exists()
        reloaded = ExecutionTuner(store_dir=tmp_path)
        assert reloaded.loaded >= 1
