"""The arrival schedule is a pure function of the workload seed."""

import numpy as np
import pytest

from workloads import SERVE, TENANTS, build_schedule


def _flat(phases):
    return [(name, p.due, p.message) for name, items in phases.items() for p in items]


def test_same_seed_same_schedule():
    for spec in SERVE.values():
        a = build_schedule(spec, np.random.default_rng([7, 2]), 10)
        b = build_schedule(spec, np.random.default_rng([7, 2]), 10)
        assert _flat(a) == _flat(b)


def test_other_seed_other_schedule():
    spec = SERVE["serve_rule"]
    a = build_schedule(spec, np.random.default_rng([7, 2]), 10)
    b = build_schedule(spec, np.random.default_rng([8, 2]), 10)
    assert _flat(a) != _flat(b)


@pytest.mark.parametrize("name", sorted(SERVE))
def test_phase_sizes_and_rates(name):
    spec = SERVE[name]
    phases = build_schedule(spec, np.random.default_rng(1), 10)
    nominal = phases["nominal"]
    assert len(nominal) == round(spec.rate * 10)
    assert len(phases["warmup"]) == spec.warmup
    assert len(phases["saturation"]) == spec.burst
    assert all(p.due == 0.0 for p in phases["saturation"])
    dues = [p.due for p in nominal]
    assert dues == pytest.approx([(i + 1) / spec.rate for i in range(len(dues))])
    seeds = {p.message["seed"] for p in nominal}
    assert seeds <= set(range(spec.pool))
    tenants = {p.message.get("session") or p.message["params"]["tenant"]
               for p in nominal}
    assert tenants == set(TENANTS)
    ids = [p.request_id for items in phases.values() for p in items]
    assert len(ids) == len(set(ids))


def test_serve_pp_cycles_its_seed_pool():
    spec = SERVE["serve_pp"]
    phases = build_schedule(spec, np.random.default_rng(6), 15)
    seeds = [p.message["seed"] for p in phases["nominal"] + phases["saturation"]]
    for start in range(0, len(seeds) - spec.pool + 1, spec.pool):
        assert sorted(seeds[start:start + spec.pool]) == list(range(spec.pool))
    other = build_schedule(spec, np.random.default_rng(7), 15)
    assert seeds != [p.message["seed"] for p in other["nominal"] + other["saturation"]]


def test_tenants_of_serve_pp_are_params():
    phases = build_schedule(SERVE["serve_pp"], np.random.default_rng(3), 10)
    tenants = {p.message["params"]["tenant"] for p in phases["nominal"]}
    assert tenants == set(TENANTS)
    assert all("session" not in p.message for p in phases["nominal"])
