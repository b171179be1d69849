"""Annealer unit tests: parameter bounds, determinism, toy convergence."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from meshstack.anneal import SaParams, anneal, mix_seed
from meshstack.errors import InvalidParamsError


def test_param_bounds():
    with pytest.raises(InvalidParamsError):
        SaParams(initial_temp=0.0, iterations=10, cooling=0.9, seed=1)
    with pytest.raises(InvalidParamsError):
        SaParams(initial_temp=1.0, iterations=0, cooling=0.9, seed=1)
    with pytest.raises(InvalidParamsError):
        SaParams(initial_temp=1.0, iterations=10, cooling=1.0, seed=1)
    with pytest.raises(InvalidParamsError):
        SaParams(initial_temp=1.0, iterations=10, cooling=0.9, seed=-1)


@pytest.mark.parametrize("field, value", [
    ("iterations", True), ("seed", True), ("seed", False), ("seed", 1.0),
    ("initial_temp", math.inf), ("initial_temp", math.nan), ("initial_temp", True),
    ("cooling", True), ("cooling", "0.5"), ("iterations", 2.0), ("seed", np.bool_(True))])
def test_params_reject_what_the_config_rejects(field, value):
    fields = dict(initial_temp=1.0, iterations=10, cooling=0.9, seed=1)
    with pytest.raises(InvalidParamsError):
        SaParams(**{**fields, field: value})


def test_numpy_integer_seed_anneals_as_int():
    params = SaParams(3.0, 50, 0.9, seed=np.uint64(2 ** 64 - 1))
    assert type(params.seed) is int and params == SaParams(3.0, 50, 0.9, seed=2 ** 64 - 1)
    toy = (0, lambda x, rng: x + rng.choice([-1, 1]), lambda x: abs(x - 4))
    assert anneal(*toy, SaParams(3.0, 50, 0.9, seed=np.int64(7))) == anneal(
        *toy, SaParams(3.0, 50, 0.9, seed=7))


def test_constant_cost_keeps_initial():
    params = SaParams(initial_temp=5.0, iterations=50, cooling=0.95, seed=7)
    best, best_cost, trace = anneal(0, lambda s, rng: s + 1, lambda s: 42.0, params)
    assert best_cost == 42.0
    assert len(trace) == 50


def test_quadratic_toy_reaches_minimum():
    # cost (x-3)^2 + 7 has closed-form minimum 7 at x = 3
    params = SaParams(initial_temp=1.0, iterations=10_000, cooling=0.999, seed=12345)

    def neighbor(x, rng):
        return x + rng.uniform(-0.05, 0.05)

    best, best_cost, _ = anneal(0.0, neighbor, lambda x: (x - 3.0) ** 2 + 7.0, params)
    assert best_cost == pytest.approx(7.0, abs=1e-6)


def test_best_cost_never_exceeds_initial():
    params = SaParams(initial_temp=10.0, iterations=200, cooling=0.97, seed=99)

    def neighbor(x, rng):
        return x + rng.choice([-1, 1])

    def cost(x):
        return abs(x * 37 % 11 - 5)

    _, best_cost, trace = anneal(0, neighbor, cost, params)
    assert best_cost <= cost(0)
    # running minimum of the accepted-cost trace is non-increasing, and the
    # final best equals it
    running = float("inf")
    mins = []
    for c in trace:
        running = min(running, c)
        mins.append(running)
    assert mins == sorted(mins, reverse=True)
    assert best_cost == min(min(trace), cost(0))


def test_seed_determinism():
    params = SaParams(initial_temp=3.0, iterations=500, cooling=0.98, seed=2024)

    def neighbor(x, rng):
        return x + rng.uniform(-1, 1)

    def cost(x):
        return x * x

    r1 = anneal(5.0, neighbor, cost, params)
    r2 = anneal(5.0, neighbor, cost, params)
    assert r1 == r2
    r3 = anneal(5.0, neighbor, cost, SaParams(3.0, 500, 0.98, seed=2025))
    assert r3 != r1


def test_mix_seed_stable_and_spread():
    assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
    seen = {mix_seed(1, i) for i in range(1000)}
    assert len(seen) == 1000
    assert all(0 <= s < 2 ** 64 for s in seen)


def test_underflowed_temperature_is_greedy():
    # 20 * 0.4**k underflows to 0.0 after about 816 iterations; from then on
    # only improving moves are accepted and no acceptance draw is made
    params = SaParams(initial_temp=20.0, iterations=2000, cooling=0.4, seed=1)
    states = []

    def neighbor(x, rng):
        states.append(rng.getstate())
        return x + (1 if rng.random() < 0.5 else -1)

    def cost(x):
        return abs(x * 37 % 11 - 5)

    best, best_cost, trace = anneal(0, neighbor, cost, params)
    assert len(trace) == 2000 and best_cost == min(min(trace), cost(0))
    cold = trace[900:]
    assert cold == sorted(cold, reverse=True)
    replay = random.Random()
    for before, after in zip(states[900:], states[901:]):
        replay.setstate(before)
        replay.random()  # the neighbor's own draw is the only one
        assert replay.getstate() == after
