"""Seed-deterministic simulated annealing with Metropolis acceptance.

One neighbor proposal per iteration; the temperature is multiplied by the
cooling factor after every iteration. States are treated as immutable values:
neighbor functions must return fresh states, never mutate their argument.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from typing import Callable, TypeVar

from .errors import InvalidParamsError

S = TypeVar("S")

_MASK64 = (1 << 64) - 1


def mix_seed(*parts: int) -> int:
    """Derive a 64-bit sub-seed from a tuple of integers (splitmix64 walk).

    Stable across Python versions, unlike hashing; used wherever a module
    needs independent RNG streams (per layer, per trial, per restart).
    """
    z = 0x9E3779B97F4A7C15
    for p in parts:
        z = (z ^ (int(p) & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 30)) * 0x94D049BB133111EB & _MASK64
        z = z ^ (z >> 31)
    return z


@dataclass(frozen=True)
class SaParams:
    initial_temp: float
    iterations: int
    cooling: float
    seed: int

    def __post_init__(self):
        # as PipelineConfig.from_json: no bools, no infinite temperature;
        # numpy integer seeds are accepted and stored as ints
        if not (_real(self.initial_temp) and 0 < self.initial_temp < math.inf):
            raise InvalidParamsError(f"initial_temp must be finite and > 0, got {self.initial_temp}")
        if not (isinstance(self.iterations, int) and not isinstance(self.iterations, bool)
                and self.iterations > 0):
            raise InvalidParamsError(f"iterations must be a positive integer, got {self.iterations}")
        if not (_real(self.cooling) and 0 < self.cooling < 1):
            raise InvalidParamsError(f"cooling must lie in (0, 1), got {self.cooling}")
        if not (isinstance(self.seed, numbers.Integral) and not isinstance(self.seed, bool)
                and 0 <= self.seed < (1 << 64)):
            raise InvalidParamsError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def anneal(initial_state: S,
           neighbor: Callable[[S, random.Random], S],
           cost: Callable[[S], float],
           params: SaParams) -> tuple[S, float, list[float]]:
    """Minimize cost over states reachable through neighbor moves.

    Returns (best_state, best_cost, cost_trace) where cost_trace holds the
    accepted cost after each iteration. A move is accepted when it improves
    the cost or with Metropolis probability exp(-delta / T); once long
    cooling underflows T to 0, only improving moves are accepted (and no
    random number is drawn). Fully deterministic for a fixed seed.
    """
    rng = random.Random(params.seed)
    current = initial_state
    current_cost = cost(initial_state)
    best, best_cost = current, current_cost
    temp = params.initial_temp
    trace: list[float] = []

    for _ in range(params.iterations):
        proposal = neighbor(current, rng)
        proposal_cost = cost(proposal)
        delta = proposal_cost - current_cost
        if delta < 0 or (temp > 0 and rng.random() < math.exp(-delta / temp)):
            current, current_cost = proposal, proposal_cost
            if current_cost < best_cost:
                best, best_cost = current, current_cost
        trace.append(current_cost)
        temp *= params.cooling

    return best, best_cost, trace
