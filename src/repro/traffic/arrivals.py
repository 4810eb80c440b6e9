"""Open-loop arrival processes (S21).

The generators so far drove Bridge with a dozen closed-loop clients:
each client waits for its previous request before issuing the next, so
offered load *self-throttles* exactly when the server saturates — the
regime the ROADMAP's "heavy traffic" goal cares about is unreachable.
An open-loop process issues requests on its own clock regardless of how
the server is doing; past the saturation knee the queue grows without
bound and the latency distribution, not the throughput, tells the story.

Two arrival shapes:

* :class:`PoissonArrivals` — exponential interarrivals at a fixed rate,
  the classic M/G/1 driver and the baseline for the queueing-theory
  cross-check in :mod:`repro.analysis.models`.
* :class:`BurstArrivals` — a two-state modulated Poisson process (calm
  rate / burst rate with exponential dwell times), the "many small jobs
  arriving in bursts" shape that file-based communication workloads
  exhibit.

Both draw exclusively from a caller-supplied ``random.Random`` (obtained
from ``sim.random.stream(...)``), so the arrival sequence is a pure
function of the simulation seed.
"""

from __future__ import annotations


class PoissonArrivals:
    """Exponential interarrival times at ``rate`` requests/second."""

    __slots__ = ("rate",)

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        self.rate = rate

    def next_delay(self, rng) -> float:
        return rng.expovariate(self.rate)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PoissonArrivals(rate={self.rate})"


class BurstArrivals:
    """Two-state Markov-modulated Poisson arrivals.

    The process alternates between a *calm* state and a *burst* state
    whose rate is ``burst_factor`` times the calm one; dwell times in
    each state are exponential with means ``calm_mean`` / ``burst_mean``
    seconds.  ``rate`` is the long-run mean across both states, so a
    burst arm offers the same load as a Poisson arm at the same
    ``rate``: the calm rate is ``rate * (calm_mean + burst_mean) /
    (calm_mean + burst_factor * burst_mean)``.
    """

    __slots__ = ("rate", "burst_factor", "calm_mean", "burst_mean",
                 "_calm_rate", "_bursting", "_state_left")

    def __init__(self, rate: float, burst_factor: float = 4.0,
                 calm_mean: float = 0.5, burst_mean: float = 0.1) -> None:
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        if burst_factor < 1:
            raise ValueError(f"burst_factor must be >= 1, got {burst_factor}")
        if calm_mean <= 0 or burst_mean <= 0:
            raise ValueError("state dwell means must be positive")
        self.rate = rate
        self.burst_factor = burst_factor
        self.calm_mean = calm_mean
        self.burst_mean = burst_mean
        self._calm_rate = (rate * (calm_mean + burst_mean)
                           / (calm_mean + burst_factor * burst_mean))
        self._bursting = False
        self._state_left = 0.0

    def next_delay(self, rng) -> float:
        delay = 0.0
        while True:
            current = (self._calm_rate * self.burst_factor if self._bursting
                       else self._calm_rate)
            if self._state_left <= 0.0:
                mean = self.burst_mean if not self._bursting else self.calm_mean
                # State expired: flip, then draw the new dwell.
                self._bursting = not self._bursting
                self._state_left = rng.expovariate(1.0 / mean)
                continue
            gap = rng.expovariate(current)
            if gap <= self._state_left:
                self._state_left -= gap
                return delay + gap
            # No arrival before the state flips: consume the remaining
            # dwell and keep drawing in the next state (memorylessness
            # makes this exact, not an approximation).
            delay += self._state_left
            self._state_left = 0.0


def make_arrivals(kind: str, rate: float, **kwargs):
    """Build an arrival process from a spec string ("poisson"/"burst")."""
    if kind == "poisson":
        return PoissonArrivals(rate)
    if kind == "burst":
        return BurstArrivals(rate, **kwargs)
    raise ValueError(f"unknown arrival kind {kind!r}")
