"""Background garbage collection for the proxy.

The paper's pseudo-code deliberately omits "'garbage collection' that
would have to operate in the background as certain queues (e.g.
topic.history) grow without bounds". This module supplies it: a periodic
sweep that drains cancelled engine timers and prunes history entries
past a horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.proxy.proxy import LastHopProxy
from repro.sim.engine import Simulator
from repro.units import DAY, WEEK


@dataclass(frozen=True)
class GcConfig:
    """Sweep cadence and history horizon."""

    interval: float = DAY
    #: History entries older than this (and no longer queued) are pruned.
    #: A week comfortably exceeds any plausible rank-change window.
    history_horizon: float = WEEK

    def validate(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError(f"gc interval must be positive, got {self.interval}")
        if self.history_horizon <= 0:
            raise ConfigurationError(
                f"history_horizon must be positive, got {self.history_horizon}"
            )


class ProxyGarbageCollector:
    """Periodically invokes :meth:`LastHopProxy.collect_garbage`."""

    def __init__(
        self, sim: Simulator, proxy: LastHopProxy, config: GcConfig = GcConfig()
    ) -> None:
        config.validate()
        self._sim = sim
        self._proxy = proxy
        self._config = config
        self._total_reclaimed = 0
        self._sweeps = 0
        self._handle = sim.schedule(config.interval, self._sweep)

    @property
    def total_reclaimed(self) -> int:
        """Entries reclaimed across all sweeps so far."""
        return self._total_reclaimed

    @property
    def sweeps(self) -> int:
        return self._sweeps

    def stop(self) -> None:
        """Cancel the periodic sweep."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _sweep(self) -> None:
        self._sweeps += 1
        self._total_reclaimed += self._proxy.collect_garbage(
            history_horizon=self._config.history_horizon
        )
        self._handle = self._sim.schedule(self._config.interval, self._sweep)


def collect(sim: Simulator, proxy: LastHopProxy, config: GcConfig = GcConfig()) -> ProxyGarbageCollector:
    """Attach a background garbage collector to a proxy."""
    return ProxyGarbageCollector(sim, proxy, config)
