"""Capacity gauges fed by the partition's rebalance reports.

Every :meth:`~repro.core.capacity.CapacityPartition.rebalance` pass
produces a :class:`~repro.core.capacity.RebalanceReport`; behind the
probe's ``rebalanced`` verb, :class:`CapacityGauges` turns each report into
the Figure-6 dashboard quantities:

* ``repro_capacity_effective{pool}`` — effective Cg/Ca/Cb after
  failures (time-weighted, so the exported mean is the exact
  occupancy-over-time integral);
* ``repro_capacity_allocated{pool,tier}`` — what each pool supplies to
  the guaranteed / excess / best-effort tiers (borrowing made visible:
  a non-zero ``{pool="a",tier="guaranteed"}`` is ``Adapt()`` at work);
* ``repro_capacity_adapt_transfer`` / ``repro_capacity_utilization`` /
  ``repro_capacity_failed`` — the Section 5.6 timeline signals;
* shortfall and preemption counters for the violation bookkeeping.
"""

from __future__ import annotations

from typing import Optional

from .metrics import MetricsRegistry

#: Partition pool keys in report order (Cg, Ca, Cb).
POOLS = ("g", "a", "b")


class CapacityGauges:
    """Translates rebalance reports into registry gauges/counters.

    The partition and report are duck-typed (``effective_sizes()``,
    ``utilization()``, ``failed``; ``pools``, ``shortfalls``,
    ``preempted``, ``adapt_transfer``) so this module never imports
    :mod:`repro.core`.
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        self._pools: Optional[list] = None

    def _resolve(self) -> None:
        """Look up, once, every instrument that each pass sets.

        Not in the constructor: a hub that never saw a rebalance must
        export no capacity series. Time gauges open at their first
        ``set``, so holding them does not dilute their means.
        """
        metrics = self.metrics
        gauge = metrics.time_gauge
        self._pools = [
            (gauge("repro_capacity_effective", pool=pool),
             *(gauge("repro_capacity_allocated", pool=pool, tier=tier)
               for tier in ("guaranteed", "excess", "best_effort")),
             gauge("repro_capacity_idle", pool=pool))
            for pool in POOLS]
        self._adapt_transfer = gauge("repro_capacity_adapt_transfer")
        self._utilization = gauge("repro_capacity_utilization")
        self._failed = gauge("repro_capacity_failed")
        self._shortfall = metrics.gauge("repro_capacity_shortfall")
        self._rebalances = metrics.counter("repro_capacity_rebalances_total")

    def on_rebalance(self, partition: object, report: object) -> None:
        """Record one rebalance outcome (``Probe.rebalanced``'s backend)."""
        if report is None:
            report = partition.last_report
        if report is None:
            return
        if self._pools is None:
            self._resolve()
        # Every gauge reads the registry's clock: one reading per pass.
        now = self.metrics.now()
        for (size, guaranteed, excess, best_effort, idle), effective, usage \
                in zip(self._pools, partition.effective_sizes(),
                       report.pools):
            size.set_at(now, effective)
            guaranteed.set_at(now, usage.guaranteed)
            excess.set_at(now, usage.excess)
            best_effort.set_at(now, usage.best_effort)
            idle.set_at(now, usage.idle)
        self._adapt_transfer.set_at(now, report.adapt_transfer)
        self._utilization.set_at(now, partition.utilization())
        self._failed.set_at(now, partition.failed)
        self._shortfall.set(sum(report.shortfalls.values()))
        self._rebalances.inc()
        # Looked up on use: an uneventful run must not export
        # zero-valued event counters.
        if report.shortfalls:
            self.metrics.counter(
                "repro_capacity_shortfall_events_total").inc()
        if report.preempted:
            self.metrics.counter("repro_capacity_preemptions_total").inc(
                float(len(report.preempted)))
