"""Per-rank hot-path counters behind the sampler.

One :class:`RankCounters` hangs off each :class:`repro.core.ipm.Ipm`
when telemetry is enabled (``ipm.tele``).  Event totals are *derived*
from the performance hash table rather than folded in per event: the
interposition wrappers already count every monitored call in the slab
columns, so the counters re-roll the table's per-signature deltas into
the sampler-facing totals lazily, at read time, memoized on the
table's version stamp.  Leaving telemetry on therefore adds **zero**
work to the wrapper hot path.  The sampler reads a tick's totals
through :meth:`RankCounters.totals`, so it rolls once per tick.

Quantities the table cannot see keep their explicit increments: error
counts (:meth:`on_error`), kernel/host-idle time (credited by the KTT
and host-idle separation under ``@``-pseudo signatures, which the
rollup skips), kernel launches, and MPI payload-direction bytes.

The counters stay deliberately dumb — plain dicts, no locking (ranks
are simulated processes under a strict-handoff scheduler, so there is
no real concurrency), no time stamps (the sampler owns the clock).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

#: memcpy direction suffixes (as produced by the signature refiners)
#: that are broken out into per-direction byte counters.
_DIRECTIONS = ("H2D", "D2H", "D2D", "H2H")


class RankCounters:
    """Monotonic event totals for one monitored rank."""

    __slots__ = (
        "_events",
        "errors",
        "_domain_time",
        "_domain_bytes",
        "_copy_bytes",
        "host_idle_time",
        "kernel_time",
        "launches",
        "mpi_sent_bytes",
        "mpi_recv_bytes",
        "_table",
        "_domains",
        "_rolled_version",
        "_seen",
    )

    def __init__(self) -> None:
        #: monitored events (wrapped calls) observed so far.
        self._events = 0
        #: monitored calls that returned an error code.
        self.errors = 0
        #: time spent inside wrapped calls, by domain (MPI/CUDA/...).
        self._domain_time: Dict[str, float] = {}
        #: bytes carried by refined signatures, by domain.
        self._domain_bytes: Dict[str, int] = {}
        #: memcpy bytes by direction (from the "(H2D)"-style suffixes).
        self._copy_bytes: Dict[str, int] = {d: 0 for d in _DIRECTIONS}
        #: ``@CUDA_HOST_IDLE`` time recorded so far.
        self.host_idle_time = 0.0
        #: device-side kernel execution time recorded so far.
        self.kernel_time = 0.0
        #: monitored kernel launches.
        self.launches = 0
        #: MPI payload bytes sent / received.
        self.mpi_sent_bytes = 0
        self.mpi_recv_bytes = 0
        #: the rank's hash table + domain registry (see attach()).
        self._table: Optional[Any] = None
        self._domains: Optional[Dict[str, str]] = None
        self._rolled_version = -1
        #: per-signature (count, total) already folded into the totals.
        self._seen: Dict[Any, Tuple[int, float]] = {}

    def attach(self, table: Any, domains: Dict[str, str]) -> None:
        """Derive event totals from ``table`` (wired by the Ipm)."""
        self._table = table
        self._domains = domains

    def _roll(self) -> None:
        """Fold table deltas since the last roll into the totals.

        Only signatures of *wrapped calls* contribute: non-``@`` names
        whose base call is registered in the domain map — exactly the
        set the wrappers used to report per event.  Pseudo-events
        (kernel exec, host idle, error regions) keep their dedicated
        explicit counters.
        """
        table = self._table
        if table is None:
            return
        version = table.version
        if version == self._rolled_version:
            return
        domains = self._domains
        seen = self._seen
        times = self._domain_time
        sizes = self._domain_bytes
        copies = self._copy_bytes
        events = 0
        for sig, count, total, _tmin, _tmax in table.iter_rows():
            name = sig.name
            if name.startswith("@"):
                continue
            base = name.split("(", 1)[0]
            domain = domains.get(base)
            if domain is None:
                continue
            prev = seen.get(sig)
            if prev is None:
                dcount, dtotal = count, total
            else:
                dcount = count - prev[0]
                dtotal = total - prev[1]
                if dcount == 0 and dtotal == 0.0:
                    continue
            seen[sig] = (count, total)
            events += dcount
            times[domain] = times.get(domain, 0.0) + dtotal
            nbytes = sig.nbytes
            if nbytes:
                sizes[domain] = sizes.get(domain, 0) + nbytes * dcount
                rest = name[len(base):]
                if rest.startswith("("):
                    direction = rest[1:rest.find(")")]
                    if direction in copies:
                        copies[direction] += nbytes * dcount
        self._events += events
        self._rolled_version = version

    def totals(self) -> Tuple[float, ...]:
        """The sampler's per-tick totals, from a single roll.

        ``(events, errors, MPI time, kernel time, host-idle time, H2D
        bytes, D2H bytes, launches)``, the counts converted to float.
        """
        self._roll()
        copies = self._copy_bytes
        return (
            float(self._events),
            float(self.errors),
            self._domain_time.get("MPI", 0.0),
            self.kernel_time,
            self.host_idle_time,
            float(copies["H2D"]),
            float(copies["D2H"]),
            float(self.launches),
        )

    # -- derived totals (memoized on the table's version stamp) --------

    @property
    def events(self) -> int:
        """Monitored events (wrapped calls) observed so far."""
        self._roll()
        return self._events

    @events.setter
    def events(self, value: int) -> None:
        self._roll()
        self._events = value

    @property
    def domain_time(self) -> Dict[str, float]:
        """Time spent inside wrapped calls, by domain (live dict)."""
        self._roll()
        return self._domain_time

    @property
    def domain_bytes(self) -> Dict[str, int]:
        """Bytes carried by refined signatures, by domain (live dict)."""
        self._roll()
        return self._domain_bytes

    @property
    def copy_bytes(self) -> Dict[str, int]:
        """Memcpy bytes by direction (live dict)."""
        self._roll()
        return self._copy_bytes

    # -- explicit increments -------------------------------------------

    def on_event(
        self,
        domain: str,
        duration: float,
        suffix: str = "",
        nbytes: Optional[int] = None,
    ) -> None:
        """Fold one event into the totals explicitly.

        Kept for callers outside the wrapper stack (the wrappers now
        account through the table; calling this for a table-recorded
        event would double-count it).
        """
        self._roll()
        self._events += 1
        times = self._domain_time
        times[domain] = times.get(domain, 0.0) + duration
        if nbytes:
            sizes = self._domain_bytes
            sizes[domain] = sizes.get(domain, 0) + nbytes
            if suffix:
                direction = suffix[1:-1]  # "(H2D)" -> "H2D"
                if direction in self._copy_bytes:
                    self._copy_bytes[direction] += nbytes

    def on_error(self, domain: str) -> None:
        """Count one failing monitored call (the error-rate series)."""
        self.errors += 1
