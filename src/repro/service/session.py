"""Per-tenant service state: admission control and interactive sessions.

The daemon serves many tenants from shared per-snapshot engines, so the two
things that must *not* be shared live here:

* :class:`AdmissionController` -- bounded concurrency.  A request is
  admitted only while the global in-flight count is under
  ``max_concurrent`` *and* the requesting tenant is under its own
  ``per_tenant`` cap; otherwise it is shed immediately with a structured
  429-style :class:`~repro.errors.OverloadedError`.  The per-tenant cap is
  what keeps one chatty tenant from starving the rest.

* :class:`SessionTable` -- interactive learning sessions, keyed by
  ``(tenant, session name)``.  A session is stored as its
  :class:`~repro.interactive.InteractiveCheckpoint` payload (the PR-4
  resume machinery), so it survives between requests without pinning any
  live object, and the keying means one tenant can never resume -- or even
  observe -- another tenant's session.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.errors import OverloadedError, ServiceError


class AdmissionController:
    """Global + per-tenant in-flight caps with immediate load-shedding."""

    def __init__(self, *, max_concurrent: int, per_tenant: int, registry=None) -> None:
        self.max_concurrent = max_concurrent
        self.per_tenant = per_tenant
        self._lock = threading.Lock()
        self._inflight_total = 0
        self._inflight: dict[str, int] = {}
        if registry is not None:
            self._gauge = registry.gauge(
                "service_inflight", help="requests currently admitted and executing"
            )
            self._shed = registry.counter(
                "service_shed_total", help="requests shed by admission control"
            )
        else:
            self._gauge = self._shed = None

    @contextmanager
    def admit(self, tenant: str):
        """Hold one admission slot for ``tenant`` (or shed with a 429)."""
        with self._lock:
            tenant_inflight = self._inflight.get(tenant, 0)
            full = None
            if self._inflight_total >= self.max_concurrent:
                full = f"server at max_concurrent={self.max_concurrent} in-flight requests"
            elif tenant_inflight >= self.per_tenant:
                full = f"tenant {tenant!r} at its per_tenant={self.per_tenant} in-flight cap"
            if full is not None:
                if self._shed is not None:
                    self._shed.inc()
                raise OverloadedError(f"{full}; retry later")
            self._inflight_total += 1
            self._inflight[tenant] = tenant_inflight + 1
            if self._gauge is not None:
                self._gauge.inc()
        try:
            yield
        finally:
            with self._lock:
                self._inflight_total -= 1
                remaining = self._inflight[tenant] - 1
                if remaining:
                    self._inflight[tenant] = remaining
                else:
                    del self._inflight[tenant]
            if self._gauge is not None:
                self._gauge.dec()

    def snapshot(self) -> dict:
        """Current admission state (for the ``stats`` op)."""
        with self._lock:
            return {
                "inflight": self._inflight_total,
                "max_concurrent": self.max_concurrent,
                "per_tenant_cap": self.per_tenant,
                "tenants_active": len(self._inflight),
            }


class SessionTable:
    """Interactive-session checkpoints, isolated per tenant."""

    def __init__(self, *, max_sessions_per_tenant: int = 16, registry=None) -> None:
        self.max_sessions_per_tenant = max_sessions_per_tenant
        self._lock = threading.Lock()
        self._sessions: dict[str, dict[str, dict]] = {}
        # (tenant, name) -> [lock, holders + waiters]; an entry lives while
        # its session is stored or a request is inside :meth:`lock_for`.
        self._session_locks: dict[tuple[str, str], list] = {}
        if registry is not None:
            self._gauge = registry.gauge(
                "service_sessions", help="interactive sessions currently checkpointed"
            )
        else:
            self._gauge = None

    @contextmanager
    def lock_for(self, tenant: str, name: str):
        """Hold one session for a resume-run-checkpoint cycle.

        Interactive requests are read-modify-write on the checkpoint;
        without per-session exclusion two concurrent calls of the same
        tenant would both resume the same state and one update would be
        lost.  Different sessions (and different tenants) stay parallel.

        A *new* name is refused here, before the caller does any work, when
        the tenant's stored and in-flight names already fill its cap.  On
        the way out the lock is dropped again unless the name now stores a
        checkpoint (or another request still waits on it), so a refused or
        failed request leaves nothing behind.
        """
        key = (tenant, name)
        with self._lock:
            in_use = set(self._sessions.get(tenant, ()))
            in_use.update(held for owner, held in self._session_locks if owner == tenant)
            if name not in in_use and len(in_use) >= self.max_sessions_per_tenant:
                raise self._at_cap(tenant)
            entry = self._session_locks.setdefault(key, [threading.Lock(), 0])
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._lock:
                entry[1] -= 1
                if not entry[1] and name not in self._sessions.get(tenant, ()):
                    del self._session_locks[key]

    def _at_cap(self, tenant: str) -> ServiceError:
        """The structured 429 of a tenant whose session cap is full."""
        return ServiceError(
            f"tenant {tenant!r} at its {self.max_sessions_per_tenant}-session "
            "cap; release one first",
            code="session_limit",
            status=429,
        )

    def get(self, tenant: str, name: str) -> dict | None:
        """The stored checkpoint payload, or None for a fresh session."""
        with self._lock:
            entry = self._sessions.get(tenant, {}).get(name)
            # A private copy: the caller feeds it to checkpoint resume and
            # must not be able to corrupt the table through aliasing.
            return dict(entry) if entry is not None else None

    def put(self, tenant: str, name: str, checkpoint: dict) -> None:
        """Store (replace) a session's checkpoint for its tenant."""
        with self._lock:
            table = self._sessions.setdefault(tenant, {})
            if name not in table and len(table) >= self.max_sessions_per_tenant:
                raise self._at_cap(tenant)
            created = name not in table
            table[name] = dict(checkpoint)
            if created and self._gauge is not None:
                self._gauge.inc()

    def release(self, tenant: str, name: str) -> bool:
        """Drop a session; False when the tenant had none of that name."""
        with self._lock:
            table = self._sessions.get(tenant)
            if table is None or name not in table:
                return False
            del table[name]
            if not table:
                del self._sessions[tenant]
            entry = self._session_locks.get((tenant, name))
            if entry is not None and not entry[1]:
                del self._session_locks[tenant, name]
        if self._gauge is not None:
            self._gauge.dec()
        return True

    def names(self, tenant: str) -> list[str]:
        """The requesting tenant's own session names (never anyone else's)."""
        with self._lock:
            return sorted(self._sessions.get(tenant, {}))

    def total(self) -> int:
        """Sessions stored across all tenants (an aggregate, no names)."""
        with self._lock:
            return sum(len(table) for table in self._sessions.values())
