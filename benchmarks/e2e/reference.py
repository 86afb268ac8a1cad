"""Correctness gate: replay the stream through one plain engine.

Off the clock, the checked sessions' requests are decided again by a
single-threaded :class:`~repro.rbac.engine.AccessControlEngine` in
stream order — sessions opened one by one with ``authenticate`` +
``activate_role`` (not the bulk loader the service stack uses),
incremental checks with ``history=None``, executions followed by
``observe`` when granted, proof-carrying checks with their explicit
history.  Every service decision of a checked session must agree with
the reference on the fields a caller acts on; the reference outcomes
are also folded into a digest that ``expected.json`` pins per
workload for the default seed and run length.
"""

from __future__ import annotations

import hashlib

import numpy as np

from driver import PRESEED_ACCESS, ROLE, build_policy
from repro.rbac.audit import Decision
from repro.rbac.engine import AccessControlEngine
from repro.traces.trace import AccessKey
from workloads import COUNT_BOUND, EXEC, Stream, user_name

__all__ = ["fingerprint", "replay", "digest", "check"]


def fingerprint(decision: Decision) -> tuple:
    """The compared fields: outcome, reason, granting (or last failing)
    role and permission, provenance kind, history length, and time."""
    provenance = decision.provenance
    return (
        decision.granted,
        decision.reason,
        decision.role,
        decision.permission,
        provenance.kind if provenance is not None else None,
        provenance.history_len if provenance is not None else None,
        decision.time,
    )


def replay(stream: Stream, upto: int) -> tuple[np.ndarray, list[tuple]]:
    """Reference fingerprints for the checked sessions' requests among
    the first ``upto``; returns ``(request ids, fingerprints)``."""
    shape = stream.shape
    engine = AccessControlEngine(build_policy(stream))
    keys = [AccessKey.of(*a) for a in stream.alphabet]
    handles = {}
    for session in stream.checked.tolist():
        start = stream.activation_of(session)
        handle = engine.authenticate(user_name(session % shape.users), start)
        engine.activate_role(handle, ROLE, start)
        handles[session] = handle
    seed_access = AccessKey.of(*PRESEED_ACCESS)
    for session in np.intersect1d(stream.preseed, stream.checked).tolist():
        for _ in range(COUNT_BOUND + 1):
            engine.observe(handles[session], seed_access)

    checked = np.zeros(shape.sessions, dtype=bool)
    checked[stream.checked] = True
    ids = np.flatnonzero(checked[stream.session[:upto]])
    histories = [tuple(keys[a] for a in h) for h in stream.histories]
    out = []
    for k in ids.tolist():
        handle = handles[int(stream.session[k])]
        access = keys[int(stream.access[k])]
        h = int(stream.history[k])
        decision = engine.decide(
            handle,
            access,
            float(stream.t[k]),
            history=histories[h] if h >= 0 else None,
        )
        if stream.kind[k] == EXEC and decision.granted:
            engine.observe(handle, access)
        out.append(fingerprint(decision))
    return ids, out


def digest(ids: np.ndarray, prints: list[tuple]) -> str:
    h = hashlib.sha256()
    for k, p in zip(ids.tolist(), prints):
        h.update(repr((k, p[:-1], p[-1].hex())).encode())
    return h.hexdigest()


def check(stream: Stream, outcomes: list, upto: int) -> dict:
    """Compare the service's outcomes with the reference replay.

    A request that failed (an exception outcome) is counted by the
    caller as failed, not here; a completed request whose fingerprint
    differs is a mismatch."""
    ids, prints = replay(stream, upto)
    mismatches = 0
    first = None
    for k, expected in zip(ids.tolist(), prints):
        got = outcomes[k]
        if isinstance(got, Decision) and fingerprint(got) != expected:
            mismatches += 1
            if first is None:
                first = {"request": k, "service": repr(fingerprint(got)), "reference": repr(expected)}
    return {
        "checked_requests": len(ids),
        "checked_sessions": len(stream.checked),
        "mismatches": mismatches,
        "first_mismatch": first,
        "digest": digest(ids, prints),
    }
