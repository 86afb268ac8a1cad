"""Seeded request streams for the end-to-end decision-service benchmark.

Everything the benchmark feeds the program is generated here, from the
``--seed`` alone, with NumPy only: nothing in this module imports
``repro``, so no change to the program can change the inputs.  The
program receives the generated inputs (policy shape, user names,
access triples, logical instants, explicit histories) and nothing
else.

A :class:`Stream` is one pre-generated request sequence.  The run's
phases (warm-up, ``light``, ``heavy``, ``capacity``) consume
consecutive slices of it, so logical time is strictly increasing
across the whole run; the request id of any decision is recovered from
its logical instant by ``np.searchsorted(stream.t, t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CHECK",
    "COUNT_BOUND",
    "EXEC",
    "EXPLICIT",
    "PHASES",
    "Shape",
    "Plan",
    "Stream",
    "make_plan",
    "generate",
    "user_name",
]

#: Request kinds: an incremental check (the session's own history), an
#: execution (``observe_granted=True``: a granted access is executed
#: and feeds the history) and a proof-carrying check against an
#: explicit history.
CHECK, EXEC, EXPLICIT = 0, 1, 2

#: Phase order within one run; each consumes the next slice.  The
#: warm-up is closed-loop; ``settle`` is its open-loop tail at the
#: light rate, so ``light`` does not start from the deep batches and
#: wide coalescing windows the closed loop left behind.
PHASES = ("warmup", "settle", "light", "heavy", "capacity")

#: Logical length (seconds) of one simulated day; every stream spans one.
DAY_S = 86_400.0

#: Upper bound of the ``count(0, bound, [res = rsw])`` constraint.
COUNT_BOUND = 3

#: Explicit histories are drawn from a fixed pool of this many traces,
#: each of a length in this inclusive range.
HISTORY_POOL = 1024
HISTORY_LEN = (8, 64)


@dataclass(frozen=True)
class Shape:
    """What a workload's population and request mix look like."""

    sessions: int
    users: int
    servers: int
    #: Zipf exponent of session popularity (rank ``r`` has weight
    #: ``r ** -zipf_s``).
    zipf_s: float
    #: Shares of CHECK / EXEC / EXPLICIT requests.
    mix: tuple[float, float, float] = (1.0, 0.0, 0.0)
    #: Diurnal (sinusoidal-rate) logical arrivals instead of flat ones.
    diurnal: bool = False
    #: Every this many popularity ranks (ranks 1, 1+k, 1+2k, ...), a
    #: touched session starts past the count bound; 0 pre-seeds none.
    preseed_every: int = 3
    #: ``write-log`` gets a finite validity budget of one day, and
    #: sessions open in this many activation cohorts spread over the
    #: preceding day, so Eq. 4.1 expiries fall throughout the stream.
    #: ``0`` keeps ``write-log`` time-insensitive with one cohort at 0.
    expiry_cohorts: int = 0
    #: Share of touched sessions the correctness gate replays.
    check_share: float = 1.0

    @classmethod
    def from_dict(cls, raw: dict) -> "Shape":
        raw = dict(raw)
        if "mix" in raw:
            raw["mix"] = tuple(raw["mix"])
        return cls(**raw)


@dataclass(frozen=True)
class Plan:
    """Request counts per phase and the open-loop rates."""

    counts: dict[str, int]
    light_rps: float
    heavy_rps: float

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def bounds(self, phase: str) -> tuple[int, int]:
        """``[lo, hi)`` of ``phase`` in the stream."""
        lo = 0
        for name in PHASES:
            hi = lo + self.counts[name]
            if name == phase:
                return lo, hi
            lo = hi
        raise KeyError(phase)


def make_plan(
    spec: dict, phase_shares: dict, seconds: float, settle_s: float
) -> Plan:
    """Size every phase for a run that measures about ``seconds``.

    Open-loop phases last their share of ``seconds`` at their fixed
    rate; the closed-loop ``capacity`` slice holds as many requests as
    the workload's reference capacity serves in its share (a faster
    program finishes it sooner).  ``settle`` lasts ``settle_s`` at the
    light rate."""
    settle = max(1, round(spec["light_rps"] * settle_s))
    light = max(1, round(spec["light_rps"] * phase_shares["light"] * seconds))
    heavy = max(1, round(spec["heavy_rps"] * phase_shares["heavy"] * seconds))
    capacity = max(
        1, round(spec["capacity_rps_ref"] * phase_shares["capacity"] * seconds)
    )
    return Plan(
        counts={
            "warmup": int(spec["warmup_requests"]),
            "settle": settle,
            "light": light,
            "heavy": heavy,
            "capacity": capacity,
        },
        light_rps=float(spec["light_rps"]),
        heavy_rps=float(spec["heavy_rps"]),
    )


@dataclass
class Stream:
    """One fully generated request sequence plus its population."""

    shape: Shape
    #: ``(op, resource, server)`` triples; requests index into it.
    alphabet: list[tuple[str, str, str]]
    #: Per request: target session, alphabet index, logical instant
    #: (strictly increasing), kind, explicit-history pool index (-1).
    session: np.ndarray
    access: np.ndarray
    t: np.ndarray
    kind: np.ndarray
    history: np.ndarray
    #: Explicit histories as tuples of alphabet indices.
    histories: list[tuple[int, ...]]
    #: Sessions that start past the count bound.
    preseed: np.ndarray
    #: Activation instant of each cohort; session ``i`` is in cohort
    #: ``i % len(activation)``.
    activation: np.ndarray
    #: Validity budget of ``write-log`` (``inf`` = time-insensitive).
    write_log_budget: float
    #: Touched sessions the correctness gate replays (sorted).
    checked: np.ndarray
    #: Open-loop due offsets (seconds from phase start), per phase.
    due: dict[str, np.ndarray] = field(repr=False)

    @property
    def touched(self) -> np.ndarray:
        return np.unique(self.session)

    def activation_of(self, session: int) -> float:
        return float(self.activation[session % len(self.activation)])


def user_name(index: int) -> str:
    return f"u{index:05d}"


def _zipf_targets(
    shape: Shape, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Zipf-distributed session targets: session ``i`` has popularity
    rank ``i``.  The layout is fixed, not drawn: which sessions (and so
    which users and shards) are hot is part of the workload, and only
    the request sample varies with the seed, so seeds differ by
    sampling noise, not by a different load balance."""
    weights = np.arange(1, shape.sessions + 1, dtype=np.float64) ** -shape.zipf_s
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    targets = np.searchsorted(cdf, rng.random(n), side="right")
    return np.minimum(targets, shape.sessions - 1).astype(np.int64)


def _logical_times(
    shape: Shape, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Poisson instants over one day, strictly increasing.

    Diurnal streams warp unit-rate arrivals through the inverse of the
    cumulative intensity ``t + (A/w)(1 - cos wt)`` (rate swinging by
    ``A = 0.6`` over the day), tabulated on a grid."""
    arrivals = np.cumsum(rng.exponential(1.0, n))
    arrivals *= DAY_S / (arrivals[-1] + rng.exponential(1.0))
    if shape.diurnal:
        omega = 2.0 * math.pi / DAY_S
        grid = np.linspace(0.0, DAY_S, 8192)
        cumulative = grid + (0.6 / omega) * (1.0 - np.cos(omega * grid))
        cumulative *= DAY_S / cumulative[-1]
        arrivals = np.interp(arrivals, cumulative, grid)
    # Ties (or float rounding in the warp) would make two requests
    # share an instant, and the request id must be recoverable from t.
    arrivals += np.arange(n) * 1e-6
    return arrivals


def _accesses(
    shape: Shape, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Alphabet indices: op uniform over exec/read/write, server
    uniform, with a fifth of the traffic on ``s0``/``s1`` (the servers
    the ordering constraint watches, so its monitor advances)."""
    ops = rng.integers(0, 3, n)
    servers = rng.integers(0, shape.servers, n)
    watched = rng.random(n) < 0.2
    servers[watched] = rng.integers(0, min(2, shape.servers), int(watched.sum()))
    return (ops * shape.servers + servers).astype(np.int32)


def _histories(
    shape: Shape, rng: np.random.Generator
) -> list[tuple[int, ...]]:
    """A pool of explicit histories: mostly ``write log`` with a few
    ``rsw`` accesses, so the count constraint both holds and fails."""
    lo, hi = HISTORY_LEN
    out = []
    for length in rng.integers(lo, hi + 1, HISTORY_POOL).tolist():
        rsw = rng.random(length) < 0.05
        ops = np.where(rsw, rng.integers(0, 2, length), 2)
        servers = rng.integers(0, shape.servers, length)
        out.append(tuple((ops * shape.servers + servers).tolist()))
    return out


def _due(rate: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Poisson send schedule at ``rate``: offsets from phase start."""
    return np.cumsum(rng.exponential(1.0 / rate, n))


def generate(shape: Shape, plan: Plan, seed: int) -> Stream:
    """The whole stream for one run; the same seed gives the same
    stream."""
    if shape.sessions < 1 or shape.users < 1 or shape.servers < 2:
        raise ValueError(f"degenerate shape: {shape}")
    if abs(sum(shape.mix) - 1.0) > 1e-9:
        raise ValueError(f"request mix must sum to 1: {shape.mix}")
    (
        target_rng, time_rng, access_rng, kind_rng, history_rng, due_rng,
        check_rng,
    ) = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(7))
    n = plan.total
    session = _zipf_targets(shape, n, target_rng)
    t = _logical_times(shape, n, time_rng)
    access = _accesses(shape, n, access_rng)
    kind = kind_rng.choice(3, size=n, p=shape.mix).astype(np.uint8)
    histories = _histories(shape, history_rng) if shape.mix[EXPLICIT] else []
    history = np.full(n, -1, dtype=np.int32)
    explicit = kind == EXPLICIT
    history[explicit] = history_rng.integers(
        0, max(1, len(histories)), int(explicit.sum())
    )

    touched = np.unique(session)
    if shape.preseed_every:
        preseed = touched[touched % shape.preseed_every == 1]
    else:
        preseed = np.empty(0, dtype=np.int64)
    if shape.expiry_cohorts:
        cohorts = shape.expiry_cohorts
        # Cohort c activates at -DAY*(c+0.5)/C with a one-day budget,
        # so its write-log permission expires at DAY*(1-(c+0.5)/C).
        activation = -DAY_S * (np.arange(cohorts) + 0.5) / cohorts
        budget = DAY_S
    else:
        activation = np.zeros(1)
        budget = math.inf
    if shape.check_share >= 1.0:
        checked = touched
    else:
        checked = touched[check_rng.random(len(touched)) < shape.check_share]

    alphabet = [
        (op, "log" if op == "write" else "rsw", f"s{server}")
        for op in ("exec", "read", "write")
        for server in range(shape.servers)
    ]
    return Stream(
        shape=shape,
        alphabet=alphabet,
        session=session,
        access=access,
        t=t,
        kind=kind,
        history=history,
        histories=histories,
        preseed=preseed,
        activation=activation,
        write_log_budget=budget,
        checked=checked,
        due={
            "settle": _due(plan.light_rps, plan.counts["settle"], due_rng),
            "light": _due(plan.light_rps, plan.counts["light"], due_rng),
            "heavy": _due(plan.heavy_rps, plan.counts["heavy"], due_rng),
        },
    )
