"""Exact continuous-time simulation of finite-activity pure-jump processes.

States are exact dyadic lattice points ``x = k * m * 2**-s`` carried as
integers (mantissa m, scale s) plus the symbolic unit tag of k, so
membership in the geometric lattice ``M_k = k {+-2^z} u {0}`` is decided by
integer arithmetic, never by float comparison.  Holding times are
inverse-CDF exponentials driven by the counter-based streams of
:mod:`levysym.rng`: event j of path i always consumes counter j of the
stream keyed by (master seed, i), which makes ensembles reproducible and
independent of scheduling.  Both engines draw counters ahead of use, which
cannot change a result because a draw depends only on (key, counter).  The
lock-step engine reads the raw words, ``rng.event_words``, in tiles of
consecutive counters for all active paths, about 16 384 (counter, path)
pairs per call.
The per-path engine reads them as uniforms, ``rng.event_uniforms``: counters
0 .. 255 for 64 paths in one call (the same tile size), and a path that runs
past them reads its own stream in blocks that double from 256 counters up to
1 024: 256, 512, 1 024, 1 024, ...  Each Philox call allocates its own
scratch, so the engines hand ``rng`` only keys and counters.

The generic per-path engine works for any ``JumpRule``, retains
trajectories on request and is the oracle.  It runs on Python floats, and
within one ensemble it computes each state's rates, their running sums and
its successors once: a memo keeps them for every state a path has been to,
and a move is chosen by bisecting the running sums.  Endpoint-only
ensembles of the two doubling families run instead in one vectorized
lock-step loop, ``_lockstep``, which steps int64 levels through a chain
table: the states the chain reaches from x0 whose m and s fit int64, each
with its total rate and successors as the per-path engine's own rule
computes them; an ensemble that leaves them runs per path.  A tile's first
words become log(u1) and its second words their top bits, the moves, in
their own buffers.  An event index then costs six NumPy calls over the
active paths and reads no live mask: an int64 add turns the row of moves
into positions plus moves, a gather of the rates, a division and an
in-place subtraction step the times, a reduction tells when every path has
passed the horizon, and a gather moves the positions through the table's
successor array.  So the rows of the tile hold each event's time and its
position plus move, and one first-passage pass over them at the tile's end
finds where each path passes each observation time and the horizon, and
scatters the observed states, endpoints and event counts once per tile.  Both
engines give identical endpoints, event counts and truncations; an ensemble
holds its endpoints as two columns, mantissas and scales, and builds
``ExactState`` endpoints on request, one per distinct state, shared by the
paths that end there.  ``SimConfig.observe`` adds the state at each of a
sorted list of times before the horizon, recorded in the same pass as two
more columns per time: column q of a run is the endpoint of the run with the
same seed and horizon ``observe[q]``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng
from .errors import UnitMismatch, UnsupportedSpec
from .symbols import IncreasingDoublingApprox, SymmetricDoublingApprox


@dataclass(frozen=True)
class ExactState:
    """Exact lattice point x = k * m * 2**-s with symbolic unit tag.

    The representation is canonical: while m is even and s > 0 the pair is
    reduced, so membership of x in M_k reduces to ``|m| a power of two``
    (or m = 0), an O(1) integer test.
    """

    unit_tag: str
    k: float
    m: int
    s: int

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("scale must be nonnegative")
        m, s = self.m, self.s
        if m == 0:
            s = 0
        else:
            while m % 2 == 0 and s > 0:
                m //= 2
                s -= 1
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s", s)

    @property
    def value(self) -> float:
        return self.k * math.ldexp(float(self.m), -self.s)

    def shifted(self, dm: int, ds: int) -> "ExactState":
        """State displaced by k * dm * 2**-ds, exactly."""
        s = max(self.s, ds)
        m = self.m * (1 << (s - self.s)) + dm * (1 << (s - ds))
        return ExactState(self.unit_tag, self.k, m, s)

    def compare_value(self, dm: int, ds: int) -> int:
        """Sign of (self - k*dm*2**-ds), exact integer comparison."""
        lhs = self.m * (1 << max(0, ds - self.s))
        rhs = dm * (1 << max(0, self.s - ds))
        return (lhs > rhs) - (lhs < rhs)


@dataclass(frozen=True)
class JumpRule:
    """Finite-activity jump dynamics: state -> ((rate, (dm, ds)), ...).

    Displacements are exact dyadic shifts in units of k.  ``family`` names a
    built-in rule and picks one of the vectorized engine's two entry points,
    kept apart for the benchmark's tracer; generic user rules leave it None.

    ``moves`` must be a pure function of the state: the same moves, in the
    same order, every time it is called with equal states.  Both engines
    call it once per state and reuse the answer, the lock-step engine in its
    chain table and the per-path engine in a memo that lasts one ensemble.
    Rates are nonnegative: the per-path engine raises ValueError at a state
    with a negative one.  A start x0 lies on the rule's lattice
    (``initial_state``), else UnitMismatch.
    """

    moves: Callable[[ExactState], tuple[tuple[float, tuple[int, int]], ...]]
    unit_tag: str
    k: float
    family: str | None = None

    def initial_state(self, m: int = 0, s: int = 0) -> ExactState:
        return ExactState(self.unit_tag, self.k, m, s)


@dataclass(frozen=True)
class SimConfig:
    """Ensemble parameters; ``seed`` is the 64-bit master seed, an integer in
    [0, 2**64)."""

    horizon: float
    seed: int
    paths: int = 1
    max_events: int = 10_000_000
    store_paths: bool = False
    observe: tuple[float, ...] = ()  # times in (0, horizon), strictly increasing

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        observe = tuple(float(t) for t in self.observe)
        if not all(0.0 < a < b for a, b in zip(observe, observe[1:] + (self.horizon,))):
            raise ValueError("observation times must increase strictly inside (0, horizon)")
        object.__setattr__(self, "observe", observe)
        for name in ("seed", "paths", "max_events"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.max_events < 0:
            raise ValueError("max_events must be nonnegative")
        if self.paths < 1:
            raise ValueError("need at least one path")


@dataclass(frozen=True)
class Path:
    """Cadlag step function: state[0] at time 0, state[i+1] after times[i]."""

    times: tuple[float, ...]
    states: tuple[ExactState, ...]
    truncated: bool = False

    def __post_init__(self):
        if len(self.states) != len(self.times) + 1:
            raise ValueError("need exactly one more state than jump times")

    @property
    def endpoint(self) -> ExactState:
        return self.states[-1]


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Path i ends at k * m[i] * 2**-s[i], canonical as in ExactState; ``m`` is
    int64 (lock-step engine) or Python ints that never wrap (per-path engine);
    ``m_at[q, i]``, ``s_at[q, i]`` hold path i's state at ``cfg.observe[q]``."""

    unit_tag: str
    k: float
    m: np.ndarray
    s: np.ndarray
    horizon: float
    truncated_count: int
    event_counts: tuple[int, ...]
    m_at: np.ndarray
    s_at: np.ndarray
    paths: tuple[Path, ...] | None = None

    @property
    def values(self) -> np.ndarray:
        """Endpoint values, rounded as :attr:`ExactState.value` rounds them."""
        return self.k * np.ldexp(self.m.astype(float), -self.s)

    @property
    def values_at(self) -> np.ndarray:
        """State values at the observation times, one row per time."""
        return self.k * np.ldexp(self.m_at.astype(float), -self.s_at)

    @functools.cached_property
    def endpoints(self) -> tuple[ExactState, ...]:
        """Path i's endpoint as an ExactState.  Paths that end at the same
        (m, s) share one state object, which is safe since states are frozen;
        an ensemble ends at few distinct states, so this builds few of them."""
        pairs = list(zip(self.m.tolist(), self.s.tolist()))
        shared = {pair: ExactState(self.unit_tag, self.k, *pair) for pair in set(pairs)}
        return tuple(map(shared.__getitem__, pairs))


# ----------------------------------------------------------------------
# rule construction for the built-in families
# ----------------------------------------------------------------------
def jump_rule_of(spec) -> JumpRule:
    """Jump rule of a finite-activity approximation variant.

    Event counts of the symmetric family started at 0 grow like 2**n per
    unit time (diffusive local time near the lattice floor), so n <= 16 is
    the practical envelope under the default event budget.  The rate at the
    floor state k 2**-n is the largest of either family; a (k, n) whose
    floor rate is not a finite positive float (k * k underflowing to 0, 4**n
    or 1 / k past the float range) is a ValueError, before any simulation.
    """
    rule = _rule_of(spec)
    try:
        rate = rule.moves(ExactState(rule.unit_tag, rule.k, 1, spec.n))[0][0]
    except (OverflowError, ZeroDivisionError):
        rate = math.nan
    if not 0.0 < rate < math.inf:
        raise ValueError(f"the jump rate at the floor state k 2^-n is not a finite "
                         f"positive float for k = {rule.k!r}, n = {spec.n}")
    return rule


def _rule_of(spec) -> JumpRule:
    """The jump rule of ``jump_rule_of``, unchecked."""
    if isinstance(spec, SymmetricDoublingApprox):
        k, n = spec.k, spec.n

        def moves(state: ExactState, n=n, kval=k.value):
            # inner region |x| < k 2^-n: frozen +-(k 2^-n) jumps
            if abs(state.m) * (1 << n) < (1 << state.s):
                rate = math.ldexp(1.0, 2 * n) / (2.0 * kval * kval)
                return ((rate, (1, n)), (rate, (-1, n)))
            # outer: double (+x) or annihilate (-x), each at 1/(2 x^2)
            rate = math.ldexp(1.0, 2 * state.s) / (
                2.0 * kval * kval * float(state.m * state.m)
            )
            return ((rate, (state.m, state.s)), (rate, (-state.m, state.s)))

        return JumpRule(moves, k.tag, k.value, "symmetric_doubling")

    if isinstance(spec, IncreasingDoublingApprox):
        k, n = spec.k, spec.n

        def moves(state: ExactState, n=n, kval=k.value):
            # jump size h(x) = clamp(x, k 2^-n, k 2^n), exact dyadic compare
            if state.compare_value(1, n) < 0:
                hm, hs = 1, n
            elif state.compare_value(1 << (2 * n), n) > 0:
                hm, hs = 1 << (2 * n), n
            else:
                hm, hs = state.m, state.s
            rate = 1.0 / (kval * math.ldexp(float(hm), -hs))
            return ((rate, (hm, hs)),)

        return JumpRule(moves, k.tag, k.value, "increasing_doubling")

    raise UnsupportedSpec(
        f"only the finite-activity approximation variants have jump rules, got {spec!r}"
    )


# ----------------------------------------------------------------------
# generic per-path engine
# ----------------------------------------------------------------------
#: counters of each path's first draw; ``_TILE // _FIRST`` paths draw them in
#: one Philox call
_FIRST = 256
#: the largest block of counters a path draws at a time from its own key past
#: the first ones; the blocks before it double from ``_FIRST``
_BLOCK = 1024


def _draws(keys, counters) -> tuple[list, list]:
    """(-log u1, u2) of ``rng.event_uniforms(keys, counters)`` as Python
    floats, transposed: a tile (counters x keys) gives one list per key."""
    u1, u2 = rng.event_uniforms(keys, counters)
    return (-np.log(u1)).T.tolist(), u2.T.tolist()


def _first_draws(keys) -> list[tuple[list, list]]:
    """(-log u1, u2) of counters 0 .. ``_FIRST`` - 1 for each key, in one call."""
    e1, u2 = _draws(keys[None, :], np.arange(_FIRST, dtype=np.uint64)[:, None])
    return list(zip(e1, u2))


def _entry(memo: dict, rule: JumpRule, state: ExactState) -> tuple:
    """``memo``'s entry for ``state``: (state, in-order total rate, the running
    sums of the rates before the last move, moves, the entries of the
    successors, None until a path takes that move).  The running sums are the
    additions that give the total, in order; a negative rate is a ValueError,
    so they never decrease."""
    entry = memo.get(state)
    if entry is None:
        move_list = rule.moves(state)
        if any(r < 0.0 for r, _ in move_list):
            raise ValueError(f"negative jump rate at {state!r}: {move_list!r}")
        cum = list(itertools.accumulate((r for r, _ in move_list), initial=0.0))
        entry = memo[state] = (state, cum[-1], cum[1:-1], move_list,
                               [None] * len(move_list))
    return entry


def _run_path(rule: JumpRule, x0: ExactState, cfg: SimConfig, key, record: bool,
              first: tuple[list, list], memo: dict) -> tuple:
    """(endpoint, events, truncated, jump times, states, observed) of one path;
    ``observed[q]`` is its state at ``cfg.observe[q]``, jump times and states
    are kept only with ``record``.

    Event j reads counter j of the stream ``key``: ``first`` holds the
    (-log u1, u2) draws of counters 0 .. ``_FIRST`` - 1 as Python floats.  A
    path that runs past them draws continuation blocks of its own key, one
    Philox call each, each as long as all the counters drawn before it, up to
    ``_BLOCK``: 256, 512, 1 024, 1 024, ... counters after a first draw of 256.
    The move is the first whose running sum of rates exceeds u2 * total,
    found by bisecting the entry's sums before the last move; where rounding
    puts the target past all of them, it is the last move.  ``memo`` holds
    the ``_entry`` of every state the rule's paths have been to; it may come
    from earlier paths of the same rule, since ``rule.moves`` is a pure
    function of the state.

    Wherever the path stops (past the horizon, absorbed or at ``max_events``)
    its state fills every observation time it has not passed, so one check
    per event, against the next observation time or else the horizon, finds
    both; the counter that needs a draw and event ``max_events`` share one
    check too.
    """
    e1, u2 = first  # the draws of counters base .. base + len(e1) - 1
    base, i = 0, 0  # the path has made base + i events
    horizon, max_events = cfg.horizon, cfg.max_events
    mark = min(len(e1), max_events)  # the next i that draws or truncates
    pending = list(cfg.observe[::-1])  # the next observation time last
    stop = pending[-1] if pending else horizon
    observed: list[ExactState] = []
    times: list[float] = []
    states: list[ExactState] = [x0]
    entry = _entry(memo, rule, x0)
    truncated = False
    t = 0.0
    while True:
        state, total, cum, move_list, succ = entry
        if total <= 0.0:
            break  # absorbing state
        if i == mark:
            if i == len(e1):
                base += i
                e1, u2 = _draws(key, np.arange(base, base + min(base, _BLOCK),
                                               dtype=np.uint64))
                i = 0
            if base + i == max_events:
                truncated = not t + e1[i] / total > horizon
                break
            mark = min(len(e1), max_events - base)
        t += e1[i] / total
        if t > stop:
            if t > horizon:
                break
            while pending and t > pending[-1]:
                pending.pop()
                observed.append(state)
            stop = pending[-1] if pending else horizon
        c = bisect.bisect_right(cum, u2[i] * total)
        entry = succ[c]
        if entry is None:
            entry = succ[c] = _entry(memo, rule, state.shifted(*move_list[c][1]))
        i += 1
        if record:
            times.append(t)
            states.append(entry[0])
    observed += [state] * len(pending)  # every time the path has not passed
    return state, base + i, truncated, times, states, observed


def _require_start(rule: JumpRule, x0: ExactState) -> None:
    """UnitMismatch unless x0 lies on the rule's lattice."""
    if (x0.unit_tag, x0.k) != (rule.unit_tag, rule.k):
        raise UnitMismatch(f"cannot start a rule on lattice ({rule.k!r}, {rule.unit_tag!r}) "
                           f"at a state on ({x0.k!r}, {x0.unit_tag!r})")


def simulate_path(rule: JumpRule, x0: ExactState, cfg: SimConfig,
                  path_index: int = 0) -> Path:
    """One trajectory, deterministic in (cfg.seed, path_index), an integer in
    [0, 2**64); x0 lies on the rule's lattice."""
    _require_start(rule, x0)
    if isinstance(path_index, bool) or not isinstance(path_index, numbers.Integral):
        raise ValueError(f"path_index must be an integer, got {path_index!r}")
    if not 0 <= path_index < 1 << 64:
        raise ValueError(f"path_index must be in [0, 2**64), got {path_index}")
    keys = rng.path_keys(cfg.seed, [path_index])
    state, events, truncated, times, states, _ = _run_path(
        rule, x0, cfg, keys[0], True, _first_draws(keys)[0], {})
    return Path(tuple(times), tuple(states), truncated)


def simulate_ensemble(rule: JumpRule, x0: ExactState, cfg: SimConfig) -> EnsembleResult:
    """N independent paths from x0, which lies on the rule's lattice;
    endpoints and observed states always, trajectories on request.

    Built-in families route to a vectorized lock-step engine when only
    endpoints are needed; the streams consumed are identical either way.  An
    input the lock-step engine cannot carry exactly runs per path instead.
    """
    _require_start(rule, x0)
    lockstep = None
    if not cfg.store_paths and cfg.paths > 1:
        if rule.family == "symmetric_doubling":
            lockstep = _ensemble_symmetric_doubling
        elif rule.family == "increasing_doubling":
            lockstep = _ensemble_increasing_doubling
    if lockstep is not None:
        try:
            return lockstep(rule, x0, cfg)
        except _LockstepUnfit:
            pass

    keys = rng.path_keys(cfg.seed, np.arange(cfg.paths))
    # row q: the state at cfg.observe[q], the last row the endpoint
    shape = (len(cfg.observe) + 1, cfg.paths)
    m = np.empty(shape, dtype=object)  # Python ints: 2**63 must not become a float
    s = np.empty(shape, dtype=np.int64)
    counts = []
    truncated_count = 0
    paths = [] if cfg.store_paths else None
    memo: dict = {}  # state -> its _entry, shared by all paths
    group = max(1, _TILE // _FIRST)  # paths per first draw
    for i in range(cfg.paths):
        if i % group == 0:
            first = _first_draws(keys[i:i + group])
        state, events, truncated, times, states, observed = _run_path(
            rule, x0, cfg, keys[i], cfg.store_paths, first[i % group], memo
        )
        for q, x in enumerate(observed + [state]):
            m[q, i], s[q, i] = x.m, x.s
        counts.append(events)
        truncated_count += truncated
        if cfg.store_paths:
            paths.append(Path(tuple(times), tuple(states), truncated))
    return EnsembleResult(
        x0.unit_tag, x0.k, m[-1], s[-1], cfg.horizon, truncated_count, tuple(counts),
        m[:-1], s[:-1], tuple(paths) if paths is not None else None,
    )


# ----------------------------------------------------------------------
# vectorized lock-step engine (endpoint-only, built-in families)
# ----------------------------------------------------------------------
#: (counter, path) pairs per Philox call: a lock-step tile (counters x active
#: paths), and the per-path engine's first draws (``_FIRST`` counters x a group
#: of paths)
_TILE = 16_384


class _LockstepUnfit(Exception):
    """The input leaves what the lock-step engine carries exactly.

    Its chain table holds only states whose m and s fit int64; the per-path
    engine, whose Python ints never wrap, runs such inputs instead.
    """


#: the values of the int64 columns m and s that ``_lockstep`` returns
_INT64 = range(-(1 << 63), 1 << 63)


class _ChainTable:
    """The states a jump chain reaches from x0, numbered breadth first as levels.

    Level 0 is x0.  A level's total rate is the per-path engine's in-order
    sum of ``rule.moves`` rates; its successors, after the first move and
    after the last, are the levels of ``ExactState.shifted`` states, or -1
    (rate NaN, successors -1) where the state's m or s does not fit int64.
    Every level reached in fewer than ``depth`` events is expanded.
    """

    def __init__(self, rule: JumpRule, x0: ExactState):
        self.rule = rule
        self.states, self.level = [], {}
        if self._level_of(x0) < 0:
            raise _LockstepUnfit("x0 is outside what int64 carries")
        self.rate, self.succ = [], []  # per expanded level
        self.depth = 0

    def _level_of(self, state: ExactState) -> int:
        if state not in self.level:
            if state.m not in _INT64 or state.s not in _INT64:
                return -1
            self.level[state] = len(self.states)
            self.states.append(state)
        return self.level[state]

    def extend(self, depth) -> tuple[np.ndarray, np.ndarray]:
        """Expand the levels reached in fewer than ``depth`` events (all: depth
        inf); return the rate array and the successor array, whose row is a
        level's (first move, last move) successors; NaN and -1 at unexpanded
        levels and at level -1, the last row."""
        while self.depth < depth:
            frontier = self.states[len(self.rate):]  # the levels at self.depth
            if not frontier:
                self.depth = math.inf
                break
            for state in frontier:
                moves = self.rule.moves(state)
                total = 0.0
                for r, _ in moves:
                    total += r
                self.rate.append(total)
                self.succ.append([self._level_of(state.shifted(*d))
                                  for _, d in (moves[0], moves[-1])])
            self.depth += 1
        pad = len(self.states) + 1 - len(self.rate)
        return np.array(self.rate + [math.nan] * pad), np.array(self.succ + [[-1, -1]] * pad)


def _lockstep(table: _ChainTable, cfg: SimConfig) -> EnsembleResult:
    """One loop over all active paths, one iteration per event index.

    Paths step through ``table``'s levels from level 0, each held as its
    position ``at`` = 2 * level in the flattened successor array: the total
    rate is ``rate[at]`` and the next position one gather, ``succ[at + c]``
    with c the move, 0 for the first and 1 for the last (two moves have
    equal rates).  c is the top bit of the event's second word, which is 1
    exactly when its u2 >= 0.5, so this is the per-path engine's choice.
    The table doubles its depth whenever iteration j reaches it.  All active
    paths have made j jumps at iteration j, so event j of path i reads
    counter j of stream i, as in the per-path engine.  The words are drawn
    a tile at a time: counters j .. j + B - 1 for every active path in one
    call, B about ``_TILE`` / active (never past ``max_events``).

    A row of the loop only steps.  Row r of the tile's first words, mapped
    in place to log(u1), becomes the time of event j0 + r (the tile starts
    at event j0): the step subtracts log(u1) / rate from t, which equals
    adding (-log u1) / rate bit for bit.  Row r of the second words, shifted
    to their top bits and viewed as int64, holds the moves, and the row's
    first add makes it the position before that event plus its move, which
    the successor gather reads; the position's level is that value ``>> 1``.
    The loop stops early when every path is past the horizon, and at
    ``max_events``; paths that have ended step on, unread.  At the tile's
    end one first-passage pass reads these rows.  A path's times never
    decrease, so its count of rows with time <= ``cfg.observe[q]`` is its
    first row past that time, and the level there fills column q for the
    paths that had not passed it when the tile began.  The count is taken
    only for the paths that pass the time in the tile; when they are fewer
    than a quarter of the active paths their columns are gathered first,
    else the whole tile is compared.  The first row past the horizon (an
    ``argmax``) is where a path ends: its level and event index go to the
    outputs and the path is dropped.  A path at level -1 has rate NaN, so
    its times are NaN from there on and it never ends: the live paths are
    checked for it at each tile's end, before they truncate, and one there
    raises ``_LockstepUnfit``.  At ``max_events`` the live paths truncate,
    and their last level fills the columns they have not passed.
    """
    N = cfg.paths
    keys = rng.path_keys(cfg.seed, np.arange(N))
    at = np.zeros(N, dtype=np.int64)
    t = np.zeros(N)
    idx = np.arange(N)
    Q = len(cfg.observe)
    taus = np.array(cfg.observe + (math.inf,))
    nxt = np.zeros(N, dtype=np.int64)  # per path: the next column to record, or Q
    obs_at = np.zeros((Q, N), dtype=np.int64)  # column q: 2 * level (+ move) at observe[q]
    out_at = np.zeros(N, dtype=np.int64)
    out_events = np.zeros(N, dtype=np.int64)
    truncated = np.zeros(N, dtype=bool)
    j = 0
    while idx.size:
        n = idx.size
        B = max(1, min(_TILE // n, cfg.max_events + 1 - j))
        last = j + B > cfg.max_events  # the tile's last row is event max_events
        counters = np.arange(j, j + B, dtype=np.uint64)
        w0, w1 = rng.event_words(keys[idx][None, :], counters[:, None])
        T = rng._to_unit_interval(w0)
        np.log(T, T)  # row r: log(u1), then the time of event j0 + r
        # row r: the move of event j0 + r, then the position before it plus the move
        P = np.right_shift(w1, 63, w1).view(np.int64)
        j0 = j
        for r in range(B):
            if j >= table.depth:
                rate, succ = table.extend(2 * j + 1)
                rate, succ = rate.repeat(2), 2 * succ.ravel()  # indexed by position
            np.add(P[r], at, P[r])
            step = rate[at]
            np.divide(T[r], step, step)
            np.subtract(t, step, T[r])  # t += -log(u1) / rate, to the bit
            t = T[r]
            if j == cfg.max_events or t.min() > cfg.horizon:
                break
            # "wrap" reads -2 and -1, the positions of level -1, as indexing does
            succ.take(P[r], None, at, "wrap")
            j += 1
        T, P = T[:r + 1], P[:r + 1]
        flags = np.greater(T, cfg.horizon)  # a NaN time never ends a path
        stop = flags.any(0)
        ended = np.flatnonzero(stop)
        end_row = flags[:, ended].argmax(0)
        if Q:
            # the paths that end or truncate in this tile pass every time left
            reach = np.full(n, math.inf) if last else np.where(stop, math.inf, t)
            tnext = taus[nxt[idx]]
            rows = np.flatnonzero(reach > tnext)
            while rows.size:  # the paths that pass their next time in this tile
                q = nxt[idx[rows]]
                # a path's first row past a time: the count of its rows not past it
                row = 0  # a tile of one row needs no count
                if r:
                    if 4 * rows.size < n:  # few pass: gather their columns alone
                        row = (T[:, rows] <= tnext[rows]).sum(0)
                    else:
                        row = np.less_equal(T, tnext, flags).sum(0)[rows]
                    row = np.minimum(row, r)
                obs_at[q, idx[rows]] = P[row, rows]  # row r: truncated before it
                nxt[idx[rows]] = q + 1
                tnext[rows] = taus[q + 1]
                rows = rows[reach[rows] > tnext[rows]]
        if ended.size:
            out_at[idx[ended]] = P[end_row, ended]
            out_events[idx[ended]] = j0 + end_row
            live = ~stop
            idx, at, t = idx[live], at[live], t[live]
        if (at < 0).any():
            raise _LockstepUnfit("a path reached a state the table does not carry")
        if last:  # the live paths truncate at event max_events
            out_at[idx] = at
            out_events[idx] = j
            truncated[idx] = True
            break
    x0 = table.states[0]
    table_m, table_s = np.array([(x.m, x.s) for x in table.states], dtype=np.int64).T
    out_lev, obs_lev = out_at >> 1, obs_at >> 1
    return EnsembleResult(x0.unit_tag, x0.k, table_m[out_lev], table_s[out_lev], cfg.horizon,
                          int(truncated.sum()), tuple(out_events.tolist()),
                          table_m[obs_lev], table_s[obs_lev])


def _ensemble_symmetric_doubling(rule: JumpRule, x0: ExactState,
                                 cfg: SimConfig) -> EnsembleResult:
    """Lock-step run of the double-or-die family.

    The reachable states are x0, the states its steps of +-k 2**-n reach
    while inside the inner region, their doubling ladders, 0 and the ladders
    of +-k 2**-n.  A ladder stops where m leaves int64, so the table is finite.
    """
    return _lockstep(_ChainTable(rule, x0), cfg)


def _ensemble_increasing_doubling(rule: JumpRule, x0: ExactState,
                                  cfg: SimConfig) -> EnsembleResult:
    """Lock-step run of the clamped pure-birth family: level j is the state
    after j events."""
    return _lockstep(_ChainTable(rule, x0), cfg)
