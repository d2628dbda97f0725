"""Exact continuous-time simulation of finite-activity pure-jump processes.

States are exact dyadic lattice points ``x = k * m * 2**-s`` carried as
integers (mantissa m, scale s) plus the symbolic unit tag of k, so
membership in the geometric lattice ``M_k = k {+-2^z} u {0}`` is decided by
integer arithmetic, never by float comparison.  Holding times are
inverse-CDF exponentials driven by the counter-based streams of
:mod:`levysym.rng`: event j of path i always consumes counter j of the
stream keyed by (master seed, i), which makes ensembles reproducible and
independent of scheduling.  Both engines draw counters ahead of use through
``rng.event_uniforms``, which cannot change a result because a draw depends
only on (key, counter): the per-path engine reads its stream in blocks of
1 024 counters, the lock-step engine in tiles of consecutive counters for
all active paths, about 16 384 uniforms per call.

The generic per-path engine works for any ``JumpRule``, retains
trajectories on request and is the oracle.  Endpoint-only ensembles of the
two doubling families run instead in one vectorized lock-step loop,
``_lockstep``, which each family drives with three small int64 array rules
(how many events stay exact in int64, the total jump rate, one jump).  Both
engines give identical endpoints, event counts and truncations; an
ensemble holds its endpoints as two columns, mantissas and scales.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng
from .errors import UnsupportedSpec
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

    @property
    def is_zero(self) -> bool:
        return self.m == 0

    def in_geometric_lattice(self) -> bool:
        """Exact membership of the value in M_k = k {+-2^z : z in Z} u {0}."""
        a = abs(self.m)
        return a == 0 or (a & (a - 1)) == 0

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
    built-in rule so ensembles can route to the vectorized engine; generic
    user rules leave it None.
    """

    moves: Callable[[ExactState], tuple[tuple[float, tuple[int, int]], ...]]
    unit_tag: str
    k: float
    family: str | None = None
    family_params: tuple = ()

    def initial_state(self, m: int = 0, s: int = 0) -> ExactState:
        return ExactState(self.unit_tag, self.k, m, s)


@dataclass(frozen=True)
class SimConfig:
    """Ensemble parameters; ``seed`` is the 64-bit master seed."""

    horizon: float
    seed: int
    paths: int = 1
    max_events: int = 10_000_000
    store_paths: bool = False

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
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
    int64 (lock-step engine) or Python ints that never wrap (per-path engine)."""

    unit_tag: str
    k: float
    m: np.ndarray
    s: np.ndarray
    horizon: float
    truncated_count: int
    event_counts: tuple[int, ...]
    paths: tuple[Path, ...] | None = None

    @property
    def values(self) -> np.ndarray:
        """Endpoint values, rounded as :attr:`ExactState.value` rounds them."""
        return self.k * np.ldexp(self.m.astype(float), -self.s)

    @functools.cached_property
    def endpoints(self) -> tuple[ExactState, ...]:
        ms, ss = self.m.tolist(), self.s.tolist()
        return tuple(ExactState(self.unit_tag, self.k, m, s) for m, s in zip(ms, ss))


# ----------------------------------------------------------------------
# rule construction for the built-in families
# ----------------------------------------------------------------------
def jump_rule_of(spec) -> JumpRule:
    """Jump rule of a finite-activity approximation variant.

    Event counts of the symmetric family started at 0 grow like 2**n per
    unit time (diffusive local time near the lattice floor), so n <= 16 is
    the practical envelope under the default event budget.
    """
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

        return JumpRule(moves, k.tag, k.value, "symmetric_doubling", (n,))

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

        return JumpRule(moves, k.tag, k.value, "increasing_doubling", (n,))

    raise UnsupportedSpec(
        f"only the finite-activity approximation variants have jump rules, got {spec!r}"
    )


# ----------------------------------------------------------------------
# generic per-path engine
# ----------------------------------------------------------------------
#: counters the per-path engine reads from its stream at a time
_BLOCK = 1024


def _run_path(rule: JumpRule, x0: ExactState, horizon: float, max_events: int,
              key, record: bool) -> tuple:
    state = x0
    t = 0.0
    times: list[float] = []
    states: list[ExactState] = [x0]
    events = 0
    truncated = False
    while True:
        move_list = rule.moves(state)
        total = 0.0
        for r, _ in move_list:
            total += r
        if total <= 0.0:
            break  # absorbing state
        i = events % _BLOCK
        if i == 0:  # event j reads counter j
            counters = np.arange(events, events + _BLOCK, dtype=np.uint64)
            u1, u2 = rng.event_uniforms(key, counters)
            e1 = -np.log(u1)
        t += e1[i] / total
        if t > horizon:
            break
        if events >= max_events:
            truncated = True
            break
        # categorical choice proportional to rates
        if len(move_list) == 1:
            dm, ds = move_list[0][1]
        else:
            target = u2[i] * total
            acc = 0.0
            dm, ds = move_list[-1][1]
            for r, disp in move_list:
                acc += r
                if target < acc:
                    dm, ds = disp
                    break
        state = state.shifted(dm, ds)
        events += 1
        if record:
            times.append(t)
            states.append(state)
    return state, events, truncated, times, states


def simulate_path(rule: JumpRule, x0: ExactState, cfg: SimConfig,
                  path_index: int = 0) -> Path:
    """One trajectory, deterministic in (cfg.seed, path_index)."""
    key = rng.path_keys(cfg.seed, [path_index])[0]
    state, events, truncated, times, states = _run_path(
        rule, x0, cfg.horizon, cfg.max_events, key, record=True
    )
    return Path(tuple(times), tuple(states), truncated)


def simulate_ensemble(rule: JumpRule, x0: ExactState, cfg: SimConfig) -> EnsembleResult:
    """N independent paths; endpoints always, trajectories on request.

    Built-in families route to a vectorized lock-step engine when only
    endpoints are needed; the streams consumed are identical either way.  An
    input the lock-step engine cannot carry exactly runs per path instead.
    """
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
    m = np.empty(cfg.paths, dtype=object)  # Python ints: 2**63 must not become a float
    s = np.empty(cfg.paths, dtype=np.int64)
    counts = []
    truncated_count = 0
    paths = [] if cfg.store_paths else None
    for i in range(cfg.paths):
        state, events, truncated, times, states = _run_path(
            rule, x0, cfg.horizon, cfg.max_events, keys[i], record=cfg.store_paths
        )
        m[i], s[i] = state.m, state.s
        counts.append(events)
        truncated_count += truncated
        if cfg.store_paths:
            paths.append(Path(tuple(times), tuple(states), truncated))
    return EnsembleResult(
        x0.unit_tag, x0.k, m, s, cfg.horizon, truncated_count, tuple(counts),
        tuple(paths) if paths is not None else None,
    )


# ----------------------------------------------------------------------
# vectorized lock-step engine (endpoint-only, built-in families)
# ----------------------------------------------------------------------
#: uniforms the lock-step engine draws per Philox call (counters x active paths)
_TILE = 16_384


class _LockstepUnfit(Exception):
    """The input leaves what the lock-step engine carries exactly.

    The engine holds states in int64; the per-path engine, whose Python ints
    never wrap, runs such inputs instead.
    """


def _lockstep(x0: ExactState, m0: int, s0: int, cfg: SimConfig,
              safe_events, total_rate, step) -> EnsembleResult:
    """One loop over all active paths, one iteration per event index.

    The family supplies array functions over int64 ``(m, s)``:
    ``safe_events(m)`` is how many more events keep every state exact in
    int64 (below 1 the input is unfit), ``total_rate(m, s)`` the total jump
    rate and ``step(m, s, u2)`` the state after one jump.  All active paths
    have made exactly j jumps at iteration j, so event j of path i reads
    counter j of stream i, as in the per-path engine.  The uniforms are drawn
    a tile at a time: counters j .. j + B - 1 for every active path in one
    call, with B about ``_TILE`` / active (never past ``max_events``).  A path
    that finishes inside a tile is frozen where it ended and dropped when the
    tile ends.  Paths start at ``(m0, s0)``, x0 at the family's scale;
    endpoints end up canonical.
    """
    N = cfg.paths
    keys = rng.path_keys(cfg.seed, np.arange(N))
    m = np.full(N, m0, dtype=np.int64)
    s = np.full(N, s0, dtype=np.int64)
    t = np.zeros(N)
    idx = np.arange(N)
    out_m = m.copy()
    out_s = s.copy()
    out_events = np.zeros(N, dtype=np.int64)
    truncated = np.zeros(N, dtype=bool)
    j = 0
    check_at = 0

    def finish(rows):  # rows (a mask or slice of the active paths) end at event j
        out_m[idx[rows]] = m[rows]
        out_s[idx[rows]] = s[rows]
        out_events[idx[rows]] = j

    while idx.size:
        B = max(1, min(_TILE // idx.size, cfg.max_events + 1 - j))
        counters = np.arange(j, j + B, dtype=np.uint64)
        u1, u2 = rng.event_uniforms(keys[idx][None, :], counters[:, None])
        e1 = -np.log(u1)
        live = None  # every row is live until the first path finishes
        for r in range(B):
            if j >= check_at:
                safe = safe_events(m if live is None else m[live])
                if safe < 1:
                    raise _LockstepUnfit("the state nears the end of int64")
                check_at = j + safe
            t += e1[r] / total_rate(m, s)
            done = t > cfg.horizon
            if live is not None:
                done &= live
            if done.any():
                finish(done)
                live = ~done if live is None else live & ~done
                if not live.any():
                    break
            if j >= cfg.max_events:
                rows = slice(None) if live is None else live
                finish(rows)
                truncated[idx[rows]] = True
                live = np.zeros(idx.size, dtype=bool)
                break
            m_next, s_next = step(m, s, u2[r])
            if live is None:
                m, s = m_next, s_next
            else:  # finished rows keep their state: no step may wrap int64
                m = np.where(live, m_next, m)
                s = np.where(live, s_next, s)
            j += 1
        if live is not None:
            idx, m, s, t = idx[live], m[live], s[live], t[live]
    while (even := ((out_m & 1) == 0) & (out_s > 0)).any():  # m = 0 ends at s = 0 too
        out_m[even] >>= 1
        out_s[even] -= 1
    return EnsembleResult(
        x0.unit_tag, x0.k, out_m, out_s, cfg.horizon, int(truncated.sum()),
        tuple(out_events.tolist()),
    )


def _ensemble_symmetric_doubling(rule: JumpRule, x0: ExactState,
                                 cfg: SimConfig) -> EnsembleResult:
    """Lock-step rule of the double-or-die family.

    Invariant: every reachable nonzero state is in the outer region, so the
    inner branch only ever fires from m = 0.  The rate needs m * m in int64,
    so |m| must stay below 2**31; |m| at most doubles per event.
    """
    (n,) = rule.family_params
    if not (x0.is_zero or abs(x0.m) * (1 << n) >= (1 << x0.s)):
        raise _LockstepUnfit("x0 is in the inner region")
    if abs(x0.m) >= 1 << 31:
        raise _LockstepUnfit("|m| of x0 reaches 2**31")
    kval = rule.k
    rate_inner = math.ldexp(1.0, 2 * n) / (2.0 * kval * kval)
    total_inner = rate_inner + rate_inner

    def safe_events(m):
        return 32 - int(np.abs(m).max()).bit_length()

    def total_rate(m, s):
        zero = m == 0
        denom = 2.0 * kval * kval * np.where(zero, 1.0, (m * m).astype(float))
        rate_each = np.ldexp(1.0, 2 * s) / denom
        return np.where(zero, total_inner, rate_each + rate_each)

    def step(m, s, u2):
        # 0 moves to +-k 2^-n; x doubles (s drops, or m doubles at s = 0) or dies
        up = u2 < 0.5
        zero = m == 0
        doubled = np.where(s == 0, m * 2, m)
        m_next = np.where(zero, np.where(up, 1, -1), np.where(up, doubled, 0))
        s_next = np.where(zero, n, np.where(up, np.maximum(s - 1, 0), 0))
        return m_next, s_next

    return _lockstep(x0, x0.m, x0.s, cfg, safe_events, total_rate, step)


def _ensemble_increasing_doubling(rule: JumpRule, x0: ExactState,
                                  cfg: SimConfig) -> EnsembleResult:
    """Lock-step rule of the clamped pure-birth family.

    States are carried at the fixed scale s = n (x = k * m * 2**-n); the
    clamp becomes an integer clip of m to [1, 4**n].  Each event adds at
    most 4**n to m, which must stay below 2**63.
    """
    (n,) = rule.family_params
    if 2 * n > 62 or x0.s > n:
        raise _LockstepUnfit("4**n or x0 is off the int64 scale-n lattice")
    cap = 1 << (2 * n)
    headroom = (1 << 63) - 1 - cap  # m + jump is exact while m <= headroom
    m0 = x0.m << (n - x0.s)
    if not -(1 << 63) <= m0 <= headroom:
        raise _LockstepUnfit("x0 is outside int64 at scale n")
    kval = rule.k

    def safe_events(m):
        return 1 + (headroom - int(m.max())) // cap

    def total_rate(m, s):
        return 1.0 / (kval * np.ldexp(np.clip(m, 1, cap).astype(float), -n))

    def step(m, s, u2):
        return m + np.clip(m, 1, cap), s

    return _lockstep(x0, m0, n, cfg, safe_events, total_rate, step)


# ----------------------------------------------------------------------
# artifact output
# ----------------------------------------------------------------------
def endpoint_csv(result: EnsembleResult) -> str:
    lines = ["path_index,t,value"]
    for i, value in enumerate(result.values.tolist()):
        lines.append(f"{i},{result.horizon:.17g},{value:.17g}")
    return "\n".join(lines) + "\n"


def path_csv(paths) -> str:
    lines = ["path_index,jump_time,value_after"]
    for i, path in enumerate(paths):
        lines.append(f"{i},0,{path.states[0].value:.17g}")
        for t, state in zip(path.times, path.states[1:]):
            lines.append(f"{i},{t:.17g},{state.value:.17g}")
    return "\n".join(lines) + "\n"


def manifest_json(spec_json: dict | None, cfg: SimConfig, result: EnsembleResult,
                  extra: dict | None = None) -> str:
    doc = {
        "spec": spec_json,
        "config": {
            "horizon": cfg.horizon,
            "seed": cfg.seed,
            "paths": cfg.paths,
            "max_events": cfg.max_events,
        },
        "truncated_paths": result.truncated_count,
        "total_events": int(sum(result.event_counts)),
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
