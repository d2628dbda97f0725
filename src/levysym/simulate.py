"""Exact continuous-time simulation of finite-activity pure-jump processes.

States are exact dyadic lattice points ``x = k * m * 2**-s`` carried as
integers (mantissa m, scale s) plus the symbolic unit tag of k, so
membership in the geometric lattice ``M_k = k {+-2^z} u {0}`` is decided by
integer arithmetic, never by float comparison.  Holding times are
inverse-CDF exponentials driven by the counter-based streams of
:mod:`levysym.rng`: event j of path i always consumes counter j of the
stream keyed by (master seed, i), which makes ensembles reproducible and
independent of scheduling.

Two engines produce identical output for the built-in rules: a generic
per-path loop that works for any ``JumpRule`` and retains trajectories, and
a vectorized lock-step engine used for large endpoint-only ensembles of the
doubling families.
"""

from __future__ import annotations

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
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
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

    def value_at(self, t: float) -> float:
        i = 0
        while i < len(self.times) and self.times[i] <= t:
            i += 1
        return self.states[i].value


@dataclass(frozen=True)
class EnsembleResult:
    endpoints: tuple[ExactState, ...]
    horizon: float
    truncated_count: int
    event_counts: tuple[int, ...]
    paths: tuple[Path, ...] | None = None


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
def _run_path(rule: JumpRule, x0: ExactState, horizon: float, max_events: int,
              key, record: bool) -> tuple:
    stream = rng.CounterStream(key)
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
        e1, u2 = stream.next_event()
        t += e1 / total
        if t > horizon:
            break
        if events >= max_events:
            truncated = True
            break
        # categorical choice proportional to rates
        if len(move_list) == 1:
            dm, ds = move_list[0][1]
        else:
            target = u2 * total
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
    if not record:
        states = [x0, state] if events else [state]
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
    endpoints = []
    counts = []
    truncated_count = 0
    paths = [] if cfg.store_paths else None
    for i in range(cfg.paths):
        state, events, truncated, times, states = _run_path(
            rule, x0, cfg.horizon, cfg.max_events, keys[i], record=cfg.store_paths
        )
        endpoints.append(state)
        counts.append(events)
        truncated_count += truncated
        if cfg.store_paths:
            paths.append(Path(tuple(times), tuple(states), truncated))
    return EnsembleResult(
        tuple(endpoints), cfg.horizon, truncated_count, tuple(counts),
        tuple(paths) if paths is not None else None,
    )


# ----------------------------------------------------------------------
# vectorized lock-step engines (endpoint-only, built-in families)
# ----------------------------------------------------------------------
class _LockstepUnfit(Exception):
    """The input leaves what a lock-step engine carries exactly.

    The engines hold states in int64; the per-path engine, whose Python ints
    never wrap, runs such inputs instead.
    """


def _ensemble_symmetric_doubling(rule: JumpRule, x0: ExactState,
                                 cfg: SimConfig) -> EnsembleResult:
    """Lock-step engine for the double-or-die family.

    Invariant: every reachable nonzero state is in the outer region, so the
    inner branch only ever fires from m = 0.  All active paths have executed
    exactly j jumps at iteration j, which keeps their stream counters aligned
    with the per-path engine.  The rate needs m * m in int64, so |m| must
    stay below 2**31; |m| at most doubles per event, which bounds how long a
    checked maximum stays safe.
    """
    (n,) = rule.family_params
    if not (x0.is_zero or abs(x0.m) * (1 << n) >= (1 << x0.s)):
        raise _LockstepUnfit("x0 is in the inner region")
    if abs(x0.m) >= 1 << 31:
        raise _LockstepUnfit("|m| of x0 reaches 2**31")
    kval = rule.k
    N = cfg.paths
    keys = rng.path_keys(cfg.seed, np.arange(N))
    m = np.full(N, x0.m, dtype=np.int64)
    s = np.full(N, x0.s, dtype=np.int64)
    t = np.zeros(N)
    idx = np.arange(N)
    out_m = np.full(N, x0.m, dtype=np.int64)
    out_s = np.full(N, x0.s, dtype=np.int64)
    out_events = np.zeros(N, dtype=np.int64)
    truncated = np.zeros(N, dtype=bool)
    rate_inner = math.ldexp(1.0, 2 * n) / (2.0 * kval * kval)
    total_inner = rate_inner + rate_inner
    j = 0
    check_at = 0
    while idx.size:
        if j >= check_at:
            top = int(np.abs(m).max())
            if top >= 1 << 31:
                raise _LockstepUnfit("|m| reached 2**31")
            check_at = j + 32 - top.bit_length()
        e1, u2 = _event_variates(keys[idx], j)
        zero = m == 0
        denom = 2.0 * kval * kval * np.where(zero, 1.0, (m * m).astype(float))
        rate_each = np.ldexp(1.0, 2 * s) / denom
        total = np.where(zero, total_inner, rate_each + rate_each)
        t += e1 / total
        done = t > cfg.horizon
        if done.any():
            fin = done.nonzero()[0]
            out_m[idx[fin]] = m[fin]
            out_s[idx[fin]] = s[fin]
            keep = ~done
            idx, m, s, t = idx[keep], m[keep], s[keep], t[keep]
            zero, u2 = zero[keep], u2[keep]
            if not idx.size:
                break
        if j >= cfg.max_events:
            out_m[idx] = m
            out_s[idx] = s
            truncated[idx] = True
            break
        up = u2 < 0.5
        nonzero = ~zero
        m = np.where(zero, np.where(up, 1, -1), m)
        s = np.where(zero, n, s)
        die = nonzero & ~up
        dbl = nonzero & up
        shift = dbl & (s > 0)
        grow = dbl & (s == 0)
        m = np.where(die, 0, m)
        s = np.where(die, 0, s)
        s = np.where(shift, s - 1, s)
        m = np.where(grow, m * 2, m)
        out_events[idx] += 1
        j += 1
    endpoints = tuple(
        ExactState(rule.unit_tag, kval, int(out_m[i]), int(out_s[i])) for i in range(N)
    )
    return EnsembleResult(
        endpoints, cfg.horizon, int(truncated.sum()), tuple(int(c) for c in out_events)
    )


def _ensemble_increasing_doubling(rule: JumpRule, x0: ExactState,
                                  cfg: SimConfig) -> EnsembleResult:
    """Lock-step engine for the clamped pure-birth family.

    States are carried at the fixed scale n (x = k * mm * 2**-n); the clamp
    becomes an integer clip of mm to [1, 4**n].  Each event adds at most
    4**n to mm, which must stay below 2**63, so a checked maximum stays safe
    for a known number of events.
    """
    (n,) = rule.family_params
    if 2 * n > 62 or x0.s > n:
        raise _LockstepUnfit("4**n or x0 is off the int64 scale-n lattice")
    cap = 1 << (2 * n)
    headroom = (1 << 63) - 1 - cap  # mm + hm is exact while mm <= headroom
    mm0 = x0.m << (n - x0.s)
    if not -(1 << 63) <= mm0 <= headroom:
        raise _LockstepUnfit("x0 is outside int64 at scale n")
    kval = rule.k
    N = cfg.paths
    keys = rng.path_keys(cfg.seed, np.arange(N))
    mm = np.full(N, mm0, dtype=np.int64)
    t = np.zeros(N)
    idx = np.arange(N)
    out_mm = np.full(N, mm0, dtype=np.int64)
    out_events = np.zeros(N, dtype=np.int64)
    truncated = np.zeros(N, dtype=bool)
    j = 0
    check_at = 0
    while idx.size:
        if j >= check_at:
            top = int(mm.max())
            if top > headroom:
                raise _LockstepUnfit("mm neared 2**63")
            check_at = j + 1 + (headroom - top) // cap
        e1, _ = _event_variates(keys[idx], j)
        hm = np.clip(mm, 1, cap)
        h = kval * np.ldexp(hm.astype(float), -n)
        rate = 1.0 / h
        t += e1 / rate
        done = t > cfg.horizon
        if done.any():
            fin = done.nonzero()[0]
            out_mm[idx[fin]] = mm[fin]
            keep = ~done
            idx, mm, t, hm = idx[keep], mm[keep], t[keep], hm[keep]
            if not idx.size:
                break
        if j >= cfg.max_events:
            out_mm[idx] = mm
            truncated[idx] = True
            break
        mm = mm + hm
        out_events[idx] += 1
        j += 1
    endpoints = tuple(
        ExactState(rule.unit_tag, kval, int(out_mm[i]), n) for i in range(N)
    )
    return EnsembleResult(
        endpoints, cfg.horizon, int(truncated.sum()), tuple(int(c) for c in out_events)
    )


def _event_variates(keys, counter):
    u1, u2 = rng.event_uniforms(keys, counter)
    return -np.log(u1), u2


# ----------------------------------------------------------------------
# artifact output
# ----------------------------------------------------------------------
def endpoint_csv(result: EnsembleResult) -> str:
    lines = ["path_index,t,value"]
    for i, state in enumerate(result.endpoints):
        lines.append(f"{i},{result.horizon:.17g},{state.value:.17g}")
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
