"""Spans around the calls into levysym's modules, recorded from outside the package.

Each wrapped function is rebound under every name in a ``levysym`` module
that refers to it (``checks.eval_symbol`` as well as ``symbols.eval_symbol``),
and methods are rebound on their class, so calls the package makes to itself
pass through the wrapper too.  Nothing under ``src/`` changes.

A span is one wrapped call: its name, start, end, the span open when it began
(its parent) and the workload operation that owns it.  Spans live in flat
arrays while the run lasts and are written out when it ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np


def _words(result):
    """uint64 words produced by one philox2x64 call (two per counter)."""
    return 2 * int(result[0].size), 0


def _lockstep(result):
    """(events, loop iterations) of one lock-step ensemble."""
    counts = result.event_counts
    return int(sum(counts)), int(max(counts)) + 1


def _perpath(result):
    """Events of one per-path trajectory."""
    return int(result[1]), 0


#: (owner, attribute, counter) for every wrapped callable.  ``owner`` is a
#: module of the package, or "module:Class" for a method.  The span name is
#: "<module>.<attribute>"; its layer is the module.  Targets that no metric
#: names still give their time to the right layer's self time.
TARGETS = (
    ("rng", "philox2x64", _words),
    ("simulate", "simulate_ensemble", None),
    ("simulate", "jump_rule_of", None),
    ("simulate", "_ensemble_symmetric_doubling", _lockstep),
    ("simulate", "_ensemble_increasing_doubling", _lockstep),
    ("simulate", "_run_path", _perpath),
    ("mcstats", "ecf", None),
    ("mcstats", "ecf_distance", None),
    ("mcstats", "moment_ci", None),
    ("mcstats", "support_audit", None),
    ("mcstats", "dynkin_residual", None),
    ("mcstats:Sample", "to_floats", None),
    ("mcstats:Sample", "from_ensemble", None),
    ("symbols", "eval_symbol", None),
    ("symbols", "apply_generator", None),
    ("measures", "exp_measure", None),
    ("measures", "convolve_sequence", None),
    ("measures:LatticeComplexMeasure", "convolve", None),
    ("measures:LatticeComplexMeasure", "fourier", None),
    ("checks", "localize_fourierize", None),
    ("checks", "check_dominance", None),
    ("checks", "compute_K", None),
    ("checks", "term_measure", None),
    ("checks", "build_term_measure", None),
    ("checks", "verify_term_measure", None),
    ("checks", "assemble_majorant", None),
    ("checks", "audit_ellipticity", None),
    ("checks", "fd_derivative", None),
    ("checks", "groenwall_verify", None),
    ("checks", "groenwall_recursion_table", None),
    ("selftest", "measure_algebra_sweep", None),
    ("selftest", "term_measure_sweep", None),
    ("cli", "main", None),
)


def _package_modules():
    return [
        mod for name, mod in sys.modules.items()
        if mod is not None and (name == "levysym" or name.startswith("levysym."))
    ]


def _resolve(owner: str):
    modname, _, clsname = owner.partition(":")
    mod = sys.modules[f"levysym.{modname}"]
    return getattr(mod, clsname) if clsname else mod


@contextlib.contextmanager
def rebound(owner: str, attr: str, make):
    """Replace ``owner.attr`` by ``make(current)`` wherever the package holds it.

    For a module-level function every ``levysym`` module binding the same
    object is rebound; for a method, the class attribute.  All bindings are
    restored on exit.
    """
    holder = _resolve(owner)
    current = getattr(holder, attr)
    replacement = make(current)
    if ":" in owner:
        holders = [(holder, attr)]
    else:
        holders = [
            (mod, name)
            for mod in _package_modules()
            for name, value in list(vars(mod).items())
            if value is current
        ]
    for obj, name in holders:
        setattr(obj, name, replacement)
    try:
        yield
    finally:
        for obj, name in holders:
            setattr(obj, name, current)


@contextlib.contextmanager
def capture(owner: str, attr: str):
    """Record (args, kwargs, result) of every call to ``owner.attr``."""
    calls: list = []

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result
        return wrapper

    with rebound(owner, attr, make):
        yield calls


class SpanRecorder:
    """Flat in-memory span table; one row per wrapped call."""

    def __init__(self):
        self.names = [f"{owner.partition(':')[0]}.{attr}" for owner, attr, _ in TARGETS]
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count_a = array("q")
        self.count_b = array("q")
        self.op_names: list[str] = []
        self.current_op = -1
        self._stack = [-1]

    def begin_op(self, name: str):
        self.op_names.append(name)
        self.current_op = len(self.op_names) - 1

    def __len__(self):
        return len(self.start)

    def _wrapper(self, fn, nid: int, counter):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.current_op)
            self.count_a.append(0)
            self.count_b.append(0)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if counter is not None:
                self.count_a[sid], self.count_b[sid] = counter(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for nid, (owner, attr, counter) in enumerate(TARGETS):
                stack.enter_context(rebound(
                    owner, attr, lambda fn, i=nid, c=counter: self._wrapper(fn, i, c),
                ))
            yield

    def table(self, first: int = 0, last: int | None = None) -> dict:
        """Rows [first, last) as NumPy arrays, with duration and self time."""
        last = len(self) if last is None else last

        def rows(column):
            # a slice of an array.array is a copy, so the recorder can still grow
            return np.array(column[first:last])

        start = rows(self.start)
        end = rows(self.end)
        parent = rows(self.parent) - first
        dur = end - start
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        return {
            "name_id": rows(self.name_id),
            "parent": parent,
            "op": rows(self.op),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
            "count_a": rows(self.count_a),
            "count_b": rows(self.count_b),
        }

    def save(self, path):
        """Write every span with the name and operation tables."""
        tab = self.table()
        np.savez(
            path,
            span_names=np.array(self.names),
            op_names=np.array(self.op_names),
            **{k: v for k, v in tab.items() if k not in ("dur", "self")},
        )


def layer_metrics(rec: SpanRecorder, first: int, last: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced round."""
    tab = rec.table(first, last)
    names = np.array(rec.names)[tab["name_id"]]
    layers = np.array([n.partition(".")[0] for n in names])

    def sel(*span_names):
        return np.isin(names, span_names)

    def calls(*span_names):
        return float(np.count_nonzero(sel(*span_names)))

    def busy(*span_names):
        return float(tab["dur"][sel(*span_names)].sum())

    def own(*span_names):
        return float(tab["self"][sel(*span_names)].sum())

    def layer_self(layer):
        return float(tab["self"][layers == layer].sum())

    def total(column, *span_names):
        return float(tab[column][sel(*span_names)].sum())

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    lockstep = ("simulate._ensemble_symmetric_doubling",
                "simulate._ensemble_increasing_doubling")
    words = total("count_a", "rng.philox2x64")
    philox_s = busy("rng.philox2x64")
    ls_events = total("count_a", *lockstep)
    ls_iters = total("count_b", *lockstep)
    ls_s = busy(*lockstep)
    pp_events = total("count_a", "simulate._run_path")
    pp_s = busy("simulate._run_path")
    return {
        "rng.philox_calls": calls("rng.philox2x64"),
        "rng.philox_s": philox_s,
        "rng.words": words,
        "rng.words_per_s": ratio(words, philox_s),
        "rng.used_fraction": ratio(ls_events + pp_events, words),
        "simulate.lockstep_s": ls_s,
        "simulate.lockstep_events": ls_events,
        "simulate.lockstep_events_per_s": ratio(ls_events, ls_s),
        "simulate.self_s": layer_self("simulate"),
        "simulate.ensembles": calls("simulate.simulate_ensemble"),
        "simulate.lockstep_iterations": ls_iters,
        "simulate.events_per_iteration": ratio(ls_events, ls_iters),
        "simulate.perpath_s": pp_s,
        "simulate.perpath_events": pp_events,
        "simulate.perpath_events_per_s": ratio(pp_events, pp_s),
        "mcstats.ecf_calls": calls("mcstats.ecf"),
        "mcstats.ecf_s": busy("mcstats.ecf"),
        "mcstats.ecf_distance_s": busy("mcstats.ecf_distance"),
        "mcstats.to_floats_calls": calls("mcstats.to_floats"),
        "mcstats.to_floats_s": busy("mcstats.to_floats"),
        "mcstats.support_audit_s": busy("mcstats.support_audit"),
        "mcstats.moment_ci_s": busy("mcstats.moment_ci"),
        "mcstats.self_s": layer_self("mcstats"),
        "mcstats.dynkin_self_s": own("mcstats.dynkin_residual"),
        "symbols.apply_generator_calls": calls("symbols.apply_generator"),
        "symbols.apply_generator_s": busy("symbols.apply_generator"),
        "symbols.eval_symbol_calls": calls("symbols.eval_symbol"),
        "symbols.eval_symbol_s": busy("symbols.eval_symbol"),
        "checks.localize_s": busy("checks.localize_fourierize"),
        "checks.dominance_s": busy("checks.check_dominance"),
        "checks.compute_K_s": busy("checks.compute_K"),
        "measures.convolve_calls": calls("measures.convolve"),
        "measures.convolve_s": busy("measures.convolve"),
        "measures.exp_measure_calls": calls("measures.exp_measure"),
        "measures.exp_measure_s": busy("measures.exp_measure"),
        "measures.fourier_calls": calls("measures.fourier"),
        "measures.fourier_s": busy("measures.fourier"),
        "checks.majorant_s": busy("checks.assemble_majorant"),
        "selftest.algebra_sweep_s": busy("selftest.measure_algebra_sweep"),
        "selftest.term_sweep_s": busy("selftest.term_measure_sweep"),
        "checks.ellipticity_s": busy("checks.audit_ellipticity"),
        "checks.fd_derivative_calls": calls("checks.fd_derivative"),
        "checks.self_s": layer_self("checks"),
        "cli.self_s": layer_self("cli"),
    }
