"""Outside-in layer trace: timing wrappers around ``repro``'s public calls.

Only the traced run (``--trace 1``) installs these wrappers; the timed
run never does. A wrapper replaces a function at *every* place it is
looked up — the defining module and each module that imported the name —
so ``repro.core.engine.dominance_matrix`` and
``repro.skyline.dominating.dominance_matrix`` are both timed. Methods
are patched on their class. Default arguments bound at definition time
(``execute_query(algorithm=crowdsky)``) cannot be reached this way, so
the workloads pass such callables explicitly.

Self time uses a stack: each wrapped call subtracts the time of the
wrapped calls nested inside it. Count hooks run outside both the call's
own timing and its parent's, so their cost is trace overhead only.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import types
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


class LayerTracer:
    """Self time, call counts and work counts per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[List[float]] = []

    def wrap(
        self,
        layer: str,
        fn: Callable,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` timed as ``layer``. ``before(args)`` may return a
        token (and replace ``args``); ``after(token, result, args)``
        records counts. Neither is timed as part of any layer."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = perf_counter()
            token = None
            if before is not None:
                token, args = before(args)
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - children[0]
                calls[layer] += 1
            if after is not None:
                after(token, result, args)
            if stack:
                stack[-1][0] += perf_counter() - outer
            return result

        return traced


def _materialize(position: int):
    """A ``before`` hook turning argument ``position`` into a list, so an
    ``after`` hook can count it without consuming an iterator."""

    def before(args: Tuple) -> Tuple[None, Tuple]:
        if not isinstance(args[position], list):
            args = args[:position] + (list(args[position]),) + args[position + 1:]
        return None, args

    return before


class Installation:
    """Applied patches, undone by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def function(self, tracer: LayerTracer, layer: str, module, name: str,
                 **hooks) -> None:
        """Wrap ``module.name`` and every alias of it in loaded ``repro``
        modules."""
        original = getattr(module, name)
        wrapper = tracer.wrap(layer, original, **hooks)
        for loaded in list(sys.modules.values()):
            if loaded is None or not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self.replace(loaded, attr, wrapper)

    def method(self, tracer: LayerTracer, layer: str, cls: type, name: str,
               **hooks) -> None:
        """Wrap ``cls.name`` on the class itself."""
        self.replace(cls, name, tracer.wrap(layer, getattr(cls, name), **hooks))

    def replace(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        previous = vars(owner).get(attr)
        setattr(owner, attr, value)
        if had:
            self._undo.append(lambda: setattr(owner, attr, previous))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(tracer: LayerTracer) -> Installation:
    """Wrap the public calls of every layer the benchmark reports."""
    def module(name):
        return importlib.import_module(f"repro.{name}")

    crowdsky_mod, engine = module("core.crowdsky"), module("core.engine")
    parallel, preference = module("core.parallel"), module("core.preference")
    tasks, backends = module("core.tasks"), module("crowd.backends")
    journal, platform = module("crowd.journal"), module("crowd.platform")
    synthetic, executor = module("data.synthetic"), module("query.executor")
    parser, bnl = module("query.parser"), module("skyline.bnl")
    dominance, dominating = module("skyline.dominance"), module("skyline.dominating")
    sky_layers = module("skyline.layers")

    counts = tracer.counts
    patches = Installation()

    def count_ds(_token, result, _args):
        counts["ds_entries"] += sum(len(members) for members in result)

    def count_resolved(_token, result, _args):
        counts["pairs_asked"] += len(result)
        counts["pairs_decided"] += sum(
            1 for rels in result.values() if all(r is not None for r in rels)
        )

    def before_verdicts(args):
        args = _materialize(1)(args)[1]
        return args[0].closure_updates(), args

    def after_verdicts(updates_before, _result, args):
        counts["verdicts"] += len(args[1])
        counts["closure_updates"] += args[0].closure_updates() - updates_before

    def count_requested(_token, _result, args):
        counts["requested"] += len(args[1])

    def count_posted(_token, _result, args):
        counts["postings"] += 1
        counts["posted"] += len(args[1])

    def count_replayed(_token, _result, args):
        counts["posted"] += len(args[1])

    patches.function(tracer, "data.generate", synthetic, "generate_synthetic")
    patches.function(tracer, "query.parse", parser, "parse_query")
    patches.function(tracer, "query.execute", executor, "execute_query")
    patches.function(tracer, "skyline.dominance", dominance, "dominance_matrix")
    patches.function(tracer, "skyline.dominating_sets", dominating,
                     "dominating_sets", after=count_ds)
    patches.function(tracer, "skyline.covering_graph", sky_layers,
                     "covering_graph_from_matrix")
    patches.function(tracer, "skyline.bnl", bnl, "bnl_skyline")
    patches.function(tracer, "engine.build_context", engine, "build_context")
    patches.method(tracer, "engine.ds_order", engine.ExecutionContext,
                   "ds_in_eval_order")
    patches.method(tracer, "tasks.activate", tasks.TupleTask, "activate")
    patches.method(tracer, "tasks.advance", tasks.TupleTask, "advance")
    patches.method(tracer, "pref.resolve_pairs", preference.PreferenceSystem,
                   "resolve_pairs", before=_materialize(1), after=count_resolved)
    patches.method(tracer, "pref.apply_verdicts", preference.PreferenceSystem,
                   "apply_verdicts", before=before_verdicts, after=after_verdicts)
    patches.method(tracer, "pref.sky_ac", preference.PreferenceSystem, "sky_ac")
    patches.function(tracer, "scheduler", crowdsky_mod, "crowdsky")
    patches.function(tracer, "scheduler", parallel, "parallel_sl")
    patches.method(tracer, "crowd.post", platform.SimulatedCrowd,
                   "ask_pairwise_round", before=_materialize(1),
                   after=count_requested)
    patches.method(tracer, "crowd.backend", backends.SimulatedBackend,
                   "pairwise_round", after=count_posted)
    patches.method(tracer, "replay.backend", backends.ReplayBackend,
                   "pairwise_round", after=count_replayed)
    patches.method(tracer, "journal.append", journal.JournalWriter,
                   "append_posting")
    patches.function(tracer, "journal.recover", journal, "recover_journal")
    # Only the journal's own fsyncs: its ``os`` is swapped for a proxy,
    # so fsyncs elsewhere (repro.io.atomic) stay untimed.
    os_proxy = types.SimpleNamespace(**{
        name: getattr(os, name) for name in dir(os) if not name.startswith("__")
    })
    os_proxy.fsync = tracer.wrap("journal.fsync", os.fsync)
    patches.replace(journal, "os", os_proxy)
    return patches


def layer_metrics(tracer: LayerTracer, traced, plain) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``{name: (value, unit)}`` from the traced
    pass ``traced`` and the same work untraced, ``plain``; a layer the
    workload never reaches reads 0."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    return {
        "data.generate_s": (s["data.generate"], "s"),
        "query.parse_s": (s["query.parse"], "s"),
        "query.execute_self_s": (s["query.execute"], "s"),
        "skyline.dominance_s": (s["skyline.dominance"], "s"),
        "skyline.dominance_calls": (calls["skyline.dominance"], "count"),
        "skyline.dominating_sets_s": (s["skyline.dominating_sets"], "s"),
        "skyline.ds_entries": (counts["ds_entries"], "count"),
        "skyline.covering_graph_s": (s["skyline.covering_graph"], "s"),
        "skyline.bnl_s": (s["skyline.bnl"], "s"),
        "engine.build_context_self_s": (s["engine.build_context"], "s"),
        "engine.ds_order_s": (s["engine.ds_order"], "s"),
        "engine.ds_order_calls": (calls["engine.ds_order"], "count"),
        "tasks.activate_s": (s["tasks.activate"], "s"),
        "tasks.advance_s": (s["tasks.advance"], "s"),
        "tasks.advance_calls": (calls["tasks.advance"], "count"),
        "pref.resolve_pairs_s": (s["pref.resolve_pairs"], "s"),
        "pref.resolve_pairs_calls": (calls["pref.resolve_pairs"], "count"),
        "pref.pairs_resolved_ratio": (
            ratio(counts["pairs_decided"], counts["pairs_asked"]), "ratio"),
        "pref.apply_verdicts_s": (s["pref.apply_verdicts"], "s"),
        "pref.verdicts": (counts["verdicts"], "count"),
        "pref.closure_updates": (counts["closure_updates"], "count"),
        "pref.sky_ac_s": (s["pref.sky_ac"], "s"),
        "scheduler.self_s": (s["scheduler"], "s"),
        "crowd.post_self_s": (s["crowd.post"], "s"),
        "crowd.backend_s": (s["crowd.backend"], "s"),
        "crowd.postings": (counts["postings"], "count"),
        "crowd.fresh_ratio": (ratio(counts["posted"], counts["requested"]), "ratio"),
        "journal.append_s": (s["journal.append"], "s"),
        "journal.fsync_s": (s["journal.fsync"], "s"),
        "journal.fsyncs": (calls["journal.fsync"], "count"),
        "journal.recover_s": (s["journal.recover"], "s"),
        "replay.backend_s": (s["replay.backend"], "s"),
        "crowd.assignments": (traced.assignments, "count"),
        "journal.bytes": (traced.journal_bytes, "bytes"),
        "journal.bytes_per_question": (
            ratio(traced.journal_bytes, traced.journaled_questions), "bytes"),
        "trace.overhead_pct": ((traced.wall_s / plain.wall_s - 1.0) * 100.0, "%"),
    }
