"""Spans around calls into crcodes, recorded from outside the package.

`install` rebinds every attribute of every `crcodes.*` module that refers
to a public function, so both calls through the module (`codes.rref`) and
names imported directly into another module (`cli.weight_distribution`)
go through one wrapper.  Three constructors are wrapped on their classes:
`SyndromeTable.__init__`, `LinearCode.from_parity` and `Field.__init__`.
Nothing under `src/` changes.

Spans stay in memory as `[name id, start ns, end ns, parent index]` and
are written out once, by `Tracer.dump`, when the traced process ends,
together with per-name totals, so the benchmark process never loads the
spans (its own memory would raise the RSS its next children report).
Counters that the spans cannot give (words walked, syndromes built, RSS
rise) are taken from the call's arguments and result at the same
boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import resource
import time
import types
from math import comb

# Counters kept beside the spans; every traced process reports all of them.
COUNTERS = (
    "words_enumerated",
    "words_needed",
    "rowspace_words",
    "syndromes_built",
    "table_rss_rise_kb",
    "bruteforce_vectors",
    "low_weight_vectors",
)


def _weight_distribution(counters, args, kwargs, result):
    code = args[0]
    q = code.field.q
    counters["words_enumerated"] += q**code.k
    counters["words_needed"] += min(q**code.k, q ** (code.n - code.k))


def _syndrome_table(counters, args, kwargs, result):
    counters["syndromes_built"] += args[0].size


def _bruteforce(counters, args, kwargs, result):
    code = args[0]
    counters["bruteforce_vectors"] += code.field.q**code.n


def _low_weight(counters, args, kwargs, result):
    code = args[0]
    wmax = args[1] if len(args) > 1 else kwargs["wmax"]
    q, n = code.field.q, code.n
    counters["low_weight_vectors"] += sum(
        comb(n, w) * (q - 1) ** w for w in range(wmax + 1)
    )


# Span name -> hook run after a call returns normally.
HOOKS = {
    "codes.weight_distribution": _weight_distribution,
    "regularity.SyndromeTable": _syndrome_table,
    "regularity.complete_regularity_bruteforce": _bruteforce,
    "regularity.coset_low_weight_counts": _low_weight,
}


# Span names whose every duration is kept in the summary.
KEEP_DURATIONS = {"cli.analysis_report"}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name: str, fn):
        """A wrapper that records one span per call of fn."""
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        track_rss = name == "regularity.SyndromeTable"
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_id, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            if track_rss:
                rss0 = _maxrss_kb()
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if track_rss:
                counters["table_rss_rise_kb"] += _maxrss_kb() - rss0
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def wrap_rowspace(self, fn):
        """Generators get no span (it would time only their creation);
        this one counts the words it yields, also when a caller stops
        early."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            n = 0
            try:
                for word in fn(*args, **kwargs):
                    n += 1
                    yield word
            finally:
                counters["rowspace_words"] += n

        return counted

    def dump(self, prefix: str):
        """Write every span to PREFIX.spans.json and the per-name totals
        (see `summarize`) with the counters to PREFIX.summary.json."""
        with open(prefix + ".spans.json", "w", encoding="ascii") as fh:
            json.dump(
                {"run_id": self.run_id, "names": self.names, "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
        with open(prefix + ".summary.json", "w", encoding="ascii") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": summarize(self.names, self.spans),
                    "counters": self.counters,
                },
                fh,
            )


def summarize(names: list[str], spans: list[list[int]]) -> dict:
    """Per span name: calls, inclusive ns (outermost calls only, so
    recursion is not counted twice), self ns (duration minus the direct
    children's durations) and, for per-code timing, every duration."""
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = {}
    for i, (nid, start, end, parent) in enumerate(spans):
        st = out.setdefault(
            names[nid], {"calls": 0, "incl_ns": 0, "self_ns": 0, "durations_ns": []}
        )
        dur = end - start
        st["calls"] += 1
        st["self_ns"] += dur - child_ns[i]
        if names[nid] in KEEP_DURATIONS:
            st["durations_ns"].append(dur)
        while parent >= 0 and spans[parent][0] != nid:
            parent = spans[parent][3]
        if parent < 0:
            st["incl_ns"] += dur
    return out


def _modules():
    import crcodes

    mods = [crcodes]
    for info in pkgutil.iter_modules(crcodes.__path__):
        if not info.name.startswith("_"):  # never run a __main__ module
            mods.append(importlib.import_module("crcodes." + info.name))
    return mods


def install(tracer: Tracer):
    """Wrap the package's public functions and the three constructors."""
    wrappers: dict = {}
    for mod in _modules():
        for attr, obj in list(vars(mod).items()):
            if (
                attr.startswith("_")
                or not isinstance(obj, types.FunctionType)
                or not obj.__module__.startswith("crcodes.")
            ):
                continue
            wrapper = wrappers.get(obj)
            if wrapper is None:
                name = obj.__module__.split(".")[-1] + "." + obj.__qualname__
                if name == "codes.iter_rowspace":
                    wrapper = tracer.wrap_rowspace(obj)
                elif inspect.isgeneratorfunction(obj):
                    continue
                else:
                    wrapper = tracer.wrap(name, obj)
                wrappers[obj] = wrapper
            setattr(mod, attr, wrapper)

    from crcodes.codes import LinearCode
    from crcodes.field import Field
    from crcodes.regularity import SyndromeTable

    SyndromeTable.__init__ = tracer.wrap(
        "regularity.SyndromeTable", SyndromeTable.__init__
    )
    Field.__init__ = tracer.wrap("field.Field", Field.__init__)
    LinearCode.from_parity = classmethod(
        tracer.wrap(
            "codes.LinearCode.from_parity",
            LinearCode.__dict__["from_parity"].__func__,
        )
    )
