"""Layer tracing for the benchmark, installed from outside the package.

The tracer replaces each layer's public functions at every module binding
(the defining module, the modules that imported the name, and the package
namespace) with a wrapper that records a span per call.  Spans are kept
in memory as a calling-context tree: repeated calls of one function under
one parent are folded into a single node with a call count, total time and
self time, because the minimality search alone makes millions of calls.
Self time is a span's duration minus the time of its child spans.

Work counters are read off the arguments and results at the same
boundaries, so they count what the layer did, not what the benchmark
asked for.  Nothing in the benchmark waits on a queue or lock, so no
waiting time is recorded.
"""

import collections
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("sft", "locfun", "groupoid", "coboundary", "support", "suspension", "ktheory", "cli")

# Methods traced under a function-like name: (layer, name) -> (class, method).
METHODS = {
    ("sft", "check_word"): ("TransitionMatrix", "check_word"),
    ("sft", "matrix_init"): ("TransitionMatrix", "__init__"),
    ("locfun", "locfun_init"): ("LocFun", "__init__"),
}


def _count_words(counters, args, result, exc):
    if exc is None:
        counters["sft.words_enumerated"] += len(result)


def _count_block(counters, args, result, exc):
    if exc is None:
        counters["sft.block_vertices"] += len(result[1])


def _count_table(counters, args, result, exc):
    if exc is None:
        counters["locfun.table_entries"] += len(args[0].table)


def _count_search(counters, args, result, exc):
    counters["groupoid.search.runs"] += 1
    if exc is None:
        counters["groupoid.search.found" if result is not None else "groupoid.search.exhausted"] += 1


def _count_verdict(counters, args, result, exc):
    counters["groupoid.verdict.runs"] += 1
    if exc is None and result.certified:
        counters["groupoid.verdict.certified"] += 1


def _count_solve(counters, args, result, exc):
    counters["coboundary.solve.runs"] += 1
    if exc is None:
        counters["coboundary.solve.success"] += 1


def _count_cycles(counters, args, result, exc):
    if exc is None:
        counters["coboundary.cycles_enumerated"] += len(result)


def _count_family(counters, args, result, exc):
    if exc is None:
        counters["support.family_words"] += result.size


def _count_inclusion(counters, args, result, exc):
    if exc is None:
        counters["support.inclusion_cells"] += result.size * result.size


def _count_tower(counters, args, result, exc):
    if exc is None:
        counters["suspension.tower_states"] += result.size


def _count_smith(counters, args, result, exc):
    rows = args[0]
    counters["ktheory.smith_cells"] += len(rows) * (len(rows[0]) if len(rows) else 0)


def _count_exit(counters, args, result, exc):
    if exc is not None:
        counters["cli.uncaught"] += 1
    else:
        counters["cli.exit.%s" % result] += 1


HOOKS = {
    "sft.enumerate_words": _count_words,
    "sft.extensions": _count_words,
    "sft.higher_block": _count_block,
    "locfun.locfun_init": _count_table,
    "groupoid.minimality_search": _count_search,
    "groupoid.minimality_verdict": _count_verdict,
    "coboundary.solve_potential": _count_solve,
    "coboundary.cycle_sums": _count_cycles,
    "support.sigma_family": _count_family,
    "support.inclusion_matrix": _count_inclusion,
    "suspension.suspended_matrix": _count_tower,
    "ktheory.smith_normal_form": _count_smith,
    "cli.main": _count_exit,
}


class _Node:
    """Aggregated spans of one function under one calling context."""

    __slots__ = ("name", "parent", "children", "calls", "total", "self_time", "failed", "start", "end")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.failed = 0
        self.start = None
        self.end = None

    def child(self, name):
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Node(name, self)
        return node


class Tracer:
    """Records spans and counters for the package's layers while installed."""

    def __init__(self):
        self.root = _Node("run", None)
        self.counters = collections.Counter()
        # Each frame is [node, start, time spent in child spans].
        self._frames = [[self.root, perf_counter(), 0.0]]
        self._patches = []

    def _enter(self, name):
        node = self._frames[-1][0].child(name)
        node.calls += 1
        frame = [node, perf_counter(), 0.0]
        self._frames.append(frame)
        if node.start is None:
            node.start = frame[1]
        return frame

    def _leave(self, frame, failed):
        end = perf_counter()
        self._frames.pop()
        node, start, child = frame
        duration = end - start
        node.total += duration
        node.self_time += duration - child
        node.end = end
        if failed:
            node.failed += 1
        self._frames[-1][2] += duration

    def span(self, name, fn):
        """Run fn() as a span called `name` (used for the benchmark's ops)."""
        depth = len(self._frames)
        frame = self._enter(name)
        try:
            result = fn()
        except BaseException:
            # A deadline can interrupt a wrapper between entering and leaving
            # its span; drop whatever frames it left behind.
            del self._frames[depth + 1 :]
            self._leave(frame, True)
            raise
        self._leave(frame, False)
        return result

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        enter, leave, counters = self._enter, self._leave, self.counters

        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                leave(frame, True)
                if hook is not None:
                    hook(counters, args, None, exc)
                raise
            leave(frame, False)
            if hook is not None:
                hook(counters, args, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package="sftcocycles"):
        """Wrap every layer function wherever a package module binds it."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module("%s.%s" % (package, layer))
            names = getattr(mod, "__all__", None) or ["main"]
            for fname in names:
                fn = getattr(mod, fname)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = (fn, self._wrap("%s.%s" % (layer, fname), fn))
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        for (layer, name), (cls_name, meth) in METHODS.items():
            cls = getattr(importlib.import_module("%s.%s" % (package, layer)), cls_name)
            self._set(cls, meth, self._wrap("%s.%s" % (layer, name), cls.__dict__[meth]))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def nodes(self):
        stack = list(self.root.children.values())
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def totals(self):
        """Per function name: [calls, self seconds, failed calls]."""
        out = collections.defaultdict(lambda: [0, 0.0, 0])
        for node in self.nodes():
            entry = out[node.name]
            entry[0] += node.calls
            entry[1] += node.self_time
            entry[2] += node.failed
        return out

    def work_snapshot(self):
        """Machine-independent totals so far: call counts and counters."""
        snap = {name: entry[0] for name, entry in self.totals().items()}
        snap.update(self.counters)
        return snap

    def write(self, path):
        """Write the span tree as JSON: one record per aggregated span."""
        origin = self._frames[0][1]
        ids = {id(self.root): 0}
        records = []
        for node in self.nodes():
            ids[id(node)] = len(ids)
        for node in self.nodes():
            records.append(
                {
                    "id": ids[id(node)],
                    "parent": ids[id(node.parent)],
                    "name": node.name,
                    "calls": node.calls,
                    "failed": node.failed,
                    "start_s": node.start - origin,
                    "end_s": node.end - origin if node.end is not None else None,
                    "total_s": node.total,
                    "self_s": node.self_time,
                }
            )
        records.sort(key=lambda r: r["id"])
        with open(path, "w") as fh:
            json.dump({"spans": records, "counters": dict(self.counters)}, fh, indent=1)
