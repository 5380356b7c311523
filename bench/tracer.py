"""In-process span tracer for the snowball_sbm package.

`Tracer.install()` replaces every public function of the layer modules with
a timing wrapper, in every package namespace that holds a reference to it
(a function imported into another module is looked up there, not in its
home module), plus the two data-class methods whose cost the benchmark
tracks. Each call records one span: id, parent id, name, start, end. Spans
stay in memory until `write()`. `uninstall()` restores the originals.

The program itself is not changed: wrappers live only in the process that
installs them, so the untraced benchmark runs execute unmodified code.
"""

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict

import numpy as np

PACKAGE = "snowball_sbm"
LAYERS = ("sbm", "sampling", "likelihoods", "augmentation", "harness", "io", "cli")
# data-class methods traced alongside the module functions: (module, class, method)
METHODS = (("sbm", "PopulationGraph", "edge_list"), ("sampling", "IgnoredData", "observed_link_counts"))
# spans whose peak traced allocation is recorded (tracemalloc runs only inside them)
ALLOC_TRACKED = frozenset({"sbm.generate_population", "sbm.sufficient_counts"})


class Tracer:
    """Span recorder. Single-threaded: the traced run uses one worker."""

    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start, end), in end order
        self.peak_alloc = defaultdict(int)  # span name -> largest peak, bytes
        self.graph_bytes = 0
        self.graph_edges = 0
        self._next_id = 0
        self._stack = []
        self._undo = []

    # ------------------------------------------------------------ install

    def install(self):
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        self._graph_type = modules["sbm"].PopulationGraph
        wrappers = {}  # original function -> its wrapper
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for ns in [importlib.import_module(PACKAGE), *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, attr, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, meth, self._wrap(f"{layer}.{meth}", vars(cls)[meth]))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        track_alloc = name in ALLOC_TRACKED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            if track_alloc:
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
                if track_alloc:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.peak_alloc[name] = max(self.peak_alloc[name], peak)
                    if started:
                        tracemalloc.stop()
            if type(result) is self._graph_type:
                self._note_graph(result)
            return result

        return wrapper

    def _note_graph(self, graph):
        self.graph_bytes = max(self.graph_bytes, graph.strata.nbytes + graph.adjacency.nbytes)
        self.graph_edges = max(self.graph_edges, int(np.count_nonzero(graph.adjacency)) // 2)

    # ------------------------------------------------------------ results

    def write(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(f"{span_id}\t{parent}\t{name}\t{start!r}\t{end!r}\n")

    def durations(self):
        """Span name -> list of call durations in seconds."""
        out = defaultdict(list)
        for _, _, name, start, end in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self, name, children=None):
        """Durations of the ``name`` spans minus their direct child spans
        (only the children whose names are in ``children``, when given)."""
        covered = defaultdict(float)
        for _, parent, child, start, end in self.spans:
            if parent >= 0 and (children is None or child in children):
                covered[parent] += end - start
        return [end - start - covered[i] for i, _, n, start, end in self.spans if n == name]
