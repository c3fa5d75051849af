"""Spans around lfvdw's layers, installed from outside the package.

The tracer replaces the public functions of each lfvdw module at the
places their callers look them up (``lfvdw.cli.pair_bulk``,
``lfvdw.potentials.integrate_semi_infinite``, ``lfvdw._kernels.ring_trace``,
the response methods on their classes, ...) with wrappers that open a
span, count the work passed in, and close the span. The integrand given to
a quadrature call is wrapped too, as the span ``integrand``. Nothing in
``src/`` changes, and ``uninstall`` puts every original back.

A span carries its name, start, end, parent and op id. Self time is the
span's duration minus the durations of its direct children, taken from a
parent stack, because green and the oracle start quadratures from inside
integrands. One stack serves the process: the benchmark drives lfvdw from
one client thread, and ``pair --threads 1`` runs its single worker while
the caller waits, so spans never interleave.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

import lfvdw._kernels
import lfvdw.cavity
import lfvdw.cli
import lfvdw.green
import lfvdw.oracle
import lfvdw.potentials
import lfvdw.response

# Module whose public functions form each layer.
LAYER_OF_MODULE = {
    "lfvdw.cli": "cli",
    "lfvdw.config": "config",
    "lfvdw.potentials": "potentials",
    "lfvdw.quadrature": "quadrature",
    "lfvdw.cavity": "cavity",
    "lfvdw.green": "green",
    "lfvdw.oracle": "oracle",
}
# Modules whose globals hold the cross-module lookups of the call graph.
CALLER_MODULES = (lfvdw.cli, lfvdw.potentials, lfvdw.cavity, lfvdw.green, lfvdw.oracle)
# Helpers that evaluate nothing on nodes; wrapping them would only add cost.
SKIP = {"scale_hint"}
# Kernel entry points other modules call as ``_kernels.<name>``; the helpers
# they call in turn (p1, s1, ...) stay unwrapped.
KERNELS = ("lorentz_sum", "alpha_sum", "kernel_g", "kernel_h", "kernel_force",
           "cavity_c", "cavity_c1_expansion", "cavity_d", "ring_trace")
RESPONSE_METHODS = (
    (lfvdw.response.MediumResponse, ("eps_iu", "mu_iu", "n_iu")),
    (lfvdw.response.AtomModel, ("alpha_iu", "beta_iu")),
)
LAYERS = ("cli", "config", "potentials", "quadrature", "integrand", "response",
          "_kernels", "cavity", "green", "oracle", "bench")


class Tracer:
    """Span stack, per-name aggregates and, optionally, the span list."""

    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []
        self.names: dict[str, str] = {}      # span name -> layer
        self.calls = defaultdict(int)        # span name -> calls
        self.self_ns = defaultdict(int)      # span name -> self time
        self.layer_ns = defaultdict(int)     # layer -> time in outermost spans
        self.counts = defaultdict(int)       # named work counters
        self._depth = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0
        self._op_id = -1
        self._seen: set = set()
        self._pinned: list = []
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name: str, layer: str):
        stack = self._stack
        self._depth[layer] += 1
        parent = stack[-1][0] if stack else -1
        stack.append([self._next_id, name, layer, parent, 0, perf_counter_ns()])
        self._next_id += 1

    def _exit(self):
        end = perf_counter_ns()
        stack = self._stack
        span_id, name, layer, parent, child_ns, start = stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_ns[name] += dur - child_ns
        depth = self._depth
        depth[layer] -= 1
        if not depth[layer]:
            self.layer_ns[layer] += dur
        if stack:
            stack[-1][4] += dur
        if self.keep_spans:
            self.spans.append((self._op_id, span_id, parent, name, start, end))

    def op(self, kind: str, call):
        """Run one benchmark op as a root span; returns its result."""
        self._op_id += 1
        self.names["bench.op"] = "bench"
        self._enter("bench.op", "bench")
        try:
            return call()
        finally:
            self._exit()
            self.counts["response.unique"] += len(self._seen)
            self._seen.clear()
            self._pinned.clear()
            self.counts["ops"] += 1

    # -- wrappers ------------------------------------------------------
    def _plain(self, name: str, layer: str, fn, counter: str | None = None):
        self.names[name] = layer
        enter, exit_, counts = self._enter, self._exit, self.counts

        def wrapper(*args, **kwargs):
            if counter:
                counts[counter] += 1
            enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def _kernel(self, name: str, fn):
        self.names[name] = "_kernels"
        enter, exit_, counts = self._enter, self._exit, self.counts
        nodes_key = f"{name}.nodes"

        def wrapper(first, *args):
            n = len(first) if getattr(first, "ndim", 0) else 1
            counts[nodes_key] += n
            counts["_kernels.nodes"] += n
            enter(name, "_kernels")
            try:
                return fn(first, *args)
            finally:
                exit_()

        return wrapper

    def _response(self, name: str, fn):
        self.names[name] = "response"
        enter, exit_, counts = self._enter, self._exit, self.counts
        seen, pinned = self._seen, self._pinned

        def wrapper(model, u):
            nodes = np.asarray(u, dtype=np.float64)
            counts["response.nodes"] += nodes.size
            seen.add((name, id(model), nodes.tobytes()))
            pinned.append(model)
            enter(name, "response")
            try:
                return fn(model, u)
            finally:
                exit_()

        return wrapper

    def _quadrature(self, name: str, fn, site_counter: str | None):
        self.names[name] = "quadrature"
        self.names["integrand"] = "integrand"
        enter, exit_, counts = self._enter, self._exit, self.counts

        def traced_integrand(f):
            def integrand(u):
                counts["integrand.calls"] += 1
                counts["integrand.nodes"] += u.size
                enter("integrand", "integrand")
                try:
                    return f(u)
                finally:
                    exit_()

            return integrand

        def wrapper(f, *args, **kwargs):
            counts["quadrature.integrals"] += 1
            if site_counter:
                counts[site_counter] += 1
            enter(name, "quadrature")
            try:
                res = fn(traced_integrand(f), *args, **kwargs)
            finally:
                exit_()
            counts["quadrature.evals"] += res.evals
            return res

        return wrapper

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr: str, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        for module in CALLER_MODULES:
            site = module.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or attr in SKIP or not inspect.isfunction(fn):
                    continue
                layer = LAYER_OF_MODULE.get(fn.__module__)
                if layer is None:
                    continue
                name = f"{layer}.{attr}"
                if layer == "quadrature":
                    counter = "green.inner_integrals" if site == "green" else None
                    wrapper = self._quadrature(name, fn, counter)
                else:
                    counter = "oracle.pair_calls" if (site, attr) == ("oracle", "pair_free_space") else None
                    wrapper = self._plain(name, layer, fn, counter)
                self._patch(module, attr, wrapper)
        for attr in KERNELS:
            self._patch(lfvdw._kernels, attr,
                        self._kernel(f"_kernels.{attr}", getattr(lfvdw._kernels, attr)))
        for cls, methods in RESPONSE_METHODS:
            for attr in methods:
                self._patch(cls, attr, self._response(f"response.{attr}", cls.__dict__[attr]))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------
    def layer_self_ns(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for name, ns in self.self_ns.items():
            out[self.names[name]] += ns
        return out

    def calls_in(self, layer: str) -> int:
        return sum(c for name, c in self.calls.items() if self.names[name] == layer)

    def deterministic_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly for the same inputs."""
        out = {f"calls.{name}": c for name, c in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op_id,span_id,parent_id,name,start_ns,end_ns\n")
            for rec in self.spans:
                fh.write(",".join(map(str, rec)) + "\n")
