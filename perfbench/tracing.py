"""Spans and counts at qlift's layer boundaries, recorded from outside.

Each traced public function is replaced, in every qlift module that binds it,
by a wrapper, so calls from one layer into another are caught without
touching qlift's source.  A span records its name, start, end, parent span
and job; a layer's self time is its span's duration minus the time its child
spans cover.  Hot tiny functions get a call count only.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import collections
import importlib
import sys
import time

# name -> (module, functions).  Calls to any listed function form one span.
SPANS = {
    "linalg.svd": ("qlift.linalg", ["svd"]),
    "linalg.principal_unitary_sqrt": ("qlift.linalg", ["principal_unitary_sqrt"]),
    "linalg.is_unitary": ("qlift.linalg", ["is_unitary"]),
    "encodings.builtin_encoding": ("qlift.encodings", ["builtin_encoding"]),
    "encodings.logical_subspace": ("qlift.encodings", ["logical_subspace"]),
    "encodings.fixed_complement": ("qlift.encodings", ["fixed_complement"]),
    "encodings.classify_state": ("qlift.encodings", ["classify_state"]),
    "synthesis.quantize_reversible": ("qlift.synthesis", ["quantize_reversible"]),
    "synthesis.quantization_report": ("qlift.synthesis", ["quantization_report"]),
    "synthesis.enumerate_permutation_quantizations": (
        "qlift.synthesis", ["enumerate_permutation_quantizations"]),
    "synthesis.named_gate": ("qlift.synthesis", ["named_gate"]),
    "simulator.run_circuit": ("qlift.simulator", ["run_circuit"]),
    "simulator.apply_gate": ("qlift.simulator", ["apply_gate"]),
    "entanglement.schmidt": ("qlift.entanglement", ["schmidt"]),
    "entanglement.classify_bipartite": ("qlift.entanglement", ["classify_bipartite"]),
    "io.parse": ("qlift.io", ["parse_matrix", "parse_state", "parse_truth_table",
                              "parse_encoding_file", "parse_circuit"]),
    "io.format": ("qlift.io", ["format_matrix", "format_truth_table", "format_circuit"]),
    "cli.main": ("qlift.cli", ["main"]),
}
COUNTS = {
    "linalg.kron": ("qlift.linalg", ["kron"]),
    "io.format_complex": ("qlift.io", ["format_complex"]),
}
# Candidates an enumeration checks: calls made from inside its span.
TRIED = {"synthesis.enumerate.tried": ("qlift.synthesis", ["is_quantization_of"])}
# Layers whose returned arrays are summed up as out_mb.
OUT_MB = ("encodings.logical_subspace", "encodings.fixed_complement", "linalg.kron")
ENUMERATE = "synthesis.enumerate_permutation_quantizations"
JOB = "job"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.spans: list = []  # (name index, start, end, parent span, job)
        self.stack: list[list] = []  # [span index, child seconds]
        self.calls = collections.Counter()
        self.self_s = collections.Counter()
        self.out_bytes = collections.Counter()
        self.by_tag = collections.defaultdict(collections.Counter)  # tag -> layer -> self s
        self.enumerate_found = 0
        self.job = -1
        self.tag = None
        self._undo = []

    def _name_index(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
        return self.index[name]

    def _span(self, name: str, fn):
        measure_out = name in OUT_MB
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if measure_out:
                tracer.out_bytes[name] += result.nbytes
            if name == ENUMERATE:
                tracer.enumerate_found += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        measure_out = name in OUT_MB
        calls, out_bytes = self.calls, self.out_bytes

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if measure_out:
                out_bytes[name] += result.nbytes
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _tried(self, name: str, fn):
        enumerate_index = self._name_index(ENUMERATE)
        calls, stack, spans = self.calls, self.stack, self.spans

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1][0]][0] == enumerate_index:
                calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str):
        return _Span(self, name, self._name_index(name))

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "qlift" or k.startswith("qlift.")]
        for table, make in ((SPANS, self._span), (COUNTS, self._count), (TRIED, self._tried)):
            for name, (module, attrs) in table.items():
                for attr in attrs:
                    original = getattr(importlib.import_module(module), attr)
                    wrapper = make(name, original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapper)
                                self._undo.append((mod, key, original))

    def remove(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def begin_job(self, tag: str):
        self.job += 1
        self.tag = tag
        return self.span(JOB)

    def metrics(self) -> dict[str, float]:
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = 1e3 * self.self_s[name]
        for name in COUNTS:
            out[f"{name}.calls"] = self.calls[name]
        for name in OUT_MB:
            out[f"{name}.out_mb"] = self.out_bytes[name] / 1e6
        tried = self.calls["synthesis.enumerate.tried"]
        out["synthesis.enumerate.tried"] = tried
        out["synthesis.enumerate.hit_ratio"] = self.enumerate_found / tried if tried else 0.0
        return out

    def dump(self) -> dict:
        """Spans in columns (times in microseconds from the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": self.names,
            "name": [s[0] for s in self.spans],
            "start_us": [round((s[1] - t0) * 1e6, 1) for s in self.spans],
            "end_us": [round((s[2] - t0) * 1e6, 1) for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "job": [s[4] for s in self.spans],
        }


class _Span:
    __slots__ = ("tracer", "index", "name", "slot")

    def __init__(self, tracer: Tracer, name: str, index: int):
        self.tracer, self.name, self.index = tracer, name, index

    def __enter__(self):
        t = self.tracer
        parent = t.stack[-1][0] if t.stack else -1
        self.slot = len(t.spans)
        t.spans.append((self.index, time.perf_counter(), 0.0, parent, t.job))
        t.stack.append([self.slot, 0.0])

    def __exit__(self, *exc):
        t = self.tracer
        end = time.perf_counter()
        slot, child = t.stack.pop()
        index, start, _, parent, job = t.spans[slot]
        t.spans[slot] = (index, start, end, parent, job)
        duration = end - start
        if t.stack:
            t.stack[-1][1] += duration
        own = duration - child
        t.calls[self.name] += 1
        t.self_s[self.name] += own
        t.by_tag[t.tag][self.name] += own
        return False
