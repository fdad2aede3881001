"""Spans around hermhecke's public functions, installed at run time.

`Tracer.install` replaces each function in `SPANNED` by a wrapper that
records a span per call (per resume, for the generator `iter_neighbours`),
in every hermhecke module that holds the function under some name: a
module that did `from .neighbour import iter_neighbours` calls through its
own global, so patching only the defining module would miss those calls.
Methods are patched on their class.  Nothing inside the package changes.

A span's self time is its duration minus the time covered by the spans it
encloses; busy time counts only the outermost of nested spans of one
function.  The tracer is single-threaded, like the benchmark.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (layer, function or Class.method); `eisenstein` is left out: its calls are
# too fine-grained to time from outside and it is covered by its callers.
SPANNED = (
    ("eismat", "column_hermite_form"),
    ("eismat", "smith_invariants"),
    ("eismat", "eis_det"),
    ("lattice", "hermitian_lll"),
    ("lattice", "HermitianLattice.fingerprint"),
    ("lattice", "HermitianLattice.short_vectors"),
    ("lattice", "HermitianLattice.rebase"),
    ("isometry", "is_isometric"),
    ("isometry", "automorphism_order"),
    ("neighbour", "iter_neighbours"),
    ("neighbour", "neighbours"),
    ("neighbour", "count_neighbours"),
    ("neighbour", "enumerate_genus"),
    ("neighbour", "sublattice_genus"),
    ("neighbour", "intersection_lattice"),
    ("neighbour", "verify_neighbour"),
    ("hecke", "hecke_direct"),
    ("hecke", "hecke_intertwining"),
    ("hecke", "assemble_intertwining"),
    ("linalg", "charpoly_factors"),
    ("linalg", "kernel_basis"),
    ("linalg", "solve_right"),
    ("spectra", "eigensystem"),
    ("spectra", "scan_congruences_lemma"),
    ("spectra", "expand_in_eigenbasis"),
    ("arthur", "verify_table"),
    ("arthur", "eigenvalue_at"),
    ("theta", "theta_degree1"),
    ("fixtures", "FixtureSet.load"),
)
GENERATORS = {"iter_neighbours"}


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rpartition('.')[2]}"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []            # open spans: [name, start, child time]
        self._open = defaultdict(int)
        self._neighbours = set()    # (id of base lattice, ideal, key)
        self._bases = {}            # keeps those ids from being reused
        # what each call adds to a count, given its arguments and result
        self._on_result = {
            "lattice.short_vectors": lambda args, vs:
                self._count("lattice.short_vectors.vectors", len(vs)),
            "isometry.is_isometric": lambda args, cert:
                self._count("isometry.is_isometric.hits", cert is not None),
            "hecke.hecke_intertwining": lambda args, out:
                self._count("hecke.sublattice_classes", out[2].class_number),
            "neighbour.iter_neighbours": self._note_neighbour,
        }

    def _count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def _note_neighbour(self, args, item) -> None:
        base, ideal = args[0], args[1]
        self._bases[id(base)] = base
        self._neighbours.add((id(base), ideal, item[0]))
        self.counts["neighbour.built"] += 1

    def _enter(self, name: str) -> list:
        self._open[name] += 1
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.self_time[name] += duration - frame[2]
        self._open[name] -= 1
        if not self._open[name]:
            self.busy[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def _span(self, name: str, fn):
        on_result = self._on_result.get(name)

        def spanned(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if on_result:
                on_result(args, result)
            return result
        return spanned

    def _span_each_resume(self, name: str, fn):
        on_item = self._on_result.get(name)

        def spanned(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(frame)
                if on_item:
                    on_item(args, item)
                yield item
        return spanned

    def _count_items(self, counter: str, fn):
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[counter] += 1
                yield item
        return counted

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hermhecke" or name.startswith("hermhecke.")]

        def replace_everywhere(original, replacement):
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, replacement)

        for layer, attr in SPANNED:
            module = sys.modules[f"hermhecke.{layer}"]
            name = span_name(layer, attr)
            owner, _, fn_name = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                raw = cls.__dict__[fn_name]
                if isinstance(raw, staticmethod):
                    setattr(cls, fn_name, staticmethod(self._span(name, raw.__func__)))
                else:
                    setattr(cls, fn_name, self._span(name, raw))
                continue
            original = getattr(module, fn_name)
            wrap = self._span_each_resume if fn_name in GENERATORS else self._span
            replace_everywhere(original, wrap(name, original))
        lines = sys.modules["hermhecke.neighbour"].iter_lines_with_data
        replace_everywhere(lines, self._count_items("neighbour.lines", lines))

    def metrics(self, passes: int, traced_solve_s: float,
                untraced_solve_s: float) -> dict:
        """Per-layer metrics per traced pass, with their units."""
        out = {}
        layer_self = defaultdict(float)
        for layer, attr in SPANNED:
            name = span_name(layer, attr)
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.busy_s"] = (self.busy[name] / passes, "s")
            out[f"{name}.self_s"] = (self.self_time[name] / passes, "s")
            layer_self[layer] += self.self_time[name] / passes
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = (value, "s")
        distinct = len(self._neighbours)
        isometry_calls = self.calls["isometry.is_isometric"]
        fingerprint_self = self.self_time["lattice.fingerprint"] / passes
        out.update({
            "neighbour.lines": (self.counts["neighbour.lines"] / passes, "count"),
            "neighbour.built": (self.counts["neighbour.built"] / passes, "count"),
            "neighbour.distinct": (distinct / passes, "count"),
            "lattice.fingerprint.per_neighbour":
                (self.calls["lattice.fingerprint"] / distinct if distinct else 0.0,
                 "ratio"),
            "lattice.fingerprint.self_share": (fingerprint_self / traced_solve_s, "ratio"),
            "lattice.short_vectors.vectors":
                (self.counts["lattice.short_vectors.vectors"] / passes, "count"),
            "isometry.is_isometric.hit_ratio":
                (self.counts["isometry.is_isometric.hits"] / isometry_calls
                 if isometry_calls else 0.0, "ratio"),
            "hecke.sublattice_classes":
                (self.counts["hecke.sublattice_classes"] / passes, "count"),
            "trace.solve_s": (traced_solve_s, "s"),
            "trace.overhead_s": (traced_solve_s - untraced_solve_s, "s"),
        })
        return out
