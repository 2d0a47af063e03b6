"""Per-layer attribution for the traced run: wrappers around layer calls.

:class:`LayerTracer` replaces a fixed set of the program's public layer
functions and methods with timing wrappers for the duration of a
``with tracer.installed():`` block, then restores the originals.  Each
wrapper counts calls and accumulates *self time*: its own wall time
minus the wall time of wrapped calls nested inside it (tracked per
thread).  Time no wrapper covers is what the caller reports as
``untraced_s``.

A module-level function is patched where it is defined *and* in every
loaded ``repro`` module that imported it by name (``from x import f``
binds a second reference that a definition-site patch would miss); a
method is patched on its class.  :meth:`LayerTracer.installed` checks
that the import sites the pipeline actually calls through were patched.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def _count_inductors(tracer: "LayerTracer", args, kwargs) -> None:
    from repro.circuit.elements import Inductor

    circuit = args[0] if args else kwargs["circuit"]
    tracer.add("circuit.lint_inductors",
               sum(1 for e in circuit.elements if isinstance(e, Inductor)))


def _note_factor(tracer: "LayerTracer", args, kwargs) -> None:
    from scipy import sparse

    matrix = args[0] if args else kwargs["matrix"]
    if not sparse.issparse(matrix):
        tracer.maximum("circuit.dense_unknowns_max", matrix.shape[0])


#: (layer, owner, attribute, import sites that must be patched, hook).
#: An owner "module:Class" names a class whose method is wrapped.
TARGETS: List[Tuple[str, str, str, Tuple[str, ...], Optional[Callable]]] = [
    ("clocktree.extract", "repro.clocktree.extractor:ClocktreeRLCExtractor",
     "segment_rlc", (), None),
    ("clocktree.build_netlist",
     "repro.clocktree.extractor:ClocktreeRLCExtractor", "build_netlist",
     (), None),
    ("clocktree.measure", "repro.clocktree.skew", "simulate_clocktree",
     (), None),
    ("tables.lookup", "repro.tables.lookup", "timed_lookup",
     ("repro.clocktree.extractor",), None),
    ("circuit.lint", "repro.circuit.lint", "lint_circuit",
     ("repro.clocktree.extractor",), _count_inductors),
    ("circuit.assemble", "repro.circuit.netlist:Circuit", "assemble",
     (), None),
    ("circuit.factor", "repro.circuit.backend", "factorize",
     ("repro.circuit.transient",), _note_factor),
    ("circuit.transient", "repro.circuit.transient", "transient_analysis",
     ("repro.clocktree.skew",), None),
    ("peec.loop_solve", "repro.peec.loop:LoopProblem", "loop_rl", (), None),
    ("peec.lp_assemble", "repro.peec.kernel",
     "assemble_partial_inductance_matrix",
     ("repro.peec.solver", "repro.peec.network"), None),
    ("library.open", "repro.library.store", "open_library", (), None),
    ("library.open", "repro.library.store:TableLibrary", "get_one", (), None),
    ("serve.handle", "repro.serve.service:ExtractionService", "handle",
     (), None),
    ("scenarios.point", "repro.scenarios.runner", "run_scenario", (), None),
    ("scenarios.ledger_record", "repro.scenarios.ledger:RunLedger",
     "record", (), None),
    ("scenarios.ledger_find", "repro.scenarios.ledger:RunLedger",
     "find_completed", (), None),
    ("scenarios.run_metadata", "repro.quality.regress", "run_metadata",
     (), None),
]

#: Modules imported before patching, so by-name import sites exist.
_PRELOAD = ("repro.clocktree.skew", "repro.experiments.htree_skew",
            "repro.serve.service", "repro.scenarios.sweep",
            "repro.circuit.dc", "repro.circuit.diagnostics")


class LayerTracer:
    """Call counts, self times and side counters per layer."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, float] = defaultdict(float)
        #: Wall time of outermost wrapped calls (no wrapper around them).
        self.root_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.values[name] += amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.values[name] = max(self.values[name], value)

    def covered_s(self) -> float:
        """Sum of self times: wall time spent inside any wrapper."""
        return sum(self.self_s.values())

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable,
              hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            frame = [0.0]  # wall time of wrapped calls nested in this one
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with tracer._lock:
                    if not stack:
                        tracer.root_s += elapsed
                    tracer.calls[layer] += 1
                    tracer.self_s[layer] += elapsed - frame[0]
                if hook is not None:
                    hook(tracer, args, kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Patch every target for the duration of the block."""
        for name in _PRELOAD:
            importlib.import_module(name)
        undo: List[Tuple[object, str, object]] = []
        try:
            for layer, owner_name, attr, sites, hook in TARGETS:
                module_name, _, class_name = owner_name.partition(":")
                module = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(module, class_name)
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(layer, original, hook))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, original, hook)
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name.split(".")[0] == "repro"
                            and getattr(mod, attr, None) is original):
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                for site in sites:
                    if getattr(importlib.import_module(site), attr) is not wrapper:
                        raise RuntimeError(
                            f"{site}.{attr} was not patched for {layer}")
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def require_calls(self, layers) -> List[str]:
        """Layers among *layers* that recorded no call (should be none)."""
        return [layer for layer in layers if self.calls.get(layer, 0) == 0]
