"""Per-layer tracing: timing wrappers around the public functions of each layer.

:class:`LayerTracer` replaces each boundary function (a method on the class
that defines it, or a module-level function) with a wrapper that, while the
tracer is recording, counts the call and measures its *self time*: its
duration minus the time of the boundary calls it made.  A span stack of
child-time accumulators gives that without storing spans.  Outside
:meth:`LayerTracer.recording` the wrappers call straight through, so work
done between timed replays (device construction, preconditioning, audits)
is not attributed.

Install before the objects under test are built — some classes keep bound
methods — and :meth:`LayerTracer.uninstall` puts every original back.  A
boundary whose module, class or function no longer exists is listed in
:attr:`LayerTracer.missing` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterator, List, Optional, Tuple

#: The benchmark's own replay loop, recorded as the root span.
DRIVER = "bench.driver"

#: (layer name, module, qualified attribute) for every traced boundary.
#: Methods are named on the class the device uses; the wrapper goes on the
#: class in its MRO that defines the method.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("ssd.submit", "repro.ssd.device", "SimulatedSSD.submit"),
    ("ssd.submit_batch", "repro.ssd.device", "SimulatedSSD.submit_batch"),
    ("ssd.recover", "repro.ssd.device", "SimulatedSSD.recover"),
    ("ssd.tick", "repro.ssd.device", "SimulatedSSD.tick"),
    ("core.detector.observe", "repro.core.detector",
     "RansomwareDetector.observe"),
    ("core.detector.tick", "repro.core.detector", "RansomwareDetector.tick"),
    ("core.table.record_read", "repro.core.counting_table",
     "CountingTable.record_read"),
    ("core.table.record_write", "repro.core.counting_table",
     "CountingTable.record_write"),
    ("core.table.expire", "repro.core.counting_table",
     "CountingTable.expire"),
    ("core.window.push", "repro.core.window", "SlidingWindow.push"),
    ("core.tree.predict_one", "repro.core.id3", "DecisionTree.predict_one"),
    ("ftl.write_span", "repro.ftl.insider", "InsiderFTL.write_span"),
    ("ftl.write", "repro.ftl.insider", "InsiderFTL.write"),
    ("ftl.read", "repro.ftl.insider", "InsiderFTL.read"),
    ("ftl.collect_garbage", "repro.ftl.insider",
     "InsiderFTL.collect_garbage"),
    ("ftl.rollback", "repro.ftl.insider", "InsiderFTL.rollback"),
    ("ftl.victim.select", "repro.ftl.victim_index", "VictimIndex.select"),
    ("ftl.queue.log", "repro.ftl.recovery_queue", "RecoveryQueue.log"),
    ("ftl.queue.push", "repro.ftl.recovery_queue", "RecoveryQueue.push"),
    ("ftl.queue.expire", "repro.ftl.recovery_queue", "RecoveryQueue.expire"),
    ("ftl.queue.drain", "repro.ftl.recovery_queue", "RecoveryQueue.drain"),
    ("ftl.mapping.lookup", "repro.ftl.mapping", "MappingTable.lookup"),
    ("ftl.mapping.update", "repro.ftl.mapping", "MappingTable.update"),
    ("nand.program", "repro.nand.array", "NandArray.program"),
    ("nand.program_many", "repro.nand.array", "NandArray.program_many"),
    ("nand.read", "repro.nand.array", "NandArray.read"),
    ("nand.erase", "repro.nand.array", "NandArray.erase"),
    ("nand.invalidate", "repro.nand.array", "NandArray.invalidate"),
    ("nand.invalidate_many", "repro.nand.array", "NandArray.invalidate_many"),
    ("workloads.scenario.build", "repro.workloads.scenario", "Scenario.build"),
    # The orchestrator calls the name it imported, so that binding is the
    # one to wrap; the fleet codec is looked up in its own module.
    ("fleet.run_device", "repro.fleet.orchestrator", "run_device"),
    ("fleet.dumps_record", "repro.fleet.record", "dumps_record"),
)

#: Every layer name a traced run reports, the driver span first.
LAYERS: Tuple[str, ...] = (DRIVER,) + tuple(name for name, _, _ in BOUNDARIES)


def _resolve(module_name: str, qualname: str) -> Optional[Tuple[object, str, object]]:
    """``(owner, attribute, original)`` for a boundary, or None if gone."""
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if inspect.isclass(owner):
        for klass in owner.__mro__:
            if attribute in vars(klass):
                owner = klass
                break
        else:
            return None
    original = vars(owner).get(attribute)
    if not inspect.isfunction(original):
        return None
    return owner, attribute, original


class LayerTracer:
    """Counts calls and self time at each layer boundary.

    Args:
        boundaries: ``(layer, module, qualified attribute)`` triples;
            defaults to :data:`BOUNDARIES`.
    """

    def __init__(self, boundaries=BOUNDARIES) -> None:
        self.boundaries = tuple(boundaries)
        #: layer -> [calls, self_ns]
        self.stats: Dict[str, List[int]] = {
            name: [0, 0] for name in (DRIVER,) + tuple(
                layer for layer, _, _ in self.boundaries)
        }
        #: Layers whose function could not be found.
        self.missing: List[str] = []
        self._installed: List[Tuple[object, str, object]] = []
        # Child-time accumulators of the open spans; None while not recording.
        self._stack: Optional[List[int]] = None

    def install(self) -> None:
        """Wrap every boundary that exists; record the ones that do not."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for layer, module_name, qualname in self.boundaries:
            resolved = _resolve(module_name, qualname)
            if resolved is None:
                self.missing.append(layer)
                continue
            owner, attribute, original = resolved
            setattr(owner, attribute, self._wrap(layer, original))
            self._installed.append(resolved)

    def uninstall(self) -> None:
        """Put every original function back where it was found."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def recording(self) -> Iterator[None]:
        """Record spans inside the block, under the ``bench.driver`` root."""
        self._stack = [0]
        started = perf_counter_ns()
        try:
            yield
        finally:
            duration = perf_counter_ns() - started
            entry = self.stats[DRIVER]
            entry[0] += 1
            entry[1] += duration - self._stack.pop()
            self._stack = None

    def _wrap(self, layer: str, function):
        entry = self.stats[layer]
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack is None:
                return function(*args, **kwargs)
            stack.append(0)
            started = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - started
                entry[0] += 1
                entry[1] += duration - stack.pop()
                stack[-1] += duration

        return traced
