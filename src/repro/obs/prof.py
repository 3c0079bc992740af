"""Layer-attributed profiler: where does the device path actually spend time?

perfbench can say how fast the full
:class:`~repro.ssd.device.SimulatedSSD` path runs end to end, but not
*where inside* detector / FTL / NAND the time goes.  This module is the
attribution layer: it accumulates **inclusive/exclusive wall time and
call counts per layer** into a call tree.

Profiling happens from the outside.  :data:`LAYERS` is the one static
table saying which functions are layers; while a profiler is armed
(``with LayerProfiler() as prof:``) each of those functions is replaced
by a timing wrapper on the class or module that defines it, and every
original is put back on exit.  Consequences:

* **disarmed is free by construction** — the device path carries no
  profiler code at all, so an unprofiled run executes exactly the
  program the profile describes;
* **armed is measured, not estimated** — ``repro.tools.profile`` replays
  the same stream unarmed and armed and reports the wall-time ratio;
* **recording only** — the wrappers call straight through, so an armed
  run's detection events, rollback reports and FTL/device statistics
  equal a plain run's (tested in ``tests/test_profiler.py``).

Wrappers go on classes, so they reach every instance in the process
while armed — but not bound methods an object cached *before* arming.
Nothing on the device path caches a bound layer function.

The report (schema ``ssd-insider.profile/v2``) is rendered by
``python -m repro.tools.profile``; see ``docs/observability.md``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

from repro.errors import ObservabilityError

#: Schema stamped into every profile report.
PROFILE_SCHEMA = "ssd-insider.profile/v2"

#: Layer-name prefixes that belong to the device data path (as opposed to
#: the replay harness or the detector's own pipeline).
DEVICE_PATH_PREFIXES = ("ssd.", "ftl.", "nand.", "queue.")

#: ``(layer, module, qualified function)`` for every profiled boundary.
#: A layer may name several functions (lookup and update both translate);
#: no layer may be reachable from inside itself, or the inclusive sums of
#: :meth:`LayerProfiler.layers` would double-count.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    # Every host request runs through _execute: submit_batch's (which
    # submit delegates to), and those of the single-block read/write.
    ("ssd.submit", "repro.ssd.device", "SimulatedSSD._execute"),
    ("ssd.read", "repro.ssd.device", "SimulatedSSD.read"),
    ("ssd.write", "repro.ssd.device", "SimulatedSSD.write"),
    ("ssd.trim", "repro.ssd.device", "SimulatedSSD.trim"),
    ("detector.observe", "repro.core.detector", "RansomwareDetector.observe"),
    ("detector.slice_close", "repro.core.detector",
     "RansomwareDetector._close_slice"),
    ("detector.fast_forward", "repro.core.detector",
     "RansomwareDetector._try_fast_forward"),
    # write and read are the one-block cases of the span functions, so
    # the span functions alone cover every host write and read.
    ("ftl.write", "repro.ftl.base", "PageMappedFTL.write_span"),
    ("ftl.read", "repro.ftl.base", "PageMappedFTL.read_span"),
    ("ftl.trim", "repro.ftl.base", "PageMappedFTL.trim"),
    ("ftl.translate", "repro.ftl.mapping", "MappingTable.lookup"),
    ("ftl.translate", "repro.ftl.mapping", "MappingTable.lookup_span"),
    ("ftl.translate", "repro.ftl.mapping", "MappingTable.update"),
    ("queue.update", "repro.ftl.insider", "InsiderFTL._log_backups"),
    ("ftl.gc", "repro.ftl.base", "PageMappedFTL._collect_garbage"),
    ("ftl.gc.select_victim", "repro.ftl.victim_index", "VictimIndex.select"),
    ("ftl.rollback", "repro.ftl.insider", "InsiderFTL.rollback"),
    # program is the one-page case of program_many.
    ("nand.program", "repro.nand.array", "NandArray.program_many"),
    ("nand.read", "repro.nand.array", "NandArray.read"),
    ("nand.erase", "repro.nand.array", "NandArray.erase"),
    ("nand.ecc_retry", "repro.nand.array", "NandArray._correct_read"),
)


def resolve(module_name: str, qualname: str) -> Tuple[object, str, object]:
    """``(owner, attribute, function)`` for one :data:`LAYERS` entry.

    ``owner`` is the module, or the class that defines the function
    itself (not a subclass that inherits it), so the wrapper reaches
    every class sharing the definition.  Raises
    :class:`~repro.errors.ObservabilityError` when the entry no longer
    names a function.
    """
    owner: object = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if not inspect.isclass(owner):
            raise ObservabilityError(
                f"layer boundary {module_name}.{qualname}: no class {part!r}"
            )
    function = vars(owner).get(attribute)
    if not inspect.isfunction(function):
        raise ObservabilityError(
            f"layer boundary {module_name}.{qualname} is not a function"
        )
    return owner, attribute, function


class ProfileNode:
    """One call-tree node: a layer as reached through one parent chain."""

    __slots__ = ("name", "calls", "total_ns", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_ns = 0
        self.children: Dict[str, "ProfileNode"] = {}

    def exclusive_ns(self) -> int:
        """Inclusive time minus the time attributed to child nodes."""
        return self.total_ns - sum(
            child.total_ns for child in self.children.values()
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready subtree, children ordered by inclusive time."""
        return {
            "name": self.name,
            "calls": self.calls,
            "inclusive_s": self.total_ns / 1e9,
            "exclusive_s": self.exclusive_ns() / 1e9,
            "children": [
                child.as_dict() for child in sorted(
                    self.children.values(),
                    key=lambda node: node.total_ns, reverse=True,
                )
            ],
        }


class _SectionGuard:
    """Shared context manager closing the profiler's innermost section.

    State lives in the profiler's stacks, so one guard instance serves
    arbitrarily nested ``with profiler.section(...)`` blocks, and the
    section is closed even when the body raises.
    """

    __slots__ = ("_profiler",)

    def __init__(self, profiler: "LayerProfiler") -> None:
        self._profiler = profiler

    def __enter__(self) -> "_SectionGuard":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._profiler.stop()
        return False


class LayerProfiler:
    """Accumulates per-layer wall time and call counts into a call tree.

    Arm it around the code to measure; every :data:`LAYERS` function is
    timed while the block runs::

        with LayerProfiler() as prof:
            with prof.section("replay"):   # optional harness root
                ...replay requests...
        report = build_report(prof, wall_time_s)

    ``section``/``start``/``stop`` open named sections by hand (a replay
    harness uses one as the root, so its own loop is a layer too).
    Sections nest; time spent in a child is *inclusive* for every
    ancestor and *exclusive* only for the child.
    """

    def __init__(self) -> None:
        #: Synthetic root; never started or stopped itself.
        self.root = ProfileNode("(root)")
        #: One-slot holder of the innermost open node (a list so the
        #: wrappers can swap it without a method call).
        self._current: List[ProfileNode] = [self.root]
        #: ``(node, parent, start_ns)`` of the open manual sections.
        self._open: List[Tuple[ProfileNode, ProfileNode, int]] = []
        self._guard = _SectionGuard(self)
        #: ``(owner, attribute, original)`` for every installed wrapper.
        self._installed: List[Tuple[object, str, object]] = []

    # -- arming ------------------------------------------------------------

    @property
    def armed(self) -> bool:
        """True while the boundary wrappers are installed."""
        return bool(self._installed)

    def __enter__(self) -> "LayerProfiler":
        if self._installed:
            raise ObservabilityError("profiler is already armed")
        try:
            for layer, module_name, qualname in LAYERS:
                owner, attribute, function = resolve(module_name, qualname)
                setattr(owner, attribute, self._wrap(layer, function))
                self._installed.append((owner, attribute, function))
        except BaseException:
            self._disarm()
            raise
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._disarm()
        return False

    def _disarm(self) -> None:
        """Put every original function back, newest wrapper first."""
        while self._installed:
            owner, attribute, function = self._installed.pop()
            setattr(owner, attribute, function)

    def _wrap(self, layer: str, function):
        """A timing wrapper recording ``function`` calls as ``layer``."""
        current = self._current
        clock = perf_counter_ns

        @functools.wraps(function)
        def profiled(*args, **kwargs):
            parent = current[0]
            node = parent.children.get(layer)
            if node is None:
                node = parent.children[layer] = ProfileNode(layer)
            current[0] = node
            begin = clock()
            try:
                # Most boundary calls are positional-only; skipping the
                # empty **kwargs expansion trims the per-call cost.
                if kwargs:
                    return function(*args, **kwargs)
                return function(*args)
            finally:
                node.total_ns += clock() - begin
                node.calls += 1
                current[0] = parent

        return profiled

    # -- manual sections ---------------------------------------------------

    def start(self, name: str) -> None:
        """Open a section named ``name`` under the current section."""
        parent = self._current[0]
        node = parent.children.get(name)
        if node is None:
            node = ProfileNode(name)
            parent.children[name] = node
        self._current[0] = node
        self._open.append((node, parent, perf_counter_ns()))

    def stop(self) -> None:
        """Close the innermost open section."""
        end = perf_counter_ns()
        if not self._open:
            raise ObservabilityError("profiler stop() without a matching start()")
        node, parent, begin = self._open.pop()
        node.total_ns += end - begin
        node.calls += 1
        self._current[0] = parent

    def section(self, name: str) -> _SectionGuard:
        """Open ``name`` and return the shared closing context manager."""
        self.start(name)
        return self._guard

    @property
    def depth(self) -> int:
        """Currently open (unclosed) manual sections."""
        return len(self._open)

    # -- aggregation -------------------------------------------------------

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Aggregate the tree by layer name, summing across parent chains.

        Exclusive times from distinct tree positions are disjoint, so the
        per-layer exclusive sums partition the attributed wall time
        exactly.  (Inclusive sums would double-count a layer nested under
        itself; :data:`LAYERS` is chosen so that none is.)
        """
        aggregated: Dict[str, Dict[str, float]] = {}

        def visit(node: ProfileNode) -> None:
            for child in node.children.values():
                entry = aggregated.setdefault(
                    child.name,
                    {"calls": 0, "inclusive_s": 0.0, "exclusive_s": 0.0},
                )
                entry["calls"] += child.calls
                entry["inclusive_s"] += child.total_ns / 1e9
                entry["exclusive_s"] += child.exclusive_ns() / 1e9
                visit(child)

        visit(self.root)
        return aggregated

    def attributed_seconds(self) -> float:
        """Total wall time inside top-level sections (= sum of exclusives)."""
        return sum(child.total_ns for child in self.root.children.values()) / 1e9


def _fraction(part: float, whole: float) -> float:
    return round(part / whole, 4) if whole else 0.0


def build_report(
    profiler: LayerProfiler,
    wall_time_s: float,
    context: Optional[Dict[str, object]] = None,
    meta: Optional[Dict[str, object]] = None,
    unarmed_wall_s: Optional[float] = None,
) -> Dict[str, object]:
    """Assemble the ``ssd-insider.profile/v2`` report document.

    Args:
        profiler: The profiler after the measured (armed) run.
        wall_time_s: Independently measured wall time of the profiled
            region (the coverage check compares attribution against it).
        context: Run description (scenario, seeds, device config...).
        meta: Provenance (git SHA, config hash), as produced by
            :func:`repro.tools.profile.report_meta`.
        unarmed_wall_s: Wall time of the same run with the profiler
            disarmed; the overhead section is ``None`` without it.
    """
    if profiler.depth:
        raise ObservabilityError(
            f"profiler still has {profiler.depth} open section(s); "
            f"close them before building a report"
        )
    layers = profiler.layers()
    attributed = profiler.attributed_seconds()
    ordered = sorted(
        (
            {
                "layer": name,
                "calls": int(stats["calls"]),
                "inclusive_s": round(stats["inclusive_s"], 6),
                "exclusive_s": round(stats["exclusive_s"], 6),
                "exclusive_pct_of_wall": round(
                    100.0 * stats["exclusive_s"] / wall_time_s, 2
                ) if wall_time_s else 0.0,
            }
            for name, stats in layers.items()
        ),
        key=lambda row: row["exclusive_s"], reverse=True,
    )
    device_rows = [row for row in ordered
                   if str(row["layer"]).startswith(DEVICE_PATH_PREFIXES)]
    device_exclusive = sum(row["exclusive_s"] for row in device_rows)
    overhead: Optional[Dict[str, float]] = None
    if unarmed_wall_s is not None:
        overhead = {
            "unarmed_wall_s": round(unarmed_wall_s, 6),
            # Armed wall / unarmed wall - 1: what arming the profiler
            # added to the same replay.
            "fraction_of_wall": round(wall_time_s / unarmed_wall_s - 1.0, 4)
            if unarmed_wall_s else 0.0,
        }
    report: Dict[str, object] = {
        "schema": PROFILE_SCHEMA,
        "context": context or {},
        "wall_time_s": round(wall_time_s, 6),
        "coverage": {
            "attributed_s": round(attributed, 6),
            "fraction_of_wall": _fraction(attributed, wall_time_s),
        },
        "layers": ordered,
        "device_path": {
            "exclusive_s": round(device_exclusive, 6),
            "fraction_of_wall": _fraction(device_exclusive, wall_time_s),
            "top_layers": [row["layer"] for row in device_rows[:3]],
        },
        "tree": profiler.root.as_dict(),
        "overhead": overhead,
    }
    if meta is not None:
        report["meta"] = meta
    return report
