"""Fleet planning: one seed deterministically expands into N device runs.

The reproducibility contract (documented operator-facing in
``docs/fleet.md``) is:

* :meth:`FleetPlan.device_spec` is a **pure function** of
  ``(fleet_seed, index)`` — it never consults global state, the other
  devices, or the shard layout.  Device 1234 of a million-device fleet can
  be re-derived alone, in any process, years later.
* Every stream of randomness is derived through
  :func:`repro.rand.derive_seed` with a distinct label path
  (``fleet-id``, ``fleet-draw``, ``fleet-run``), so adding a knob never
  perturbs an existing one.
* The scenario catalog is referenced *by name*; a
  :class:`ScenarioMix` holds ``(name, weight)`` pairs and resolves them
  lazily so a plan can be shipped to worker processes as a plain dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import WorkloadError
from repro.rand import derive_rng, derive_seed
from repro.workloads.catalog import (
    TESTING_SCENARIOS,
    TRAINING_SCENARIOS,
    scenarios_by_name,
)
from repro.workloads.scenario import Scenario

#: Default logical span of each fleet device, in 4-KB blocks.  Smaller
#: than the single-device experiments' 120k: a fleet trades per-device
#: fidelity for population size (docs/fleet.md discusses the trade).
DEFAULT_NUM_LBAS = 12_000

#: Default per-device simulated run length in seconds.
DEFAULT_DURATION = 30.0

#: Default fraction of app-bearing devices that run the benign variant
#: (sample withheld) — these devices measure the population FAR.
DEFAULT_BENIGN_FRACTION = 0.5

#: Hex digits in a device id (48 bits — collision-free in practice for
#: fleets far beyond a million devices).
DEVICE_ID_DIGITS = 12


@dataclass(frozen=True)
class ScenarioMix:
    """A weighted mix of named catalog scenarios.

    Names are resolved lazily (:meth:`resolve`), not at construction:
    a mix travels to worker processes as plain data, and an unknown name
    surfaces as a *contained* per-device error record rather than sinking
    the fleet.  Operator-facing validation happens once, up front, via
    :meth:`validate` (the CLI calls it).
    """

    entries: Tuple[Tuple[str, float], ...]

    #: Named presets accepted by :meth:`parse`.
    PRESETS = ("testing", "training", "all")

    def __post_init__(self) -> None:
        if not self.entries:
            raise WorkloadError("scenario mix cannot be empty")
        for name, weight in self.entries:
            if weight <= 0:
                raise WorkloadError(
                    f"scenario mix weight for {name!r} must be positive, "
                    f"got {weight}"
                )

    @classmethod
    def parse(cls, spec: str) -> "ScenarioMix":
        """Parse a mix spec string.

        Accepted forms::

            testing                      # preset: the Table I testing rows
            training                     # preset: the training rows
            all                          # preset: both matrices
            name,name2                   # uniform over the listed scenarios
            name:3,name2:1               # explicit weights
        """
        spec = spec.strip()
        if not spec:
            raise WorkloadError("empty scenario mix spec")
        if spec in ("testing", "all", "training"):
            pool = {
                "testing": TESTING_SCENARIOS,
                "training": TRAINING_SCENARIOS,
                "all": (*TRAINING_SCENARIOS, *TESTING_SCENARIOS),
            }[spec]
            return cls(tuple((s.name, 1.0) for s in pool))
        entries: List[Tuple[str, float]] = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" in part:
                name, _, weight_text = part.partition(":")
                try:
                    weight = float(weight_text)
                except ValueError:
                    raise WorkloadError(
                        f"bad weight {weight_text!r} in mix entry {part!r}"
                    ) from None
            else:
                name, weight = part, 1.0
            entries.append((name.strip(), weight))
        return cls(tuple(entries))

    def names(self) -> List[str]:
        """The scenario names in the mix, in entry order."""
        return [name for name, _ in self.entries]

    def resolve(self, name: str) -> Scenario:
        """Look one scenario up by name (raises on unknown names)."""
        catalog = scenarios_by_name()
        if name not in catalog:
            raise WorkloadError(
                f"unknown scenario {name!r} (catalog has "
                f"{len(catalog)} named scenarios)"
            )
        return catalog[name]

    def validate(self) -> None:
        """Fail fast on names the catalog does not know."""
        for name, _ in self.entries:
            self.resolve(name)

    def draw(self, rng) -> str:
        """Weighted draw of one scenario name from ``rng``.

        Uses a single ``rng.random()`` sample against cumulative weights,
        so the draw consumes a fixed amount of the stream regardless of
        mix size — a prerequisite for per-device purity.
        """
        total = sum(weight for _, weight in self.entries)
        point = float(rng.random()) * total
        cumulative = 0.0
        for name, weight in self.entries:
            cumulative += weight
            if point < cumulative:
                return name
        return self.entries[-1][0]

    def to_spec(self) -> str:
        """A string :meth:`parse` accepts that rebuilds this mix."""
        return ",".join(f"{name}:{weight:g}" for name, weight in self.entries)


@dataclass(frozen=True)
class DeviceSpec:
    """One fleet device, fully determined by ``(fleet_seed, index)``.

    Attributes:
        index: Position in the fleet (0-based); the unit of sharding.
        device_id: Stable hex identifier derived from the fleet seed —
            the name operators grep logs and triage queues for.
        scenario: Catalog scenario name this device replays.
        seed: The device's own root seed; scenario build and payload
            generation derive from it and nothing else.
        benign: True when the sample is withheld (FAR-measurement run).
    """

    index: int
    device_id: str
    scenario: str
    seed: int
    benign: bool

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (embedded in fleet records)."""
        return {
            "index": self.index,
            "device_id": self.device_id,
            "scenario": self.scenario,
            "seed": self.seed,
            "benign": self.benign,
        }


@dataclass(frozen=True)
class FleetPlan:
    """Everything a fleet run needs, shippable as a plain dict.

    Attributes:
        devices: Fleet size.
        seed: The fleet seed — the single number the whole population
            derives from.
        mix: Scenario mix devices draw from.
        benign_fraction: Probability an app-bearing device runs benign
            (its scenario's sample withheld) to measure FAR.
        num_lbas: Logical span of each device's scenario.
        duration: Per-device simulated run length (seconds).
        queue_capacity: Recovery-queue entries per device; ``None`` (the
            default) lets the device provision half its over-provisioned
            pages, which keeps pinning from starving GC on small fleet
            geometries.
    """

    devices: int
    seed: int = 0
    mix: ScenarioMix = field(
        default_factory=lambda: ScenarioMix.parse("testing"))
    benign_fraction: float = DEFAULT_BENIGN_FRACTION
    num_lbas: int = DEFAULT_NUM_LBAS
    duration: float = DEFAULT_DURATION
    queue_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise WorkloadError(
                f"fleet needs at least one device, got {self.devices}"
            )
        if not (0.0 <= self.benign_fraction <= 1.0):
            raise WorkloadError(
                f"benign_fraction must be in [0, 1], "
                f"got {self.benign_fraction}"
            )
        if self.num_lbas < 1_000:
            raise WorkloadError(
                f"num_lbas below 1000 leaves no room for a scenario, "
                f"got {self.num_lbas}"
            )
        if self.duration <= 0:
            raise WorkloadError(
                f"duration must be positive, got {self.duration}"
            )

    def validate(self) -> None:
        """Operator-facing early validation (unknown scenario names)."""
        self.mix.validate()

    # -- the reproducibility contract --------------------------------------

    def device_id(self, index: int) -> str:
        """The stable hex id of device ``index``."""
        raw = derive_seed(self.seed, "fleet-id", str(index))
        return format(raw, "016x")[:DEVICE_ID_DIGITS]

    def device_spec(self, index: int) -> DeviceSpec:
        """Derive device ``index`` — pure in ``(self.seed, index)``.

        The draw RNG is keyed by the *index*, the run seed by the
        resulting *device id*: an operator holding only a triage queue
        entry (id + fleet seed) can reproduce the run without knowing the
        index, via :meth:`find_device`.
        """
        if not (0 <= index < self.devices):
            raise WorkloadError(
                f"device index {index} outside fleet of {self.devices}"
            )
        device_id = self.device_id(index)
        rng = derive_rng(self.seed, "fleet-draw", str(index))
        scenario_name = self.mix.draw(rng)
        benign = False
        catalog = scenarios_by_name()
        scenario = catalog.get(scenario_name)
        has_app = scenario.app is not None if scenario is not None else False
        # Burn the benign draw unconditionally so the stream layout (and
        # therefore every later draw) never depends on catalog contents.
        benign_draw = float(rng.random())
        if has_app and benign_draw < self.benign_fraction:
            benign = True
        return DeviceSpec(
            index=index,
            device_id=device_id,
            scenario=scenario_name,
            seed=derive_seed(self.seed, "fleet-run", device_id),
            benign=benign,
        )

    def specs(self) -> Iterator[DeviceSpec]:
        """All device specs, in index order."""
        for index in range(self.devices):
            yield self.device_spec(index)

    def find_device(self, id_prefix: str) -> DeviceSpec:
        """Re-derive a device from an id (or unique id prefix).

        Linear in fleet size — fine for operator use ("re-run device
        7f3 alone"); raises when the prefix is unknown or ambiguous.
        """
        prefix = id_prefix.strip().lower()
        if not prefix:
            raise WorkloadError("empty device id")
        matches: List[int] = []
        for index in range(self.devices):
            if self.device_id(index).startswith(prefix):
                matches.append(index)
                if len(matches) > 1:
                    break
        if not matches:
            raise WorkloadError(
                f"no device with id prefix {id_prefix!r} in this fleet"
            )
        if len(matches) > 1:
            raise WorkloadError(
                f"device id prefix {id_prefix!r} is ambiguous"
            )
        return self.device_spec(matches[0])

    # -- wire form ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (the fleet file's header record)."""
        return {
            "devices": self.devices,
            "seed": self.seed,
            "mix": self.mix.to_spec(),
            "benign_fraction": self.benign_fraction,
            "num_lbas": self.num_lbas,
            "duration": self.duration,
            "queue_capacity": self.queue_capacity,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FleetPlan":
        """Rebuild a plan from its :meth:`to_dict` form."""
        return cls(
            devices=int(payload["devices"]),  # type: ignore[arg-type]
            seed=int(payload["seed"]),  # type: ignore[arg-type]
            mix=ScenarioMix.parse(str(payload["mix"])),
            benign_fraction=float(payload["benign_fraction"]),  # type: ignore[arg-type]
            num_lbas=int(payload["num_lbas"]),  # type: ignore[arg-type]
            duration=float(payload["duration"]),  # type: ignore[arg-type]
            queue_capacity=(
                None if payload.get("queue_capacity") is None
                else int(payload["queue_capacity"])  # type: ignore[arg-type]
            ),
        )


def scenario_category(name: str) -> str:
    """Catalog category of a scenario name ('unknown' when absent)."""
    scenario = scenarios_by_name().get(name)
    return scenario.category if scenario is not None else "unknown"
