"""The paper's Table I: training and testing scenario matrices.

Training combinations never share a ransomware sample with testing ones —
the paper stresses that testing exercises *unknown* ransomware — and every
background-application category appears on both sides.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.workloads.apps import (
    CPU_INTENSIVE,
    HEAVY_OVERWRITE,
    IO_INTENSIVE,
    NORMAL,
)
from repro.workloads.scenario import Scenario

#: "Ransom only" rows carry their own pseudo-category for reporting.
RANSOM_ONLY = "ransom_only"

TRAINING_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("train-ransom-only", ransomware="locky.bbs", app=None,
             category=RANSOM_ONLY),
    Scenario("train-datawiping", ransomware=None, app="datawiping",
             category=HEAVY_OVERWRITE),
    Scenario("train-database", ransomware=None, app="database",
             category=HEAVY_OVERWRITE),
    Scenario("train-cloudstorage", ransomware=None, app="cloudstorage",
             category=HEAVY_OVERWRITE),
    Scenario("train-diskmark-zerber", ransomware="zerber.ufb", app="diskmark",
             category=IO_INTENSIVE),
    Scenario("train-iometer-zerber", ransomware="zerber.ufb", app="iometer",
             category=IO_INTENSIVE),
    Scenario("train-hdtunepro-zerber", ransomware="zerber.ufb", app="hdtunepro",
             category=IO_INTENSIVE),
    Scenario("train-install-locky", ransomware="locky.bdf", app="install",
             category=NORMAL),
    Scenario("train-websurfing-locky", ransomware="locky.bbs", app="websurfing",
             category=NORMAL),
    Scenario("train-outlooksync-locky", ransomware="locky.bdf", app="outlooksync",
             category=NORMAL),
    Scenario("train-windowupdate-locky", ransomware="locky.bdf", app="windowupdate",
             category=NORMAL),
    Scenario("train-p2pdown", ransomware=None, app="p2pdown",
             category=NORMAL),
    Scenario("train-kakaotalk", ransomware=None, app="kakaotalk",
             category=NORMAL),
)

TESTING_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("test-ransom-only", ransomware="wannacry", app=None,
             category=RANSOM_ONLY),
    Scenario("test-cloudstorage-inhouse", ransomware="inhouse-outplace",
             app="cloudstorage", category=HEAVY_OVERWRITE),
    Scenario("test-datawiping-globeimposter", ransomware="globeimposter",
             app="datawiping", category=HEAVY_OVERWRITE),
    Scenario("test-database-inhouse", ransomware="inhouse-inplace",
             app="database", category=HEAVY_OVERWRITE),
    Scenario("test-iometer-cryptoshield", ransomware="cryptoshield",
             app="iometer", category=IO_INTENSIVE),
    Scenario("test-compression-mole", ransomware="mole",
             app="compression", category=CPU_INTENSIVE),
    Scenario("test-videoencode-jaff", ransomware="jaff",
             app="videoencode", category=CPU_INTENSIVE),
    Scenario("test-install-globeimposter", ransomware="globeimposter",
             app="install", category=NORMAL),
    Scenario("test-videodecode-wannacry", ransomware="wannacry",
             app="videodecode", category=NORMAL),
    Scenario("test-outlooksync-mole", ransomware="mole",
             app="outlooksync", category=NORMAL),
    Scenario("test-p2pdown-wannacry", ransomware="wannacry",
             app="p2pdown", category=NORMAL),
    Scenario("test-websurfing-globeimposter", ransomware="globeimposter",
             app="websurfing", category=NORMAL),
)


def training_scenarios() -> List[Scenario]:
    """The Table I training rows."""
    return list(TRAINING_SCENARIOS)


def testing_scenarios(category: str = "") -> List[Scenario]:
    """The Table I testing rows, optionally filtered by category."""
    if not category:
        return list(TESTING_SCENARIOS)
    return [s for s in TESTING_SCENARIOS if s.category == category]


def scenarios_by_name() -> Dict[str, Scenario]:
    """Every Table I scenario, training and testing, keyed by name."""
    return {s.name: s for s in (*TRAINING_SCENARIOS, *TESTING_SCENARIOS)}
