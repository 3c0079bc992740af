"""Background application workloads and their registry.

Each entry reproduces the header-level I/O signature of one application
from the paper's Table I, tagged with the paper's application-type category
(heavy-overwriting, IO-intensive, CPU-intensive, normal) and with the
slowdown it imposes on a co-running ransomware (CPU/IO contention stretches
the ransomware's schedule — §V-B's "they interfered with ransomware to slow
down the speed of overwriting").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.workloads.apps.antivirus import AntivirusApp
from repro.workloads.apps.browser import BrowserApp
from repro.workloads.apps.cloud import CloudStorageApp
from repro.workloads.apps.compression import CompressionApp
from repro.workloads.apps.database import DatabaseApp
from repro.workloads.apps.defrag import DefragApp
from repro.workloads.apps.install import InstallApp
from repro.workloads.apps.iostress import IoStressApp
from repro.workloads.apps.mail import MailSyncApp
from repro.workloads.apps.messenger import MessengerApp
from repro.workloads.apps.osupdate import OsUpdateApp
from repro.workloads.apps.p2p import P2PApp
from repro.workloads.apps.video import VideoDecodeApp, VideoEncodeApp
from repro.workloads.apps.wiping import DataWipingApp
from repro.workloads.base import LbaRegion, Workload

#: Table I application-type categories (also the Fig. 7 panel grouping).
HEAVY_OVERWRITE = "heavy_overwrite"
IO_INTENSIVE = "io_intensive"
CPU_INTENSIVE = "cpu_intensive"
NORMAL = "normal"

CATEGORIES = (HEAVY_OVERWRITE, IO_INTENSIVE, CPU_INTENSIVE, NORMAL)


@dataclass(frozen=True)
class AppSpec:
    """Registry entry: how to build an app and how it perturbs ransomware."""

    key: str
    category: str
    factory: Callable[..., Workload]
    #: Time-dilation factor applied to a co-running ransomware's schedule.
    ransomware_slowdown: float = 1.0
    #: Human-readable name as Table I prints it.
    display: str = ""


def _stress(tool: str) -> Callable[..., Workload]:
    def build(region: LbaRegion, **kwargs) -> Workload:
        return IoStressApp(region, tool=tool, **kwargs)

    return build


APP_REGISTRY: Dict[str, AppSpec] = {
    spec.key: spec
    for spec in (
        AppSpec("datawiping", HEAVY_OVERWRITE, DataWipingApp, 1.6,
                "WPM (DataWiping)"),
        AppSpec("database", HEAVY_OVERWRITE, DatabaseApp, 1.5,
                "MySQL (Database)"),
        AppSpec("cloudstorage", HEAVY_OVERWRITE, CloudStorageApp, 1.3,
                "Dropbox (CloudStorage)"),
        AppSpec("iometer", IO_INTENSIVE, _stress("iometer"), 2.0,
                "IOMeter (IOStress)"),
        AppSpec("diskmark", IO_INTENSIVE, _stress("diskmark"), 2.0,
                "DiskMark (IOStress)"),
        AppSpec("hdtunepro", IO_INTENSIVE, _stress("hdtunepro"), 2.0,
                "hdtunepro (IOStress)"),
        AppSpec("compression", CPU_INTENSIVE, CompressionApp, 1.8,
                "Bandizip (Compression)"),
        AppSpec("videoencode", CPU_INTENSIVE, VideoEncodeApp, 1.5,
                "PotEncoder (VideoEncode)"),
        AppSpec("videodecode", NORMAL, VideoDecodeApp, 1.1,
                "PotPlayer (VideoDecode)"),
        AppSpec("install", NORMAL, InstallApp, 1.3,
                "AutoCAD/VS (Install)"),
        AppSpec("websurfing", NORMAL, BrowserApp, 1.1,
                "Chrome (WebSurfing)"),
        AppSpec("outlooksync", NORMAL, MailSyncApp, 1.1,
                "OutlookSync"),
        AppSpec("p2pdown", NORMAL, P2PApp, 1.2,
                "BitTorrent (P2PDown)"),
        AppSpec("kakaotalk", NORMAL, MessengerApp, 1.0,
                "Kakaotalk (SQLite)"),
        AppSpec("windowupdate", NORMAL, OsUpdateApp, 1.2,
                "WindowUpdate"),
        # Beyond Table I: workloads SS III-A names when motivating the
        # features, registered for FAR stress tests and custom scenarios.
        AppSpec("defrag", HEAVY_OVERWRITE, DefragApp, 1.4,
                "Defragmenter"),
        AppSpec("antivirus", IO_INTENSIVE, AntivirusApp, 1.5,
                "Anti-virus full scan"),
    )
}


__all__ = [
    "APP_REGISTRY",
    "AppSpec",
    "BrowserApp",
    "CATEGORIES",
    "CPU_INTENSIVE",
    "AntivirusApp",
    "CloudStorageApp",
    "CompressionApp",
    "DataWipingApp",
    "DatabaseApp",
    "DefragApp",
    "HEAVY_OVERWRITE",
    "IO_INTENSIVE",
    "InstallApp",
    "IoStressApp",
    "MailSyncApp",
    "MessengerApp",
    "NORMAL",
    "OsUpdateApp",
    "P2PApp",
    "VideoDecodeApp",
    "VideoEncodeApp",
]
