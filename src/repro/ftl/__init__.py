"""Flash Translation Layer implementations.

* :class:`~repro.ftl.conventional.ConventionalFTL` — the baseline
  page-mapping FTL with greedy garbage collection (the "Conventional SSD"
  series of the paper's Fig. 9).
* :class:`~repro.ftl.insider.InsiderFTL` — the SSD-Insider FTL: it logs every
  overwrite into a :class:`~repro.ftl.recovery_queue.RecoveryQueue`, pins the
  superseded physical pages against garbage collection for the detection
  window, and can roll the mapping table back to the pre-attack state by
  updating mapping entries only (Fig. 5).
"""

from repro.ftl.conventional import ConventionalFTL
from repro.ftl.gc import GcPolicy
from repro.ftl.insider import InsiderFTL, RollbackReport
from repro.ftl.mapping import MappingTable
from repro.ftl.recovery_queue import BackupEntry, RecoveryQueue
from repro.ftl.stats import FtlStats
from repro.ftl.victim import VictimPolicy
from repro.ftl.victim_index import VictimIndex

__all__ = [
    "BackupEntry",
    "ConventionalFTL",
    "FtlStats",
    "GcPolicy",
    "InsiderFTL",
    "MappingTable",
    "RecoveryQueue",
    "RollbackReport",
    "VictimIndex",
    "VictimPolicy",
]
