"""Logical-to-physical page mapping table.

A page-level map from LBA to flat PPA.  This is the structure the recovery
algorithm rolls back: restoring an old version of a block is a single entry
update, never a data copy, which is why recovery completes in well under a
second.

Two interchangeable backends live here:

* :class:`MappingTable` — the default **flat-array** backend: a dense
  ``array('q')`` indexed directly by LBA (``-1`` = unmapped), optionally
  paired with a dense PPA→LBA reverse map.  Lookup and update are a
  C-array index instead of a dict hash.
* :class:`DictMappingTable` — the original sparse dict backend, kept as
  the reference implementation for the backend-equivalence oracle (and
  for address spaces too large to back densely).

Both expose the identical contract (``lookup``/``update``/``unmap``/
``is_mapped``/``items``/``mapped_count``/``lba_of``);
:func:`create_mapping_table` picks one by name so the choice threads
through :class:`~repro.ssd.config.SSDConfig` untouched.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import AddressError

#: Sentinel stored in the flat arrays for "no mapping".
UNMAPPED = -1


class MappingTable:
    """Dense LBA -> PPA map over a fixed logical address space.

    Args:
        num_lbas: Size of the logical address space in 4-KB blocks.
        num_ppas: Optional physical address space size; when given, a
            dense PPA -> LBA reverse map is maintained so
            :meth:`lba_of` is O(1) (GC relocation and audits use it).
    """

    #: Backend name stamped into configs/reports.
    backend = "flat"

    def __init__(self, num_lbas: int, num_ppas: Optional[int] = None) -> None:
        if num_lbas < 1:
            raise AddressError(f"logical space must hold >= 1 block, got {num_lbas}")
        self._num_lbas = num_lbas
        self._forward = array("q", [UNMAPPED]) * num_lbas
        self._reverse: Optional[array] = None
        if num_ppas is not None:
            if num_ppas < 1:
                raise AddressError(
                    f"physical space must hold >= 1 page, got {num_ppas}"
                )
            self._reverse = array("q", [UNMAPPED]) * num_ppas
        self._mapped = 0

    @property
    def num_lbas(self) -> int:
        """Size of the logical address space in blocks."""
        return self._num_lbas

    def _check(self, lba: int) -> None:
        if not (0 <= lba < self._num_lbas):
            raise AddressError(f"LBA {lba} out of range [0, {self._num_lbas})")

    def lookup(self, lba: int) -> Optional[int]:
        """PPA currently mapped for ``lba``, or None if unmapped."""
        if not (0 <= lba < self._num_lbas):
            raise AddressError(f"LBA {lba} out of range [0, {self._num_lbas})")
        ppa = self._forward[lba]
        return None if ppa < 0 else ppa

    def is_mapped(self, lba: int) -> bool:
        """True if the LBA currently has a physical page."""
        self._check(lba)
        return self._forward[lba] >= 0

    def update(self, lba: int, ppa: int) -> Optional[int]:
        """Point ``lba`` at ``ppa``; returns the previous PPA (or None)."""
        forward = self._forward
        if not (0 <= lba < self._num_lbas):
            raise AddressError(f"LBA {lba} out of range [0, {self._num_lbas})")
        if ppa < 0:
            raise AddressError(f"PPA must be non-negative, got {ppa}")
        previous = forward[lba]
        forward[lba] = ppa
        reverse = self._reverse
        if reverse is not None:
            if previous >= 0:
                reverse[previous] = UNMAPPED
            reverse[ppa] = lba
        if previous < 0:
            self._mapped += 1
            return None
        return previous

    def unmap(self, lba: int) -> Optional[int]:
        """Remove the mapping for ``lba``; returns the removed PPA (or None)."""
        self._check(lba)
        previous = self._forward[lba]
        if previous < 0:
            return None
        self._forward[lba] = UNMAPPED
        if self._reverse is not None:
            self._reverse[previous] = UNMAPPED
        self._mapped -= 1
        return previous

    def lba_of(self, ppa: int) -> Optional[int]:
        """LBA currently mapped to ``ppa``, or None (O(1) with a reverse map)."""
        reverse = self._reverse
        if reverse is not None:
            if not (0 <= ppa < len(reverse)):
                return None
            lba = reverse[ppa]
            return None if lba < 0 else lba
        for lba, mapped in enumerate(self._forward):
            if mapped == ppa:
                return lba
        return None

    def mapped_count(self) -> int:
        """Number of currently-mapped LBAs."""
        return self._mapped

    def items(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(lba, ppa)`` pairs in ascending LBA order."""
        for lba, ppa in enumerate(self._forward):
            if ppa >= 0:
                yield (lba, ppa)

    def __len__(self) -> int:
        return self._mapped


class DictMappingTable:
    """Sparse LBA -> PPA map — the original dict backend, kept as oracle."""

    backend = "dict"

    def __init__(self, num_lbas: int, num_ppas: Optional[int] = None) -> None:
        if num_lbas < 1:
            raise AddressError(f"logical space must hold >= 1 block, got {num_lbas}")
        self._num_lbas = num_lbas
        self._map: Dict[int, int] = {}
        self._reverse: Dict[int, int] = {}

    @property
    def num_lbas(self) -> int:
        """Size of the logical address space in blocks."""
        return self._num_lbas

    def _check(self, lba: int) -> None:
        if not (0 <= lba < self._num_lbas):
            raise AddressError(f"LBA {lba} out of range [0, {self._num_lbas})")

    def lookup(self, lba: int) -> Optional[int]:
        """PPA currently mapped for ``lba``, or None if unmapped."""
        self._check(lba)
        return self._map.get(lba)

    def is_mapped(self, lba: int) -> bool:
        """True if the LBA currently has a physical page."""
        self._check(lba)
        return lba in self._map

    def update(self, lba: int, ppa: int) -> Optional[int]:
        """Point ``lba`` at ``ppa``; returns the previous PPA (or None)."""
        self._check(lba)
        if ppa < 0:
            raise AddressError(f"PPA must be non-negative, got {ppa}")
        previous = self._map.get(lba)
        self._map[lba] = ppa
        if previous is not None:
            self._reverse.pop(previous, None)
        self._reverse[ppa] = lba
        return previous

    def unmap(self, lba: int) -> Optional[int]:
        """Remove the mapping for ``lba``; returns the removed PPA (or None)."""
        self._check(lba)
        previous = self._map.pop(lba, None)
        if previous is not None:
            self._reverse.pop(previous, None)
        return previous

    def lba_of(self, ppa: int) -> Optional[int]:
        """LBA currently mapped to ``ppa``, or None."""
        return self._reverse.get(ppa)

    def mapped_count(self) -> int:
        """Number of currently-mapped LBAs."""
        return len(self._map)

    def items(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(lba, ppa)`` pairs (unspecified order)."""
        return iter(self._map.items())

    def __len__(self) -> int:
        return len(self._map)


#: Registered mapping backends, by config name.
MAPPING_BACKENDS = {
    "flat": MappingTable,
    "dict": DictMappingTable,
}


def create_mapping_table(
    backend: str, num_lbas: int, num_ppas: Optional[int] = None
):
    """Build a mapping table by backend name (``"flat"`` or ``"dict"``)."""
    try:
        cls = MAPPING_BACKENDS[backend]
    except KeyError:
        raise AddressError(
            f"unknown mapping backend {backend!r}; "
            f"expected one of {sorted(MAPPING_BACKENDS)}"
        ) from None
    return cls(num_lbas, num_ppas=num_ppas)
