"""Logical-to-physical page mapping table.

A page-level map from LBA to flat PPA.  This is the structure the recovery
algorithm rolls back: restoring an old version of a block is a single entry
update, never a data copy, which is why recovery completes in well under a
second.

:class:`MappingTable` is a dense ``array('q')`` indexed directly by LBA
(``-1`` = unmapped), optionally paired with a dense PPA→LBA reverse map,
so lookup and update are a C-array index instead of a dict hash.  The
sparse dict table it replaced lives on in ``tests/oracles/mapping.py`` as
the equivalence oracle the device soaks compare it against.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional, Sequence, Tuple

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

    def lookup_span(self, lba: int, length: int) -> Sequence[int]:
        """PPAs of ``length`` consecutive LBAs from ``lba``, in order.

        :data:`UNMAPPED` stands for an unmapped LBA.  One slice of the
        table instead of a :meth:`lookup` call per block; an LBA outside
        the logical space raises before anything is returned.
        """
        if not (0 <= lba and lba + length <= self._num_lbas):
            first_bad = lba if not 0 <= lba < self._num_lbas else self._num_lbas
            raise AddressError(
                f"LBA {first_bad} out of range [0, {self._num_lbas})"
            )
        return self._forward[lba:lba + length]

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
