"""The sparse dict LBA -> PPA table: oracle for the flat-array backend.

:class:`DictMappingTable` honours the same contract as
:class:`~repro.ftl.mapping.MappingTable` (``lookup``/``update``/``unmap``/
``is_mapped``/``items``/``mapped_count``/``lba_of``) with two plain dicts.
Tests swap it in for the production table with
``monkeypatch.setattr(repro.ftl.base, "MappingTable", DictMappingTable)``
and require the device to behave bit for bit the same.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import AddressError
from repro.ftl.mapping import UNMAPPED


class DictMappingTable:
    """Sparse LBA -> PPA map over a fixed logical address space."""

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

    def lookup_span(self, lba: int, length: int) -> List[int]:
        """PPAs of consecutive LBAs, ``UNMAPPED`` (-1) where unmapped."""
        if length:
            self._check(lba)
            self._check(lba + length - 1)
        return [self._map.get(lba + offset, UNMAPPED)
                for offset in range(length)]

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
