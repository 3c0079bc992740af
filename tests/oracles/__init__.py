"""Semantics oracles: the obvious implementations the production code replaced.

Each oracle is the slow, obviously correct version of a structure that
``src/repro`` ships in optimised form.  Equivalence tests run both on the
same inputs and require identical results; the package itself imports
none of this.

* :mod:`tests.oracles.reference` — the naive detector (list-scan counting
  table, re-summed window aggregates, slice-by-slice idle gaps) against
  :class:`~repro.core.detector.RansomwareDetector`;
* :mod:`tests.oracles.mapping` — the sparse dict translation table
  against the flat-array :class:`~repro.ftl.mapping.MappingTable`;
* :mod:`tests.oracles.victim` — the brute-force GC victim scan against
  :class:`~repro.ftl.victim_index.VictimIndex`.
"""
