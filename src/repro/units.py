"""Unit constants.

Simulated time is a ``float`` number of seconds throughout the library.
Sizes are integer numbers of bytes, and addresses are integer block (page)
numbers.  This module centralises the conversion constants so magic numbers
never appear at call sites.
"""

# -- time ------------------------------------------------------------------

NS = 1e-9
US = 1e-6
MS = 1e-3
SECOND = 1.0
MINUTE = 60.0

# -- size ------------------------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: The logical block size used by the paper: requests are counted in 4-KB
#: blocks and ``Length`` is expressed in these units.
BLOCK_SIZE = 4 * KIB

