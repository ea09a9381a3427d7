"""The LPM index over structured prefixes: one hash table per prefix length.

This is the routing-table-scale index behind the prefix dimension, in the
textbook "hash table per prefix length" layout (Waldvogel et al., *Scalable
High Speed IP Routing Lookups*, SIGCOMM 1997).  :class:`RadixTrie` keeps:

* one ``dict`` per present prefix length, ``value -> (spec, payload)``;
* the present lengths, longest first, each with its precomputed network
  mask — a lookup probes one dict per present length (two in Tagg
  populations) instead of walking one node per branch point;
* one sorted ``(value, length)`` key list, maintained with :mod:`bisect`.

Three consumers, one structure:

* **LPM** — :meth:`RadixTrie.lookup` resolves an address to its
  most-specific entry (:class:`~repro.dataplane.fib.MultiPrefixFib`).
* **Specifics enumeration** — :meth:`RadixTrie.covered` returns every entry
  inside a covering prefix (:mod:`repro.bgp.aggregation`, and the traffic
  evaluator's inverted destination index, which turns "which destinations
  does this changed prefix touch?" from a scan over all destinations into
  one slice of the key list).
* **Exact-match bookkeeping** — :meth:`insert` / :meth:`remove` /
  :meth:`get` with dict-like semantics.

Determinism: iteration (:meth:`entries`, :meth:`covered`) is ``(value,
length)`` ascending — a pure function of the entry set, independent of
insertion order.  A cover's specifics are contiguous in that order: every
key from ``(cover.value, cover.length)`` up to ``(cover.value + cover.size,
-1)``, because no shorter prefix can start strictly inside the cover.

A length whose last entry is removed leaves the probe list, so lookups
only ever probe lengths that can match.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Tuple

from . import ADDRESS_BITS, PrefixSpec

_MASKS = tuple(
    ((1 << length) - 1) << (ADDRESS_BITS - length) for length in range(ADDRESS_BITS + 1)
)
"""Network mask by prefix length."""

Entry = Tuple[PrefixSpec, object]


class RadixTrie:
    """Structured prefixes → payloads, with LPM and specifics enumeration.

    The key type is :class:`~repro.prefixes.PrefixSpec`; payloads are
    arbitrary.  Re-inserting a key replaces its payload.
    """

    __slots__ = ("_tables", "_probes", "_keys")

    def __init__(self) -> None:
        self._tables: Dict[int, Dict[int, Entry]] = {}
        # (mask, table) per present length, longest first: the LPM probes.
        self._probes: List[Tuple[int, Dict[int, Entry]]] = []
        self._keys: List[Tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, spec: PrefixSpec) -> bool:
        table = self._tables.get(spec.length)
        return table is not None and spec.value in table

    def _reprobe(self) -> None:
        self._probes = [
            (_MASKS[length], self._tables[length])
            for length in sorted(self._tables, reverse=True)
        ]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, spec: PrefixSpec, payload: object) -> None:
        """Store ``payload`` under ``spec`` (replacing any previous value)."""
        table = self._tables.get(spec.length)
        if table is None:
            table = self._tables[spec.length] = {}
            self._reprobe()
        if spec.value not in table:
            insort(self._keys, (spec.value, spec.length))
        table[spec.value] = (spec, payload)

    def remove(self, spec: PrefixSpec) -> bool:
        """Drop the entry for ``spec``; True when one existed."""
        table = self._tables.get(spec.length)
        if table is None or table.pop(spec.value, None) is None:
            return False
        del self._keys[bisect_left(self._keys, (spec.value, spec.length))]
        if not table:
            del self._tables[spec.length]
            self._reprobe()
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def get(self, spec: PrefixSpec) -> Optional[object]:
        """The payload stored under exactly ``spec``, or ``None``."""
        entry = self._tables.get(spec.length, {}).get(spec.value)
        return None if entry is None else entry[1]

    def lookup(self, address: int) -> Optional[Entry]:
        """Longest-prefix match: the most-specific entry containing
        ``address``, as ``(spec, payload)``, or ``None``."""
        for mask, table in self._probes:
            entry = table.get(address & mask)
            if entry is not None:
                return entry
        return None

    def covered(self, cover: PrefixSpec) -> List[Entry]:
        """Every entry equal to or more specific than ``cover``.

        This is specifics enumeration — what aggregation and the traffic
        evaluator's inverted destination index rely on.  Ordered
        ``(value, length)`` ascending, like :meth:`entries`.
        """
        keys = self._keys
        lo = bisect_left(keys, (cover.value, cover.length))
        hi = bisect_left(keys, (cover.value + cover.size, -1), lo)
        tables = self._tables
        return [tables[length][value] for value, length in keys[lo:hi]]

    def entries(self) -> List[Entry]:
        """All live entries, ``(value, length)`` ascending — deterministic."""
        tables = self._tables
        return [tables[length][value] for value, length in self._keys]
