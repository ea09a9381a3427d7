"""Routes: a prefix bound to an AS path with bookkeeping attributes.

Interning
---------

At routing-table scale every speaker holds one candidate :class:`Route` per
(neighbor, prefix) pair, and most of those are *the same value*: a clique
node learns the same (path, next_hop, local_pref) triple for thousands of
prefixes that differ only in the prefix string.  This module therefore
maintains a process-global **intern table** mirroring the
:class:`~repro.bgp.path.AsPath` one: one canonical :class:`Route` per
distinct ``(prefix, path, next_hop, local_pref)`` key.  Simulator code
obtains routes through :func:`intern_route` / :meth:`Route.of`; direct
``Route(...)`` construction stays valid (tests, ad-hoc analysis) and
compares equal to its canonical twin, it just does not share storage.

Pickle support re-interns on load (:meth:`Route.__reduce__`), so routes
crossing a process boundary — parallel sweep workers — land in the
worker's own table and keep the identity fast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .messages import Prefix
from .path import AsPath

LOCAL_NEXT_HOP: Optional[int] = None
"""``next_hop`` of a locally-originated route (traffic is delivered here)."""

DEFAULT_LOCAL_PREF = 100
"""BGP's customary default LOCAL_PREF."""


@dataclass(frozen=True, slots=True, eq=False)
class Route:
    """One candidate route to ``prefix``.

    Attributes
    ----------
    prefix:
        The destination.
    path:
        The AS path *as stored*: exactly what the neighbor advertised (its
        own AS is the head), or the empty path for a local origination.
    next_hop:
        The neighbor the route was learned from, or ``None`` for local.
    local_pref:
        Policy preference; higher wins (standard BGP semantics).  The
        paper's experiments leave every route at the default, making the
        decision purely shortest-path.
    """

    prefix: Prefix
    path: AsPath
    next_hop: Optional[int]
    local_pref: int = DEFAULT_LOCAL_PREF
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if self.next_hop is None and not self.path.is_empty:
            raise ValueError("a non-local route must name its next hop")
        if self.next_hop is not None and self.path.head != self.next_hop:
            raise ValueError(
                f"stored path {self.path!r} must start at next hop {self.next_hop}"
            )
        object.__setattr__(
            self,
            "_hash",
            hash((self.prefix, self.path, self.next_hop, self.local_pref)),
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Route):
            return (
                self.prefix == other.prefix
                and self.local_pref == other.local_pref
                and self.next_hop == other.next_hop
                and self.path == other.path
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Unpickling re-interns (sweep workers rebuild their own table).
        return (
            _unpickle_route,
            (self.prefix, self.path.ases, self.next_hop, self.local_pref),
        )

    @property
    def is_local(self) -> bool:
        """True for a locally-originated route."""
        return self.next_hop is None

    @property
    def hop_count(self) -> int:
        """AS hops to the destination (0 for a local route)."""
        return len(self.path)

    def advertised_by(self, asn: int) -> AsPath:
        """The path this route would carry when ``asn`` re-advertises it."""
        return self.path.prepend(asn)

    @classmethod
    def of(
        cls,
        prefix: Prefix,
        path: AsPath,
        next_hop: Optional[int],
        local_pref: int = DEFAULT_LOCAL_PREF,
    ) -> "Route":
        """The canonical (interned) instance; see :func:`intern_route`."""
        return intern_route(prefix, path, next_hop, local_pref)

    def __repr__(self) -> str:
        origin = "local" if self.is_local else f"via {self.next_hop}"
        return f"Route[{self.prefix} {self.path!r} {origin} lp={self.local_pref}]"


#: The process-global intern table: (prefix, AS tuple, next_hop, local_pref)
#: -> canonical instance.  Strong references, like the AsPath table: the
#: population of distinct route values is bounded by the workload, and a
#: worker reuses them across every trial it runs.
_INTERN_TABLE: Dict[Tuple[Prefix, Tuple[int, ...], Optional[int], int], Route] = {}


def intern_route(
    prefix: Prefix,
    path: AsPath,
    next_hop: Optional[int],
    local_pref: int = DEFAULT_LOCAL_PREF,
) -> Route:
    """The canonical :class:`Route` for the key, validating on first sight.

    Repeated requests return the *same* object, so route equality inside
    RIBs short-circuits on identity and per-prefix Adj-RIB state can be
    shared structurally across prefixes.  The stored path is canonicalized
    through :meth:`AsPath.of`, so an un-interned path argument still lands
    on the shared instance.
    """
    key = (prefix, path.ases, next_hop, local_pref)
    cached = _INTERN_TABLE.get(key)
    if cached is not None:
        return cached
    route = Route(
        prefix=prefix,
        path=AsPath.of(path.ases),
        next_hop=next_hop,
        local_pref=local_pref,
    )
    return _INTERN_TABLE.setdefault(key, route)


def _unpickle_route(
    prefix: Prefix,
    ases: Tuple[int, ...],
    next_hop: Optional[int],
    local_pref: int,
) -> Route:
    """Pickle re-entry point (see :meth:`Route.__reduce__`)."""
    return intern_route(prefix, AsPath.of(ases), next_hop, local_pref)


def route_intern_table_size() -> int:
    """Number of distinct routes currently interned (diagnostics/tests)."""
    return len(_INTERN_TABLE)


def local_route(prefix: Prefix) -> Route:
    """The route a speaker installs when it originates ``prefix``.

    Interned — it is rebuilt on every decision-process pass for an
    originated prefix, so the dict hit matters.
    """
    return intern_route(prefix, AsPath.empty(), LOCAL_NEXT_HOP)
