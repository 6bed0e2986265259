"""Ranked notification queues.

The paper's pseudo-code manipulates queues with set notation — union,
difference, and ``get_highest_ranked(N, …)``. :class:`RankedQueue`
provides exactly those operations efficiently: a sorted list of
selection keys ``(-rank, published_at, event_id)`` plus an id-keyed
index for O(1) membership, and a companion expiration min-heap so
pruning touches only members actually due.

The key list holds exactly one key per member, so there are no stale
entries to skip or compact. Complexity (M queued, N requested, E
expired):

* ``add`` / ``remove`` / ``reorder``: O(log M) bisection plus an O(M)
  ``memmove`` in C.
* ``top_n`` / ``pop_highest`` / ``highest_ranked``: O(N) list walk
  (O(N log Q) merge over Q queues).
* ``prune_expired``: O(E log M) — a no-op peek when nothing is due.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.broker.message import Notification
from repro.types import EventId

#: Ranked-selection key: rank descending, then oldest first
#: (publication time, then event id for full determinism).
Key = Tuple[float, float, EventId]


def _selection_key(notification: Notification) -> Key:
    """The selection key of ``notification`` at its current rank."""
    return (-notification.rank, notification.published_at, notification.event_id)


class RankedQueue:
    """A queue of notifications ordered by rank (highest first).

    Ties break oldest-first — by publication time, then event id — so
    two equally ranked notifications come out in publication order,
    matching a user reading equally important news oldest-first. The
    tie-break is explicit rather than insertion-order so it survives
    re-queues and holds across queue unions.

    A member is keyed by its rank when it was last added or reordered.
    Notifications are shared objects (the proxy mutates ``rank`` in
    place on a rank change), so a member whose rank changed without a
    :meth:`reorder` is *hidden*: ranked selection and iteration skip it
    until it is re-keyed, while ``len`` and membership still count it.
    """

    __slots__ = ("_keys", "_entries", "_expiry")

    def __init__(self, items: Iterable[Notification] = ()) -> None:
        #: sorted selection keys, exactly one per member.
        self._keys: List[Key] = []
        #: event id -> (stored key, notification).
        self._entries: Dict[EventId, Tuple[Key, Notification]] = {}
        #: min-heap of (expires_at, event_id) for the members that can
        #: expire; entries of removed members are skipped when popped.
        self._expiry: List[Tuple[float, EventId]] = []
        for item in items:
            self.add(item)

    def add(self, notification: Notification) -> None:
        """Insert a notification; re-adding one already present re-keys
        it at its current rank (used after rank changes)."""
        event_id = notification.event_id
        key = (-notification.rank, notification.published_at, event_id)
        keys = self._keys
        entries = self._entries
        old = entries.get(event_id)
        if old is not None:
            del keys[bisect_left(keys, old[0])]
        entries[event_id] = (key, notification)
        insort(keys, key)
        expires_at = notification.expires_at
        if expires_at is not None and (old is None or old[1].expires_at != expires_at):
            heapq.heappush(self._expiry, (expires_at, event_id))

    def remove(self, event_id: EventId) -> Optional[Notification]:
        """Remove by id. Returns the notification or None if absent."""
        entry = self._entries.pop(event_id, None)
        if entry is None:
            return None
        keys = self._keys
        del keys[bisect_left(keys, entry[0])]
        return entry[1]

    def discard(self, notification: Notification) -> Optional[Notification]:
        """Set-notation convenience: ``queue \\ event``."""
        return self.remove(notification.event_id)

    def reorder(self, notification: Notification) -> None:
        """Re-key a member whose rank changed. No-op if absent."""
        if notification.event_id in self._entries:
            self.add(notification)

    def pop_highest(self) -> Optional[Notification]:
        """Remove and return the highest-ranked notification, or None."""
        keys = self._keys
        entries = self._entries
        for index, key in enumerate(keys):
            item = entries[key[2]][1]
            if -key[0] == item.rank:
                del keys[index]
                del entries[key[2]]
                return item
        return None

    def peek_highest(self) -> Optional[Notification]:
        """Return (without removing) the highest-ranked notification."""
        best = self.top_n(1)
        return best[0] if best else None

    def top_n(self, n: int) -> List[Notification]:
        """The ``get_highest_ranked(N, queue)`` of the paper's pseudo-code
        — the N highest-ranked members, without removal."""
        out: List[Notification] = []
        if n <= 0:
            return out
        entries = self._entries
        for key in self._keys:
            item = entries[key[2]][1]
            if -key[0] == item.rank:
                out.append(item)
                if len(out) >= n:
                    break
        return out

    def prune_expired(self, now: float) -> List[Notification]:
        """Drop every expired member, returning them (for accounting).

        Only entries actually due at ``now`` are touched; when nothing
        is due this is a single heap peek.
        """
        expired: List[Notification] = []
        heap = self._expiry
        entries = self._entries
        keys = self._keys
        while heap and heap[0][0] <= now:
            _expires_at, event_id = heapq.heappop(heap)
            entry = entries.get(event_id)
            if entry is None or not entry[1].is_expired(now):
                continue  # removed meanwhile, or re-added with a new deadline
            del entries[event_id]
            del keys[bisect_left(keys, entry[0])]
            expired.append(entry[1])
        return expired

    def next_expiry(self) -> float:
        """A lower bound on the earliest member deadline (``inf`` when
        no member can expire); it may be a removed member's."""
        heap = self._expiry
        return heap[0][0] if heap else math.inf

    def compact(self) -> None:
        """Re-key every member at its current rank (un-hiding members
        mutated in place) and drop removed members' expiry entries."""
        entries = self._entries
        for event_id, (_key, item) in entries.items():
            entries[event_id] = (_selection_key(item), item)
        self._keys = sorted(key for key, _item in entries.values())
        self._expiry = [
            (item.expires_at, event_id)
            for event_id, (_key, item) in entries.items()
            if item.expires_at is not None
        ]
        heapq.heapify(self._expiry)

    def get(self, event_id: EventId) -> Optional[Notification]:
        entry = self._entries.get(event_id)
        return None if entry is None else entry[1]

    def __contains__(self, key: object) -> bool:
        if isinstance(key, Notification):
            return key.event_id in self._entries
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[Notification]:
        """Iterate members in rank order (highest first, oldest first
        within a rank).

        Membership is snapshotted at the first ``next()``; members
        removed or re-keyed mid-iteration are skipped from then on.
        """
        entries = self._entries
        for key in self._keys.copy():
            entry = entries.get(key[2])
            if entry is not None and -key[0] == entry[1].rank:
                yield entry[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankedQueue({len(self._entries)} items)"


def highest_ranked(n: int, *queues: RankedQueue) -> List[Notification]:
    """``get_highest_ranked(N, q1 ∪ q2 ∪ …)`` over several queues.

    Members appearing in multiple queues (which the proxy avoids, but
    set semantics permit) are considered once. Equal ranks come out
    oldest-first regardless of which queue holds them.

    The queues' key lists are merged lazily, so selecting N costs
    O(N log Q) over Q queues, not a sort of the union.
    """
    out: List[Notification] = []
    if n <= 0:
        return out
    tables = [queue._entries for queue in queues]
    seen: Set[EventId] = set()
    for key in heapq.merge(*(queue._keys for queue in queues)):
        event_id = key[2]
        if event_id in seen:
            continue
        for table in tables:
            entry = table.get(event_id)
            if entry is not None and entry[0] is key:
                break
        item = entry[1]
        if -key[0] != item.rank:
            continue  # hidden: rank mutated without a reorder
        seen.add(event_id)
        out.append(item)
        if len(out) >= n:
            break
    return out
