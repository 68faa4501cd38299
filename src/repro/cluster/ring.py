"""Consistent-hash ring with virtual nodes.

Provides the two primitives the paper uses from the key/value layer:

- *home node* of a key — the node owning the first token at or after the
  key's token, wrapping around (O(1)-hop DHT routing: every node knows
  the full ring via gossip, as in Dynamo);
- *ring successors* of a node — the distinct nodes following it on the
  ring, used for MOVE's successor-based placement of allocated filters
  (Section V).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import RingEmptyError, UnknownNodeError
from .partitioner import RandomPartitioner


class ConsistentHashRing:
    """Token ring mapping keys to node ids.

    Each node contributes ``vnodes`` tokens derived from its id, which
    smooths ownership imbalance (classic consistent hashing result).
    Removal (node failure/decommission) reassigns ranges implicitly.
    """

    #: Safety valve for the home-node memo: adversarially unbounded key
    #: streams cannot grow the cache past this (real vocabularies stay
    #: far below it).
    HOME_CACHE_MAX = 1 << 20

    def __init__(
        self,
        partitioner: Optional[RandomPartitioner] = None,
        vnodes: int = 32,
    ) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.partitioner = partitioner or RandomPartitioner()
        self.vnodes = vnodes
        self._tokens: List[int] = []
        self._token_owner: Dict[int, str] = {}
        self._members: Set[str] = set()
        #: key -> owning node memo; correct as long as membership is
        #: unchanged, so any token mutation clears it.
        self._home_cache: Dict[str, str] = {}
        #: Disabled, every lookup hashes + bisects as the seed
        #: implementation did — the slow oracle the benchmarks and
        #: equivalence tests compare the cached path against.
        self.cache_enabled = True

    def _invalidate_home_cache(self) -> None:
        if self._home_cache:
            self._home_cache.clear()

    # -- membership -----------------------------------------------------

    def add_node(self, node_id: str) -> None:
        """Insert ``node_id`` with its virtual tokens."""
        if node_id in self._members:
            return
        self._members.add(node_id)
        for vnode_index in range(self.vnodes):
            token = self.partitioner.token(f"{node_id}#vnode{vnode_index}")
            # MD5 collisions across distinct vnode labels are not a
            # realistic concern, but keep ownership deterministic anyway.
            if token in self._token_owner:
                continue
            bisect.insort(self._tokens, token)
            self._token_owner[token] = node_id
        self._invalidate_home_cache()

    def remove_node(self, node_id: str) -> None:
        """Remove ``node_id`` and all of its virtual tokens.

        Token cleanup happens first and membership is discarded last,
        so a failure partway through never leaves a member whose tokens
        are gone; one pass over ``_tokens`` rebuilds the sorted list
        and prunes ``_token_owner`` in place.
        """
        if node_id not in self._members:
            raise UnknownNodeError(node_id)
        kept: List[int] = []
        for token in self._tokens:
            if self._token_owner[token] == node_id:
                del self._token_owner[token]
            else:
                kept.append(token)
        self._tokens = kept
        self._members.discard(node_id)
        self._invalidate_home_cache()

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._members

    def __len__(self) -> int:
        return len(self._members)

    @property
    def members(self) -> Set[str]:
        return set(self._members)

    # -- lookups ----------------------------------------------------------

    def home_node(self, key: str) -> str:
        """The node owning ``key`` (first token at/after key's token).

        Lookups are memoized per key (an MD5 plus a bisect saved on
        every repeat); the memo is invalidated whenever ring
        membership changes and can be switched off entirely via
        :attr:`cache_enabled` to recover the uncached reference
        behaviour.
        """
        if not self._tokens:
            raise RingEmptyError("ring has no members")
        if self.cache_enabled:
            cached = self._home_cache.get(key)
            if cached is not None:
                return cached
        token = self.partitioner.token(key)
        index = bisect.bisect_left(self._tokens, token)
        if index == len(self._tokens):
            index = 0
        owner = self._token_owner[self._tokens[index]]
        if self.cache_enabled:
            if len(self._home_cache) >= self.HOME_CACHE_MAX:
                self._home_cache.clear()
            self._home_cache[key] = owner
        return owner

    def successors(
        self, node_id: str, count: int, include_self: bool = False
    ) -> List[str]:
        """Up to ``count`` distinct nodes following ``node_id``'s first
        token on the ring, in ring order.

        This is the walk Cassandra's simple replication strategy performs
        and the paper's "ring-based successors" placement option.
        """
        if node_id not in self._members:
            raise UnknownNodeError(node_id)
        if count <= 0:
            return []
        anchor = self.partitioner.token(f"{node_id}#vnode0")
        start = bisect.bisect_right(self._tokens, anchor)
        found: List[str] = []
        seen: Set[str] = set() if include_self else {node_id}
        for offset in range(len(self._tokens)):
            token = self._tokens[(start + offset) % len(self._tokens)]
            owner = self._token_owner[token]
            if owner in seen:
                continue
            seen.add(owner)
            found.append(owner)
            if len(found) >= count:
                break
        return found

    # -- diagnostics --------------------------------------------------------

    def ownership_fractions(self) -> Dict[str, float]:
        """Fraction of the token space owned by each member."""
        if not self._tokens:
            return {}
        fractions: Dict[str, float] = {node: 0.0 for node in self._members}
        space = self.partitioner.TOKEN_SPACE
        for index, token in enumerate(self._tokens):
            previous = self._tokens[index - 1]
            span = (token - previous) % space
            if span == 0 and len(self._tokens) == 1:
                span = space
            fractions[self._token_owner[token]] += span / space
        return fractions
