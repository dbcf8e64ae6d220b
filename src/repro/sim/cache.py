"""Set-associative cache model with LRU replacement.

A cache allocates one table of sets and makes a set's list of ways on
the set's first access, so a simulator that touches few sets (most
kernels) builds few lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..arch.machine import CacheConfig


@dataclass
class CacheStatistics:
    """Access counts for one cache instance."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class Cache:
    """A single-level, blocking, set-associative cache with LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self.line_bits = (config.line_bytes - 1).bit_length()
        self.hit_latency = config.hit_latency
        # sets[i] is an ordered list of tags, most recently used last,
        # made on the set's first access (None before it).
        self._sets: List[Optional[List[int]]] = [None] * self.num_sets
        self.stats = CacheStatistics()

    def access(self, address: int) -> int:
        """Access ``address``; returns the added latency in cycles."""
        self.stats.accesses += 1
        line = address >> self.line_bits
        index = line % self.num_sets
        ways = self._sets[index]
        tag = line // self.num_sets
        if ways and ways[-1] == tag:
            return self.hit_latency  # the most recent way: LRU unchanged
        if ways is None:
            ways = self._sets[index] = []
        return self._touch(ways, tag)

    def line(self, address: int) -> Tuple[int, int]:
        """The (set index, tag) of the line holding ``address``."""
        line = address >> self.line_bits
        return line % self.num_sets, line // self.num_sets

    def access_lines(self, lines: Sequence[Tuple[int, int]]) -> None:
        """Access each :meth:`line` of ``lines`` in order, exactly as
        :meth:`access` would, in one call (a block's static fetches)."""
        self.stats.accesses += len(lines)
        sets = self._sets
        for index, tag in lines:
            ways = sets[index]
            if ways is None:
                ways = sets[index] = []
            if not ways or ways[-1] != tag:
                self._touch(ways, tag)

    def _touch(self, ways: List[int], tag: int) -> int:
        """Make ``tag`` the most recent of its set's ``ways``, counting a
        miss if it was absent; returns the access latency."""
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            return self.hit_latency
        self.stats.misses += 1
        ways.append(tag)
        if len(ways) > self.associativity:
            ways.pop(0)
        return self.hit_latency + self.config.miss_penalty

    def reset_statistics(self) -> None:
        self.stats = CacheStatistics()


def make_cache(config: Optional[CacheConfig]) -> Optional[Cache]:
    """Instantiate a cache, or None when the machine does not model one."""
    if config is None:
        return None
    return Cache(config)
