"""Exact-audience tile partition and message construction.

Users request overlapping tile sets at per-user quality levels. Tiles are
grouped by exactly-which-users need them. Each group S and level l
requested inside it gives the audience {k in S : r_k = l}, and several
groups can give the same audience. One message is formed per distinct
audience: it carries every tile that exactly that audience needs at its
level, and its rate demand is that tile count times the per-tile encoding
rate of the level.
"""

from dataclasses import dataclass

from .geometry import _as_float


@dataclass(frozen=True)
class QualityLadder:
    """Per-tile encoding rates D_1..D_L in bits/s, strictly increasing."""

    rates: tuple

    def __post_init__(self):
        rates = tuple(_as_float("rates", r) for r in self.rates)
        object.__setattr__(self, "rates", rates)
        if len(rates) == 0:
            raise ValueError("ladder must have at least one level")
        if any(r <= 0 for r in rates):
            raise ValueError("encoding rates must be positive")
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("encoding rates must be strictly increasing")

    @property
    def levels(self) -> int:
        return len(self.rates)

    def rate(self, level: int) -> float:
        if not (1 <= level <= len(self.rates)):
            raise ValueError(f"quality level {level} outside 1..{len(self.rates)}")
        return self.rates[level - 1]


@dataclass(frozen=True)
class Message:
    """One multicast message: every tile one audience needs at one level."""

    level: int             # quality level l
    audience: tuple        # the users of a group at level l
    tile_count: int
    demand_bits_per_s: float

    def __post_init__(self):
        if len(self.audience) == 0:
            raise ValueError("message audience must be nonempty")


def build_partition(tile_sets: dict) -> dict:
    """Group tiles by the exact user subset needing them.

    Parameters
    ----------
    tile_sets : dict
        Maps user id (int) to that user's tile set.

    Returns a dict from the sorted tuple of users whose sets contain a
    tile to the set of those tiles; each tile in the union lands in
    exactly one group. All-empty input yields an empty dict.
    """
    if len(tile_sets) < 1:
        raise ValueError("need at least one user")
    owners = {}
    for user, tiles in tile_sets.items():
        for t in tiles:
            owners.setdefault(t, set()).add(user)
    groups = {}
    for tile, users in owners.items():
        key = tuple(sorted(users))
        groups.setdefault(key, set()).add(tile)
    return groups


def build_messages(groups: dict, qualities: dict, ladder: QualityLadder) -> list:
    """One message per distinct audience {k in S : r_k = l} over the groups
    S of `groups` (as `build_partition` returns) and the levels l
    requested within them.

    qualities maps user id to its level r_k. A message's tile count is the
    sum of |P_S| over the groups that give its audience, and its demand is
    that count times D_l. Returned in order of first appearance, whatever
    order `groups` iterates in: groups by size, then by their users, and
    levels ascending within a group.
    """
    for user, r in qualities.items():
        if not (1 <= r <= ladder.levels):
            raise ValueError(f"user {user} quality {r} outside ladder 1..{ladder.levels}")
    merged = {}             # audience -> [level, tile count]
    for subset in sorted(groups, key=lambda s: (len(s), s)):
        for lvl in sorted({qualities[k] for k in subset}):
            audience = tuple(k for k in subset if qualities[k] == lvl)
            merged.setdefault(audience, [lvl, 0])[1] += len(groups[subset])
    return [Message(level=lvl, audience=audience, tile_count=n,
                    demand_bits_per_s=n * ladder.rate(lvl))
            for audience, (lvl, n) in merged.items()]


def unicast_messages(tile_sets: dict, qualities: dict, ladder: QualityLadder) -> list:
    """One single-user message per user covering its whole tile set: the
    message rule of `build_messages` over one-user groups, in user order.

    Users with empty tile sets are omitted (nothing to send).
    """
    return build_messages({(user,): tiles for user, tiles in tile_sets.items()
                           if tiles}, qualities, ladder)
