"""Exact-audience tile partition and message construction.

Users request overlapping tile sets at per-user quality levels. Tiles are
grouped by exactly-which-users need them; for each group and each quality
level requested inside it, one message is formed whose audience is every
group member at that level. A message's rate demand is the group's tile
count times the per-tile encoding rate of its level.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class QualityLadder:
    """Per-tile encoding rates D_1..D_L in bits/s, strictly increasing."""

    rates: tuple

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
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


@dataclass
class TilePartition:
    """Tiles grouped by the exact set of users that need them.

    groups maps a sorted user tuple S to the nonempty tile set needed by
    exactly the users in S; index_set lists the keys in deterministic order
    (by subset size, then lexicographically).
    """

    groups: dict = field(default_factory=dict)

    @property
    def index_set(self) -> list:
        return sorted(self.groups.keys(), key=lambda s: (len(s), s))

    @property
    def empty(self) -> bool:
        return not self.groups


@dataclass(frozen=True)
class Message:
    """One multicast message: tiles of one partition group at one quality level."""

    subset: tuple          # users whose tile group this is, sorted
    level: int             # quality level l
    audience: tuple        # members of subset requesting exactly level l
    tile_count: int
    demand_bits_per_s: float

    def __post_init__(self):
        if len(self.audience) == 0:
            raise ValueError("message audience must be nonempty")
        if not set(self.audience) <= set(self.subset):
            raise ValueError("audience must be a subset of the group")


def build_partition(tile_sets: dict) -> TilePartition:
    """Group tiles by the exact user subset needing them.

    Parameters
    ----------
    tile_sets : dict
        Maps user id (int) to that user's tile set.

    Each tile in the union lands in exactly one group, keyed by the sorted
    tuple of users whose sets contain it. All-empty input yields an empty
    partition (flagged via .empty).
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
    return TilePartition(groups=groups)


def build_messages(part: TilePartition, qualities: dict, ladder: QualityLadder) -> list:
    """Messages (S, l) for each group S and each level l requested within S.

    qualities maps user id to its level r_k. The audience of (S, l) is
    {k in S : r_k = l}; demand is |P_S| * D_l. Returned in deterministic
    order: groups as in part.index_set, levels ascending.
    """
    for user, r in qualities.items():
        if not (1 <= r <= ladder.levels):
            raise ValueError(f"user {user} quality {r} outside ladder 1..{ladder.levels}")
    messages = []
    for subset in part.index_set:
        tiles = part.groups[subset]
        levels = sorted({qualities[k] for k in subset})
        for lvl in levels:
            audience = tuple(k for k in subset if qualities[k] == lvl)
            messages.append(Message(
                subset=subset,
                level=lvl,
                audience=audience,
                tile_count=len(tiles),
                demand_bits_per_s=len(tiles) * ladder.rate(lvl),
            ))
    return messages


def unicast_messages(tile_sets: dict, qualities: dict, ladder: QualityLadder) -> list:
    """One single-user message per user covering its whole tile set: the
    message rule of `build_messages` over one-user groups, in user order.

    Users with empty tile sets are omitted (nothing to send).
    """
    part = TilePartition({(user,): tiles
                          for user, tiles in tile_sets.items() if tiles})
    return build_messages(part, qualities, ladder)
