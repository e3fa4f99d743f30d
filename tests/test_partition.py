"""Exact-audience grouping and message construction.

The fixture below is a three-viewer scenario on an 8x4 grid whose tile sets
overlap pairwise and triple-wise; every group and audience is written out
by hand so the expected values are independent of the implementation.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecast import (Message, QualityLadder, audit_allocation,
                      beam_plan_asymptotic, beam_plan_maxmin, beam_plan_mrt,
                      build_messages, build_partition, complete_allocation,
                      compute_tile_set, default_config, derive_trial_seed,
                      sample_channel, solve_quoted_allocation,
                      unicast_messages)
from tilecast.ofdma_alloc import _bisect_waterfill

G1 = {(2, 1), (3, 1), (4, 1), (5, 1),
      (2, 2), (3, 2), (4, 2), (5, 2),
      (2, 3), (3, 3), (4, 3), (5, 3)}
G2 = {(2, 2), (3, 2), (4, 2), (5, 2),
      (2, 3), (3, 3), (4, 3), (5, 3),
      (2, 4), (3, 4), (4, 4), (5, 4)}
G3 = {(4, 2), (5, 2), (6, 2), (7, 2),
      (4, 3), (5, 3), (6, 3), (7, 3),
      (4, 4), (5, 4), (6, 4), (7, 4)}

EXPECTED_GROUPS = {
    (1,): {(2, 1), (3, 1), (4, 1), (5, 1)},
    (2,): {(2, 4), (3, 4)},
    (3,): {(6, 2), (6, 3), (6, 4), (7, 2), (7, 3), (7, 4)},
    (1, 2): {(2, 2), (2, 3), (3, 2), (3, 3)},
    (2, 3): {(4, 4), (5, 4)},
    (1, 2, 3): {(4, 2), (4, 3), (5, 2), (5, 3)},
}

LADDER2 = QualityLadder((1.0e6, 2.5e6))


def test_three_viewer_groups_exact():
    assert build_partition({1: G1, 2: G2, 3: G3}) == EXPECTED_GROUPS


def test_index_set_order():
    # messages follow the groups by size, then by their users, whatever
    # order the dict's keys were inserted in
    qualities = {1: 1, 2: 1, 3: 2}
    want = build_messages(EXPECTED_GROUPS, qualities, LADDER2)
    assert [m.audience for m in want] == [(1,), (2,), (3,), (1, 2)]
    for keys in itertools.permutations(EXPECTED_GROUPS):
        groups = {s: EXPECTED_GROUPS[s] for s in keys}
        assert build_messages(groups, qualities, LADDER2) == want
    # unicast messages follow user order
    msgs = unicast_messages({3: G3, 1: G1, 2: G2}, qualities, LADDER2)
    assert [m.audience for m in msgs] == [(1,), (2,), (3,)]


def test_three_viewer_audiences():
    # (2, 3) gives (2,) at level 1 and (3,) at level 2, and (1, 2, 3)
    # gives (1, 2) and (3,): their tiles join the messages of those
    # audiences, each placed where its first group puts it
    part = build_partition({1: G1, 2: G2, 3: G3})
    msgs = build_messages(part, {1: 1, 2: 1, 3: 2}, LADDER2)
    assert [(m.audience, m.level, m.tile_count) for m in msgs] == [
        ((1,), 1, 4),
        ((2,), 1, 2 + 2),
        ((3,), 2, 6 + 2 + 4),
        ((1, 2), 1, 4 + 4),
    ]


def test_three_viewer_demands():
    part = build_partition({1: G1, 2: G2, 3: G3})
    msgs = build_messages(part, {1: 1, 2: 1, 3: 2}, LADDER2)
    d1, d2 = LADDER2.rates
    assert [m.demand_bits_per_s for m in msgs] == [4 * d1, 4 * d1, 12 * d2,
                                                   8 * d1]
    assert all(m.demand_bits_per_s == m.tile_count * LADDER2.rate(m.level)
               for m in msgs)


def test_every_user_gets_every_tile_once_at_own_level():
    part = build_partition({1: G1, 2: G2, 3: G3})
    qualities = {1: 1, 2: 1, 3: 2}
    msgs = build_messages(part, qualities, LADDER2)
    assert len({m.audience for m in msgs}) == len(msgs)
    for user, tiles in ((1, G1), (2, G2), (3, G3)):
        mine = [m for m in msgs if user in m.audience]
        assert all(m.level == qualities[user] for m in mine)
        assert sum(m.tile_count for m in mine) == len(tiles)


def test_unicast_demands():
    msgs = unicast_messages({1: G1, 2: G2, 3: G3}, {1: 1, 2: 1, 3: 2}, LADDER2)
    d1, d2 = LADDER2.rates
    assert [m.demand_bits_per_s for m in msgs] == [12 * d1, 12 * d1, 12 * d2]
    assert [m.audience for m in msgs] == [(1,), (2,), (3,)]


def test_unicast_skips_empty_sets():
    msgs = unicast_messages({1: G1, 2: set()}, {1: 2, 2: 1}, LADDER2)
    assert [m.audience for m in msgs] == [(1,)]


def test_single_user_partition():
    assert build_partition({1: G1}) == {(1,): G1}


def test_single_user_unicast_equals_multicast():
    part = build_partition({1: G1})
    a = build_messages(part, {1: 2}, LADDER2)
    b = unicast_messages({1: G1}, {1: 2}, LADDER2)
    assert a == b


def test_disjoint_sets_give_singletons_only():
    part = build_partition({1: {(1, 1)}, 2: {(2, 1)}, 3: {(3, 1)}})
    assert set(part) == {(1,), (2,), (3,)}


def test_identical_sets_same_level_single_message():
    part = build_partition({1: G1, 2: G1, 3: G1})
    msgs = build_messages(part, {1: 2, 2: 2, 3: 2}, LADDER2)
    assert len(msgs) == 1
    (m,) = msgs
    assert m.audience == (1, 2, 3)
    assert m.demand_bits_per_s == 12 * LADDER2.rates[1]


def test_empty_input_rejected():
    with pytest.raises(ValueError, match="at least one user"):
        build_partition({})


def test_quality_out_of_range():
    part = build_partition({1: G1})
    with pytest.raises(ValueError):
        build_messages(part, {1: 3}, LADDER2)
    with pytest.raises(ValueError):
        build_messages(part, {1: 0}, LADDER2)


def test_ladder_validation():
    with pytest.raises(ValueError):
        QualityLadder(())
    with pytest.raises(ValueError):
        QualityLadder((1.0, 1.0))
    with pytest.raises(ValueError):
        QualityLadder((2.0, 1.0))
    with pytest.raises(ValueError):
        QualityLadder((0.0, 1.0))
    lad = QualityLadder((1.0, 2.0, 4.0))
    assert lad.levels == 3
    assert lad.rate(3) == 4.0
    with pytest.raises(ValueError):
        lad.rate(4)


def test_message_validation():
    with pytest.raises(ValueError):
        Message(level=1, audience=(), tile_count=1, demand_bits_per_s=1.0)


@st.composite
def _random_tile_sets(draw):
    n_users = draw(st.integers(min_value=1, max_value=5))
    universe = [(c, r) for c in range(1, 5) for r in range(1, 4)]
    sets = {}
    for k in range(1, n_users + 1):
        sets[k] = set(draw(st.lists(st.sampled_from(universe), max_size=8))
                      )
    return sets


@given(_random_tile_sets())
@settings(max_examples=80, deadline=None)
def test_partition_matches_membership_oracle(tile_sets):
    part = build_partition(tile_sets)
    union = set().union(*tile_sets.values()) if tile_sets else set()
    seen = set()
    for subset, tiles in part.items():
        assert tiles
        assert list(subset) == sorted(subset)
        for t in tiles:
            owners = tuple(sorted(k for k, g in tile_sets.items() if t in g))
            assert owners == subset
            assert t not in seen
            seen.add(t)
    assert seen == union


@given(_random_tile_sets(),
       st.lists(st.integers(min_value=1, max_value=3), min_size=5, max_size=5))
@settings(max_examples=80, deadline=None)
def test_messages_cover_demands_exactly(tile_sets, quals):
    ladder = QualityLadder((1.0, 2.0, 3.5))
    qualities = {k: quals[k - 1] for k in tile_sets}
    part = build_partition(tile_sets)
    msgs = build_messages(part, qualities, ladder)
    # tile by tile: each level among a tile's owners sends that tile to
    # the owners at that level, so each audience's tile count is known
    # without the partition
    expected = {}
    for t in set().union(*tile_sets.values()):
        owners = [k for k in sorted(tile_sets) if t in tile_sets[k]]
        for lvl in {qualities[k] for k in owners}:
            audience = tuple(k for k in owners if qualities[k] == lvl)
            expected[audience] = expected.get(audience, 0) + 1
    assert {m.audience: m.tile_count for m in msgs} == expected
    for m in msgs:
        assert {qualities[k] for k in m.audience} == {m.level}
        assert m.demand_bits_per_s == m.tile_count * ladder.rate(m.level)
    # one message per audience, in order of its first group (by size,
    # then by users), levels ascending within a group
    firsts = [tuple(k for k in s if qualities[k] == lvl)
              for s in sorted(part, key=lambda g: (len(g), g))
              for lvl in sorted({qualities[k] for k in s})]
    assert [m.audience for m in msgs] == list(dict.fromkeys(firsts))
    # each user hears its whole tile set once, at its own level
    for k, g in tile_sets.items():
        mine = [m for m in msgs if k in m.audience]
        assert all(m.level == qualities[k] for m in mine)
        assert sum(m.tile_count for m in mine) == len(g)


# ---------------------------------------------------------------------------
# one message per audience relaxes one message per (group, level)
# ---------------------------------------------------------------------------

def _split_messages(part, qualities, ladder):
    """One message per group S and level l within S: the paper's rule."""
    return [Message(level=lvl,
                    audience=tuple(k for k in s if qualities[k] == lvl),
                    tile_count=len(part[s]),
                    demand_bits_per_s=len(part[s]) * ladder.rate(lvl))
            for s in sorted(part, key=lambda g: (len(g), g))
            for lvl in sorted({qualities[k] for k in s})]


@pytest.mark.parametrize("rule", [beam_plan_asymptotic, beam_plan_mrt,
                                  beam_plan_maxmin])
def test_merged_messages_relax_the_split_plan(rule):
    # A split plan, relabelled onto the merged messages (each holds the
    # union of its parts' columns at the same rates), is a valid plan, and
    # water-filling each union at the summed demand costs no more
    cfg = default_config()
    tile_sets = {k: compute_tile_set(u.direction, cfg.tiling)
                 for k, u in enumerate(cfg.users, start=1)}
    qualities = {k: u.quality for k, u in enumerate(cfg.users, start=1)}
    part = build_partition(tile_sets)
    split = _split_messages(part, qualities, cfg.ladder)
    merged = build_messages(part, qualities, cfg.ladder)
    audiences = [m.audience for m in merged]
    assert len(split) == 10 and len(merged) == 5
    ch = sample_channel(derive_trial_seed(cfg.base_seed, 0), cfg.m, cfg.n_sc,
                        len(cfg.users), beta=cfg.beta, noise_w=cfg.noise_w,
                        bandwidth_hz=cfg.bandwidth_hz)

    plan = rule(ch, split)
    alloc = complete_allocation(
        solve_quoted_allocation(split, plan.q, cfg.bandwidth_hz), plan)
    assert audit_allocation(alloc, ch, split) == []
    parts = np.zeros((len(merged), len(split)), dtype=int)
    for i, m in enumerate(split):
        parts[audiences.index(m.audience), i] = 1
    relabelled = replace(alloc, assign=parts @ alloc.assign,
                         power=parts @ alloc.power, rate=parts @ alloc.rate)
    assert audit_allocation(relabelled, ch, merged) == []

    # the oracle's water-fill gives each part the split plan's power
    for i, m in enumerate(split):
        own = _bisect_waterfill(plan.q[i, alloc.assign[i] == 1],
                                m.demand_bits_per_s / cfg.bandwidth_hz, 1.0)[0]
        assert own == pytest.approx(alloc.power[i].sum(), rel=1e-9, abs=0.0)

    merged_q = rule(ch, merged).q
    cost = 0.0
    for j, m in enumerate(merged):
        # one audience, one quote row
        for i in np.flatnonzero(parts[j]):
            assert np.array_equal(plan.q[i], merged_q[j])
        cols = relabelled.assign[j] == 1
        cost += _bisect_waterfill(merged_q[j, cols],
                                  m.demand_bits_per_s / cfg.bandwidth_hz,
                                  1.0)[0]
    assert cost <= alloc.power_sum * (1 + 1e-9)
