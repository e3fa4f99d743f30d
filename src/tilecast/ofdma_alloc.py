"""Subcarrier assignment and power allocation against fixed power quotes.

Given a per-(message, subcarrier) quote matrix, pick one message per
subcarrier and split power so every message's rate demand is met at minimum
total power.

A single message takes every subcarrier, and its water-fill over all of
them is the optimum, with gap 0. Two or more messages, whatever the
instance's size, go through the Lagrangian dual over per-message
multipliers gamma, D(gamma) = gamma.d - sum_n max_m g_mn(gamma_m), where
g_mn is the gain of granting subcarrier n to message m at its
water-filling power. Every gamma >= 0 makes D(gamma) a lower bound on
the optimum. The max over messages is smoothed by a log-sum-exp at a
temperature, and the smoothed dual is maximized in u = log gamma by
damped Newton steps on its n_msg x n_msg Hessian. The multipliers start
at one per-subcarrier rate for every message, the total demand over the
subcarriers, so each message's share of them follows its demand, and
the temperature, in units of the start's mean top gain, is annealed down
to a fixed floor, each level warm-started from the last and solved to
DUAL_TOL. At the floor, the smoothing's allowance n_sc*tau*ln(n_msg)
stays below GAP_TOL of the bound on the default and paired scenarios.
A level after the first starts at a predictor point, the last level's
optimum moved along the path's tangent in the temperature (Euler
continuation), whenever its smoothed value is finite; only otherwise is
the last point valued at the new temperature. The line search shrinks a
step on the smoothed value alone, to the peak of the quadratic through
the value, the slope and the rejected trial. Each point costs one pass
for its rates, gamma*rate and gains, from the quotes' log2 taken once
per solve, and one softmax, which its value, gradient, Hessian and
tangent all read; the gradient and Hessian are computed once per
accepted step. The exact dual at the final multipliers, or the trivial
bound 0 when it is lower, is the reported bound; the gap between it and
the plan is mostly the problem's integrality gap, which no dual method
closes, so `converged` (gap within GAP_TOL) is honest. A plan whose
water level would pass the water-fill's 2^1000 cap is refused as
infeasible.

The argmax assignment at the final multipliers, repaired so that every
message holds a subcarrier it can use (each starved message by a
shortest augmenting path, every taker trying its columns cheapest first,
so a one-column path steals the cheapest spare one), is then polished by
one best-improvement local search.
The search's passes score the whole neighbourhood with array operations
on two per-message tables of water-fill totals: the flip table (one
column added to or removed from the message's set) and the exchange
table (one owned column traded for another). A message's tables are
rebuilt only when its column set changes. With swaps (n_sc <= 16) every
row is exact, and a rebuild water-fills them all in one batch. Moves
alone (n_sc > 16) read the flip table in closed form where a row's
quotes are all active, k 2^((d + sum log2 q) / k) - sum q, with a bound
on its rounding error, from per-column data padded once per solve; other
rows are exact. Each pass decides in one of two ways. While some table
entry is in closed form, the bounds decide: they certify one move as the
exact tables' first maximum above the acceptance threshold, or certify
that no move clears it. Otherwise exact tables decide, by their first
maximum: the tables were exact to begin with (every pass with swaps),
or the bounds could not decide and every closed-form entry has just been
water-filled exactly. So the search takes the same steps as on exact
tables. The regimes differ only in the exchange table, which swaps and
rotations read. The search runs to a local optimum; its pass bound is a
safety cap whose hit is reported.
`_waterfill_rows` is the one implementation of the water-fill rule, and
`_waterfill_sets` applies it to any batch of column sets: the search's
exact table entries (its totals) and the final fill (its power and rate
rows, and its water levels for the 2^1000 check). A batch packs itself,
with one stable argsort per row of its quotes masked to the set, and is
filled only as wide as its largest set.

A brute-force oracle enumerates all assignments for small instances,
filling each (message, column set) once by bisection; the allocator
itself never enumerates.

Power convention: quotes already contain the antenna count and noise factor,
so a stored per-pair power p gives rate B*log2(1 + p/q); the physical
transmit power of a pair is p divided by the antenna count, applied when the
beam plan is attached.
"""

import itertools
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .channel import _audience
from .scope import shared

LN2 = math.log(2.0)
# smoothing temperatures, in units of the start's mean per-subcarrier top
# gain, which the demand-proportional start puts near the optimum's; the
# last one is the floor the returned multipliers are optimal for
TEMPERATURES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
DUAL_TOL = 1e-2             # a level ends when Newton predicts a rise
                            # below DUAL_TOL * n_sc * temperature
MAX_DUAL_STEPS = 2000       # safety cap on Newton steps per solve
MAX_LOG_STEP = 2.0          # largest change of any log multiplier per step
PASSES_PER_SUBCARRIER = 10  # local-search safety cap, per subcarrier
GAP_TOL = 1e-3              # relative duality gap reported as converged
AUDIT_TOL = 1e-6            # relative slack of audit_allocation's checks
EPS = float(np.finfo(float).eps)


class InfeasibleAllocationError(ValueError):
    """No plan can be found: no assignment can meet the demands
    (structurally infeasible), or the allocator's dual diverged to
    non-finite values, as when the demands need powers past the range of
    floating point."""


@dataclass(frozen=True)
class Allocation:
    """A transmission plan, built once: its fields are frozen, its arrays
    read-only and its diagnostics a read-only mapping, so a kept plan is
    shared as it is, and `dataclasses.replace` makes a changed one.

    assign/power/rate have shape (n_messages, n_sc). power follows the
    quote convention (physical watts are power/m). complete_allocation
    returns the plan with beams and total_power_w = power_sum / m.
    """

    assign: np.ndarray
    power: np.ndarray
    rate: np.ndarray
    power_sum: float
    beams: np.ndarray = None
    total_power_w: float = None
    converged: bool = True
    unique_argmax: bool = True
    iterations: int = 0
    duality_gap: float = 0.0
    dual_bound: float = 0.0
    gamma: np.ndarray = None
    diagnostics: MappingProxyType = field(default_factory=dict)

    def __post_init__(self):
        for name in ("assign", "power", "rate", "beams", "gamma"):
            array = getattr(self, name)
            if array is not None:
                array.setflags(write=False)
        object.__setattr__(self, "diagnostics",
                           MappingProxyType(dict(self.diagnostics)))


def _demands(messages) -> np.ndarray:
    out = []
    for msg in messages:
        d = getattr(msg, "demand_bits_per_s", msg)
        out.append(float(d))
    d = np.asarray(out, dtype=float)
    if not np.all(np.isfinite(d) & (d > 0)):   # NaN fails both tests
        raise ValueError("demands must be finite and positive")
    return d


def _bandwidth(bandwidth) -> float:
    b = float(bandwidth)
    if not (math.isfinite(b) and b > 0):
        raise ValueError("bandwidth must be finite and positive")
    return b


def _waterfill_rows(q_sorted: np.ndarray, demand: np.ndarray):
    """Minimum-power split of each row's demand over that row's quotes.

    Row r of q_sorted (shape (R, n)) holds the quotes of one column set in
    ascending order (ties in column order), padded with inf, and at least
    one of them is finite; demand has shape (R,), is positive and is in
    multiples of the bandwidth, as are the returned rates. The
    closed-form water level sits over the cheapest quotes: the first
    active count whose level fits wins, and every finite quote is active
    when none fits. Returns (power, rate, log2w): power and rate in the
    positions of q_sorted, zero off the active set, and each row's log2
    water level, uncut. Demand is met exactly.
    """
    n_rows, n = q_sorted.shape
    rows = np.arange(n_rows)
    logs = np.log2(q_sorted)
    # candidate log2 water level with the j cheapest quotes active; the
    # level must sit above quote j and not above quote j+1
    cands = ((demand[:, None] + np.add.accumulate(logs, axis=1))
             / np.arange(1, n + 1))
    fits = cands > logs - 1e-15
    fits[:, :-1] &= cands[:, :-1] <= logs[:, 1:] + 1e-15
    fits[rows, np.isfinite(logs).sum(axis=1) - 1] = True  # else all active
    last = fits.argmax(axis=1)
    log2w = cands[rows, last]
    # a Python-float pow per row: np.power may differ from it by an ulp
    level = np.array([2.0 ** v for v in np.minimum(log2w, 1000.0).tolist()])
    on = np.arange(n) <= last[:, None]
    power = np.where(on, np.maximum(0.0, level[:, None] - q_sorted), 0.0)
    rate = np.where(on, log2w[:, None] - logs, 0.0)
    return power, rate, log2w


def _median(values: np.ndarray) -> float:
    """The median of a non-empty 1-d array, bit for bit as `np.median`
    gives it, from one sort: the middle entry, or the mean of the two
    middle ones. `np.median` imports numpy.ma on its first call in a
    process, which costs more than a plan."""
    s = np.sort(values)
    h = s.size // 2
    return float(s[h] if s.size % 2 else (s[h - 1] + s[h]) / 2)


def _assignment_ties(gain: np.ndarray) -> bool:
    """True when every subcarrier has a strict argmax over two or more
    messages."""
    part = np.sort(gain, axis=0)
    top, second = part[-1, :], part[-2, :]
    return bool(np.all(top - second > 1e-12 * (np.abs(top) + 1e-300)))


def _repair_starvation(assigned: np.ndarray, qn: np.ndarray):
    """Give every message a subcarrier it can use (a finite quote).

    Starved messages, in index order, each take the shortest augmenting
    path that `_augmenting_path` finds: the starved message takes a
    column, its owner, left with no other usable column, takes another
    one it can use, and so on until an owner can spare the column taken.
    A one-column path is a direct steal of the starved message's cheapest
    spare usable column. Returns None only when no assignment gives every
    message a usable column.
    """
    own_usable = np.isfinite(qn[assigned, np.arange(assigned.size)])
    held = np.bincount(assigned[own_usable], minlength=qn.shape[0])
    for mi in np.flatnonzero(held == 0):
        # sequential over messages: each path changes the owners' counts
        spare = (held[assigned] > 1) | ~own_usable
        path = _augmenting_path(mi, assigned, qn, spare)
        if path is None:
            return None
        # each column on the path passes to the message before it; only
        # the first taker and the last owner change their usable counts
        held[mi] += 1
        held[assigned[path[-1]]] -= own_usable[path[-1]]
        taker = mi
        for n in path:
            taker, assigned[n] = assigned[n], taker
        own_usable[path] = True
    return assigned


def _augmenting_path(mi, assigned, qn, spare):
    """Columns n1, n2, ... such that mi takes n1, n1's owner takes n2, and
    so on, where every owner but the last has no other usable column and
    the last can spare its column; None when there is none. A
    breadth-first search, so the path is a shortest one; each taker tries
    its usable columns cheapest first, equal quotes in column order."""
    came_from = {}                       # column -> the column its taker holds
    frontier = [(mi, None)]
    while frontier:
        nxt = []
        for taker, via in frontier:
            row = qn[taker]
            order = np.argsort(row, kind="stable")
            for n in order[:np.count_nonzero(np.isfinite(row))].tolist():
                if n in came_from:
                    continue
                came_from[n] = via
                if spare[n]:
                    path = [n]
                    while came_from[path[-1]] is not None:
                        path.append(came_from[path[-1]])
                    return path[::-1]
                # n is the only usable column of its owner, reached for
                # the first time: that owner must take another one
                nxt.append((int(assigned[n]), n))
        frontier = nxt
    return None


def _waterfill_sets(qn: np.ndarray, dn: np.ndarray, owner: np.ndarray,
                    sets: np.ndarray):
    """Exact water-fill of many column sets in one batch.

    Row r splits demand dn[owner[r]] (in multiples of the bandwidth) over
    the columns flagged in sets[r] at quotes qn[owner[r]]. The batch packs
    itself: non-members are masked to inf, one stable argsort per row puts
    its finite quotes first, equal quotes in column order, and the rows
    are cut to the batch's largest set, water-filled and scattered back.
    Returns (power, rate, total, log2w): full-width power and rate rows,
    zero off each set, each row's total power (the sum of its power row)
    and its log2 water level, uncut. A set with no finite quote has zero
    rows, total inf and level -inf. A row's water-fill does not depend on
    the packed width.
    """
    masked = np.where(sets, qn[owner], math.inf)
    order = np.argsort(masked, axis=1, kind="stable")
    count = np.isfinite(masked).sum(axis=1)
    ok = count > 0
    order = order[ok, :max(int(count.max(initial=0)), 1)]
    rows = np.flatnonzero(ok)[:, None]
    power = np.zeros(sets.shape)
    rate = np.zeros(sets.shape)
    level = np.full(ok.shape, -math.inf)
    power[rows, order], rate[rows, order], level[ok] = _waterfill_rows(
        masked[rows, order], dn[owner[ok]])
    return power, rate, np.where(ok, power.sum(axis=1), math.inf), level


def _flip_columns(qn: np.ndarray) -> np.ndarray:
    """The per-column data `_flip_closed_form` reads, padded once per
    solve: for each message, log2 q, |log2 q|, q and the join flag (1 where
    q is usable) at column 0, its own set, where all are zero, and at
    columns 1 + n, where all are zero for an unusable q. Shape
    (n_msg, 4, n_sc + 1)."""
    usable = np.isfinite(qn)
    out = np.zeros((qn.shape[0], 4, qn.shape[1] + 1))
    out[:, 0, 1:] = np.where(usable, np.log2(qn), 0.0)
    out[:, 1, 1:] = np.abs(out[:, 0, 1:])
    out[:, 2, 1:] = np.where(usable, qn, 0.0)
    out[:, 3, 1:] = usable
    return out


def _flip_closed_form(columns: np.ndarray, dn: np.ndarray,
                      assigned: np.ndarray, changed: np.ndarray):
    """Closed-form water-fill totals of each changed message's own set S
    (column 0) and of its flips S XOR {n} (column 1 + n), from the
    `_flip_columns` of the quotes.

    When every quote of a set lies below its water level 2^x, with
    x = (d + L) / k over its k finite quotes, L their sum of log2 and Q
    their sum, the total is k 2^x - Q. A flip changes k, L and Q by one
    term each, and its largest quote follows from S's two largest.
    Returns (total, err, closed), each of shape (changed.size, n_sc + 1):
    where closed is True, total is within err of the `_waterfill_sets`
    total (err is zero for a set with no finite quote, whose total is
    inf); the other rows (a quote within a margin of the level, or a
    level near `_waterfill_rows`'s 2^1000 cap) need an exact water-fill.

    err bounds the rounding of both computations. On either side x is a
    sum of at most n_sc + 2 rounded terms divided by k, so its error is
    below dx = EPS ((n_sc + 10) (A + d) / k + 2 |x|), A being the sum of
    |log2 q| (log2 and exp2 taken as within 4 ulp). Each side's 2^x then
    moves by ln 2 dx relatively, and its sums and differences add
    EPS (n_sc + 8) relative to k 2^x + Q (Q of S plus the flipped quote,
    which a flip may cancel); err is twice that, one share per side. A
    level above the largest quote by a margin of 4 dx + 1e-9 in log2
    makes `_waterfill_rows` take every quote active as well.
    """
    n_sc = assigned.size
    data = columns[changed]
    lg, abs_lg, q, join = data.transpose(1, 0, 2)
    # the members of S; a member leaves (step -1), a usable non-member
    # joins (+1), and an unusable column changes nothing
    on = np.zeros(join.shape, dtype=bool)
    on[:, 1:] = assigned == changed[:, None]
    on &= join > 0
    step = join - 2.0 * on
    log_sum, abs_log_sum, q_sum = (data[:, :3] * on[:, None]).sum(2).T
    count = on.sum(axis=1)[:, None] + step
    # the largest quote: S's largest, or its second where the flip drops
    # the largest, or the joining one
    top2 = np.partition(np.where(on, q, 0.0), -2, axis=1)
    q2, q1 = top2[:, -2:-1], top2[:, -1:]
    qmax = np.where(on & (q == q1), q2, np.maximum(q1, q))

    d = dn[changed][:, None]
    per = np.maximum(count, 1.0)
    x = (d + log_sum[:, None] + step * lg) / per
    level = np.exp2(np.minimum(np.maximum(x, -1000.0), 1000.0))
    total = count * level - (q_sum[:, None] + step * q)
    dx = EPS * ((n_sc + 10) * (abs_log_sum[:, None] + abs_lg + d) / per
                + 2.0 * np.abs(x))
    err = (2.0 * (count * level + q_sum[:, None] + q)
           * (LN2 * dx + EPS * (n_sc + 8)))
    # qmax < 2^(x - margin), as 1 - margin < 2^-margin
    closed = (qmax < level * (1.0 - 1e-9 - 4.0 * dx)) & (np.abs(x) < 999.0)
    empty = count == 0
    total[empty] = math.inf
    err[empty] = 0.0
    closed |= empty
    return total, err, closed


def _first_max(gain: np.ndarray, valid: np.ndarray):
    """Flat index and value of the first maximum over the valid, non-NaN
    entries in C order, the scan order of the neighbourhood; -inf when
    there is none."""
    flat = np.where(valid & ~np.isnan(gain), gain, -math.inf).ravel()
    i = int(np.argmax(flat))
    return i, float(flat[i])


def _local_search(assigned: np.ndarray, qn: np.ndarray, dn: np.ndarray,
                  max_passes: int = None):
    """Best-improvement descent over the assignment.

    Neighbourhood: move one subcarrier to another message, and (on smaller
    instances) swap the owners of two subcarriers, which single moves
    cannot reach when every message holds exactly one, and rotate the
    owners of three. Each pass scores the whole neighbourhood from two
    per-message tables of water-fill totals, rebuilt only for the
    messages whose column set the accepted step changed:

    - flip table F[mi, n]: the total of cols(mi) XOR {n}, which is the
      removal total of a column mi owns and the addition total of one it
      does not;
    - exchange table E[mi, drop, add]: the total of cols(mi) - drop + add,
      built only when swaps are on (n_sc <= 16) and read by swaps and
      rotations alike.

    Every exact entry is one `_waterfill_sets` total: its set is the
    message's own set XORed with row c of a per-solve mask, empty for
    column 0 and flagging column n for column 1 + n; with swaps a rebuild
    fills the own, flip and exchange rows of the changed messages in one
    batch.
    Without swaps, an own or flip total comes from `_flip_closed_form`,
    with an error bound, wherever all its quotes are active, and is exact
    elsewhere; a rebuild gathers each changed message's column data once
    from `_flip_columns`, padded per solve.

    Each pass chooses its move in one of two ways. While some entry is
    in closed form, the bounds decide: a move's gain is known to within
    the sum of its four entries' bounds (plus the gain formula's
    rounding), and the threshold to within its own totals' bounds. When
    exactly one move can reach the best lower bound, and that bound
    clears the threshold, that move is taken; when no move can reach the
    threshold, none is. Otherwise exact tables decide, by the first
    maximum over the valid moves: the tables were exact to begin with
    (every pass with swaps), or the bounds could not decide and one
    batched water-fill has just made every closed-form entry exact.

    The first strict maximum in scan order wins (moves by column then
    message, swaps by column pair, rotations by column triple then
    direction), a later kind only with a strictly greater gain.
    Deterministic. At most max_passes scans run (default
    PASSES_PER_SUBCARRIER * n_sc, a safety bound). Returns (assigned,
    passes, moves, exact_passes): the improved assignment, the
    neighbourhood scans run, the steps accepted (moves == passes > 0 means
    the bound stopped a search that was still improving) and the passes
    whose bounds could not decide, so that exact tables did.
    """
    n_msg, n_sc = qn.shape
    if max_passes is None:
        max_passes = PASSES_PER_SUBCARRIER * n_sc
    assigned = assigned.copy()
    msgs = np.arange(n_msg)
    cols = np.arange(n_sc)
    eye = np.eye(n_sc, dtype=bool)
    usable = np.isfinite(qn)
    do_swaps = n_sc <= 16
    do_cycles = n_sc <= 12 and n_msg >= 3
    # each message's own total (column 0) and flip totals (column 1 + n),
    # with bounds on each entry's distance from its exact value: zero but
    # for the closed-form entries of the move-only search
    table = np.empty((n_msg, n_sc + 1))
    table_err = np.zeros((n_msg, n_sc + 1))
    totals, flip = table[:, 0], table[:, 1:]
    totals_err = table_err[:, 0]
    # row c XORed with a message's own set gives table column c's set
    flip_masks = np.eye(n_sc + 1, n_sc, -1, dtype=bool)
    if do_swaps:
        exch = np.full((n_msg, n_sc, n_sc), math.nan)
    else:
        columns = _flip_columns(qn)
    if do_cycles:
        n1, n2, n3 = np.array(list(itertools.combinations(range(n_sc), 3))).T
        # the column each owner takes, in either direction round the triple
        rotations = ((n3, n1, n2), (n2, n3, n1))

    def make_exact(mi, c):
        # the table entries (mi, c), exact from one batched water-fill
        sets = (assigned == mi[:, None]) ^ flip_masks[c]
        table[mi, c] = _waterfill_sets(qn, dn, mi, sets)[2]
        table_err[mi, c] = 0.0

    def rebuild(changed):
        # each changed message's own set, its flip rows and (with swaps)
        # its exchange rows, in one batched water-fill; without swaps, the
        # closed form where it holds and one batched water-fill elsewhere
        if do_swaps:
            member = assigned == changed[:, None]
            w, d, a = np.nonzero(member[:, :, None] & ~member[:, None, :])
            own_flips = (member[:, None] ^ flip_masks).reshape(-1, n_sc)
            sets = np.concatenate((own_flips, member[w] ^ eye[d] ^ eye[a]))
            owner = np.concatenate((np.repeat(changed, n_sc + 1), changed[w]))
            total = _waterfill_sets(qn, dn, owner, sets)[2]
            n_table = changed.size * (n_sc + 1)
            table[changed] = total[:n_table].reshape(-1, n_sc + 1)
            exch[changed[w], d, a] = total[n_table:]
        else:
            total, err, closed = _flip_closed_form(columns, dn, assigned,
                                                   changed)
            table[changed], table_err[changed] = total, err
            if not closed.all():
                r, c = np.nonzero(~closed)
                make_exact(changed[r], c)

    def choose_move(valid):
        # the flat index and gain of the move the exact tables would take,
        # or None and the acceptance threshold; a move takes column n from
        # its owner a to message b, scanned n then b
        nonlocal exact_passes
        gain = ((totals[assigned] - flip[assigned, cols])[:, None]
                - (flip - totals[:, None]).T)
        thresh = 1e-12 * sum(totals.tolist())
        if table_err.any():
            # the bounds decide if they can: each gain lies within tol of
            # its exact value (its four entries' bounds and the rounding of
            # the gain formula), the threshold within slack of its own. An
            # inf entry is only read by moves whose gain is not finite,
            # which no tolerance can make valid
            entry_tol = np.where(table == math.inf, 0.0,
                                 table_err + 4.0 * EPS * np.abs(table))
            # in scan order (n, b): the tolerance of the entries F[b, n]
            # and T[b] that a move of column n to or from b reads
            side_tol = (entry_tol[:, 1:] + entry_tol[:, :1]).T
            tol = side_tol[cols, assigned][:, None] + side_tol
            gain_valid = np.where(valid, gain, -math.inf)
            lo, hi = gain_valid - tol, gain_valid + tol
            err_sum = float(totals_err.sum())
            slack = (1e-12 * (err_sum + 2 * n_msg * EPS * sum(totals.tolist()))
                     if err_sum > 0 else 0.0)
            # the moves that can still be the exact first maximum; the
            # first maximum of lo is one of them
            i = int(lo.argmax())
            best_lo = lo.flat[i]
            near = hi >= best_lo
            if best_lo > thresh + slack:
                if np.count_nonzero(near) == 1:
                    return i, float(gain.flat[i])
            elif not (near & (hi > thresh - slack)).any():
                return None, thresh
            # near-tied, or too close to the threshold: make every entry
            # exact, and the exact tables decide
            make_exact(*np.nonzero(table_err > 0))
            exact_passes += 1
            return choose_move(valid)
        i, g = _first_max(gain, valid)
        return (i, g) if g > thresh else (None, thresh)

    rebuild(msgs)
    if not np.isfinite(totals).all():
        # a message holds no usable column: the acceptance threshold is
        # inf, so no step can win, and the gains would be inf - inf
        return assigned, min(1, max_passes), 0, 0
    passes = moves = exact_passes = 0
    for _ in range(max_passes):
        passes += 1
        # a column moves from an owner holding others to a message that
        # can use it
        valid = ((np.bincount(assigned)[assigned] > 1)[:, None] & usable.T
                 & (assigned[:, None] != msgs))
        i, best_gain = choose_move(valid)
        best = None if i is None else [divmod(i, n_msg)]

        if do_swaps:
            # a gives n1 to b and takes n2 from it, scanned n1 < n2
            own_total = totals[assigned]
            gain = (((own_total[:, None]
                      - exch[assigned[:, None], cols[:, None], cols[None, :]])
                     + own_total[None, :])
                    - exch[assigned[None, :], cols[None, :], cols[:, None]])
            valid = (np.triu(~eye, 1) & (assigned[:, None] != assigned[None, :])
                     & usable[assigned[None, :], cols[:, None]]
                     & usable[assigned[:, None], cols[None, :]])
            i, g = _first_max(gain, valid)
            if g > best_gain:
                best_gain = g
                n_a, n_b = divmod(i, n_sc)
                best = [(n_a, assigned[n_b]), (n_b, assigned[n_a])]

        if do_cycles:
            # owners o1, o2, o3 of n1, n2, n3 each drop their column and
            # take another of the triple; scanned by triple, then direction
            owners = (assigned[n1], assigned[n2], assigned[n3])
            o1, o2, o3 = owners
            distinct = (o1 != o2) & (o1 != o3) & (o2 != o3)
            gains, valids = [], []
            for takes in rotations:
                g = 0.0
                ok = distinct.copy()
                for o, drop, add in zip(owners, (n1, n2, n3), takes):
                    g = g + (totals[o] - exch[o, drop, add])
                    ok &= usable[o, add]
                gains.append(g)
                valids.append(ok)
            i, g = _first_max(np.stack(gains, axis=1), np.stack(valids, axis=1))
            if g > best_gain:
                c, r = divmod(i, 2)
                best = [(add[c], o[c]) for add, o in zip(rotations[r], owners)]

        if best is None:
            break
        changed = np.array(sorted({int(assigned[n]) for n, _ in best}
                                  | {int(mi) for _, mi in best}))
        for n, mi in best:
            assigned[n] = mi
        moves += 1
        rebuild(changed)
    return assigned, passes, moves, exact_passes


def _gains(gamma: np.ndarray, qn: np.ndarray, log2q: np.ndarray):
    """Dual gain of every (message, subcarrier) pair at multipliers gamma,
    from the quotes and their log2, in one pass.

    The pair's water-filling power is p = max(0, gamma/ln2 - q) and its
    rate r = log2(1 + p/q) = max(0, log2(gamma/ln2) - log2 q), in
    multiples of the bandwidth; the gain is gamma*r - p. A pair is active
    where its rate is positive. Returns (gain, rate, grate), grate =
    gamma*r being the gain's derivative in log gamma; all are zero off the
    active pairs.
    """
    water = gamma / LN2
    rate = np.maximum(np.log2(water)[:, None] - log2q, 0.0)
    grate = gamma[:, None] * rate
    gain = grate - (water[:, None] - qn)
    gain[rate == 0.0] = 0.0
    return gain, rate, grate


def _dual_value(gamma: np.ndarray, gains, dn: np.ndarray, tau: float):
    """The dual with each subcarrier's max over messages replaced by a
    log-sum-exp at temperature tau, at multipliers gamma whose `_gains`
    are gains. Returns (value, parts): parts hold the point and its
    softmax over messages, which `_dual_derivatives` and `_dual_tau_slope`
    read. The value is at most n_sc*tau*ln(n_msg) below the exact dual."""
    top = gains[0].max(axis=0)
    e = np.exp((gains[0] - top) / tau)
    z = e.sum(axis=0)
    value = float(gamma @ dn - (top + tau * np.log(z)).sum())
    return value, (gamma, gains, e / z)


def _dual_derivatives(dn: np.ndarray, tau: float, parts):
    """Gradient and Hessian in u of the smoothed dual, from the parts
    `_dual_value` returned at the same point and temperature. A pair's
    gain has first derivative grate in u, and second grate + gamma/ln2
    where it is active."""
    gamma, (_, rate, grate), share = parts
    curve = np.where(rate > 0.0, grate + gamma[:, None] / LN2, 0.0)
    w1 = share * grate
    size = gamma * dn
    grad = size - w1.sum(axis=1)
    hess = w1 @ w1.T
    hess /= tau
    hess.flat[::gamma.size + 1] = (
        size - (share * curve).sum(axis=1)
        - (w1 * (1.0 - share) * grate).sum(axis=1) / tau)
    return grad, hess


def _dual_tau_slope(tau: float, parts):
    """Derivative in tau of `_dual_derivatives`' gradient, from the parts
    `_dual_value` returned at the same point and temperature:
    sum_n grate_mn share_mn (g_mn - gbar_n) / tau^2, gbar_n being the
    share-weighted mean gain of subcarrier n."""
    _, (gain, _, grate), share = parts
    spread = gain - (share * gain).sum(axis=0)
    return (share * spread * grate).sum(axis=1) / tau ** 2


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _dual_solve(qn: np.ndarray, dn: np.ndarray):
    """Maximize the smoothed dual by damped Newton steps in u = log gamma.

    Starts every message where its cheapest quote carries the same rate,
    the total demand over n_sc (at most 500), so its share of the
    subcarriers follows its demand, and anneals the temperature through
    TEMPERATURES (times the start's mean per-subcarrier top gain),
    warm-starting each level. Every level, the floor too, ends at
    DUAL_TOL: the floor's smoothing already costs up to
    n_sc*tau*ln(n_msg) of the dual, so a tighter stop buys nothing. Each
    step is Newton's on the Hessian with its eigenvalues made negative
    (their magnitude kept), capped at MAX_LOG_STEP per coordinate and
    shrunk until the smoothed value rises enough: to the peak of the
    quadratic through the value, the slope and the rejected trial's
    value, kept within [0.1, 0.5] of the step (a halving when the trial
    is not finite). A trial step costs one value,
    from one `_gains` pass, and the derivatives are taken once per
    accepted step, from the softmax of that value. A level that ends
    above the floor leaves the tangent of the path of optima, du/dtau =
    (-H)^-1 d grad/d tau, from its last Hessian factors and softmax; the
    next level values the point moved along it to the new temperature
    (capped at MAX_LOG_STEP per coordinate) and starts there whenever
    that value is finite. Only otherwise, and at the first level, is the
    last point valued at the new temperature. Returns (gamma, gain, steps,
    evaluations, predictions, tau): the final multipliers, their `_gains`
    gain, the steps taken, the smoothed-dual values computed, the
    predictor points kept and the floor temperature. Raises
    InfeasibleAllocationError when the smoothed value, its gradient or
    its Hessian is not finite, as when the demands need multipliers past
    floating point; the overflows on the way there are not warned about.
    """
    n_msg, n_sc = qn.shape
    log2q = np.log2(qn)
    qmin = np.nanmin(np.where(np.isfinite(qn), qn, np.nan), axis=1)
    u = np.log(LN2 * qmin) + LN2 * min(float(dn.sum()) / n_sc, 500.0)
    gamma = np.exp(u)
    gains = _gains(gamma, qn, log2q)
    scale = float(gains[0].max(axis=0).mean())
    steps = evaluations = predictions = 0
    tau = tangent = None
    for rel in TEMPERATURES:
        last_tau, tau = tau, rel * scale
        value = None
        if tangent is not None:
            du = (tau - last_tau) * tangent
            du *= MAX_LOG_STEP / max(MAX_LOG_STEP, np.abs(du).max())
            pred_gamma = np.exp(u + du)
            pred_gains = _gains(pred_gamma, qn, log2q)
            pred, pred_parts = _dual_value(pred_gamma, pred_gains, dn, tau)
            evaluations += 1
            if math.isfinite(pred):
                u = u + du
                gamma, gains = pred_gamma, pred_gains
                value, parts = pred, pred_parts
                predictions += 1
        if value is None:
            # the first level, or a predictor point past floating point:
            # the last point at the new temperature
            value, parts = _dual_value(gamma, gains, dn, tau)
            evaluations += 1
        while steps < MAX_DUAL_STEPS:
            grad, hess = _dual_derivatives(dn, tau, parts)
            try:
                lam, vec = np.linalg.eigh(-hess)
            except np.linalg.LinAlgError:           # a non-finite Hessian
                lam, vec = np.full(n_msg, math.nan), np.eye(n_msg)
            lam = np.abs(lam)
            lam = np.maximum(lam, 1e-12 * lam.max() + 1e-300)
            proj = vec.T @ grad
            newton = proj / lam
            # squared Newton decrement: twice the rise the step predicts
            decrement = float(proj @ newton)
            # a non-finite value, gradient or Hessian shows in one of these
            if not (math.isfinite(value) and math.isfinite(decrement)
                    and math.isfinite(lam[0])):
                raise InfeasibleAllocationError(
                    f"the allocator's dual diverged after {steps} Newton "
                    f"steps: its smoothed value, gradient or Hessian at "
                    f"temperature {tau:.3g} is not finite")
            if decrement <= 2.0 * DUAL_TOL * n_sc * tau:
                break
            step = vec @ newton
            step *= min(1.0, MAX_LOG_STEP / np.abs(step).max())
            slope = float(grad @ step)
            steps += 1
            for _ in range(40):
                trial_gamma = np.exp(u + step)
                trial_gains = _gains(trial_gamma, qn, log2q)
                trial, trial_parts = _dual_value(trial_gamma, trial_gains,
                                                 dn, tau)
                evaluations += 1
                if trial >= value + 1e-4 * slope:
                    break
                # the peak of value + slope t + c t^2 through the trial at
                # t = 1, where c = trial - value - slope < 0
                shrink = (min(0.5, max(0.1, 0.5 * slope
                                       / (value + slope - trial)))
                          if math.isfinite(trial) else 0.5)
                step *= shrink
                slope *= shrink
            else:
                break                               # no rise left to find
            u = u + step
            gamma, gains = trial_gamma, trial_gains
            value, parts = trial, trial_parts
        # the path's tangent du/dtau = (-H)^-1 d grad/d tau, for the next
        # level's predictor; past the step cap no level moves again, and
        # the last factors may not be this point's
        tangent = None
        if steps < MAX_DUAL_STEPS and rel != TEMPERATURES[-1]:
            dgrad = vec.T @ _dual_tau_slope(tau, parts)
            tangent = vec @ (dgrad / lam)
    return gamma, gains[0], steps, evaluations, predictions, tau


def solve_quoted_allocation(messages, quotes, bandwidth: float) -> Allocation:
    """Minimum-power assignment and power split against a quote matrix.

    Parameters
    ----------
    messages : sequence
        Items with .demand_bits_per_s (or plain demands in bits/s).
    quotes : (n_messages, n_sc) array
        Power quotes; inf marks unusable pairs. Every message needs at
        least one finite quote.
    bandwidth : float
        Per-subcarrier bandwidth in Hz.

    One message takes every subcarrier, an optimum with gap 0. Two or
    more start from the dual's repaired argmax assignment and its local
    search. The plan is flagged converged when its relative duality gap
    is at most GAP_TOL and the local search ended below its safety cap.
    Raises ValueError when a demand or the bandwidth is not finite and
    positive, when the quote rows do not match the demands, or when a
    quote is not positive (+inf marks an unusable pair). Inside a
    `scope.trial_scope`, a call with the same demands, quotes and
    bandwidth as an earlier one gets that call's plan, the same object.
    """
    demands = _demands(messages)
    bandwidth = _bandwidth(bandwidth)
    quotes = np.asarray(quotes, dtype=float)
    key = ("allocation", demands.tobytes(), quotes.shape, quotes.tobytes(),
           bandwidth)
    return shared(key, lambda: _solve_quoted(demands, quotes, bandwidth))


def _quote_shape(demands: np.ndarray, quotes: np.ndarray) -> tuple:
    """(n_msg, n_sc) of a quote matrix with one row per demand and every
    quote positive; raises ValueError otherwise. Both solvers call it."""
    n_msg, n_sc = quotes.shape
    if n_msg != demands.shape[0]:
        raise ValueError("quote rows must match messages")
    if not np.all(quotes > 0):      # NaN and -inf fail; +inf is unusable
        raise ValueError("quotes must be positive")
    return n_msg, n_sc


def _solve_quoted(demands: np.ndarray, quotes: np.ndarray,
                  bandwidth: float) -> Allocation:
    n_msg, n_sc = _quote_shape(demands, quotes)
    finite_any = np.isfinite(quotes).any(axis=1)
    if not finite_any.all():
        raise InfeasibleAllocationError(
            f"message {int(np.argmin(finite_any))} has no usable subcarrier")
    if n_msg > n_sc:
        raise InfeasibleAllocationError(
            f"{n_msg} messages cannot each get one of {n_sc} subcarriers")

    # internal units: quotes in multiples of a reference quote, rates in
    # multiples of B; keeps multipliers O(1) regardless of physical scales
    q_ref = _median(quotes[np.isfinite(quotes)])
    qn = quotes / q_ref
    dn = demands / bandwidth
    msgs = np.arange(n_msg)

    gamma = None
    steps = evaluations = predictions = passes = moves = exact_passes = 0
    if n_msg == 1:
        # the one message holds every subcarrier: no assignment to choose
        assigned = np.zeros(n_sc, dtype=int)
        unique, start = True, "one-message"
    else:
        gamma, gain, steps, evaluations, predictions, tau = _dual_solve(
            qn, dn)
        # the exact dual at any gamma >= 0 bounds the optimum from below
        bound = float(gamma @ dn - gain.max(axis=0).sum())
        unique = _assignment_ties(gain)
        assigned = _repair_starvation(np.argmax(gain, axis=0), qn)
        if assigned is None:
            raise InfeasibleAllocationError("no feasible assignment found")
        assigned, passes, moves, exact_passes = _local_search(assigned, qn,
                                                              dn)
        start = "dual"
    capped = 0 < passes == moves
    # every start gives each message a column it can use, and no search
    # step takes the last one away, so every row's water-fill is feasible
    power, rate, _, level = _waterfill_sets(qn, dn, msgs,
                                            assigned == msgs[:, None])
    # `_waterfill_rows` cuts a level past 2^1000, and the power then falls
    # short of the rate the row claims
    if (level >= 1000.0).any():
        raise InfeasibleAllocationError(
            f"message {int(np.argmax(level))} needs a water level past "
            f"2^1000 times the median quote")

    power = power * q_ref
    power_sum = float(power.sum())
    diagnostics = {"dual_steps": steps, "dual_evaluations": evaluations,
                   "dual_predictions": predictions, "start": start,
                   "local_search_passes": passes, "local_search_moves": moves,
                   "local_search_exact_passes": exact_passes,
                   "local_search_capped": capped}
    if gamma is None:           # one message: the optimum is its own bound
        dual_bound = power_sum
    else:
        # any plan costs at least 0, a bound the dual can fall below
        dual_bound = max(bound, 0.0) * q_ref
        gamma = gamma * q_ref / bandwidth
        diagnostics["dual_temperature"] = tau * q_ref
    gap = float(max(0.0, (power_sum - dual_bound) / max(power_sum, 1e-300)))
    return Allocation(
        assign=(assigned == msgs[:, None]).astype(int),
        power=power, rate=rate * bandwidth, power_sum=power_sum,
        converged=bool(gap <= GAP_TOL and not capped),
        unique_argmax=unique, iterations=steps, duality_gap=gap,
        dual_bound=dual_bound, gamma=gamma, diagnostics=diagnostics)


def _bisect_waterfill(quotes: np.ndarray, demand: float, bandwidth: float):
    """Oracle water-fill: bisection on the log2 water level until
    rate == demand. That log lies in [log2 q_min, log2 q_min + d/B]: at
    the top, the best quote alone carries the demand."""
    q = quotes[np.isfinite(quotes)]
    if q.size == 0:
        return None
    log2q = np.log2(q)
    lo = log2q.min()
    hi = lo + demand / bandwidth

    def rate_at(x):
        return bandwidth * np.maximum(x - log2q, 0.0).sum()

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rate_at(mid) < demand:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14:
            break
    level = np.exp2(hi)
    power = np.where(np.isfinite(quotes), np.maximum(0.0, level - quotes), 0.0)
    return float(power.sum()), power


def brute_force_allocation(messages, quotes, bandwidth: float) -> Allocation:
    """Global optimum by enumerating every subcarrier-to-message map.

    A map costs its messages' totals, summed in message order. A
    message's total on a column set is the power that meets its demand
    exactly, by bisection on its water level, or inf when the set holds
    no usable quote (the empty set too), so such a map is never chosen.
    Each (message, column set) is filled once per call, keyed by its
    column bitmask, and the winning map's rows once more at the end.
    Limited to n_messages**n_sc <= 1e5. Refuses, with ValueError, the
    demands, quotes and bandwidth that `solve_quoted_allocation` refuses.
    """
    demands = _demands(messages)
    bandwidth = _bandwidth(bandwidth)
    quotes = np.asarray(quotes, dtype=float)
    n_msg, n_sc = _quote_shape(demands, quotes)
    if n_msg ** n_sc > 10 ** 5:
        raise ValueError(f"instance too large: {n_msg}^{n_sc} assignments")

    totals = [{} for _ in range(n_msg)]     # per message: bitmask -> total
    best_total = second = math.inf
    best_map = None
    for attempt in itertools.product(range(n_msg), repeat=n_sc):
        masks = [0] * n_msg
        for n, mi in enumerate(attempt):
            masks[mi] |= 1 << n
        total = 0.0
        for mi, mask in enumerate(masks):
            if mask not in totals[mi]:
                cols = [n for n in range(n_sc) if mask >> n & 1]
                wf = _bisect_waterfill(quotes[mi, cols], demands[mi],
                                       bandwidth)
                totals[mi][mask] = math.inf if wf is None else wf[0]
            total += totals[mi][mask]
        if total < best_total * (1.0 - 1e-15):
            second, best_total, best_map = best_total, total, attempt
        elif total < second:
            second = total

    if best_map is None:
        raise InfeasibleAllocationError("every assignment starves some message")

    assign = (np.asarray(best_map) == np.arange(n_msg)[:, None]).astype(int)
    power = np.zeros((n_msg, n_sc))
    rate = np.zeros((n_msg, n_sc))
    for mi in range(n_msg):
        cols = np.flatnonzero(assign[mi])
        pw = _bisect_waterfill(quotes[mi, cols], demands[mi], bandwidth)[1]
        power[mi, cols] = pw
        pos = pw > 0
        rate[mi, cols[pos]] = bandwidth * np.log2(1.0 + pw[pos] / quotes[mi, cols[pos]])
    unique = not (math.isfinite(second) and second - best_total <= 1e-12 * best_total)
    return Allocation(assign=assign, power=power, rate=rate,
                      power_sum=float(best_total), iterations=n_msg ** n_sc,
                      unique_argmax=unique, duality_gap=0.0,
                      dual_bound=float(best_total))


def complete_allocation(alloc: Allocation, plan) -> Allocation:
    """`alloc` with per-subcarrier beams and the physical total power;
    `alloc` itself is left as it is.

    The subcarrier's beam is the assigned message's direction; physical
    total power divides the stored power sum by the antenna count.
    """
    n_sc = alloc.assign.shape[1]
    m = plan.w.shape[2]
    assigned = np.argmax(alloc.assign, axis=0)
    beams = plan.w[assigned, np.arange(n_sc)]
    bad = np.abs(np.linalg.norm(beams, axis=1) - 1.0) > 1e-9
    if bad.any():
        n = int(np.argmax(bad))
        raise ValueError(f"missing or non-unit beam for message {assigned[n]}, subcarrier {n}")
    return replace(alloc, beams=beams, total_power_w=alloc.power_sum / m)


def audit_allocation(alloc: Allocation, ch, messages) -> list:
    """Check a finished plan against every model constraint.

    Returns a list of violation descriptions; empty means the plan is valid.
    """
    assign, power, rate = alloc.assign, alloc.power, alloc.rate
    off = assign == 0
    # the elementwise checks, each flagged per pair, reduced at once
    texts, flags = zip(
        ("assignment not binary", ~(off | (assign == 1))),
        ("some subcarrier not assigned exactly once",
         np.broadcast_to(assign.sum(axis=0) != 1, assign.shape)),
        ("negative or non-finite power", (power < 0) | ~np.isfinite(power)),
        ("negative or non-finite rate", (rate < 0) | ~np.isfinite(rate)),
        ("power on unassigned pair", off & (power > 0)),
        ("rate on unassigned pair", off & (rate > 0)))
    bad = np.stack(flags).any(axis=(1, 2)).tolist()
    problems = [text for text, flagged in zip(texts, bad) if flagged]

    if alloc.beams is None:
        if np.any(rate > 0):
            problems.append("positive rate but no beams")
    else:
        norms = np.linalg.norm(alloc.beams, axis=1)
        if np.any(np.abs(norms - 1.0) > AUDIT_TOL):
            problems.append("non-unit beam")
        h, beta, mask = _audience(ch, messages)
        mi, n = np.nonzero((assign == 1) & (rate > 0))   # the pairs that carry
        g = beta[mi] * np.abs(
            np.einsum("pam,pm->pa", h[mi, n].conj(), alloc.beams[n])) ** 2
        snr = power[mi, n, None] * g / (ch.m * ch.noise_w)
        with np.errstate(invalid="ignore"):  # negative power is flagged above
            user_rates = ch.bandwidth_hz * np.log2(1.0 + snr)
        below = (user_rates < rate[mi, n, None] * (1.0 - AUDIT_TOL)) & mask[mi]
        for p in np.flatnonzero(below.any(axis=1)):
            problems.append(f"user rate below message rate at ({mi[p]}, {n[p]})")

    demands = _demands(messages)
    short = rate.sum(axis=1) < demands * (1.0 - AUDIT_TOL)
    if np.any(short):
        problems.append(f"demand not met for messages {np.flatnonzero(short).tolist()}")
    return problems
