"""Work shared by the trials of one trial index.

Every scheme and sweep point of a trial index sees the same channel
realization, and often the same tile sets, messages and allocation
problems. `harness.run_experiment` plans each index's trials inside one
`trial_scope`; there `shared` builds each key's value once and hands
that one value to the scope's later calls, which only read it. Outside
a scope nothing is kept, and `shared` builds its value on every call.
"""

from contextlib import contextmanager
from contextvars import ContextVar

# the open scope's values by key; None outside a scope
_MEMO = ContextVar("tilecast_trial_memo", default=None)


@contextmanager
def trial_scope():
    """Share work among the calls made in the block; nothing outlives it."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def shared(key, build):
    """`build()`, built once per key inside a trial scope; every call
    with that key gets the same object, so its callers share it and
    never write into it."""
    memo = _MEMO.get()
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]
