"""Work shared by the trials of one run and of one trial index.

`harness.run_experiment` opens one `run_scope` per run and, inside it,
one `trial_scope` per trial index. `shared_by_run` keeps what depends on
the config and the viewers alone, the tile sets and message lists, for
the run; `shared` keeps what depends on the index's channel draw, the
channel, audience channels and allocation problems, for the index. Each
builds a key's value once and hands that one value to its scope's later
calls, which only read it. Outside its scope nothing is kept, and the
value is built on every call.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from functools import partial

# the open scopes' values by key; None outside a scope
_RUN = ContextVar("tilecast_run_memo", default=None)
_MEMO = ContextVar("tilecast_trial_memo", default=None)


@contextmanager
def _scope(memo: ContextVar):
    """Keep `memo`'s values for the block; nothing outlives it."""
    token = memo.set({})
    try:
        yield
    finally:
        memo.reset(token)


def _kept(memo: ContextVar, key, build):
    """`build()`, built once per key inside `memo`'s scope; every call
    with that key gets the same object, so its callers share it and
    never write into it."""
    values = memo.get()
    if values is None:
        return build()
    if key not in values:
        values[key] = build()
    return values[key]


run_scope, shared_by_run = partial(_scope, _RUN), partial(_kept, _RUN)
trial_scope, shared = partial(_scope, _MEMO), partial(_kept, _MEMO)
