"""Twins read alike: the MRDT and the CRDT form of one counter give the same
value at every node of every history.

Each form is otherwise checked only against itself, so a fault that both the
form and its own laws accept (an ``apply`` that counts 2, say) passes the
suite; the other form's reading of the same history catches it.  Histories
are the 2-replica sweep to 4 events and 200 seeded random 8-event histories.
"""

import random

import pytest

from salcheck.catalog import catalog_get, payload_pool, pn_value, pn_vec_value, vec_value
from salcheck.history import random_recipe, run_recipe, sweep_walk

# (mrdt id, its read, crdt id, its read)
TWINS = [
    ("ctr-inc-mrdt", int, "ctr-inc-crdt", vec_value),
    ("pn-ctr-mrdt", pn_value, "pn-ctr-crdt", pn_vec_value),
]


@pytest.mark.parametrize("mrdt_id, read_mrdt, crdt_id, read_crdt", TWINS,
                         ids=[t[0].removesuffix("-mrdt") for t in TWINS])
def test_counter_twins_read_alike_at_every_node(mrdt_id, read_mrdt, crdt_id, read_crdt):
    mrdt, crdt = catalog_get(mrdt_id).spec, catalog_get(crdt_id).spec
    pool = payload_pool(mrdt)
    assert payload_pool(crdt) == pool

    def reads_agree(states, twin_states, context):
        assert [read_mrdt(s) for s in states] == [read_crdt(s) for s in twin_states], context

    n = 0
    for (g, steps), (twin, _) in zip(sweep_walk(pool, 4, 2, 1, mrdt),
                                      sweep_walk(pool, 4, 2, 1, crdt)):
        reads_agree(g.states, twin.states, steps)
        n += 1
    assert n == sum(1 for _ in sweep_walk(pool, 4, 2, 1)) > 1
    rng = random.Random(f"twins/{mrdt_id}")
    for _ in range(200):
        recipe = random_recipe(rng, pool, 8, 2, max_joins=2)
        reads_agree(run_recipe(mrdt, recipe).states, run_recipe(crdt, recipe).states, recipe)
