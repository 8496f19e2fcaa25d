"""Property test of the fire graph's union and strike against a reference
partition of Python sets."""

from hypothesis import given, settings, strategies as st

import agefire as af
from test_mfffa import assert_partition, components

# an op is (is_strike, a, b); a and b are reduced mod n
OPS = st.lists(st.tuples(st.booleans(), st.integers(0, 10**6),
                         st.integers(0, 10**6)), max_size=120)


@settings(max_examples=200, deadline=None, database=None)
@given(n=st.integers(1, 40), ops=OPS)
def test_union_and_strike_match_a_reference_partition(n, ops):
    g = af.sample_irg(0.0, n=n, seed=0)
    comp_of = [{v} for v in range(n)]   # vertex -> its shared component set
    for step, (is_strike, a, b) in enumerate(ops, start=1):
        if is_strike:
            g.t = float(step)
            before = g.last_burn.copy()
            comp = comp_of[a % n]
            assert af.strike(g, a % n) == len(comp)
            burned = g.last_burn != before
            assert set(burned.nonzero()[0].tolist()) == comp
            assert (g.last_burn[burned] == g.t).all()
            for v in comp:
                comp_of[v] = {v}
        else:
            i, j = a % n, b % n
            af.add_edge(g, i, j)
            if comp_of[i] is not comp_of[j]:
                joined = comp_of[i] | comp_of[j]
                for v in joined:
                    comp_of[v] = joined
        assert_partition(g)
        assert sorted(map(sorted, components(g).values())) == \
            sorted(sorted(c) for c in {id(c): c for c in comp_of}.values())
