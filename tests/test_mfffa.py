"""Stochastic fire-graph simulation: sampling, dynamics, estimators."""

import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import itertools

import numpy as np
import pytest
from scipy import stats

import agefire as af
from agefire.evolution import checkpoint_times
from agefire.mfffa import (FireGraph, SimRecord, _int64_buffer, _partition,
                           _sorted_irg_edges, _vertex_pairs)


def edge_count_stats(n, ages):
    """Mean and variance of the edge count for the age-driven random graph."""
    a = np.asarray(ages, dtype=float)
    mean = var = 0.0
    for i in range(n - 1):
        p = -np.expm1(-np.minimum(a[i], a[i + 1:]) / n)
        mean += p.sum()
        var += (p * (1 - p)).sum()
    return mean, var


def _dense_irg(ages, seed):
    """Reference sampler of the age-driven random graph: the O(n^2)
    Bernoulli sweep.  Row i draws one uniform per later vertex j and joins
    those below 1 - exp(-min(a_i, a_j) / n); a row of age 0 draws
    nothing.  The ``"dense"`` entry of ``PINNED_RUNS`` pins its stream."""
    ages = np.asarray(ages, dtype=float)
    n = ages.size
    g = FireGraph(n=n, last_burn=-ages, root=_int64_buffer(np.arange(n)),
                  succ=_int64_buffer(np.arange(n)),
                  size=_int64_buffer(np.ones(n)), edge_count=0, t=0.0,
                  rng=np.random.default_rng(seed))
    for i in range(n - 1):
        if ages[i] == 0.0:
            continue
        p = -np.expm1(-np.minimum(ages[i], ages[i + 1:]) / n)
        hits = np.flatnonzero(g.rng.random(n - 1 - i) < p)
        for off in hits:
            af.add_edge(g, i, i + 1 + int(off))
        g.edge_count += hits.size
    return g


def tree_roots(g):
    """(the root of each vertex's tree in the ``root`` forest, the depth
    of the deepest tree), by stepping every vertex up one parent at a time;
    a forest deeper than n (a cycle of parents) fails."""
    parent = np.asarray(g.root)
    label, depth = np.arange(g.n), 0
    while not np.array_equal(parent[label], label):
        label, depth = parent[label], depth + 1
        assert depth <= g.n
    return label, depth


def components(g):
    """{root: the vertices met walking ``succ`` from the root, in walk
    order}; a walk that does not return to its root within n steps
    fails."""
    comps = {}
    for r in range(g.n):
        if g.root[r] == r:
            walk, u = [r], g.succ[r]
            while u != r:
                walk.append(u)
                assert len(walk) <= g.n
                u = g.succ[u]
            comps[r] = walk
    return comps


def assert_partition(g):
    """``root``, ``succ`` and ``size`` describe one partition of the
    vertices: ``root`` is a forest of parent links no deeper than
    floor(log2 n), the walk along ``succ`` from each root r returns to r
    after exactly ``size[r]`` steps and visits exactly the vertices of r's
    tree, and ``size`` is 0 off the roots."""
    label, depth = tree_roots(g)
    assert depth <= g.n.bit_length() - 1
    comps = components(g)
    assert set(comps) == set(label.tolist())
    for r, walk in comps.items():
        assert len(set(walk)) == len(walk) == g.size[r]
        assert set(walk) == set(np.flatnonzero(label == r).tolist())
    assert all(g.size[v] == 0 for v in range(g.n) if v not in comps)


# ---------------------------------------------------------------------------
# initial graph sampling
# ---------------------------------------------------------------------------

def test_irg_zero_ages_has_no_edges():
    g = af.sample_irg(0.0, n=500, seed=1)
    assert g.edge_count == 0
    assert af.cluster_sizes(g) == {1: 500}
    assert np.array_equal(g.ages(), np.zeros(500))


def test_irg_min_age_zero_blocks_edge():
    for seed in range(10):
        g = af.sample_irg([0.0, 5.0], seed=seed)
        assert g.edge_count == 0


def test_irg_edge_count_within_4_sigma():
    n, age = 400, 5.0
    mean, var = edge_count_stats(n, np.full(n, age))
    g = af.sample_irg(age, n=n, seed=7)
    assert abs(g.edge_count - mean) <= 4.0 * math.sqrt(var)


def test_irg_sorted_sampler_matches_dense_statistics():
    n = 400
    rng = np.random.default_rng(3)
    ages = rng.exponential(2.0, size=n) + 1.0
    mean, var = edge_count_stats(n, ages)
    for sample in (_dense_irg, af.sample_irg):
        counts = [sample(ages, seed=s).edge_count for s in range(8)]
        assert abs(np.mean(counts) - mean) <= 4.0 * math.sqrt(var / 8)


def test_irg_adjacency_is_symmetric_without_self_loops():
    # the sampled edges survive only as components: a consistent partition,
    # with each drawn edge joining at most two of them
    for sample in (_dense_irg, af.sample_irg):
        g = sample(np.linspace(0, 20, 300), seed=5)
        assert_partition(g)
        n_clusters = sum(af.cluster_sizes(g).values())
        assert 0 < g.n - n_clusters <= g.edge_count


def test_irg_input_validation():
    with pytest.raises(af.InputError):
        af.sample_irg([-1.0, 2.0])
    with pytest.raises(af.InputError):
        af.sample_irg(1.0)  # scalar age needs n
    with pytest.raises(af.InputError):
        af.sample_irg([], n=0)
    for method in ("magic", "dense", "auto"):
        with pytest.raises(af.InputError):
            af.sample_irg([1.0, 2.0], method=method)
    with pytest.raises(af.InputError):
        af.sample_irg(1.0, n=2.7)  # would truncate to 2 vertices
    with pytest.raises(af.InputError):
        af.sample_irg([1.0, float("nan")])
    with pytest.raises(af.InputError):
        af.sample_irg(float("inf"), n=5)


# ---------------------------------------------------------------------------
# strike and bookkeeping
# ---------------------------------------------------------------------------

def test_strike_resets_component_and_clears_edges():
    g = af.sample_irg(1.0, n=60, seed=2)
    for i, j in [(0, 1), (1, 2), (2, 0), (3, 4)]:
        af.add_edge(g, i, j)
    g.t = 3.0
    comps, label = components(g), tree_roots(g)[0]
    comp_before = set(comps[label[1]])
    assert {0, 1, 2} <= comp_before
    others = {label[u]: sorted(comps[label[u]])
              for u in set(range(60)) - comp_before}
    hist_before = af.cluster_sizes(g)
    size = af.strike(g, 1)
    assert size == len(comp_before)
    for u in comp_before:
        assert (g.root[u], g.succ[u], g.size[u]) == (u, u, 1)
        assert g.last_burn[u] == 3.0
    comps = components(g)
    for r, members in others.items():
        assert sorted(comps[r]) == members
        assert all(g.last_burn[u] != 3.0 for u in members)
    assert_partition(g)
    hist_after = af.cluster_sizes(g)
    hist_before[size] -= 1
    hist_before[1] = hist_before.get(1, 0) + size
    assert hist_after == {k: c for k, c in hist_before.items() if c}


def test_cluster_sizes_edge_cases():
    g = af.sample_irg(0.0, n=30, seed=0)
    assert af.cluster_sizes(g) == {1: 30}
    # build a path spanning all vertices
    for i in range(29):
        af.add_edge(g, i, i + 1)
        if i == 9:
            assert af.cluster_sizes(g) == {1: 19, 11: 1}
    assert af.cluster_sizes(g) == {30: 1}
    af.add_edge(g, 29, 0)  # closing a cycle changes no component
    assert af.cluster_sizes(g) == {30: 1}
    assert_partition(g)
    hist = af.cluster_sizes(af.sample_irg(10.0, n=200, seed=4))
    assert sum(k * c for k, c in hist.items()) == 200


def test_graph_holds_no_python_object_per_vertex():
    # three int64 arrays and last_burn are 32 bytes per vertex; a list or
    # an int object per vertex would add ~30-110 more
    n = 20_000
    ages = np.zeros(n)
    ages[-2000:] = np.random.default_rng(0).exponential(20.0, size=2000)
    af.sample_irg(ages[:100], seed=0)  # warm numpy's caches
    tracemalloc.start()
    try:
        g = af.sample_irg(ages, seed=0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert max(g.size) > 1
    assert held <= 40 * n


def test_subcritical_er_isolated_fraction():
    # ages all equal to c give an Erdos-Renyi graph of density ~ c/n;
    # the isolated-vertex fraction concentrates near exp(-c)
    n, c = 10_000, 0.7
    g = af.sample_irg(c, n=n, seed=11)
    hist = af.cluster_sizes(g)
    frac = hist.get(1, 0) / n
    p_iso = math.exp((n - 1) * math.log1p(math.expm1(-c / n)))
    sigma = math.sqrt(p_iso * (1 - p_iso) / n)
    assert abs(frac - p_iso) <= 3.0 * sigma + 0.01 * p_iso


# ---------------------------------------------------------------------------
# the sorted sampler against the dense sweep and add_edge
# ---------------------------------------------------------------------------

ALPHA = 1e-3  # level of each two-sample and goodness-of-fit test below


def _partition_sets(g):
    return sorted(sorted(m) for m in components(g).values())


def _size_classes(g):
    """Component counts of sizes 1, 2, 3, 4 and >= 5."""
    sizes = np.bincount(tree_roots(g)[0])
    return np.bincount(np.minimum(sizes[sizes > 0], 5), minlength=6)[1:]


def _sample_stats(ages, sample, seeds):
    edges, largest, classes = [], [], np.zeros(5, dtype=int)
    for s in seeds:
        g = sample(ages, seed=s)
        edges.append(g.edge_count)
        largest.append(max(g.size))
        classes += _size_classes(g)
    return edges, largest, classes


@pytest.mark.parametrize("profile", ["iid-exponential", "tied"])
def test_irg_sorted_sampler_law_equals_dense(profile):
    # conditional on one age profile, 200 graphs of each sampler: edge
    # counts and largest components by two-sample KS, the pooled histogram
    # of component sizes 1, 2, 3, 4, >= 5 by chi-square homogeneity
    n = 500
    rng = np.random.default_rng(17)
    ages = rng.exponential(1.0, size=n) if profile == "iid-exponential" \
        else rng.choice([0.0, 0.5, 1.0, 2.0], size=n)
    dense = _sample_stats(ages, _dense_irg, range(200))
    fast = _sample_stats(ages, af.sample_irg, range(1000, 1200))
    assert stats.ks_2samp(dense[0], fast[0]).pvalue > ALPHA
    assert stats.ks_2samp(dense[1], fast[1]).pvalue > ALPHA
    assert stats.chi2_contingency([dense[2], fast[2]]).pvalue > ALPHA
    assert np.mean(fast[1]) > 10  # not a trivially sparse profile


def test_irg_sorted_sampler_exact_law_small_graph():
    # n = 4 with large ages: most rows draw 2 or 3 of their 3 candidates,
    # so repeated targets and their redraws are common; the 64 possible
    # edge sets must appear with their product-Bernoulli probabilities
    n, draws = 4, 20_000
    ages = np.array([9.0, 3.0, 12.0, 6.0])
    pairs = list(itertools.combinations(range(n), 2))
    p = {pq: -math.expm1(-min(ages[pq[0]], ages[pq[1]]) / n) for pq in pairs}
    rng = np.random.default_rng(23)
    counts, repeats = {}, 0
    for _ in range(draws):
        u, v = _sorted_irg_edges(ages, rng)
        edges = frozenset(tuple(sorted(e)) for e in zip(u.tolist(), v.tolist()))
        assert len(edges) == u.size and (u != v).all()
        counts[edges] = counts.get(edges, 0) + 1
    subsets = [frozenset(c) for k in range(len(pairs) + 1)
               for c in itertools.combinations(pairs, k)]
    expected = [draws * math.prod(p[pq] if pq in e else 1 - p[pq]
                                  for pq in pairs) for e in subsets]
    observed = [counts.get(e, 0) for e in subsets]
    assert sum(observed) == draws and min(expected) > 5
    assert stats.chisquare(observed, expected).pvalue > ALPHA


def test_irg_sorted_sampler_single_and_two_vertices():
    g = af.sample_irg(50.0, n=1, seed=4)
    assert (g.edge_count, list(g.root), list(g.succ), list(g.size)) == \
        (0, [0], [0], [1])
    assert g.rng.bit_generator.state == \
        np.random.default_rng(4).bit_generator.state
    # two vertices: one Bernoulli(1 - exp(-min age / 2)) edge
    p = -math.expm1(-1.0 / 2)
    joined = 0
    for seed in range(2000):
        g = af.sample_irg([3.0, 1.0], seed=seed)
        assert_partition(g)
        if g.edge_count:
            assert (g.edge_count, list(g.root), list(g.succ),
                    list(g.size)) == (1, [0, 0], [1, 0], [2, 0])
            joined += 1
        else:
            assert (list(g.root), list(g.succ), list(g.size)) == \
                ([0, 1], [0, 1], [1, 1])
    assert abs(joined / 2000 - p) <= 4.0 * math.sqrt(p * (1 - p) / 2000)


@pytest.mark.parametrize("ages", [np.zeros(300), [0.0, 5.0], [0.0],
                                  [7.0, 0.0, 0.0]])
def test_irg_sorted_sampler_zero_ages_draw_nothing(ages):
    # a lone positive age, or one that only sorts last, has no later
    # vertex of positive age to join
    g = af.sample_irg(ages, seed=8)
    assert g.edge_count == 0
    assert g.rng.bit_generator.state == \
        np.random.default_rng(8).bit_generator.state


def _add_edge_partition(n, u, v):
    g = af.sample_irg(0.0, n=n, seed=0)
    for i, j in zip(u.tolist(), v.tolist()):
        af.add_edge(g, i, j)
    return g


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0, 20.0])
def test_irg_sorted_partition_equals_add_edge(scale):
    # subcritical, critical, supercritical and nearly complete profiles
    n = 700
    ages = np.random.default_rng(31).exponential(scale, size=n)
    for seed in range(5):
        g = af.sample_irg(ages, seed=seed)
        u, v = _sorted_irg_edges(ages, np.random.default_rng(seed))
        assert g.edge_count == u.size
        assert len({(min(e), max(e)) for e in zip(u.tolist(), v.tolist())}) == u.size
        assert _partition_sets(g) == _partition_sets(_add_edge_partition(n, u, v))
        assert_partition(g)
        # each label is its component's smallest vertex
        assert all(m[0] == r == min(m) for r, m in components(g).items())


def test_partition_of_arbitrary_edge_lists():
    # min-label hooking on graphs the sampler never draws: long paths and
    # cycles in shuffled label order, stars and duplicate edges
    rng = np.random.default_rng(5)
    n = 400
    perm = rng.permutation(n)
    cases = [(perm[:-1], perm[1:]),                   # one shuffled path
             (perm, np.roll(perm, 1)),                 # one shuffled cycle
             (np.full(n - 1, n - 1), np.arange(n - 1)),  # star on the max
             (np.array([3, 3, 5]), np.array([5, 5, 3])),
             (np.empty(0, int), np.empty(0, int))]
    for _ in range(20):
        m = int(rng.integers(0, 2 * n))
        cases.append((rng.integers(n, size=m), rng.integers(n, size=m)))
    for u, v in cases:
        root, succ, size = _partition(n, u, v)
        g = SimpleNamespace(n=n, root=root, succ=succ, size=size)
        assert_partition(g)
        assert _partition_sets(g) == _partition_sets(_add_edge_partition(n, u, v))
        assert all(r == min(m) for r, m in components(g).items())


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def test_run_no_lightning_is_dynamic_er():
    n, t = 500, 1.0
    g = af.sample_irg(0.0, n=n, seed=9)
    records = af.run(g, 0.0, t, [t])
    assert records[0].burned_vertices == 0
    # every pair is joined with probability 1 - exp(-t/n) by time t, so a
    # vertex is isolated with probability exp(-(n-1)t/n)
    frac = records[0].cluster_hist.get(1, 0) / n
    p_iso = math.exp(-(n - 1) * t / n)
    sigma = math.sqrt(p_iso * (1 - p_iso) / n)
    assert abs(frac - p_iso) <= 3.0 * sigma + 0.01 * p_iso
    # pure aging from a monodisperse start
    assert af.w1(records[0].age_measure, af.dirac(t)) == 0.0


def test_run_single_vertex_without_lightning_draws_nothing():
    # no event can happen: every checkpoint is recorded and the generator
    # is never touched
    g = af.sample_irg(2.5, n=1, seed=3)
    state = g.rng.bit_generator.state
    records = af.run(g, 0.0, 2.0, [0.0, 0.5, 2.0])
    assert [r.t for r in records] == [0.0, 0.5, 2.0]
    assert [r.age_measure.locations.tolist() for r in records] == [
        [2.5], [3.0], [4.5]]
    assert [r.cluster_hist for r in records] == [{1: 1}] * 3
    assert all(r.burn_events == r.burned_vertices == r.edge_events == 0
               for r in records)
    assert all(r.phi_hat_window == 0.0 for r in records)
    assert g.t == 2.0
    assert g.rng.bit_generator.state == state


def test_run_records_and_reset_rule():
    n = 300
    g = af.sample_irg(0.0, n=n, seed=13)
    records = af.run(g, 0.05, 4.0, [1.0, 2.0, 4.0])
    assert [r.t for r in records] == [1.0, 2.0, 4.0]
    last = records[-1]
    assert last.burned_vertices >= last.burn_events > 0
    assert abs(last.age_measure.total_mass() - 1.0) <= 1e-12
    assert sum(k * c for k, c in last.cluster_hist.items()) == n
    # ages never exceed the elapsed time
    assert last.age_measure.locations.max() <= 4.0 + 1e-12
    assert_partition(g)
    assert af.cluster_sizes(g) == last.cluster_hist


def _run_digest(records, graph):
    """sha256 over every record field the outputs are built from, plus the
    final ages."""
    h = hashlib.sha256()
    for r in records:
        h.update(repr((r.t, r.burn_events, r.burned_vertices, r.phi_hat_window,
                       sorted(r.cluster_hist.items()))).encode())
        h.update(r.age_measure.locations.tobytes())
        h.update(r.age_measure.masses.tobytes())
    h.update(graph.ages().tobytes())
    return h.hexdigest()


# 2**31 - 1 and 3 * 2**30 reach numpy's rejection step
@pytest.mark.parametrize("n", [1, 2, 3, 1000, 128_000, 2**31 - 1, 3 * 2**30])
def test_uniform_index_equals_generator_integers(n):
    # a block's vertex pairs are Generator.integers draws, the second one
    # drawn from the other n - 1 vertices and moved past the first
    a, b = np.random.default_rng(n), np.random.default_rng(n)
    first, second = _vertex_pairs(b, n, 20_000)
    assert first.tolist() == a.integers(n, size=20_000).tolist()
    if n == 1:  # a single vertex draws nothing
        assert second.tolist() == [0] * 20_000
        assert a.bit_generator.state == np.random.default_rng(n).bit_generator.state
    else:
        others = a.integers(n - 1, size=20_000)
        assert second.tolist() == (others + (others >= first)).tolist()
        assert (second != first).all()
        assert second.min() >= 0 and second.max() < n
    assert b.bit_generator.state == a.bit_generator.state


def _event_loop_oracle(graph, lambda_n, t_max, checkpoints):
    """The event loop of :func:`agefire.run` before its draws came in
    blocks: per event one ``rng.exponential`` wait, one ``rng.random()``
    coin and ``rng.integers(n)`` vertices, the second one redrawn until it
    differs from the first.  It reproduces ``OLD_PINNED_RUNS``."""
    n = graph.n
    rate_edge = 0.5 * n * (n - 1) * (1.0 / n)
    rate_total = rate_edge + n * lambda_n
    p_edge = rate_edge / rate_total if rate_total else 0.0
    cps = list(checkpoint_times(checkpoints, graph.t, t_max).values())
    rng = graph.rng
    records = []
    edges = strikes = burned = 0
    prev_t, prev_burned = graph.t, 0
    while True:
        t_next = graph.t + rng.exponential(1.0 / rate_total) \
            if rate_total else math.inf
        while len(records) < len(cps) and cps[len(records)] <= t_next:
            cp_t = cps[len(records)]
            window = cp_t - prev_t
            saved_t, graph.t = graph.t, cp_t
            records.append(SimRecord(
                t=cp_t, n=n, age_measure=af.empirical_age_measure(graph),
                cluster_hist=af.cluster_sizes(graph), burn_events=strikes,
                burned_vertices=burned, edge_events=edges,
                phi_hat_window=(burned - prev_burned) / (n * window)
                if window > 0 else 0.0))
            graph.t = saved_t
            prev_t, prev_burned = cp_t, burned
        if t_next > t_max:
            break
        graph.t = t_next
        if rng.random() < p_edge:
            i, j = int(rng.integers(n)), int(rng.integers(n))
            while j == i:
                j = int(rng.integers(n))
            af.add_edge(graph, i, j)
            edges += 1
        else:
            strikes += 1
            burned += af.strike(graph, int(rng.integers(n)))
    graph.t = t_max
    return records


def _pinned_case(case, loop):
    """The records and final graph of one pinned case run by ``loop``:
    "dense" samples its graph with _dense_irg, "sorted" and "zero-age"
    with sample_irg."""
    if case == "zero-age":
        n = 500
        g = af.sample_irg(0.0, n=n, seed=3)
        return loop(g, n ** -0.5, 3.0, [1.0, 2.0, 3.0]), g
    n, seed = (300, 0) if case == "dense" else (400, 1)
    ages = np.random.default_rng(seed).exponential(2.0, size=n)
    sample = _dense_irg if case == "dense" else af.sample_irg
    g = sample(ages, seed=seed + 1)
    return loop(g, n ** -0.5, 2.0, [0.5, 1.0, 2.0]), g


# Pinned on fixed seeds; a refactor of the simulator state that keeps the
# RNG draw order must reproduce these digests exactly.  PINNED_RUNS pins
# the block draws of run, OLD_PINNED_RUNS the one-draw-per-call stream of
# _event_loop_oracle.
OLD_PINNED_RUNS = {
    "dense": "5a4130eb7c299830edbf7de6e105ec33f149ca5a7fd680afe7493bba4c7d7ef8",
    "sorted": "eb08bb38c1e85db4d5e43b8ef2cf1d80bde804fba38c0b72fe92fce09897a19c",
    "zero-age": "0996163c57d511601b22cda8b7e83581d8e318ac60be904d43d860e2a1616bf6",
}
PINNED_RUNS = {
    "dense": "2d4c9014e513fdb8c329be2dde2a4723949fa9ca37921bc05c51b486c19cdbfd",
    "sorted": "16938b1cbefd406f0deca434a0cd7d482fc1d893b05e51b73eec0bd9e2cd7f91",
    "zero-age": "ef5974e97a8427e4358ec7dd3959f38813808e08b7fdebb75d1a3ff3012b65e4",
}


@pytest.mark.parametrize("case", sorted(OLD_PINNED_RUNS))
def test_event_loop_oracle_reproduces_old_pins(case):
    records, g = _pinned_case(case, _event_loop_oracle)
    assert _run_digest(records, g) == OLD_PINNED_RUNS[case]


@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_run_records_are_bit_identical_to_pinned(case):
    records, g = _pinned_case(case, af.run)
    assert _run_digest(records, g) == PINNED_RUNS[case]


LAW_CASES = ("lightning", "zero-age")
LAW_SEEDS = 1000  # replicas of each loop per case
LAW_ALPHA = 1e-3  # family-wise level, Bonferroni-split over every KS test


def _law_statistics(case, loop, seeds):
    """Per replica: edge events, strikes, burned vertices, largest cluster,
    cluster count and mean age, at t = 0.5 and t = 2 (n = 300)."""
    n = 300
    if case == "lightning":
        ages, lam = np.random.default_rng(41).exponential(2.0, size=n), 0.1
    else:
        ages, lam = 0.0, n ** -0.5
    rows = []
    for seed in seeds:
        g = af.sample_irg(ages, n=n, seed=seed)
        rows.append([x for r in loop(g, lam, 2.0, [0.5, 2.0])
                     for x in (r.edge_events, r.burn_events, r.burned_vertices,
                               r.largest_cluster, r.n_clusters,
                               r.age_measure.first_moment())])
    return np.array(rows)


@pytest.mark.parametrize("case", LAW_CASES)
def test_run_law_equals_event_loop_oracle(case):
    # block draws change the stream, not the law: each statistic of run on
    # one seed list against the one-draw-per-call oracle on another, by a
    # two-sample KS test
    oracle = _law_statistics(case, _event_loop_oracle, range(LAW_SEEDS))
    blocks = _law_statistics(case, af.run, range(LAW_SEEDS, 2 * LAW_SEEDS))
    pvalues = [stats.ks_2samp(oracle[:, k], blocks[:, k]).pvalue
               for k in range(oracle.shape[1])]
    assert min(pvalues) > LAW_ALPHA / (len(LAW_CASES) * len(pvalues)), pvalues
    # strikes at t <= 2 burn clusters, not only singletons
    assert oracle[:, 8].sum() > 3 * oracle[:, 7].sum()


def test_run_split_at_a_checkpoint_is_the_same_run():
    # a run stops at each checkpoint and carries nothing past it, so
    # stopping there and running on draws the same stream: the graph and
    # the records are bit-identical, and only the cumulative counters restart
    n = 1000
    ages = np.random.default_rng(5).exponential(2.0, size=n)

    def graph():
        return af.sample_irg(ages, seed=6)

    whole = af.run(g := graph(), n ** -0.5, 6.0, [2.5, 5.0])
    split = af.run(h := graph(), n ** -0.5, 2.5, [2.5])
    assert h.t == 2.5
    split += af.run(h, n ** -0.5, 6.0, [5.0])
    assert np.array_equal(g.last_burn, h.last_burn)
    assert g.root.tolist() == h.root.tolist()
    assert g.rng.bit_generator.state == h.rng.bit_generator.state
    for a, b in zip(whole, split, strict=True):
        assert a.t == b.t
        assert np.array_equal(a.age_measure.locations, b.age_measure.locations)
        assert np.array_equal(a.age_measure.masses, b.age_measure.masses)
        assert a.cluster_hist == b.cluster_hist
        assert a.phi_hat_window == b.phi_hat_window
    # ~1 300 events per segment: each spans blocks
    assert whole[0].edge_events > 1024
    for field in ("edge_events", "burn_events", "burned_vertices"):
        assert (getattr(whole[1], field) - getattr(whole[0], field)
                == getattr(split[1], field))
    assert whole[1].burn_events > whole[0].burn_events > 0


def _sequential_apply_events(graph, joins, first, second, times):
    """The event pass of ``_apply_events`` with no bulk merge: every event
    of the segment in time order, through ``add_edge`` and ``strike``."""
    burned = 0
    for join, i, j, t in zip(joins.tolist(), first.tolist(), second.tolist(),
                             times.tolist()):
        if join:
            af.add_edge(graph, i, j)
        else:
            graph.t = t
            burned += af.strike(graph, i)
    return burned


@pytest.mark.parametrize("n", [50, 600, 20_000])
def test_bulk_merges_equal_the_sequential_replay(n, monkeypatch):
    # merging the strike-free groups at once gives the records, final
    # ages, components and generator state of applying every event in
    # time order: at lambda = 0 every edge merges in bulk, at 0.1 some
    # are replayed (most of them at n = 50), and n^(-1/2) is the critical
    # rate
    ages = np.random.default_rng(n).exponential(1.0, size=n)
    add_edge = af.mfffa.add_edge
    for lam in (0.0, 0.1, n ** -0.5):
        g, h = af.sample_irg(ages, seed=7), af.sample_irg(ages, seed=7)
        replayed = []
        with monkeypatch.context() as patch:
            patch.setattr(af.mfffa, "add_edge",
                          lambda g, i, j: replayed.append(i) or add_edge(g, i, j))
            batched = af.run(g, lam, 2.0, [0.5, 1.0, 2.0])
        with monkeypatch.context() as patch:
            patch.setattr(af.mfffa, "_apply_events", _sequential_apply_events)
            sequential = af.run(h, lam, 2.0, [0.5, 1.0, 2.0])
        assert _run_digest(batched, g) == _run_digest(sequential, h)
        assert [r.edge_events for r in batched] == [r.edge_events for r in sequential]
        assert np.array_equal(g.last_burn, h.last_burn)
        assert _partition_sets(g) == _partition_sets(h)
        assert g.rng.bit_generator.state == h.rng.bit_generator.state
        assert_partition(g)
        bulk = batched[-1].edge_events - len(replayed)
        if lam == 0.0:
            assert bulk > 0 and not replayed
        else:
            assert batched[-1].burn_events > 0
        if lam == 0.1:
            assert bulk > 0 and replayed


def test_bulk_merge_keeps_the_union_by_size_depth():
    # one strike-free edge per segment joins a growing component, through
    # its root, to a singleton: the singleton must hang under that root,
    # or the tree would deepen by one per segment
    n = 64
    g = af.sample_irg(0.0, n=n, seed=0)
    one = np.ones(1, bool)
    for v in range(1, n):
        r = int(tree_roots(g)[0][0])
        assert af.mfffa._apply_events(g, one, np.array([r]), np.array([v]),
                                      np.zeros(1)) == 0
    assert af.cluster_sizes(g) == {n: 1}
    assert tree_roots(g)[1] == 1
    assert_partition(g)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_run_events_pick_uniform_vertices(n, monkeypatch):
    # an edge event joins one of the n (n - 1) ordered pairs of distinct
    # vertices, a strike one of the n vertices, each uniformly; read from
    # the kinds and vertex pairs that run hands to _apply_events
    pairs, struck = [], []
    apply_events = af.mfffa._apply_events

    def spy(g, joins, first, second, times):
        pairs.extend(zip(first[joins].tolist(), second[joins].tolist()))
        struck.extend(first[~joins].tolist())
        return apply_events(g, joins, first, second, times)

    monkeypatch.setattr(af.mfffa, "_apply_events", spy)
    t_max = 6000.0 / (n - 1)  # 3000 edge events expected
    g = af.sample_irg(0.0, n=n, seed=6)
    record = af.run(g, 1.0, t_max, [t_max])[0]
    assert (record.edge_events, record.burn_events) == (len(pairs), len(struck))
    counts = {pq: 0 for pq in itertools.permutations(range(n), 2)}
    for pq in pairs:
        counts[pq] += 1  # a KeyError is a self-loop
    assert stats.chisquare(list(counts.values())).pvalue > ALPHA
    assert stats.chisquare(np.bincount(struck, minlength=n)).pvalue > ALPHA
    # edge events at rate (n - 1) / 2, strikes at n * lambda
    for count, mean in ((len(pairs), 3000.0), (len(struck), n * t_max)):
        assert abs(count - mean) <= 4.0 * math.sqrt(mean)


def test_run_single_vertex_with_lightning_only_strikes():
    # one vertex has no pair to draw: every event strikes vertex 0
    g = af.sample_irg(1.0, n=1, seed=2)
    records = af.run(g, 2.0, 10.0, [5.0, 10.0])
    for r in records:
        assert r.edge_events == 0
        assert r.burned_vertices == r.burn_events
        assert abs(r.burn_events - 2.0 * r.t) <= 4.0 * math.sqrt(2.0 * r.t)
    assert 0.0 <= g.ages()[0] < 10.0


def test_run_strikes_in_time_order_across_blocks(monkeypatch):
    # ~5 000 events span several blocks: the strikes come in time order,
    # each at its own time, and a record counts the strikes before it
    times = []
    strike = af.mfffa.strike
    monkeypatch.setattr(af.mfffa, "strike",
                        lambda g, v: times.append(g.t) or strike(g, v))
    g = af.sample_irg(0.0, n=50, seed=4)
    records = af.run(g, 2.0, 40.0, [10.0, 20.0, 30.0, 40.0])
    assert 0.0 < times[0] and all(np.diff(times) > 0) and times[-1] <= 40.0
    for r in records:
        assert r.burn_events == np.searchsorted(times, r.t)
        mean = (24.5 + 100.0) * r.t  # (n - 1) / 2 + n * lambda per unit time
        assert abs(r.edge_events + r.burn_events - mean) <= 4.0 * math.sqrt(mean)
    # each burned vertex's last burn is one of the strike times
    burned = g.last_burn[g.last_burn > 0]
    assert np.isin(burned, times).all() and burned.size > 0


def test_run_counts_edge_events():
    # with lambda = 0 every event is an edge event: Poisson((n - 1) t / 2)
    # by time t, counted cumulatively across checkpoints and blocks
    n = 2001
    g = af.sample_irg(0.0, n=n, seed=12)
    records = af.run(g, 0.0, 4.0, [1.0, 2.0, 4.0])
    counts = [r.edge_events for r in records]
    assert counts == sorted(counts)
    for r in records:
        mean = (n - 1) / 2 * r.t
        assert abs(r.edge_events - mean) <= 4.0 * math.sqrt(mean)
        assert r.burn_events == 0


def test_run_is_deterministic_given_seed():
    def one():
        g = af.sample_irg(0.0, n=200, seed=21)
        return af.run(g, 0.1, 2.0, [0.5, 1.0, 2.0])

    a, b = one(), one()
    for ra, rb in zip(a, b):
        assert ra.burned_vertices == rb.burned_vertices
        assert ra.burn_events == rb.burn_events
        assert ra.cluster_hist == rb.cluster_hist
        assert np.array_equal(ra.age_measure.locations, rb.age_measure.locations)
        assert np.array_equal(ra.age_measure.masses, rb.age_measure.masses)


def test_run_input_validation():
    g = af.sample_irg(0.0, n=10, seed=0)
    with pytest.raises(af.InputError):
        af.run(g, -0.1, 1.0, [1.0])
    with pytest.raises(af.InputError):
        af.run(g, 0.1, 1.0, [2.0])  # checkpoint beyond horizon
    with pytest.raises(af.InputError):
        af.run(g, float("inf"), 1.0, [1.0])
    with pytest.raises(af.InputError):
        af.run(g, float("nan"), 1.0, [1.0])
    with pytest.raises(af.InputError):
        af.run(g, 0.1, float("nan"), [])
    with pytest.raises(af.InputError):
        af.run(g, 0.1, float("inf"), [])
    with pytest.raises(af.InputError):
        af.run(g, 0.1, 1.0, [float("nan")])


def test_run_rejects_a_horizon_before_the_current_time():
    g = af.sample_irg(1.0, n=10, seed=0)
    with pytest.raises(af.InputError, match="before the current time"):
        af.run(g, 0.1, -1.0, [])
    assert g.t == 0.0
    af.run(g, 0.0, 0.5, [])
    with pytest.raises(af.InputError, match="before the current time"):
        af.run(g, 0.1, 0.25, [])
    assert g.t == 0.5 and (g.ages() == 1.5).all()
    # a horizon at the current time stays legal
    assert [r.t for r in af.run(g, 0.1, 0.5, [0.5])] == [0.5]
    assert g.t == 0.5
    # checkpoints may start at the current time, not before it
    with pytest.raises(af.InputError, match=r"lie in \[0\.5, 1\]"):
        af.run(g, 0.1, 1.0, [0.25, 1.0])
    assert [r.t for r in af.run(g, 0.1, 1.0, [0.5, 1.0])] == [0.5, 1.0]


def test_run_rejects_a_non_finite_lightning_rate():
    # 2 * 1e308 overflows: every wait would be exponential(0) = 0 and time
    # would never advance
    g = af.sample_irg(1.0, n=2, seed=0)
    state = g.rng.bit_generator.state
    with pytest.raises(af.InputError, match="lightning rate"):
        af.run(g, 1e308, 0.1, [0.1])
    assert g.t == 0.0
    assert g.rng.bit_generator.state == state


def test_run_rejects_a_rate_too_high_to_advance_time():
    # 0.1 + 1e-308 == 0.1: every event would leave the clock where it is
    for n, lightning in ((1, 1e308), (2, 1e300)):
        g = af.sample_irg(1.0, n=n, seed=0)
        state = g.rng.bit_generator.state
        with pytest.raises(af.InputError, match="lightning rate"):
            af.run(g, lightning, 0.1, [0.1])
        assert g.t == 0.0
        assert g.rng.bit_generator.state == state
    # a rate whose mean wait still moves the clock runs as before
    g = af.sample_irg(1.0, n=1, seed=0)
    assert af.run(g, 1e3, 0.1, [0.1])[0].burn_events > 0


def test_run_collapses_duplicate_checkpoints_and_rejects_name_collisions():
    def rows(checkpoints):
        g = af.sample_irg(0.0, n=20, seed=0)
        return [(r.t, r.burned_vertices, r.phi_hat_window)
                for r in af.run(g, 0.5, 1.0, checkpoints)]

    # a repeated checkpoint is one record, not a second one with a zero window
    assert rows([1.0, 0.5, 1.0, 0.5]) == rows([0.5, 1.0])
    assert [t for t, _, _ in rows([0.5, 1.0])] == [0.5, 1.0]
    g = af.sample_irg(0.0, n=20, seed=0)
    state = g.rng.bit_generator.state
    with pytest.raises(af.InputError, match="snapshot name"):
        af.run(g, 0.1, 1.0, [0.5, 0.5 + 1e-7, 1.0, 1.0])
    assert g.t == 0.0
    assert g.rng.bit_generator.state == state


@pytest.mark.parametrize("checkpoints", ["12", "0.5", b"1", 1.5, [None], ["0.5"]],
                         ids=["str", "str-number", "bytes", "float", "none",
                              "str-element"])
def test_run_rejects_checkpoints_that_are_not_numbers(checkpoints):
    g = af.sample_irg(0.0, n=20, seed=0)
    state = g.rng.bit_generator.state
    with pytest.raises(af.InputError, match="checkpoint"):
        af.run(g, 0.1, 20.0, checkpoints)
    assert g.t == 0.0
    assert g.rng.bit_generator.state == state


def test_partition_stays_consistent_over_many_events():
    # ~25000 events (rate ~ n/2 per unit time) with many unions and strikes
    # leave the component state consistent
    n = 600
    g = af.sample_irg(0.0, n=n, seed=3)
    t_max = 25_000 / (0.5 * (n - 1))
    records = af.run(g, n ** -0.5, t_max, [t_max])
    assert records[0].burn_events > 100
    assert_partition(g)
    assert af.cluster_sizes(g) == records[0].cluster_hist


def test_empirical_age_measure():
    g = af.sample_irg(0.0, n=50, seed=0)
    m = af.empirical_age_measure(g)
    assert af.w1(m, af.dirac(0.0)) == 0.0
    g.t = 2.0
    m = af.empirical_age_measure(g)
    assert af.w1(m, af.dirac(2.0)) == 0.0


# ---------------------------------------------------------------------------
# burning-rate estimators
# ---------------------------------------------------------------------------

def test_tail_phi_trivial_histograms():
    assert af.tail_phi_estimate({1: 1000}, m_min=2) == 0.0
    assert af.tail_phi_estimate({1: 1000}, m_min=2, m_cap=50) == 0.0
    assert af.tail_phi_spread({1: 1000}, m_min=2) == 0.0
    vals = af.tail_phi_values({1: 900, 10: 10}, m_min=1, m_cap=1)
    assert vals.size == 1
    assert abs(vals[0] - math.pi / 2.0) < 1e-12  # whole mass counted at m = 1
    assert af.tail_phi_spread({1: 900, 10: 10}, m_min=1, m_cap=1) == 0.0
    for bad in ({"m_min": math.nan}, {"m_min": 0}, {"m_cap": math.nan}):
        with pytest.raises(af.InputError, match=next(iter(bad))):
            af.tail_phi_values({1: 900, 10: 10}, **bad)


def test_burn_rate_estimator_no_lightning():
    g = af.sample_irg(0.0, n=200, seed=5)
    records = af.run(g, 0.0, 1.0, [0.5, 1.0])
    assert af.burn_rate_estimate(records, (0.5, 1.0)) == 0.0
    with pytest.raises(af.InputError):
        af.burn_rate_estimate(records, (1.0, 0.5))
    with pytest.raises(af.InputError):
        af.burn_rate_estimate(records, (0.5, 3.0))
    for window in ((math.nan, 1.0), (0.5, math.nan)):
        with pytest.raises(af.InputError):
            af.burn_rate_estimate(records, window)


def test_long_run_burning_rate_near_one_half():
    n = 2000
    lam = n ** -0.5
    cps = [0.0, 0.5] + [5.0 + 0.5 * k for k in range(11)]
    rates, tails = [], []
    for seed in range(3):
        g = af.sample_irg(0.0, n=n, seed=seed)
        records = af.run(g, lam, 10.0, cps)
        rates.append(af.burn_rate_estimate(records, (5.0, 10.0)))
        tails.append(np.mean([af.tail_phi_estimate(r.cluster_hist)
                              for r in records if r.t >= 5.0]))
        # before gelation at t = 1 only stray singleton strikes burn
        early = af.burn_rate_estimate(records, (0.0, 0.5))
        assert early <= 0.05
    rate = float(np.median(rates))
    tail = float(np.median(tails))
    assert abs(rate - 0.5) <= 0.15
    assert abs(tail - 0.5) <= 0.15
    assert abs(tail - rate) <= 0.15


def test_sim_outputs(tmp_path):
    g = af.sample_irg(0.0, n=100, seed=1)
    records = af.run(g, 0.1, 1.0, [0.5, 1.0])
    af.write_sim_outputs(records, tmp_path)
    lines = (tmp_path / "sim.csv").read_text().strip().splitlines()
    assert lines[0] == ("t,burned_cum,largest_cluster,n_clusters,"
                        "phi_hat_window,edge_events")
    assert len(lines) == 3
    assert [int(row.split(",")[-1]) for row in lines[1:]] == \
        [r.edge_events for r in records]
    assert (tmp_path / "snapshot_t0.500000.csv").exists()
    assert (tmp_path / "clusters_t1.000000.csv").exists()
