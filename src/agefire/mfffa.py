"""Event-driven simulation of the mean-field forest fire graph with ages.

The process lives on n vertices.  Every unordered pair gains an edge at
rate 1/n (insert-if-absent, realized as a global candidate clock of rate
n(n-1)/2 * 1/n with a uniform random pair per event), and lightning
strikes each vertex at rate lambda_n (global rate n * lambda_n, uniform
vertex per event).  A strike deletes every edge inside the struck vertex's
connected component and resets the age of each of its vertices to zero;
ages otherwise grow at unit speed.  Under this normalization a monodisperse
start (all ages 0, no edges) reaches the critical edge density at time 1.

Every output (ages, cluster histogram, burn counters) depends on the graph
only through its connected components, and an edge inside a component
never changes them, so the state is the component partition alone: a
union-find forest in place of the edge set, kept in three flat int64
arrays (a parent per vertex, a successor that cycles through each
component, and a size per root; 24 bytes per vertex and no Python object
per vertex).  A union finds both roots with path halving, hangs the
smaller tree under the larger (union by size, so no tree is deeper than
log2 n) and splices the two cycles (Tarjan and van Leeuwen, J. ACM 31,
1984).  A strike walks its cycle and turns the component back into
singletons.  Within a block of events, the components that no strike
touches are merged in one numpy pass, and only the struck ones replay
their edges in time order.

The initial graph may be sampled as an age-driven inhomogeneous random
graph: conditional on the ages, each pair (v, w) is connected independently
with probability 1 - exp(-min(a(v), a(w)) / n), the family of laws that the
fire dynamics preserve.

Checkpoints emit the empirical age measure (n atoms of mass 1/n), the
cluster-size histogram, and cumulative burn counters; those feed the
W1 comparison against the deterministic age dynamics and two independent
estimators of the burning rate (windowed burn counts, and the cluster-tail
statistic (pi/2) * (sqrt(m) * sum_{k >= m} v_k)^2).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError
from .evolution import checkpoint_tag, checkpoint_times, snapshot_filename
from .measures import ProbabilityAgeMeasure


@dataclass(eq=False)
class FireGraph:
    """Mutable simulation state; one instance per run, never shared.

    The components live in three flat int64 buffers of length n (each a
    ``memoryview`` cast to ``'q'`` over a ``bytearray``; 24 bytes per
    vertex).  ``root`` is a union-find forest: ``root[v]`` is v's parent,
    a vertex of its own component, and following parents ends at the
    component's root r (``root[r] == r``) within log2 n steps, so
    ``root[v]`` is a label only at a root.  ``succ`` is a permutation whose
    cycles are the components: walking ``succ`` from any vertex visits its
    component once and returns.  ``size[r]`` is the size of the component
    of root r, and 0 off the roots.  Bulk readers view the buffers through
    ``np.frombuffer`` without a copy.
    ``edge_count`` is the number of edges :func:`sample_irg` drew; it is
    not updated afterwards.
    """

    n: int
    last_burn: np.ndarray        # age of v at time t is t - last_burn[v]
    root: memoryview
    succ: memoryview
    size: memoryview
    edge_count: int
    t: float
    rng: np.random.Generator

    def ages(self) -> np.ndarray:
        return self.t - self.last_burn


def sample_irg(ages, n: int | None = None, seed=None,
               method: str = "sorted") -> FireGraph:
    """Sample the age-driven inhomogeneous random graph.

    ``ages`` is an array of length n, or a scalar broadcast to n.  Pair
    (i, j) is connected with probability 1 - exp(-min(a_i, a_j) / n),
    independently.  The sampler sorts the vertices by age; in sorted order
    the edge probability from vertex i to every later vertex is constant,
    so binomial degrees plus uniform targets draw the edges in
    O(n log n + edges) array work (:func:`_sorted_irg_edges`), and
    :func:`_partition` turns them into components.  ``method`` accepts
    only ``"sorted"``.
    """
    ages_arr = np.asarray(ages, dtype=float)
    if n is not None and not float(n).is_integer():
        raise InputError(f"n must be an integer, got {n!r}")
    if ages_arr.ndim == 0:
        if n is None:
            raise InputError("scalar ages need an explicit n")
        ages_arr = np.full(int(n), float(ages_arr))
    n = int(n) if n is not None else ages_arr.size
    if n < 1:
        raise InputError("need at least one vertex")
    if ages_arr.size != n:
        raise InputError(f"got {ages_arr.size} ages for n = {n}")
    if not (np.isfinite(ages_arr) & (ages_arr >= 0)).all():
        raise InputError("ages must be finite and >= 0")
    if method != "sorted":
        raise InputError(f"unknown sampling method {method!r}")

    rng = np.random.default_rng(seed)
    u, v = _sorted_irg_edges(ages_arr, rng)
    root, succ, size = _partition(n, u, v)
    return FireGraph(n=n, last_burn=-ages_arr, root=root, succ=succ,
                     size=size, edge_count=u.size, t=0.0, rng=rng)


def _sorted_irg_edges(ages: np.ndarray, rng: np.random.Generator):
    """The edges of the age-driven random graph as two vertex arrays.

    In age order, vertex i joins each later vertex with the same
    probability p_i = 1 - exp(-age_i / n), so its number of later
    neighbours is Binomial(n - 1 - i, p_i) and, given that number, its
    neighbour set is a uniform subset of the later vertices.  One binomial
    call draws every degree (rows with p_i = 0 draw nothing) and one
    integers call every target; then only the repeated targets within a
    row are redrawn, until each row is distinct.  Which copies are redrawn
    depends only on which draws are equal, never on their values, so the
    law of a row's set is invariant under permutations of its candidates:
    a uniform subset of the drawn size.
    """
    n = ages.size
    order = np.argsort(ages, kind="stable")
    sorted_ages = ages[order]
    rows = np.flatnonzero(sorted_ages[:-1] > 0.0)
    if rows.size == 0:
        return np.empty(0, np.intp), np.empty(0, np.intp)
    span = n - 1 - rows                      # later vertices of each row
    deg = rng.binomial(span, -np.expm1(-sorted_ages[rows] / n))
    rows, span = np.repeat(rows, deg), np.repeat(span, deg)
    offset = rng.integers(span)              # target = row + 1 + offset
    while True:
        # group equal (row, target) pairs; rows * n + offset < n**2
        by_key = np.argsort(rows * n + offset)
        rows, span, offset = rows[by_key], span[by_key], offset[by_key]
        dup = 1 + np.flatnonzero((rows[1:] == rows[:-1])
                                 & (offset[1:] == offset[:-1]))
        if dup.size == 0:
            return order[rows], order[rows + 1 + offset]
        offset[dup] = rng.integers(span[dup])


def _partition(n: int, u: np.ndarray, v: np.ndarray):
    """``root``, ``succ`` and ``size`` (see :class:`FireGraph`) of the
    components of the graph with edges (u[k], v[k]), each a tree of depth
    at most one under its smallest vertex.

    :func:`_min_labels` labels each component by its smallest vertex.
    Then a stable argsort by label lists each component in increasing
    vertex order, its label first; each vertex's successor is the next one
    in its group, and the last closes the cycle on the label.  No Python
    object is built per vertex, and each temporary is freed once used.
    """
    label = _min_labels(n, u, v)
    root = _int64_buffer(label)
    size = _int64_buffer(np.bincount(label, minlength=n))
    order = np.argsort(label, kind="stable")
    label = label[order]                      # the label at each position
    nxt = np.empty(n, np.int64)
    nxt[:-1] = order[1:]
    ends = np.flatnonzero(label[1:] != label[:-1])
    nxt[ends] = label[ends]                   # a group's last closes on its label
    nxt[-1] = label[-1]
    del label, ends
    succ = np.empty(n, np.int64)
    succ[order] = nxt
    del order, nxt
    return root, _int64_buffer(succ), size


def _min_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest vertex of each vertex's component in the graph on
    ``range(n)`` with edges (u[k], v[k]).

    Min-label hooking with pointer jumping: ``label[x]`` is a vertex of x's
    component no larger than x, and each round hooks the larger label of
    every edge whose ends disagree onto the smaller one, then jumps every
    label to its fixed point.  Each round removes at least one label, and
    the sparse graphs met here settle in a few rounds.
    """
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        split = lu != lv
        if not split.any():
            return label
        np.minimum.at(label, np.maximum(lu, lv)[split], np.minimum(lu, lv)[split])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _int64_buffer(values: np.ndarray) -> memoryview:
    """A copy of an integer numpy array as a flat int64 buffer: a
    ``memoryview`` cast to ``'q'`` over a ``bytearray``.  Its items read
    and write as Python ints faster than an ``array('q')``, and it needs no
    extension module (loading ``array`` adds ~0.16 MB of resident memory to
    every process that imports the package)."""
    return memoryview(bytearray(np.ascontiguousarray(values, dtype=np.int64))).cast("q")


def add_edge(graph: FireGraph, i: int, j: int) -> None:
    """Join the components of i and j.  Each end is found with path
    halving, the root of the smaller tree is hung under the other one
    (union by size), and swapping the two roots' successors splices the
    cycles into one."""
    root, succ, size = graph.root, graph.succ, graph.size
    a, b = i, j
    while root[a] != a:
        root[a] = a = root[root[a]]
    while root[b] != b:
        root[b] = b = root[root[b]]
    if a == b:
        return
    if size[a] < size[b]:
        a, b = b, a
    root[b] = a
    succ[a], succ[b] = succ[b], succ[a]
    size[a] += size[b]
    size[b] = 0


def strike(graph: FireGraph, v: int) -> int:
    """Burn the component of v at the current time: its vertices become
    singletons (all its edges are gone) and their ages reset to zero.
    One walk along ``succ`` from v lists the component; ``root``,
    ``succ``, ``size`` and ``last_burn`` of its vertices are then reset by
    numpy writes.  Returns the component size."""
    succ = graph.succ
    comp = [v]
    u = succ[v]
    while u != v:
        comp.append(u)
        u = succ[u]
    comp = np.array(comp)
    for buffer in (graph.root, succ):
        np.frombuffer(buffer, np.int64)[comp] = comp
    np.frombuffer(graph.size, np.int64)[comp] = 1
    graph.last_burn[comp] = graph.t
    return comp.size


def empirical_age_measure(graph: FireGraph) -> ProbabilityAgeMeasure:
    """n atoms of mass 1/n at the current ages (duplicates merged)."""
    ages, counts = np.unique(graph.ages(), return_counts=True)
    return ProbabilityAgeMeasure(ages, counts / graph.n)


def cluster_sizes(graph: FireGraph) -> dict[int, int]:
    """Histogram {component size: number of components}."""
    counts = np.bincount(np.frombuffer(graph.size, np.int64))
    sizes = np.flatnonzero(counts[1:]) + 1
    return dict(zip(sizes.tolist(), counts[sizes].tolist()))


@dataclass(frozen=True, eq=False)
class SimRecord:
    """Checkpoint snapshot emitted by :func:`run`."""

    t: float
    n: int
    age_measure: ProbabilityAgeMeasure
    cluster_hist: dict[int, int]
    burn_events: int          # cumulative lightning strikes
    burned_vertices: int      # cumulative vertices burned (with repeats)
    phi_hat_window: float     # burned per vertex per unit time since last record
    edge_events: int          # cumulative edge events (joining or not)

    @property
    def largest_cluster(self) -> int:
        return max(self.cluster_hist) if self.cluster_hist else 0

    @property
    def n_clusters(self) -> int:
        return sum(self.cluster_hist.values())


#: events that :func:`run` draws at once; 16 384 added ~3 MB to the peak
#: resident memory of a 128 000-vertex run, 1 024 nothing measurable
_BLOCK = 1024


def run(graph: FireGraph, lambda_n: float, t_max: float,
        checkpoints: Sequence[float]) -> list[SimRecord]:
    """Drive the fire dynamics to t_max, emitting a record per checkpoint.

    Mutates ``graph`` in place and draws from ``graph.rng``.  The
    checkpoints follow :func:`~agefire.evolution.checkpoint_times` from the
    current time ``graph.t`` on.  Rates that would stop the clock are an
    InputError, but no cap bounds the expected number of events,
    t_max * ((n - 1) / 2 + n * lambda_n); ``agefire simulate`` applies one.

    The run stops at each checkpoint and then at t_max.  From the current
    time to each stop it draws blocks of ``_BLOCK`` events, each draw one
    numpy call per block: the waits (standard exponentials over the total
    rate, summed in order from the current time), the kinds (a uniform
    below the edge share is an edge event), a first vertex (the struck one
    of a strike) and a second one, uniform over the other n - 1 vertices
    without rejection (``integers(n - 1)``, plus one at or above the
    first).  :func:`_apply_events` applies the events before the stop (an
    event at a checkpoint's time follows its record): it merges the
    components that no strike touches at once and replays the rest in time
    order through :func:`add_edge` and :func:`strike`.  The draws past the
    stop are discarded.  No draw depends on the graph and the waits are
    memoryless, so drawing ahead and discarding change the stream but not
    the law.  Nothing is carried from one stop to the next, so a run split
    at a checkpoint, ``run(g, lam, c, [c])`` then
    ``run(g, lam, t_max, rest)``, gives the same graph and records as one
    run, apart from the cumulative counters, which restart.  A run with no
    events draws nothing.
    """
    if not (math.isfinite(lambda_n) and lambda_n >= 0):
        raise InputError("lambda_n must be finite and >= 0")
    if not math.isfinite(t_max):
        raise InputError("t_max must be finite")
    if t_max < graph.t:
        raise InputError(f"t_max = {t_max:g} is before the current time "
                         f"{graph.t:g}")
    n = graph.n
    rate_fire = n * lambda_n
    if not math.isfinite(rate_fire):
        raise InputError(f"the total lightning rate n * lambda_n = "
                         f"{n} * {lambda_n:g} is not finite")
    rate_edge = 0.5 * n * (n - 1) * (1.0 / n)   # candidate pairs, rate 1/n each
    rate_total = rate_edge + rate_fire
    if rate_total and t_max + 1.0 / rate_total == t_max:
        # the mean wait is below half an ulp of t_max: time would stop
        raise InputError(f"the total lightning rate n * lambda_n = "
                         f"{n} * {lambda_n:g} is too high to advance time "
                         f"at t_max = {t_max:g}")
    cps = list(checkpoint_times(checkpoints, graph.t, t_max).values())
    rng = graph.rng
    p_edge = rate_edge / rate_total if rate_total else 0.0

    records: list[SimRecord] = []
    edge_events = burn_events = burned_vertices = 0
    for k, stop in enumerate((*cps, t_max)):
        start, burned_before = graph.t, burned_vertices
        # a single vertex without lightning has no events: nothing is drawn
        while rate_total and graph.t < stop:
            waits = rng.standard_exponential(_BLOCK) / rate_total
            waits[0] += graph.t
            times = np.cumsum(waits)
            joins = rng.random(_BLOCK) < p_edge
            first, second = _vertex_pairs(rng, n, _BLOCK)
            cut = int(np.searchsorted(times, stop))   # the events before stop
            n_joins = int(np.count_nonzero(joins[:cut]))
            edge_events += n_joins
            burn_events += cut - n_joins
            burned_vertices += _apply_events(graph, joins[:cut], first[:cut],
                                             second[:cut], times[:cut])
            graph.t = min(float(times[-1]), stop)
        graph.t = stop
        if k == len(cps):
            break
        window = stop - start
        records.append(SimRecord(
            t=stop, n=n, age_measure=empirical_age_measure(graph),
            cluster_hist=cluster_sizes(graph), burn_events=burn_events,
            burned_vertices=burned_vertices, edge_events=edge_events,
            phi_hat_window=(burned_vertices - burned_before) / (n * window)
            if window > 0 else 0.0))
    return records


def _vertex_pairs(rng: np.random.Generator, n: int,
                  size: int) -> tuple[np.ndarray, np.ndarray]:
    """size pairs of a vertex i uniform in [0, n) and a vertex j uniform
    over the other n - 1: ``rng.integers(n, size=size)``, then
    ``rng.integers(n - 1, size=size)`` with each j at or above its i
    moved up by one, so no pair is redrawn.  A single vertex has no other
    one: j = i and the second draw is skipped."""
    first = rng.integers(n, size=size)
    if n == 1:
        return first, first
    second = rng.integers(n - 1, size=size)
    second += second >= first
    return first, second


def _apply_events(graph: FireGraph, joins, first, second, times) -> int:
    """Apply the events of one block segment: an edge event joins
    ``first`` and ``second``, a strike burns ``first`` at its time.
    Returns the number of vertices burned.

    The segment's edges join the components at its start into groups.
    Groups touch disjoint vertices and a strike burns part of its own
    group only, so a group that no strike hits ends as the union of its
    components whatever the order of its edges.  Those groups are merged
    at once in numpy: the root of each group's largest component wins,
    which keeps the union-by-size depth bound, and rotating the members'
    successors by one splices their cycles.  The edges of the struck
    groups and every strike are replayed in time order through
    :func:`add_edge` and :func:`strike`.
    """
    if not times.size:
        return 0
    root = np.frombuffer(graph.root, np.int64)
    succ = np.frombuffer(graph.succ, np.int64)
    size = np.frombuffer(graph.size, np.int64)
    edges = np.flatnonzero(joins)
    m = edges.size
    ends = np.concatenate((first[edges], second[edges], first[~joins]))
    # the roots at the segment start by pointer jumping; writing them back
    # compresses those paths
    r = root[ends]
    while True:
        up = root[r]
        if np.array_equal(up, r):
            break
        r = up
    root[ends] = r
    # compact ids: the k-th distinct root has id k
    order = np.argsort(r)
    new = _run_heads(r[order])
    ids = np.empty(r.size, np.intp)
    ids[order] = np.cumsum(new) - 1
    roots = r[order][new]
    group = _min_labels(roots.size, ids[:m], ids[m:2 * m])
    struck = np.zeros(roots.size, bool)
    struck[group[ids[2 * m:]]] = True
    # the strike-free groups, each listed largest component first
    members = np.flatnonzero(~struck[group])
    members = members[np.argsort(group[members] * (graph.n + 1)
                                 - size[roots[members]])]
    head = _run_heads(group[members])
    starts = np.flatnonzero(head)
    # each member takes the next one's successor, a group's last its first's
    nxt = np.empty_like(members)
    nxt[:-1] = members[1:]
    nxt[starts[1:] - 1] = members[starts[:-1]]
    nxt[-1:] = members[starts[-1:]]
    member_roots, winners = roots[members], roots[members[starts]]
    totals = np.add.reduceat(size[member_roots], starts)
    succ[member_roots] = succ[roots[nxt]]
    root[member_roots] = winners[np.cumsum(head) - 1]
    size[member_roots] = 0
    size[winners] = totals
    # the struck groups' edges and every strike, in time order
    replay = ~joins
    replay[edges] = struck[group[ids[:m]]]
    replay = np.flatnonzero(replay)
    burned = 0
    for join, i, j, t in zip(joins[replay].tolist(), first[replay].tolist(),
                             second[replay].tolist(), times[replay].tolist()):
        if join:
            add_edge(graph, i, j)
        else:
            graph.t = t
            burned += strike(graph, i)
    return burned


def _run_heads(values: np.ndarray) -> np.ndarray:
    """True where a run of equal values starts in ``values``."""
    head = np.empty(values.size, bool)
    head[:1] = True
    np.not_equal(values[1:], values[:-1], out=head[1:])
    return head


# ---------------------------------------------------------------------------
# Burning-rate estimators
# ---------------------------------------------------------------------------

def tail_phi_values(hist: dict[int, int], m_min: int = 4,
                    m_cap: int | None = None) -> np.ndarray:
    """Per-m values of (pi/2) * (sqrt(m) * sum_{k >= m} v_k)^2.

    v_k = k * count_k / n is the fraction of vertices in size-k clusters.
    The default cap n^(1/3) keeps m inside the power-law window: close to
    the largest cluster the finite-size cutoff dominates and the statistic
    blows up.  ``m_min`` and ``m_cap`` must be integers (``m_cap`` may be
    None); any other value is an InputError.
    """
    for name, value in (("m_min", m_min), ("m_cap", m_cap)):
        if value is not None:
            try:
                operator.index(value)
            except TypeError:
                raise InputError(f"{name} must be an integer, "
                                 f"got {value!r}") from None
    if not m_min >= 1:
        raise InputError("m_min must be >= 1")
    sizes = np.array(sorted(hist), dtype=float)
    counts = np.array([hist[int(s)] for s in sizes], dtype=float)
    n = float((sizes * counts).sum())
    if n <= 0:
        return np.empty(0)
    if m_cap is None:
        m_cap = max(m_min, int(round(n ** (1.0 / 3.0))))
    top = min(m_cap, int(sizes.max()))
    if top < m_min:
        return np.empty(0)
    v = sizes * counts / n
    ms = np.arange(m_min, top + 1, dtype=float)
    tails = np.array([v[sizes >= m].sum() for m in ms])
    return (np.pi / 2.0) * (np.sqrt(ms) * tails) ** 2


def tail_phi_estimate(hist: dict[int, int], m_min: int = 4,
                      m_cap: int | None = None) -> float:
    """Burning rate estimated from the cluster-size tail, averaged over m."""
    vals = tail_phi_values(hist, m_min, m_cap)
    return float(vals.mean()) if vals.size else 0.0


def tail_phi_spread(hist: dict[int, int], m_min: int = 4,
                    m_cap: int | None = None) -> float:
    """Spread (standard deviation over m) of the tail burning-rate values."""
    vals = tail_phi_values(hist, m_min, m_cap)
    return float(vals.std()) if vals.size else 0.0


def burn_rate_estimate(records: Sequence[SimRecord],
                       window: tuple[float, float]) -> float:
    """Burned vertices per vertex per unit time over [t0, t1].

    Cumulative burn counts are interpolated linearly between records when
    the window ends fall between checkpoints.
    """
    t0, t1 = float(window[0]), float(window[1])
    if math.isnan(t0) or math.isnan(t1):
        raise InputError("estimation window ends must be numbers")
    if t1 <= t0:
        raise InputError("empty estimation window")
    if not records:
        raise InputError("no records")
    ts = np.array([r.t for r in records])
    if t0 < ts[0] - 1e-9 or t1 > ts[-1] + 1e-9:
        raise InputError("window outside the recorded horizon")
    burned = np.array([r.burned_vertices for r in records], dtype=float)
    b0, b1 = np.interp([t0, t1], ts, burned)
    return float((b1 - b0) / (records[0].n * (t1 - t0)))


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

SIM_HEADER = ("t,burned_cum,largest_cluster,n_clusters,phi_hat_window,"
              "edge_events")


def write_sim_outputs(records: Sequence[SimRecord], out_dir) -> None:
    """sim.csv plus per-checkpoint age snapshots and cluster histograms."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [SIM_HEADER]
    for r in records:
        rows.append(f"{r.t:.12g},{r.burned_vertices},{r.largest_cluster},"
                    f"{r.n_clusters},{r.phi_hat_window:.17g},{r.edge_events}")
        r.age_measure.to_csv(out / snapshot_filename(r.t))
        hist_rows = ["size,count"] + [f"{k},{r.cluster_hist[k]}"
                                      for k in sorted(r.cluster_hist)]
        (out / f"clusters_{checkpoint_tag(r.t)}.csv").write_text("\n".join(hist_rows) + "\n")
    (out / "sim.csv").write_text("\n".join(rows) + "\n")
