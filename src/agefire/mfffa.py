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
union-find in place of the edge set, kept in three flat int64 arrays (a
label per vertex, a successor that cycles through each component, and a
size per label; 24 bytes per vertex and no Python object per vertex).
Union by size relabels the smaller cycle and splices the two (Tarjan,
J. ACM 22, 1975).  A strike turns its component back into singletons.

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
    vertex).  ``root[v]`` labels the component of v, and a label is a
    vertex of its own component (``root[r] == r``).  ``succ`` is a
    permutation whose cycles are the components: walking ``succ`` from any
    vertex visits its component once and returns.  ``size[r]`` is the size
    of the component labelled r, and 0 when r is no label.  Bulk readers
    view the buffers through ``np.frombuffer`` without a copy.
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
    components of the graph with edges (u[k], v[k]), each labelled by its
    smallest vertex.

    Min-label hooking with pointer jumping: ``label[x]`` is a vertex of x's
    component no larger than x, and each round hooks the larger label of
    every edge whose ends disagree onto the smaller one, then jumps every
    label to its fixed point.  Each round removes at least one label, and
    the sparse graphs sampled here settle in a few rounds.  Then a stable
    argsort by label lists each component in increasing vertex order, its
    label first; each vertex's successor is the next one in its group, and
    the last closes the cycle on the label.  No Python object is built per
    vertex, and each temporary is freed once used.
    """
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        split = lu != lv
        if not split.any():
            break
        np.minimum.at(label, np.maximum(lu, lv)[split], np.minimum(lu, lv)[split])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    del lu, lv, split
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


def _int64_buffer(values: np.ndarray) -> memoryview:
    """A copy of an integer numpy array as a flat int64 buffer: a
    ``memoryview`` cast to ``'q'`` over a ``bytearray``.  Its items read
    and write as Python ints faster than an ``array('q')``, and it needs no
    extension module (loading ``array`` adds ~0.16 MB of resident memory to
    every process that imports the package)."""
    return memoryview(bytearray(np.ascontiguousarray(values, dtype=np.int64))).cast("q")


def add_edge(graph: FireGraph, i: int, j: int) -> None:
    """Join the components of i and j.  Union by size: the smaller cycle
    is relabelled, so a root lookup is one index, and swapping the two
    labels' successors splices the cycles into one."""
    root, succ, size = graph.root, graph.succ, graph.size
    a, b = root[i], root[j]
    if a == b:
        return
    if size[a] < size[b]:
        a, b = b, a
    u = b
    while True:
        root[u] = a
        u = succ[u]
        if u == b:
            break
    succ[a], succ[b] = succ[b], succ[a]
    size[a] += size[b]
    size[b] = 0


def strike(graph: FireGraph, v: int) -> int:
    """Burn the component of v at the current time: its vertices become
    singletons (all its edges are gone) and their ages reset to zero.
    Returns the component size."""
    root, succ, size = graph.root, graph.succ, graph.size
    comp = []
    u = v
    for _ in range(size[root[v]]):
        comp.append(u)
        w = succ[u]
        root[u] = succ[u] = u
        size[u] = 1
        u = w
    graph.last_burn[comp] = graph.t
    return len(comp)


def empirical_age_measure(graph: FireGraph) -> ProbabilityAgeMeasure:
    """n atoms of mass 1/n at the current ages (duplicates merged)."""
    ages, counts = np.unique(graph.ages(), return_counts=True)
    return ProbabilityAgeMeasure(ages, counts / graph.n)


def cluster_sizes(graph: FireGraph) -> dict[int, int]:
    """Histogram {component size: number of components}."""
    counts = np.bincount(np.bincount(np.frombuffer(graph.root, np.int64)))
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

    The events are drawn in blocks of ``_BLOCK``, each draw one numpy call
    per block: the waits (standard exponentials over the total rate,
    summed in order from the current time), the kinds (a uniform below
    the edge share is an edge event), a first vertex (the struck one of a
    strike) and a second one, uniform over the other n - 1 vertices
    without rejection (``integers(n - 1)``, plus one at or above the
    first).  No draw depends on the graph, so drawing ahead changes the
    stream but not the law; the wait that overshoots t_max is discarded,
    which the memoryless waits make exact.  Each block is cut at the
    checkpoints and at t_max (an event at a checkpoint's time follows its
    record), and one Python pass applies each segment through
    :func:`add_edge` and :func:`strike`.  A run with no events draws
    nothing.
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
    prev_cp_t = graph.t
    prev_cp_burned = 0
    next_cp = 0

    def emit(cp_t: float):
        nonlocal prev_cp_t, prev_cp_burned
        window = cp_t - prev_cp_t
        rate = (burned_vertices - prev_cp_burned) / (n * window) if window > 0 else 0.0
        graph.t = cp_t
        records.append(SimRecord(
            t=cp_t, n=n, age_measure=empirical_age_measure(graph),
            cluster_hist=cluster_sizes(graph), burn_events=burn_events,
            burned_vertices=burned_vertices, phi_hat_window=rate,
            edge_events=edge_events))
        prev_cp_t, prev_cp_burned = cp_t, burned_vertices

    # a single vertex without lightning has no events: nothing is drawn
    t = graph.t
    while rate_total:
        waits = rng.standard_exponential(_BLOCK) / rate_total
        waits[0] += t
        times = np.cumsum(waits)
        joins = rng.random(_BLOCK) < p_edge
        first, second = _vertex_pairs(rng, n, _BLOCK)
        end = int(np.searchsorted(times, t_max, side="right"))
        lo = 0
        while True:
            at_cp = next_cp < len(cps) and cps[next_cp] <= times[-1]
            hi = int(np.searchsorted(times, cps[next_cp])) if at_cp else end
            n_joins = int(np.count_nonzero(joins[lo:hi]))
            edge_events += n_joins
            burn_events += hi - lo - n_joins
            burned_vertices += _apply_events(graph, joins[lo:hi], first[lo:hi],
                                             second[lo:hi], times[lo:hi])
            if not at_cp:
                break
            emit(cps[next_cp])
            next_cp += 1
            lo = hi
        if end < _BLOCK:
            break
        t = float(times[-1])
    for cp_t in cps[next_cp:]:
        emit(cp_t)
    graph.t = t_max
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
    """Apply the events of one block segment in time order: an edge event
    joins ``first`` and ``second``, a strike burns ``first`` at its time.
    Returns the number of vertices burned."""
    burned = 0
    for join, i, j, t in zip(joins.tolist(), first.tolist(), second.tolist(),
                             times.tolist()):
        if join:
            add_edge(graph, i, j)
        else:
            graph.t = t
            burned += strike(graph, i)
    return burned


# ---------------------------------------------------------------------------
# Burning-rate estimators
# ---------------------------------------------------------------------------

def tail_phi_values(hist: dict[int, int], m_min: int = 4,
                    m_cap: int | None = None) -> np.ndarray:
    """Per-m values of (pi/2) * (sqrt(m) * sum_{k >= m} v_k)^2.

    v_k = k * count_k / n is the fraction of vertices in size-k clusters.
    The default cap n^(1/3) keeps m inside the power-law window: close to
    the largest cluster the finite-size cutoff dominates and the statistic
    blows up.
    """
    if not m_min >= 1:
        raise InputError("m_min must be >= 1")
    if m_cap is not None and math.isnan(m_cap):
        raise InputError("m_cap must be a number")
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
