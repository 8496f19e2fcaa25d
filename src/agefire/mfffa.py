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
union-find with member lists (Tarjan, J. ACM 22, 1975) in place of the
edge set.  A strike turns its component back into singletons.

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
from .measures import ProbabilityAgeMeasure


@dataclass(eq=False)
class FireGraph:
    """Mutable simulation state; one instance per run, never shared.

    ``root[v]`` labels the component of v, and ``members[r]`` lists the
    vertices of the component labelled r (empty when r is no label).  A
    label is always a member of its own component.  ``edge_count`` is the
    number of edges :func:`sample_irg` drew; it is not updated afterwards.
    """

    n: int
    last_burn: np.ndarray        # age of v at time t is t - last_burn[v]
    root: list[int]
    members: list[list[int]]
    edge_count: int
    t: float
    rng: np.random.Generator

    def ages(self) -> np.ndarray:
        return self.t - self.last_burn


def sample_irg(ages, n: int | None = None, seed=None,
               method: str = "auto") -> FireGraph:
    """Sample the age-driven inhomogeneous random graph.

    ``ages`` is an array of length n, or a scalar broadcast to n.  Pair
    (i, j) is connected with probability 1 - exp(-min(a_i, a_j) / n),
    independently.  ``method``:

    - ``"dense"``: O(n^2) Bernoulli sweep, row by row (default up to 3e4).
    - ``"sorted"``: sorts vertices by age; in sorted order the edge
      probability from vertex i to every later vertex is constant, so a
      binomial degree draw plus rejection sampling gives O(n + edges).
    - ``"auto"``: dense up to n = 30000, sorted beyond.
    """
    ages_arr = np.asarray(ages, dtype=float)
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
    if method == "auto":
        method = "dense" if n <= 30_000 else "sorted"
    if method not in ("dense", "sorted"):
        raise InputError(f"unknown sampling method {method!r}")

    rng = np.random.default_rng(seed)
    graph = FireGraph(n=n, last_burn=-ages_arr, root=list(range(n)),
                      members=[[v] for v in range(n)], edge_count=0, t=0.0,
                      rng=rng)
    if method == "dense":
        for i in range(n - 1):
            if ages_arr[i] == 0.0:
                continue  # min age 0 makes every pair probability 0
            p = -np.expm1(-np.minimum(ages_arr[i], ages_arr[i + 1:]) / n)
            hits = np.flatnonzero(rng.random(n - 1 - i) < p)
            for off in hits:
                add_edge(graph, i, i + 1 + int(off))
            graph.edge_count += hits.size
    else:
        order = np.argsort(ages_arr, kind="stable")
        sorted_ages = ages_arr[order]
        bits = rng.bit_generator.ctypes
        next_u32, state = bits.next_uint32, bits.state_address
        for i in range(n - 1):
            remaining = n - 1 - i
            p = -math.expm1(-sorted_ages[i] / n)
            if p <= 0.0:
                continue
            deg = int(rng.binomial(remaining, p))
            picked: set[int] = set()
            while len(picked) < deg:  # deg << remaining in the sparse regime
                picked.add(i + 1 + _uniform_index(next_u32, state, remaining))
            vi = int(order[i])
            for k in picked:
                add_edge(graph, vi, int(order[k]))
            graph.edge_count += deg
    return graph


def _uniform_index(next_u32, state, n: int) -> int:
    """A uniform integer in [0, n), 1 <= n <= 2**32, drawn as
    ``Generator.integers(n)`` draws it, bit for bit: Lemire's multiply-shift
    with rejection (ACM TOMACS 29, 2019) on the bit generator's C
    ``next_uint32``, called with its ``state_address``.  n = 1 draws
    nothing, as in numpy; ``integers(lo, hi)`` is
    ``lo + _uniform_index(..., hi - lo)``."""
    if n == 1:
        return 0
    m = next_u32(state) * n
    if m & 0xFFFFFFFF < n:  # the rejection threshold is below n
        threshold = (0x100000000 - n) % n
        while m & 0xFFFFFFFF < threshold:
            m = next_u32(state) * n
    return m >> 32


def add_edge(graph: FireGraph, i: int, j: int) -> None:
    """Join the components of i and j.  Union by size: the smaller member
    list is relabelled, so a root lookup is one list index."""
    root, members = graph.root, graph.members
    a, b = root[i], root[j]
    if a == b:
        return
    if len(members[a]) < len(members[b]):
        a, b = b, a
    for u in members[b]:
        root[u] = a
    members[a].extend(members[b])
    members[b] = []


def strike(graph: FireGraph, v: int) -> int:
    """Burn the component of v at the current time: its vertices become
    singletons (all its edges are gone) and their ages reset to zero.
    Returns the component size."""
    root, members = graph.root, graph.members
    comp = members[root[v]]
    graph.last_burn[comp] = graph.t
    for u in comp:
        root[u] = u
        members[u] = [u]
    return len(comp)


def empirical_age_measure(graph: FireGraph) -> ProbabilityAgeMeasure:
    """n atoms of mass 1/n at the current ages (duplicates merged)."""
    ages, counts = np.unique(graph.ages(), return_counts=True)
    return ProbabilityAgeMeasure(ages, counts / graph.n)


def cluster_sizes(graph: FireGraph) -> dict[int, int]:
    """Histogram {component size: number of components}."""
    sizes = np.bincount(graph.root)
    sizes, counts = np.unique(sizes[sizes > 0], return_counts=True)
    return dict(zip(sizes.tolist(), counts.tolist()))


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

    @property
    def largest_cluster(self) -> int:
        return max(self.cluster_hist) if self.cluster_hist else 0

    @property
    def n_clusters(self) -> int:
        return sum(self.cluster_hist.values())


def run(graph: FireGraph, lambda_n: float, t_max: float,
        checkpoints: Sequence[float], seed=None) -> list[SimRecord]:
    """Drive the fire dynamics to t_max, emitting a record per checkpoint.

    Mutates ``graph`` in place.  With ``seed`` given, the generator is
    reseeded so that (seed, config) determines the run bit for bit.

    The loop draws its uniforms through the bit generator's C entry points
    (``next_double``, ``next_uint32``), which give exactly the numbers of
    ``rng.random()`` and ``rng.integers(n)`` at a fraction of the call
    cost, and keeps ``rng.exponential``.  The C entry points bypass the
    bit generator's lock; taking ``bit_generator.lock`` around the loop
    would deadlock against ``rng.exponential``, and a graph's generator
    is never shared, so none is taken.
    """
    if not (math.isfinite(lambda_n) and lambda_n >= 0):
        raise InputError("lambda_n must be finite and >= 0")
    if not math.isfinite(t_max):
        raise InputError("t_max must be finite")
    cps = sorted(float(c) for c in checkpoints)
    if not all(graph.t <= c <= t_max + 1e-12 for c in cps):
        raise InputError("checkpoints must lie within (current time, t_max]")
    if seed is not None:
        graph.rng = np.random.default_rng(seed)
    rng = graph.rng
    n = graph.n
    rate_edge = 0.5 * n * (n - 1) * (1.0 / n)   # candidate pairs, rate 1/n each
    rate_fire = n * lambda_n
    rate_total = rate_edge + rate_fire
    if rate_total == 0.0:  # single vertex, no lightning: nothing ever happens
        records = []
        for c in cps:
            graph.t = c
            records.append(SimRecord(
                t=c, n=n, age_measure=empirical_age_measure(graph),
                cluster_hist=cluster_sizes(graph), burn_events=0,
                burned_vertices=0, phi_hat_window=0.0))
        graph.t = t_max
        return records
    p_edge = rate_edge / rate_total
    bits = rng.bit_generator.ctypes
    next_u32, next_double, state = (bits.next_uint32, bits.next_double,
                                    bits.state_address)

    records: list[SimRecord] = []
    burn_events = 0
    burned_vertices = 0
    prev_cp_t = graph.t
    prev_cp_burned = 0
    next_cp = 0

    def emit(cp_t: float):
        nonlocal prev_cp_t, prev_cp_burned
        window = cp_t - prev_cp_t
        rate = (burned_vertices - prev_cp_burned) / (n * window) if window > 0 else 0.0
        saved_t = graph.t
        graph.t = cp_t
        records.append(SimRecord(
            t=cp_t, n=n, age_measure=empirical_age_measure(graph),
            cluster_hist=cluster_sizes(graph), burn_events=burn_events,
            burned_vertices=burned_vertices, phi_hat_window=rate))
        graph.t = saved_t
        prev_cp_t, prev_cp_burned = cp_t, burned_vertices

    while True:
        t_next = graph.t + rng.exponential(1.0 / rate_total)
        while next_cp < len(cps) and cps[next_cp] <= t_next:
            emit(cps[next_cp])
            next_cp += 1
        if t_next > t_max:
            break
        graph.t = t_next
        if next_double(state) < p_edge:
            i = _uniform_index(next_u32, state, n)
            j = _uniform_index(next_u32, state, n)
            while j == i:
                j = _uniform_index(next_u32, state, n)
            add_edge(graph, i, j)
        else:
            burn_events += 1
            burned_vertices += strike(graph, _uniform_index(next_u32, state, n))
    graph.t = t_max
    return records


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
    if m_min < 1:
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

SIM_HEADER = "t,burned_cum,largest_cluster,n_clusters,phi_hat_window"


def write_sim_outputs(records: Sequence[SimRecord], out_dir) -> None:
    """sim.csv plus per-checkpoint age snapshots and cluster histograms."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [SIM_HEADER]
    for r in records:
        rows.append(f"{r.t:.12g},{r.burned_vertices},{r.largest_cluster},"
                    f"{r.n_clusters},{r.phi_hat_window:.17g}")
        r.age_measure.to_csv(out / f"snapshot_t{r.t:.6f}.csv")
        hist_rows = ["size,count"] + [f"{k},{r.cluster_hist[k]}"
                                      for k in sorted(r.cluster_hist)]
        (out / f"clusters_t{r.t:.6f}.csv").write_text("\n".join(hist_rows) + "\n")
    (out / "sim.csv").write_text("\n".join(rows) + "\n")
