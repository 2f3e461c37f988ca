"""Struct-of-arrays kernels for batched ECMP load accumulation.

The scalar reference path (``Routing._accumulate_destination``) walks one
destination's shortest-path DAG in pure Python: nodes in decreasing
distance order, each node's accumulated flow split evenly over its DAG
out-links.  This module replays exactly that computation as numpy
gather/scatter kernels over *many* rows at once, where a row is one
``(destination, injection-vector)`` pair — per-destination load rows for
the evaluator, per-source fraction rows for the SLA path.

Bit-identity contract
---------------------
The kernels are **bit-identical** to the scalar loop, not merely close,
because every floating-point operation is reproduced with the same
operands in the same per-slot order:

* Link weights are integers ``>= 1``, so equal-distance nodes are never
  DAG-connected and nodes of one *distance level* can be processed in
  lockstep: their flow updates only reach strictly closer levels.
* Within a level, the scalar loop's update sequence is (node order,
  ascending link within node); the schedule flattens the level in the
  same order, so per-slot addition order is preserved.
* Per-link load slots are written exactly once across the whole run (a
  link has one source node, which occupies one level of one row), and
  the loads never feed back into the flow recursion — so all per-level
  contributions can be scattered in a single fancy ``+=`` at the end.
  Each slot still receives exactly the one ``0.0 + share`` addition the
  scalar loop performs.  Per-node flow slots can receive several
  additions within one level; those are applied with ``np.add.at``,
  whose unbuffered semantics perform the additions one by one in
  operand order — so each slot receives its contributions in exactly
  the scalar sequence.
* The scalar loop skips zero-flow nodes; the kernels do not.  Demands
  are validated non-negative, so a skipped node contributes ``+0.0``
  shares, and ``x + 0.0`` is bitwise ``x`` for every non-negative ``x``.

Rows are independent (each row owns a disjoint slice of the flat flow
and load buffers), so any set of destinations — including the same
destination repeated with different injections — batches into one
schedule.
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro import obs

# Out-of-band telemetry (rule RL006): kernel timings and batch shapes.
_OBS_KERNEL_HELP = "Routing-kernel latency by kernel."
_OBS_ACCUMULATE_SECONDS = obs.histogram(
    "repro_routing_kernel_seconds", _OBS_KERNEL_HELP, {"kernel": "accumulate_rows"}
)
_OBS_SCHEDULE_SECONDS = obs.histogram(
    "repro_routing_kernel_seconds", _OBS_KERNEL_HELP, {"kernel": "build_schedule"}
)
_OBS_ACCUMULATE_ROWS = obs.histogram(
    "repro_routing_accumulate_rows",
    "Load rows per accumulate_rows call.",
    buckets=obs.SIZE_BUCKETS,
)


class DestinationDag(NamedTuple):
    """CSR shortest-path DAG toward one destination, plus its level order.

    Attributes:
        dst: The destination node.
        indptr: ``(num_nodes + 1,)`` slice bounds into ``links`` per
            source node.
        links: DAG link indices grouped by source node, ascending link
            index within each source (the order
            ``Routing.dag_out_links`` lists them).
        order: Finite-distance nodes excluding ``dst``, farthest first,
            ties broken by ascending node index — the processing order of
            :func:`repro.routing.spf.descending_distance_order` minus the
            destination itself (which is uniquely last at distance 0).
        levels: Dense distance-level id per ``order`` position
            (0 = farthest); nodes share a level iff their distances to
            ``dst`` are exactly equal.
        order_counts: DAG out-degree per ``order`` position
            (``indptr[u + 1] - indptr[u]`` for ``u = order[i]``).
    """

    dst: int
    indptr: np.ndarray
    links: np.ndarray
    order: np.ndarray
    levels: np.ndarray
    order_counts: np.ndarray


class _Step(NamedTuple):
    """One distance level of a schedule, flattened across all rows.

    ``rep`` expands the step's node-position axis to its link axis
    (``shares[rep]`` == ``shares.repeat(counts)``), precomputed so the
    hot accumulation loop only gathers.
    """

    flow_pos: np.ndarray
    counts_f: np.ndarray
    rep: np.ndarray
    dst_pos: np.ndarray


class Schedule(NamedTuple):
    """A compiled accumulation plan for a fixed list of DAG rows.

    ``load_pos`` is the flat load-buffer slot of every link contribution
    across all steps, in step order — the single end-of-run scatter
    target (each slot appears at most once, see the module contract).
    """

    num_rows: int
    num_nodes: int
    num_links: int
    steps: tuple[_Step, ...] = ()
    load_pos: np.ndarray | None = None


def _dag_arrays(net, weights, dist_rows):
    """Flattened SoA arrays for all destinations of ``dist_rows`` at once.

    The shared core of :func:`build_destination_dags` and
    :func:`build_arrays_and_schedule`: every per-destination sequence (node
    order, level ids, out-degrees, link-pool offsets) is assembled as one
    concatenated array plus per-destination boundaries, so callers only
    slice (to materialize :class:`DestinationDag` objects) or compile a
    schedule directly from the concatenations.
    """
    from repro.routing.spf import _DISTANCE_ATOL

    n = net.num_nodes
    k = dist_rows.shape[0]
    findptr, fperm = net.forward_csr_structure()
    srcs = net.link_sources()
    link_dst = net.link_destinations()
    m_f = fperm.size

    fin = np.isfinite(dist_rows)
    dmax = np.max(dist_rows, where=fin, initial=0.0)

    # Slack test evaluated directly in forward-CSR link order (grouped by
    # source node ascending, ascending link index within each source), so
    # the row-major flatnonzero below yields links already grouped the
    # way ``Routing.dag_out_links`` lists them.
    w = np.asarray(weights)
    sg = srcs[fperm]
    use_int = False
    if m_f and np.issubdtype(w.dtype, np.integer):
        use_int = 1 <= int(w.min()) and int(w.max()) <= 1000 and dmax <= 30000.0
    if use_int:
        # Distances under integer weights are exact integer-valued
        # float64 (sums of at most n - 1 weights, far below 2**53), so
        # the slack test is an exact integer equality; an int16 grid
        # quarters the memory traffic of the float subtraction.  With
        # the unreachable-endpoint sentinel 32767 and the gates above,
        # no sentinel combination lands on zero even through int16
        # wraparound: a sentinel source gives at least
        # ``32767 - 30000 - 1000 > 0``; a sentinel destination gives a
        # value in ``[-33767, -2768]``, which contains no multiple of
        # 65536; two sentinels give ``-w`` with ``w >= 1``.
        d16 = np.where(fin, dist_rows, 32767.0).astype(np.int16)
        slack = d16[:, sg]
        slack -= d16[:, link_dst[fperm]]
        slack -= w[fperm].astype(np.int16)
        mask_f = slack == 0
    else:
        # Float fallback: exact for the same reason whenever weights are
        # integral; an inf endpoint yields an inf or nan slack, and
        # neither passes the comparison.
        wf = w.astype(float)
        slack = dist_rows[:, sg]
        with np.errstate(invalid="ignore"):  # inf - inf on unreachable endpoints
            slack -= dist_rows[:, link_dst[fperm]]
            slack -= wf[fperm]
            np.abs(slack, out=slack)
            mask_f = slack <= _DISTANCE_ATOL
    flat = np.flatnonzero(mask_f)
    cols = flat % m_f if m_f else flat
    rows = flat // m_f if m_f else flat
    links_all = fperm[cols]
    counts = np.bincount(rows * n + sg[cols], minlength=k * n).reshape(k, n)
    indptr2d = np.zeros((k, n + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=indptr2d[:, 1:])
    row_bounds = np.concatenate(([0], np.cumsum(indptr2d[:, n])))

    # Farthest-first node order per row: the destination (distance 0) is
    # uniquely last among finite nodes because weights are >= 1.  When
    # every finite distance fits int16, sort on negated int16 keys — the
    # same ordering relation and tie behavior, but radix-sortable.
    if dmax < 32000.0:
        neg = np.where(fin, -dist_rows, 32767.0).astype(np.int16)
    else:
        neg = np.where(fin, -dist_rows, np.inf)
    order2d = np.argsort(neg, axis=1, kind="stable")
    num_finite = fin.sum(axis=1)
    sizes = np.maximum(num_finite - 1, 0)
    node_bounds = np.concatenate(([0], np.cumsum(sizes)))
    total = int(node_bounds[-1])
    rows_g = np.repeat(np.arange(k, dtype=np.int64), sizes)
    cols_g = np.arange(total) - node_bounds[:-1].repeat(sizes)
    rn = rows_g * n
    order_cat = order2d.reshape(-1).take(rn + cols_g)

    levels_cat = np.zeros(total, dtype=np.int64)
    oc_cat = np.empty(total, dtype=np.int64)
    starts = np.empty(total, dtype=np.int64)
    if total:
        # Segmented level ids: +1 whenever the distance changes within a
        # row; a global cumsum re-zeroed at each row start.  The sort
        # keys compare equal exactly when the distances do, so they
        # serve as the level-change test too.
        dv = neg.reshape(-1).take(rn + order_cat)
        inc = np.zeros(total, dtype=np.int32)
        inc[1:] = (dv[1:] != dv[:-1]) & (rows_g[1:] == rows_g[:-1])
        cum = np.cumsum(inc)
        per_row = np.diff(node_bounds)
        first = np.zeros(k, dtype=np.int32)
        nonempty = per_row > 0
        first[nonempty] = cum[node_bounds[:-1][nonempty]]
        levels_cat = cum - np.repeat(first, per_row)

        ipf = indptr2d.reshape(-1)
        flat_no = rows_g * (n + 1) + order_cat
        at_node = ipf.take(flat_no)
        oc_cat = ipf.take(flat_no + 1) - at_node
        starts = row_bounds[rows_g] + at_node

    return (
        links_all,
        row_bounds,
        indptr2d,
        rows_g,
        order_cat,
        levels_cat,
        oc_cat,
        starts,
        node_bounds,
    )


def slice_destination_dags(dests, arrays) -> list[DestinationDag]:
    """Materialize per-destination :class:`DestinationDag` views.

    ``arrays`` is the flattened bundle returned through
    :func:`build_arrays_and_schedule`; slicing is cheap but not free
    (~microseconds per destination), so schedule-only callers defer it
    until some caller actually asks for the DAG tuples.
    """
    (
        links_all,
        row_bounds,
        indptr2d,
        _rows_g,
        order_cat,
        levels_cat,
        oc_cat,
        _starts,
        node_bounds,
    ) = arrays
    rb = row_bounds.tolist()  # python ints slice ~3x faster than np scalars
    nb = node_bounds.tolist()
    dags = []
    for i, t in enumerate(dests):
        a, b = nb[i], nb[i + 1]
        dags.append(
            DestinationDag(
                t,
                indptr2d[i],
                links_all[rb[i] : rb[i + 1]],
                order_cat[a:b],
                levels_cat[a:b],
                oc_cat[a:b],
            )
        )
    return dags


def build_destination_dags(net, weights, dist_rows, dests) -> list[DestinationDag]:
    """SoA DAGs for several destinations from one broadcast slack test.

    Args:
        net: The network.
        weights: Per-link weights ``dist_rows`` was computed with.
        dist_rows: ``(k, num_nodes)`` distance rows, ``dist_rows[i, u] =
            dist(u, dests[i])``.
        dests: The ``k`` destination nodes, aligned with ``dist_rows``.

    Returns:
        One :class:`DestinationDag` per destination, in ``dests`` order.
    """
    dests = [int(t) for t in dests]
    dist_rows = np.asarray(dist_rows, dtype=float)
    return slice_destination_dags(dests, _dag_arrays(net, weights, dist_rows))


def build_arrays_and_schedule(net, weights, dist_rows, dests, link_dst):
    """Flattened DAG arrays plus their compiled schedule in one pass.

    Equivalent to ``dags = build_destination_dags(...)`` followed by
    ``build_schedule(dags, ...)``, but the schedule is compiled straight
    from the flattened arrays the DAG builder already produced — the
    from-scratch evaluator path, where no destination is cached yet.
    Returns ``(arrays, schedule)``; pass ``arrays`` to
    :func:`slice_destination_dags` to materialize the per-destination
    tuples (deferred because load-mode evaluations never read them).
    """
    dests = [int(t) for t in dests]
    dist_rows = np.asarray(dist_rows, dtype=float)
    arrays = _dag_arrays(net, weights, dist_rows)
    links_all = arrays[0]
    rows_g, order_cat, levels_cat, oc_cat, starts = arrays[3:8]
    k, n, m = len(dests), net.num_nodes, net.num_links
    if order_cat.size == 0:
        return arrays, Schedule(k, n, m)
    schedule = _compile_schedule(
        order_cat, levels_cat, oc_cat, links_all, starts, rows_g, link_dst, k, n, m
    )
    return arrays, schedule


def _ragged_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices ``concat(arange(s, s + c) for s, c in zip(starts, counts))``."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    exclusive = np.cumsum(counts) - counts
    return np.repeat(starts - exclusive, counts) + np.arange(total)


def build_schedule(dags, link_dst, num_nodes: int, num_links: int) -> Schedule:
    """Compile an accumulation plan for a list of DAG rows.

    The same :class:`DestinationDag` may appear several times — each
    occurrence is an independent row (the pair-fraction path batches one
    destination against many unit injections this way).

    Args:
        dags: One DAG per row.
        link_dst: ``net.link_destinations()``.
        num_nodes: Node count (flow-buffer row stride).
        num_links: Link count (load-buffer row stride).
    """
    started = perf_counter()
    k = len(dags)
    if k == 0:
        return Schedule(0, num_nodes, num_links)
    n, m = num_nodes, num_links

    sizes = np.fromiter((dag.order.size for dag in dags), dtype=np.int64, count=k)
    if int(sizes.sum()) == 0:
        return Schedule(k, n, m)
    node_cat = np.concatenate([dag.order for dag in dags])
    level_cat = np.concatenate([dag.levels for dag in dags])
    count_cat = np.concatenate([dag.order_counts for dag in dags])
    # Link pool: each distinct DAG's CSR link stream appears once;
    # repeated rows (the pair-fraction batching routes one destination
    # against many injections) point into the same pool segment.
    pool_parts: list[np.ndarray] = []
    pool_offset: dict[int, int] = {}
    starts_parts = []
    offset = 0
    for dag in dags:
        off = pool_offset.get(id(dag))
        if off is None:
            pool_offset[id(dag)] = off = offset
            pool_parts.append(dag.links)
            offset += dag.links.size
        starts_parts.append(dag.indptr[dag.order] + off)
    link_pool = np.concatenate(pool_parts)
    link_starts = np.concatenate(starts_parts)
    row_cat = np.repeat(np.arange(k, dtype=np.int64), sizes)
    schedule = _compile_schedule(
        node_cat, level_cat, count_cat, link_pool, link_starts, row_cat, link_dst, k, n, m
    )
    _OBS_SCHEDULE_SECONDS.observe(perf_counter() - started)
    return schedule


def _compile_schedule(
    node_cat, level_cat, count_cat, link_pool, link_starts, row_cat, link_dst, k, n, m
) -> Schedule:
    """Compile a schedule from flattened per-row sequences.

    ``link_starts[i]`` is the offset into ``link_pool`` of the
    ``count_cat[i]`` out-links of node position ``i``.  Everything is
    computed in ONE flattened pass over all rows, sorted by distance
    level; the per-step loop at the end only takes slices.  Stability of
    the level sort keeps the within-level order (row, then
    farthest-first node position) the scalar loop has.

    Node positions with no DAG out-links are dropped first: they pass no
    flow on, and dividing their flow by a zero out-degree would only
    make a NaN share that no link receives.  A normal routing has none
    (every finite node reaches ``dst`` over some DAG link); a routing
    derived for a node failure keeps a stale finite distance for the
    failed node, whose out-links are gone.
    """
    if not count_cat.all():
        keep = count_cat > 0
        node_cat, level_cat, count_cat = node_cat[keep], level_cat[keep], count_cat[keep]
        link_starts, row_cat = link_starts[keep], row_cat[keep]
        if node_cat.size == 0:
            return Schedule(k, n, m)
    num_steps = int(level_cat.max()) + 1
    if num_steps < 32000:  # radix-sortable level keys (the usual case)
        by_level = np.argsort(level_cat.astype(np.int16), kind="stable")
    else:
        by_level = np.argsort(level_cat, kind="stable")
    bounds = np.searchsorted(level_cat[by_level], np.arange(num_steps + 1))
    # Index arrays stay int64 (numpy's intp): narrower dtypes would be
    # converted back on every fancy-index call in the hot loop.
    row_lv = row_cat[by_level]
    counts_lv = count_cat[by_level]
    counts_f_lv = counts_lv.astype(float)
    flow_pos_lv = row_lv * n + node_cat[by_level]

    lidx = _ragged_gather(link_starts[by_level], counts_lv)
    links_lv = link_pool[lidx]
    link_row_lv = row_lv.repeat(counts_lv)
    load_pos_lv = link_row_lv * m + links_lv
    flow_dst_pos = link_row_lv * n + link_dst[links_lv]
    rep_lv = np.repeat(np.arange(counts_lv.size, dtype=np.int64), counts_lv)
    link_bounds = np.concatenate(([0], np.cumsum(counts_lv)))[bounds].tolist()
    bounds = bounds.tolist()

    steps = []
    for s in range(num_steps):
        a, b = bounds[s], bounds[s + 1]
        la, lb = link_bounds[s], link_bounds[s + 1]
        steps.append(
            _Step(
                flow_pos=flow_pos_lv[a:b],
                counts_f=counts_f_lv[a:b],
                rep=rep_lv[la:lb] - a,
                dst_pos=flow_dst_pos[la:lb],
            )
        )
    return Schedule(k, n, m, tuple(steps), load_pos_lv)


def accumulate_rows(schedule: Schedule, injections: np.ndarray) -> np.ndarray:
    """Run a schedule: per-row ECMP load accumulation in lockstep.

    Args:
        schedule: Output of :func:`build_schedule`.
        injections: ``(num_rows, num_nodes)`` per-row injections (row
            ``i`` is the demand toward row ``i``'s destination).

    Returns:
        ``(num_rows, num_links)`` load rows, bit-identical to running the
        scalar accumulation loop on each row separately.
    """
    k, n, m = schedule.num_rows, schedule.num_nodes, schedule.num_links
    started = perf_counter()
    _OBS_ACCUMULATE_ROWS.observe(k)
    inj = np.asarray(injections, dtype=float)
    if inj.shape != (k, n):
        raise ValueError(f"expected injections of shape ({k}, {n}), got {inj.shape}")
    flow = np.array(inj, dtype=float, copy=True, order="C").reshape(k * n)
    rows = np.zeros(k * m)
    if schedule.steps:
        chunks = []
        for step in schedule.steps:
            shares = flow.take(step.flow_pos)
            shares /= step.counts_f
            per_link = shares.take(step.rep)
            chunks.append(per_link)
            # Unbuffered scatter-add: contributions land per slot in
            # stream order, which is the scalar loop's order.
            np.add.at(flow, step.dst_pos, per_link)
        # Load slots are unique across the whole run and never feed the
        # flow recursion, so one deferred fancy += lands each slot's
        # single 0.0 + share addition — the scalar loop's exact bits.
        rows[schedule.load_pos] += np.concatenate(chunks)
    _OBS_ACCUMULATE_SECONDS.observe(perf_counter() - started)
    return rows.reshape(k, m)
