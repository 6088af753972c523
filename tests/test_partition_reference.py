"""The partition layer against a plain-Python reference.

The reference functions below are the dict-and-set traversals the partition
layer used before it moved to ``scipy.sparse.csgraph``: a breadth-first
search over sorted bus names, the carve loop with per-bus descendant sets,
a depth-first search for the switch-free components and a per-sub-network
search for plan connectedness.  The sparse code must reproduce their output
exactly, on drawn feeders and on the fixed feeders the acceptance tests and
the benchmark use.
"""

from typing import Dict, List, Optional, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netgen
from sdpse.errors import ValidationError
from sdpse.partition import (
    PartitionPlan,
    detect_topology,
    propose_anchors,
    separate,
    separate_on_switches,
    validate_plan,
)


def ref_adjacency(model) -> Dict[str, Set[str]]:
    adj: Dict[str, Set[str]] = {b.id: set() for b in model.buses}
    rows, cols = np.nonzero(model.ybus)
    for r, c in zip(rows, cols):
        bi, bj = model.nodes[r].bus, model.nodes[c].bus
        if r != c and bi != bj:
            adj[bi].add(bj)
            adj[bj].add(bi)
    return adj


def ref_topology(model):
    adj = ref_adjacency(model)
    head = model.feeder_head
    parent: Dict[str, Optional[str]] = {head: None}
    order = [head]
    queue = [head]
    while queue:
        i = queue.pop(0)
        for j in sorted(adj[i]):
            if j in parent:
                continue
            parent[j] = i
            order.append(j)
            queue.append(j)
    return order, parent


def ref_separate(order, parent, d) -> List[List[str]]:
    children: Dict[str, List[str]] = {b: [] for b in order}
    for b in order[1:]:
        children[parent[b]].append(b)
    gen: Dict[str, Set[str]] = {b: set() for b in order}
    for i in reversed(order):
        for c in children[i]:
            gen[i].add(c)
            gen[i] |= gen[c]
    pos = {b: i for i, b in enumerate(order)}
    carved: Set[str] = set()
    subs: List[List[str]] = []
    while True:
        candidates = [b for b in order if b not in carved and len(gen[b]) > 0]
        if not candidates:
            break
        i = min(candidates, key=lambda b: (abs(d - (len(gen[b]) + 1)), pos[b]))
        sub = ({i} | gen[i]) - carved
        subs.append(sorted(sub, key=pos.get))
        a = parent[i]
        while a is not None:
            gen[a] -= sub
            a = parent[a]
        for s in sub:
            gen[s] = set()
            carved.add(s)
    leftover = [b for b in order if b not in carved]
    if leftover:
        subs.append(leftover)
    return subs


def ref_switch_components(model) -> List[List[str]]:
    adj: Dict[str, Set[str]] = {b.id: set() for b in model.buses}
    for br in model.branches:
        if br.is_switch or not br.in_service:
            continue
        bl, bm = model.nodes[br.from_node].bus, model.nodes[br.to_node].bus
        if bl != bm:
            adj[bl].add(bm)
            adj[bm].add(bl)
    pos = {b.id: i for i, b in enumerate(model.buses)}
    seen: Set[str] = set()
    subs = []
    for b in model.buses:
        if b.id in seen:
            continue
        comp, stack = [], [b.id]
        seen.add(b.id)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in sorted(adj[i]):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        subs.append(sorted(comp, key=pos.get))
    return subs


def ref_first_disconnected(model, subs) -> Optional[int]:
    adj = ref_adjacency(model)
    for k, sub in enumerate(subs):
        sset = set(sub)
        stack, comp = [sub[0]], {sub[0]}
        while stack:
            i = stack.pop()
            for j in adj[i]:
                if j in sset and j not in comp:
                    comp.add(j)
                    stack.append(j)
        if comp != sset:
            return k
    return None


def ref_proposed_buses(model, subs) -> List[str]:
    adj = ref_adjacency(model)
    return [max(sub, key=lambda b: len(adj[b])) for sub in subs]


def check_against_reference(model, sizes):
    order, parent = ref_topology(model)
    topo = detect_topology(model)
    assert topo.order == order
    assert topo.parent == parent
    for d in sizes:
        plan = separate(model, topo, d)
        assert plan.sub_networks == ref_separate(order, parent, d), d
        assert [a.bus for a in propose_anchors(model, plan)] == ref_proposed_buses(
            model, plan.sub_networks
        )
    switch_plan = separate_on_switches(model)
    assert switch_plan.sub_networks == ref_switch_components(model)


@st.composite
def feeder_docs(draw):
    n = draw(st.integers(2, 60))
    doc = netgen.tree_doc(
        n,
        seed=draw(st.integers(0, 10_000)),
        trunk_bias=draw(st.integers(0, 5)),
        meshed_extra=draw(st.integers(0, 4)) if n >= 5 else 0,
    )
    switches = draw(st.sets(st.integers(0, len(doc["branches"]) - 1), max_size=4))
    for idx in switches:
        doc["branches"][idx]["is_switch"] = True
    return doc


@settings(max_examples=30, deadline=None)
@given(doc=feeder_docs(), data=st.data())
def test_partition_matches_reference_on_drawn_feeders(doc, data):
    model = netgen.model_from(doc)
    n = len(model.buses)
    sizes = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    check_against_reference(model, sizes)
    # Plan connectedness on a random grouping of the buses.
    k = data.draw(st.integers(1, n))
    labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    subs = [
        [b.id for b, lab in zip(model.buses, labels) if lab == g]
        for g in sorted(set(labels))
    ]
    want = ref_first_disconnected(model, subs)
    if want is None:
        validate_plan(model, PartitionPlan(subs, []))
    else:
        message = f"^sub-network {want} is not connected$"
        with pytest.raises(ValidationError, match=message):
            validate_plan(model, PartitionPlan(subs, []))


@pytest.mark.parametrize(
    "doc, sizes",
    [
        (netgen.tree_doc(500, seed=11, trunk_bias=4), [60]),
        (netgen.tree_doc(96, seed=7, trunk_bias=3), [8]),
        (netgen.multiphase_feeder_doc(), [1, 3, 8]),
    ],
    ids=["c07-500-bus", "bench-96-bus", "multiphase-38-node"],
)
def test_partition_matches_reference_on_fixed_feeders(doc, sizes):
    check_against_reference(netgen.model_from(doc), sizes)
