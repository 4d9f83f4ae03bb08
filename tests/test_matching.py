"""What `MaxFlow` reads off after `max_flow`: the source side of a minimum cut
and the flow on each forward edge, checked against the residual graph; and
the exact int flow with the bijection certificates built from it."""

import hashlib
import random
from collections import deque

from relpsi.matching import MaxFlow
from relpsi.subgroup_lattice import all_subgroups
from relpsi.verify import bijection_exists, default_catalog


def random_flow(seed):
    """A seeded graph on at most 12 nodes with at most 30 edges of capacity
    1..9 (parallel edges allowed), after a max flow from node 0 to the last."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    flow = MaxFlow(n)
    for _ in range(rng.randint(0, 30)):
        u, v = rng.sample(range(n), 2)
        flow.add_edge(u, v, rng.randint(1, 9))
    return flow, flow.max_flow(0, n - 1)


def residual_reachable(flow, source):
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v, cap, _, _ in flow.graph[u]:
            if cap > 0 and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def test_min_cut_and_edge_flows_match_the_residual_graph():
    for seed in range(300):
        flow, total = random_flow(seed)
        reachable = flow.min_cut_reachable(0)
        assert reachable == residual_reachable(flow, 0), seed
        assert flow.n - 1 not in reachable, seed
        # a minimum cut: the forward edges leaving the source side carry its capacity
        cut = sum(orig for u in reachable for v, _, _, orig in flow.graph[u] if v not in reachable)
        assert cut == total, seed
        for u in range(flow.n):
            # each push adds to the reverse edge what it takes from the forward one
            on_reverse = [(v, flow.graph[v][rev][1]) for v, _, rev, orig in flow.graph[u]
                          if orig > 0 and flow.graph[v][rev][1] > 0]
            assert flow.flow_on_edges(u) == on_reverse, (seed, u)


def test_max_flow_is_an_int():
    for seed in range(300):
        _, total = random_flow(seed)
        assert type(total) is int, seed


def test_bijection_certificates_are_pinned():
    # every certificate of each subgroup of the catalog up to order 32, as
    # the flow gave them when its pushes were seeded with float("inf")
    digest, outcomes = hashlib.sha256(), [0, 0]
    for G in default_catalog(32):
        for H in all_subgroups(G):
            res = bijection_exists(G, H)
            outcomes[res.exists] += 1
            digest.update(repr((G.name, H.elements(), res.witness, res.deficient_values,
                                res.neighborhood_values)).encode())
    assert outcomes == [113, 1150]
    assert digest.hexdigest() == "62c5fa893adcec6aeab7eec7d59c797c11951197efaf291ea0b892ec1787d84c"
