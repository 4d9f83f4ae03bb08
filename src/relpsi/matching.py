"""Layered augmenting-path maximum flow for the bipartite multiset matching
used by the order-divisibility bijection decision.

The graph is tiny (one node per distinct relative-order value on each side),
so a plain Dinic implementation with BFS layering is plenty; its last BFS,
which finds no path to the sink, marks the source side of a minimum cut.
"""

from __future__ import annotations

from collections import deque

__all__ = ["MaxFlow"]

_INF = float("inf")


class MaxFlow:
    def __init__(self, num_nodes: int):
        self.n = num_nodes
        self.graph: list[list[list]] = [[] for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, capacity) -> None:
        # edge and reverse edge reference each other by index; the fourth
        # field marks original capacity so forward edges are recognizable
        self.graph[u].append([v, capacity, len(self.graph[v]), capacity])
        self.graph[v].append([u, 0, len(self.graph[u]) - 1, 0])

    def _bfs(self, source: int, sink: int) -> bool:
        self.level = [-1] * self.n
        self.level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v, cap, _, _ in self.graph[u]:
                if cap > 0 and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    queue.append(v)
        return self.level[sink] >= 0

    def _dfs(self, u: int, sink: int, pushed):
        if u == sink:
            return pushed
        while self.it[u] < len(self.graph[u]):
            edge = self.graph[u][self.it[u]]
            v, cap, rev, _ = edge
            if cap > 0 and self.level[v] == self.level[u] + 1:
                flow = self._dfs(v, sink, min(pushed, cap))
                if flow > 0:
                    edge[1] -= flow
                    self.graph[v][rev][1] += flow
                    return flow
            self.it[u] += 1
        return 0

    def max_flow(self, source: int, sink: int) -> int:
        total = 0
        while self._bfs(source, sink):
            self.it = [0] * self.n
            while True:
                flow = self._dfs(source, sink, _INF)
                if flow == 0:
                    break
                total += flow
        return total

    def min_cut_reachable(self, source: int) -> set[int]:
        """Nodes reachable from the source in the residual graph, the source
        side of a minimum cut / Hall violator; call after max_flow, whose
        last BFS from the source found no path to the sink and levelled
        exactly these nodes."""
        return {v for v, level in enumerate(self.level) if level >= 0}

    def flow_on_edges(self, u: int):
        """(target, flow) for the forward edges out of u that carry flow."""
        return [(v, orig - cap) for v, cap, _, orig in self.graph[u] if orig - cap > 0]
