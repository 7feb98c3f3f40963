"""Acyclic quivers, dimension vectors, Euler and Coxeter forms.

Vertices are 1-indexed.  Arrows are an ordered list of (source, target)
pairs and the list position is the arrow's stable index: every
per-arrow matrix elsewhere in the library refers to arrows by that
index.  Parallel arrows and disconnected quivers are allowed; oriented
cycles (in particular loops) are not.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CyclicQuiver, DimensionMismatch
from .memo import hash_once, memo
from .zlinalg import IntMatrix


@hash_once
@dataclass(frozen=True)
class Quiver:
    n: int
    arrows: tuple  # tuple of (source, target) pairs, 1-indexed

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch("a quiver needs at least one vertex")
        object.__setattr__(self, "arrows",
                           tuple((int(s), int(t)) for s, t in self.arrows))
        for s, t in self.arrows:
            if not (1 <= s <= self.n and 1 <= t <= self.n):
                raise DimensionMismatch(f"arrow ({s},{t}) out of range 1..{self.n}")

    @property
    def vertices(self):
        return range(1, self.n + 1)

    def arrows_out_of(self, v: int) -> tuple:
        return tuple(a for a, (s, _) in enumerate(self.arrows) if s == v)

    def arrows_into(self, v: int) -> tuple:
        return tuple(a for a, (_, t) in enumerate(self.arrows) if t == v)

    def is_sink(self, v: int) -> bool:
        return not self.arrows_out_of(v)

    def is_source(self, v: int) -> bool:
        return not self.arrows_into(v)

    def opposite(self) -> "Quiver":
        return Quiver(self.n, tuple((t, s) for s, t in self.arrows))

    def reflected(self, v: int) -> "Quiver":
        """Reverse every arrow incident to v, keeping arrow indices stable."""
        return Quiver(self.n, tuple((t, s) if s == v or t == v else (s, t)
                                    for s, t in self.arrows))


def validate(q: Quiver) -> tuple:
    """A topological order of the vertices, smallest index first on ties.

    Raises CyclicQuiver with a witness cycle if the quiver has an
    oriented cycle.
    """
    indegree = {v: 0 for v in q.vertices}
    for _, t in q.arrows:
        indegree[t] += 1
    order = []
    ready = sorted(v for v, d in indegree.items() if d == 0)
    while ready:
        v = ready.pop(0)
        order.append(v)
        touched = False
        for s, t in q.arrows:
            if s == v:
                indegree[t] -= 1
                if indegree[t] == 0:
                    ready.append(t)
                    touched = True
        if touched:
            ready.sort()
    if len(order) < q.n:
        remaining = set(q.vertices) - set(order)
        succ = {v: sorted(t for s, t in q.arrows if s == v and t in remaining)
                for v in remaining}
        # depth-first search for a back edge inside the leftover set
        state = {v: 0 for v in remaining}  # 0 new, 1 on stack, 2 done
        for root in sorted(remaining):
            if state[root]:
                continue
            path = [root]
            iters = [iter(succ[root])]
            state[root] = 1
            while path:
                for w in iters[-1]:
                    if state[w] == 1:
                        raise CyclicQuiver(path[path.index(w):] + [w])
                    if state[w] == 0:
                        state[w] = 1
                        path.append(w)
                        iters.append(iter(succ[w]))
                        break
                else:
                    state[path.pop()] = 2
                    iters.pop()
    return tuple(order)


def euler_matrix(q: Quiver) -> IntMatrix:
    """B with <d, e> = d^T B e, i.e. B = I - (arrow count matrix)."""
    rows = [[0] * q.n for _ in range(q.n)]
    for i in range(q.n):
        rows[i][i] = 1
    for s, t in q.arrows:
        rows[s - 1][t - 1] -= 1
    return IntMatrix.from_rows(rows, cols=q.n)


def euler_form(q: Quiver, d, e) -> int:
    """<d, e> = sum_i d_i e_i - sum_{a: i->j} d_i e_j."""
    if len(d) != q.n or len(e) != q.n:
        raise DimensionMismatch("dimension vector length does not match quiver")
    return sum(x * y for x, y in zip(d, e)) - sum(d[s - 1] * e[t - 1] for s, t in q.arrows)


def _euler_inverse(q: Quiver) -> IntMatrix:
    """B^{-1} = sum_k A^k for the arrow count matrix A, i.e. entry (i, j)
    counts the paths i -> j; row i is e_i plus the rows of the arrow
    targets of i, filled in reverse topological order."""
    counts = {}
    for v in reversed(validate(q)):
        row = [1 if u == v else 0 for u in q.vertices]
        for s, t in q.arrows:
            if s == v:
                row = [x + y for x, y in zip(row, counts[t])]
        counts[v] = row
    return IntMatrix.from_rows([counts[v] for v in q.vertices], cols=q.n)


@memo
def coxeter_matrix(q: Quiver) -> IntMatrix:
    """Phi = -B^{-1} B^T, normalized so Phi . dim M = dim tau(M)."""
    b = euler_matrix(q)
    return _euler_inverse(q).mul(b.transpose()).neg()


@memo
def coxeter_inverse(q: Quiver) -> IntMatrix:
    """Phi^{-1} = -B^{-T} B."""
    b = euler_matrix(q)
    binv_t = _euler_inverse(q).transpose()
    return binv_t.mul(b).neg()


def coxeter_apply(q: Quiver, d, power: int) -> tuple:
    """Phi^power applied to an integer vector; entries may go negative."""
    if len(d) != q.n:
        raise DimensionMismatch("dimension vector length does not match quiver")
    validate(q)
    step = coxeter_matrix(q) if power >= 0 else coxeter_inverse(q)
    vec = tuple(int(x) for x in d)
    for _ in range(abs(power)):
        vec = step.mul_vec(vec)
    return vec


def is_connected(q: Quiver) -> bool:
    """Whether the underlying graph of q is connected."""
    adjacency = {v: set() for v in q.vertices}
    for s, t in q.arrows:
        adjacency[s].add(t)
        adjacency[t].add(s)
    seen = {1}
    stack = [1]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == q.n


NOT_DYNKIN = "NotDynkin"


def dynkin_type(q: Quiver) -> str:
    """Classify the underlying undirected graph: 'An', 'Dn', 'E6'..'E8',
    or 'NotDynkin' for anything else (multi-edges, cycles, forks of the
    wrong shape, disconnected graphs).
    """
    validate(q)
    n = q.n
    edges = set()
    adjacency = {v: [] for v in q.vertices}
    for s, t in q.arrows:
        key = (min(s, t), max(s, t))
        if key in edges:
            return NOT_DYNKIN
        edges.add(key)
        adjacency[s].append(t)
        adjacency[t].append(s)
    # a tree: connected with exactly n-1 edges
    if len(edges) != n - 1 or not is_connected(q):
        return NOT_DYNKIN
    degrees = sorted((len(adjacency[v]), v) for v in q.vertices)
    max_degree = degrees[-1][0] if n > 1 else 0
    if max_degree <= 2:
        return f"A{n}"
    if max_degree > 3:
        return NOT_DYNKIN
    branches = [v for v in q.vertices if len(adjacency[v]) == 3]
    if len(branches) != 1:
        return NOT_DYNKIN
    center = branches[0]
    legs = []
    for start in adjacency[center]:
        length = 1
        prev, cur = center, start
        while len(adjacency[cur]) == 2:
            nxt = next(w for w in adjacency[cur] if w != prev)
            prev, cur = cur, nxt
            length += 1
        legs.append(length)
    legs.sort()
    if legs[0] == 1 and legs[1] == 1:
        return f"D{n}"
    if legs == [1, 2, 2]:
        return "E6"
    if legs == [1, 2, 3]:
        return "E7"
    if legs == [1, 2, 4]:
        return "E8"
    return NOT_DYNKIN


def is_dynkin(q: Quiver) -> bool:
    return dynkin_type(q) != NOT_DYNKIN
