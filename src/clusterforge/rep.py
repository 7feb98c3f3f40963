"""Finitely presented integer representations of an acyclic quiver.

A ZRep assigns to each vertex i a presented abelian group Z^{g_i}/im(R_i)
and to each arrow a: u -> v an action matrix M_a: Z^{g_u} -> Z^{g_v} that
descends to the quotients.  Arrows act along their direction.  A ZRep
with no relations anywhere is a lattice.

Convention for the cyclic torsion test module on the quiver 1 -> 2: the
Z/2 vertex group is placed at the *source* vertex.  With arrows acting
along their direction this is the unique placement whose minimal
projective resolution has the three-term shape P -> P + P' -> P''
featuring a multiplication-by-2 entry next to an arrow entry; at the
sink the resolution collapses to two terms.

Between lattices Hom is the kernel and Ext^1 the cokernel of Hom(D, n)
for D the standard presentation of m with its unit entries split off,
built once per lattice and kept on it; so each ordered pair costs one
`smith_invariants` reduction, with no transform tracked, of a system
that on every exceptional lattice tried is the minimal resolution's.
The standard intertwining matrix is used only for a Hom basis, computed
on the rows made dense when it is read and never for a Hom of rank 0,
and over F_p by `field_hom_ext_dims`.
Ext^1 out of a presented module is read off its minimal projective
resolution, whose every stage is a projective cover of a top, minimal
as built: nothing is split off afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .errors import (
    DimensionMismatch,
    NoSolution,
    NotASummand,
    PreconditionViolated,
)
from .memo import hash_once, memo, once
from .quiver import Quiver, validate
from .zlinalg import (
    FinAbGroup,
    IntMatrix,
    _matrix,
    block_diag,
    column_span_basis,
    free_cokernel,
    is_split_injective,
    kernel_basis,
    kernel_rank_cokernel,
    rank,
    rref_mod_p,
    smith_invariants,
    snf,
    solve_matrix,
    subquotient_structure,
)

# ---------------------------------------------------------------------------
# paths

@memo
def paths_from(q: Quiver, i: int) -> dict:
    """All paths starting at i, grouped by endpoint and sorted.

    A path is a tuple of arrow indices in traversal order; the empty
    tuple is the trivial path at i.  Sorting by the arrow tuple gives
    the canonical basis order used for projectives everywhere.
    """
    validate(q)
    found = {j: [] for j in q.vertices}
    stack = [((), i)]
    while stack:
        path, at = stack.pop()
        found[at].append(path)
        for a, (s, t) in enumerate(q.arrows):
            if s == at:
                stack.append((path + (a,), t))
    return {j: tuple(sorted(ps)) for j, ps in found.items()}


@memo
def paths_into(q: Quiver, i: int) -> dict:
    """All paths ending at i, grouped by start vertex and sorted."""
    return {j: paths_from(q, j)[i] for j in q.vertices}


# ---------------------------------------------------------------------------
# representations

@hash_once
@dataclass(frozen=True)
class ZRep:
    """A finitely presented representation over the integral path algebra."""

    quiver: Quiver
    gens: tuple            # generator count per vertex
    relations: tuple       # per vertex, a g_i x r_i IntMatrix
    actions: tuple         # per arrow, a g_{t(a)} x g_{s(a)} IntMatrix

    def __post_init__(self):
        q = self.quiver
        if len(self.gens) != q.n or len(self.relations) != q.n:
            raise DimensionMismatch("per-vertex data does not match quiver")
        if len(self.actions) != len(q.arrows):
            raise DimensionMismatch("per-arrow data does not match quiver")
        for g, r in zip(self.gens, self.relations):
            if r.rows != g:
                raise DimensionMismatch("relation matrix rows must equal generator count")
        for a, (s, t) in enumerate(q.arrows):
            m = self.actions[a]
            if (m.rows, m.cols) != (self.gens[t - 1], self.gens[s - 1]):
                raise DimensionMismatch(f"action matrix for arrow {a} has wrong shape")
            ms = m.mul(self.relations[s - 1])
            if ms.cols and not _in_column_span(self.relations[t - 1], ms):
                raise DimensionMismatch(f"action for arrow {a} does not preserve relations")

    @property
    @once
    def is_lattice(self) -> bool:
        return all(r.cols == 0 for r in self.relations)

    @property
    @once
    def _presentation(self) -> tuple:
        """`_lattice_presentation` of this lattice, built on first read."""
        return _lattice_presentation(self)

    @property
    @once
    def _path_actions(self) -> dict:
        """The action of each nonempty path read so far, filled by
        `_path_action`."""
        return {}

    def is_zero(self) -> bool:
        return all(d == 0 for d in dim_vector(self))


def _in_column_span(span: IntMatrix, cols: IntMatrix) -> bool:
    try:
        solve_matrix(span, cols)
        return True
    except NoSolution:
        return False


def make_lattice(q: Quiver, ranks, actions) -> ZRep:
    ranks = tuple(int(r) for r in ranks)
    empty = tuple(IntMatrix.zero(r, 0) for r in ranks)
    return ZRep(q, ranks, empty, tuple(actions))


def _lattice(q: Quiver, ranks: tuple, actions: tuple) -> ZRep:
    """A lattice built where its shapes hold by construction, such as each
    step of a reflection, without the checks of the public constructor."""
    m = object.__new__(ZRep)
    m.__dict__.update(quiver=q, gens=ranks, actions=actions,
                      relations=tuple(_matrix(r, 0, ((),) * r) for r in ranks))
    return m


def zero_rep(q: Quiver) -> ZRep:
    return make_lattice(q, (0,) * q.n, tuple(IntMatrix.zero(0, 0) for _ in q.arrows))


def simple(q: Quiver, i: int) -> ZRep:
    ranks = tuple(1 if v == i else 0 for v in q.vertices)
    actions = tuple(IntMatrix.zero(ranks[t - 1], ranks[s - 1]) for s, t in q.arrows)
    return make_lattice(q, ranks, actions)


def torsion_simple(q: Quiver, i: int, order: int) -> ZRep:
    """The cyclic torsion module Z/order concentrated at vertex i."""
    gens = tuple(1 if v == i else 0 for v in q.vertices)
    relations = tuple(IntMatrix.from_rows([[order]]) if v == i else IntMatrix.zero(gens[v - 1], 0)
                      for v in q.vertices)
    actions = tuple(IntMatrix.zero(gens[t - 1], gens[s - 1]) for s, t in q.arrows)
    return ZRep(q, gens, relations, actions)


@memo
def projective(q: Quiver, i: int) -> ZRep:
    """P_i, free on the paths starting at i, arrows acting by concatenation."""
    bases = paths_from(q, i)
    ranks = tuple(len(bases[v]) for v in q.vertices)
    actions = []
    for a, (s, t) in enumerate(q.arrows):
        src, dst = bases[s], bases[t]
        index = {p: k for k, p in enumerate(dst)}
        rows = [[0] * len(src) for _ in dst]
        for c, p in enumerate(src):
            rows[index[p + (a,)]][c] = 1
        actions.append(IntMatrix.from_rows(rows, cols=len(src)))
    return make_lattice(q, ranks, actions)


@memo
def injective_lattice(q: Quiver, i: int) -> ZRep:
    """I_i, free on the paths ending at i, arrows acting by front cancellation."""
    bases = paths_into(q, i)
    ranks = tuple(len(bases[v]) for v in q.vertices)
    actions = []
    for a, (s, t) in enumerate(q.arrows):
        src, dst = bases[s], bases[t]
        index = {p: k for k, p in enumerate(dst)}
        rows = [[0] * len(src) for _ in dst]
        for c, p in enumerate(src):
            if p[:1] == (a,):
                rows[index[p[1:]]][c] = 1
        actions.append(IntMatrix.from_rows(rows, cols=len(src)))
    return make_lattice(q, ranks, actions)


def dim_vector(m: ZRep) -> tuple:
    """Free rank per vertex; equals the generator counts for lattices."""
    if m.is_lattice:
        return m.gens
    return tuple(g - rank(r) for g, r in zip(m.gens, m.relations))


def direct_sum(m: ZRep, n: ZRep) -> ZRep:
    return direct_sum_many((m, n))


def direct_sum_many(parts) -> ZRep:
    parts = tuple(parts)
    if not parts:
        raise DimensionMismatch("empty direct sum needs an explicit quiver")
    q = parts[0].quiver
    if any(p.quiver != q for p in parts):
        raise DimensionMismatch("direct sum over different quivers")
    gens = tuple(sum(p.gens[v] for p in parts) for v in range(q.n))
    relations = tuple(block_diag([p.relations[v] for p in parts]) for v in range(q.n))
    actions = tuple(block_diag([p.actions[a] for p in parts]) for a in range(len(q.arrows)))
    return ZRep(q, gens, relations, actions)


def action_along_path(m: ZRep, start: int, path: tuple) -> IntMatrix:
    """The composite action matrix of a path on generator columns."""
    out = IntMatrix.identity(m.gens[start - 1])
    at = start
    for a in path:
        s, t = m.quiver.arrows[a]
        if s != at:
            raise DimensionMismatch("path does not compose")
        out = m.actions[a].mul(out)
        at = t
    return out


def dualize(m: ZRep) -> ZRep:
    """The Z-dual lattice over the opposite quiver (lattices only)."""
    if not m.is_lattice:
        raise PreconditionViolated("dualize is only defined for lattices")
    qop = m.quiver.opposite()
    return make_lattice(qop, m.gens, tuple(a.transpose() for a in m.actions))


# ---------------------------------------------------------------------------
# Hom

@dataclass(frozen=True, eq=False)
class Hom:
    """Hom group together with explicit homomorphisms.

    `basis` is a tuple of per-vertex IntMatrix tuples, computed by
    `make_basis` on first read and kept.  For lattices it is a genuine
    Z-basis in kernel_basis order; in the presence of torsion it is a
    generating set of representative maps.  Values compare by identity.
    """

    group: FinAbGroup
    make_basis: Callable[[], tuple] = field(repr=False)

    @property
    @once
    def basis(self) -> tuple:
        return self.make_basis()

    @property
    def free_rank(self) -> int:
        return self.group.free_rank


def _hom_var_layout(m_gens, n_gens):
    """Offsets of the vertexwise blocks f_v (n_v x m_v, row-major) and their total."""
    offsets = []
    total = 0
    for g_m, g_n in zip(m_gens, n_gens):
        offsets.append(total)
        total += g_n * g_m
    return offsets, total


def _intertwining_rows(q: Quiver, m_gens, n_gens, m_actions, n_actions) -> tuple:
    """Rows of the map (f_v)_v -> (f_{t(a)} M_a - N_a f_{s(a)})_a, and its width.

    Actions are per-arrow row tuples (IntMatrix entries, or FieldRep
    actions); the variables follow _hom_var_layout.  There is one row per
    entry (r, c) of each arrow component, in arrow, row, column order,
    as a {variable: coefficient} dict without zeros.  The two terms sit
    in the blocks of t(a) and s(a), which differ on an acyclic quiver.
    """
    offsets, nvars = _hom_var_layout(m_gens, n_gens)
    rows = []
    for a, (s, t) in enumerate(q.arrows):
        su, tv = s - 1, t - 1
        ma, na = m_actions[a], n_actions[a]
        g_ms, g_mt, g_ns = m_gens[su], m_gens[tv], n_gens[su]
        for r in range(n_gens[tv]):
            at_t = offsets[tv] + r * g_mt
            na_r = na[r]
            for c in range(g_ms):
                row = {at_t + k: ma[k][c] for k in range(g_mt) if ma[k][c]}
                at_s = offsets[su] + c
                for k in range(g_ns):
                    if na_r[k]:
                        row[at_s + k * g_ms] = -na_r[k]
                rows.append(row)
    return rows, nvars


def _dense(row: dict, width: int) -> list:
    out = [0] * width
    for c, x in row.items():
        out[c] = x
    return out


def _lattice_rows(m: ZRep, n: ZRep) -> tuple:
    """The sparse intertwining rows of two ZReps, on their generator columns."""
    return _intertwining_rows(m.quiver, m.gens, n.gens,
                              [x.entries for x in m.actions], [x.entries for x in n.actions])


def _lattice_matrix(m: ZRep, n: ZRep) -> IntMatrix:
    """The intertwining matrix of two ZReps, made dense."""
    rows, nvars = _lattice_rows(m, n)
    return IntMatrix(len(rows), nvars, tuple(tuple(_dense(row, nvars)) for row in rows))


def _lattice_presentation(m: ZRep) -> tuple:
    """(row vertices, column vertices, rows) of the lattice m's standard
    presentation with every unit trivial-path entry split off.

    The standard presentation is Ringel's resolution
    0 -> sum_a P_{t(a)} (x) M_{s(a)} -> sum_v P_v (x) M_v -> m -> 0: row
    (a, c), for each arrow a and c < rank M_{s(a)}, holds the path -a at
    column (s(a), c) and M_a[k][c] times the trivial path at column
    (t(a), k).  An entry is a {path: coefficient} dict of paths from its
    column's vertex to its row's vertex.  While some entry is u e_v with
    u = +-1, it is a pivot: every other row i holding its column j0 gets
    D_ij -= u (D_{i0 j} followed by D_{i j0}), and its row and column
    drop.  Under Hom(-, n) the pivot is the unit block u I on n_v, so the
    kernel rank and the cokernel are those of the standard system for
    every n.  No entry left is a unit times a trivial path; on every
    exceptional lattice tried the rows and columns then sit at the
    vertices of `projective_resolution(m).p1` and `.p0`.

    Rows come back as tuples of (column, ((path, coefficient), ...))
    pairs, the columns left renumbered in order.
    """
    q = m.quiver
    start, col_vertex = {}, []
    for v in q.vertices:
        start[v] = len(col_vertex)
        col_vertex += [v] * m.gens[v - 1]
    row_vertex, rows = [], {}
    for a, (s, t) in enumerate(q.arrows):
        ma = m.actions[a].entries
        for c in range(m.gens[s - 1]):
            row = {start[s] + c: {(a,): -1}}
            for k, action_row in enumerate(ma):
                if action_row[c]:
                    row[start[t] + k] = {(): action_row[c]}
            rows[len(row_vertex)] = row
            row_vertex.append(t)
    # the rows to search for a pivot: each row once, then each row a pivot changed
    unseen = list(reversed(rows))
    dropped = set()
    while unseen:
        i0 = unseen.pop()
        top = rows.get(i0, {})
        # on an acyclic quiver an entry with a trivial path has no other path
        j0 = next((j for j, e in top.items() if abs(e.get((), 0)) == 1), None)
        if j0 is None:
            continue
        del rows[i0]
        u = top.pop(j0)[()]
        for i, row in rows.items():
            below = row.pop(j0, None)
            if below is None:
                continue
            unseen.append(i)
            for j, e in top.items():
                acc = row.setdefault(j, {})
                for p, x in e.items():
                    for r, y in below.items():
                        z = acc.get(p + r, 0) - u * x * y
                        if z:
                            acc[p + r] = z
                        else:
                            del acc[p + r]
                if not acc:
                    del row[j]
        dropped.add(j0)
    kept = [j for j in range(len(col_vertex)) if j not in dropped]
    renumber = {j: i for i, j in enumerate(kept)}
    return (tuple(row_vertex[i] for i in rows), tuple(col_vertex[j] for j in kept),
            tuple(tuple(sorted((renumber[j], tuple(sorted(e.items()))) for j, e in row.items()))
                  for row in rows.values()))


def _path_action(n: ZRep, path: tuple) -> tuple:
    """The action of a nonempty path on n as sparse rows, tuples of
    (column, entry) pairs without zeros.  Built from its prefix,
    n(p a) = n_a n(p), and kept on n."""
    actions = n._path_actions
    try:
        return actions[path]
    except KeyError:
        pass
    last = n.actions[path[-1]].entries
    if len(path) == 1:
        out = tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in last)
    else:
        prefix = _path_action(n, path[:-1])
        out = []
        for row in last:
            acc = {}
            for l, x in enumerate(row):
                if x:
                    for k, y in prefix[l]:
                        acc[k] = acc.get(k, 0) + x * y
            out.append(tuple((k, z) for k, z in acc.items() if z))
        out = tuple(out)
    actions[path] = out
    return out


def _presented_rows(m: ZRep, n: ZRep) -> tuple:
    """The sparse rows of Hom(presentation of m, n), and their width.

    Block (i, j) is the sum of c n(p) over the terms (p, c) of the
    presentation's entry (i, j): rows of n at row i's vertex, columns of
    n at column j's vertex.  Blocks of different columns are disjoint,
    so only an entry of several terms can cancel to zero.
    """
    row_vertex, col_vertex, entries = m._presentation
    gens, actions = n.gens, n._path_actions
    at, width = [], 0
    for v in col_vertex:
        at.append(width)
        width += gens[v - 1]
    rows = []
    for v, entry in zip(row_vertex, entries):
        block = [{} for _ in range(gens[v - 1])]
        if not block:
            continue
        summed = False
        for j, terms in entry:
            base = at[j]
            summed = summed or len(terms) > 1
            for p, x in terms:
                if not p:
                    for r, out in enumerate(block):
                        out[base + r] = out.get(base + r, 0) + x
                    continue
                action = actions.get(p)
                if action is None:
                    action = _path_action(n, p)
                for out, action_row in zip(block, action):
                    for k, y in action_row:
                        out[base + k] = out.get(base + k, 0) + x * y
        if summed:
            block = [{c: x for c, x in out.items() if x} for out in block]
        rows += block
    return rows, width


@memo
def _lattice_hom_ext(m: ZRep, n: ZRep) -> tuple:
    """(Hom, Ext^1) between lattices from one untracked reduction.

    Hom is free of rank the nullity, and Ext^1 is the cokernel, of
    Hom(presentation of m, n), read off its sparse rows; the presentation
    is built once per lattice with its unit entries split off, so on an
    exceptional lattice the system is that of the minimal resolution.
    The standard intertwining matrix is used only for the Hom basis,
    rebuilt from (m, n) when read, so no matrix is kept alive, and over
    F_p; a Hom of rank 0 has the empty basis and is never reduced again.
    """
    nullity, ext = kernel_rank_cokernel(*_presented_rows(m, n))
    make_basis = partial(_lattice_hom_basis, m, n) if nullity else tuple
    return Hom(FinAbGroup(nullity), make_basis), ext


def _lattice_hom_basis(m: ZRep, n: ZRep) -> tuple:
    kb = kernel_basis(_lattice_matrix(m, n))
    return tuple(_unflatten_hom(m, n, kb.col(j)) for j in range(kb.cols))


@memo
def hom_group(m: ZRep, n: ZRep) -> Hom:
    """All homomorphisms of representations m -> n over the path algebra.

    Solves the intertwining system f_{t(a)} M_a = N_a f_{s(a)} on
    vertexwise matrices.  Between lattices the rank is read with Ext^1
    from one reduction per ordered pair, of Hom out of m's presentation
    (`_lattice_hom_ext`), and the basis, the kernel of the intertwining
    matrix, is computed on first read; otherwise the system is solved
    modulo the target presentations.
    """
    q = m.quiver
    if n.quiver != q:
        raise DimensionMismatch("representations live over different quivers")
    if m.is_lattice and n.is_lattice:
        return _lattice_hom_ext(m, n)[0]

    m_actions = [x.entries for x in m.actions]
    n_actions = [x.entries for x in n.actions]
    offsets, _ = _hom_var_layout(m.gens, n.gens)

    def var(v, r, c):
        return offsets[v] + r * m.gens[v] + c

    rows, nvars = _intertwining_rows(q, m.gens, n.gens, m_actions, n_actions)
    rows = [_dense(row, nvars) for row in rows]
    # each equation holds modulo one row of the target relations: row r at t(a)
    rels = [n.relations[t - 1].entries[r] for s, t in q.arrows
            for r in range(n.gens[t - 1]) for _ in range(m.gens[s - 1])]
    for v in range(q.n):
        relm = m.relations[v]
        reln = n.relations[v]
        for c in range(relm.cols):
            for r in range(n.gens[v]):
                row = [0] * nvars
                for k in range(m.gens[v]):
                    row[var(v, r, k)] += relm.entries[k][c]
                rows.append(row)
                rels.append(reln.entries[r])

    aux_total = sum(map(len, rels))
    pad = [0] * aux_total
    big = []
    aux_at = nvars
    for row, rel in zip(rows, rels):
        full = row + pad
        for j, x in enumerate(rel):
            full[aux_at + j] = -x
        big.append(tuple(full))
        aux_at += len(rel)
    system = IntMatrix(len(big), nvars + aux_total, tuple(big))
    kb = kernel_basis(system)
    span = kb.submatrix(range(nvars), range(kb.cols))

    # quotient by maps landing inside the target relations
    zgens = []
    for v in range(q.n):
        reln = n.relations[v]
        for j in range(reln.cols):
            for c in range(m.gens[v]):
                vec = [0] * nvars
                for r in range(n.gens[v]):
                    vec[var(v, r, c)] = reln.entries[r][j]
                zgens.append(vec)
    zmat = IntMatrix(nvars, len(zgens), tuple(tuple(g[i] for g in zgens) for i in range(nvars)))
    group = subquotient_structure(span, zmat)
    basis = tuple(_unflatten_hom(m, n, span.col(j)) for j in range(span.cols))
    return Hom(group, lambda: basis)


def _unflatten_hom(m: ZRep, n: ZRep, flat) -> tuple:
    offsets, _ = _hom_var_layout(m.gens, n.gens)
    mats = []
    for v in range(m.quiver.n):
        g_n, g_m = n.gens[v], m.gens[v]
        base = offsets[v]
        mats.append(IntMatrix.from_rows(
            [[flat[base + r * g_m + c] for c in range(g_m)] for r in range(g_n)],
            cols=g_m))
    return tuple(mats)


# ---------------------------------------------------------------------------
# Ext^1

@memo
def ext1_group(m: ZRep, n: ZRep) -> FinAbGroup:
    """Ext^1 over the integral path algebra.

    Between lattices this is the cokernel of the map sending a family of
    vertexwise Z-linear maps (f_i) to (f_{t(a)} M_a - N_a f_{s(a)})_a,
    read with the Hom rank from one reduction per ordered pair, of Hom
    out of m's presentation with its unit entries split off; in
    general it is computed as the degree-one homology of Hom applied to
    a minimal projective resolution of m.  The two routes agree on
    lattices and the test suite cross-checks them.
    """
    q = m.quiver
    if n.quiver != q:
        raise DimensionMismatch("representations live over different quivers")
    if m.is_lattice and n.is_lattice:
        return _lattice_hom_ext(m, n)[1]
    res = projective_resolution(m)
    return _resolution_h1(res, n)


def _hom_into(res_slots, n: ZRep):
    """Presented group data for Hom(P(slots), n): generators and relations."""
    gens = sum(n.gens[v - 1] for v in res_slots)
    rel = block_diag([n.relations[v - 1] for v in res_slots]) if res_slots \
        else IntMatrix.zero(0, 0)
    return gens, rel


def _induced_map(res_rows, res_cols, entries, n: ZRep) -> IntMatrix:
    """Matrix of Hom(d, n): Hom(P(rows), n) -> Hom(P(cols), n).

    A path p from the row slot's vertex to the column slot's vertex acts
    by the composite action of p on n.
    """
    row_groups = [n.gens[v - 1] for v in res_rows]
    col_groups = [n.gens[v - 1] for v in res_cols]
    row_off = [sum(row_groups[:i]) for i in range(len(res_rows))]
    col_off = [sum(col_groups[:i]) for i in range(len(res_cols))]
    out = [[0] * sum(row_groups) for _ in range(sum(col_groups))]
    for r, vr in enumerate(res_rows):
        for c, vc in enumerate(res_cols):
            for p, coeff in entries[r][c]:
                mat = action_along_path(n, vr, p)
                for i in range(mat.rows):
                    for j in range(mat.cols):
                        if mat.entries[i][j]:
                            out[col_off[c] + i][row_off[r] + j] += coeff * mat.entries[i][j]
    return IntMatrix.from_rows(out, cols=sum(row_groups))


def _resolution_h1(res: "ProjResolution", n: ZRep) -> FinAbGroup:
    g0, rel0 = _hom_into(res.p0, n)
    g1, rel1 = _hom_into(res.p1, n)
    g2, rel2 = _hom_into(res.p2, n)
    phi1 = _induced_map(res.p0, res.p1, res.d1, n)
    phi2 = _induced_map(res.p1, res.p2, res.d2, n)
    # cycles: x in Z^{g1} with phi2 x inside the relations of the degree-2 group
    system = phi2.hstack(rel2.neg()) if rel2.cols else phi2
    kb = kernel_basis(system)
    cycles = kb.submatrix(range(g1), range(kb.cols))
    boundaries = phi1.hstack(rel1)
    return subquotient_structure(cycles, boundaries)


# ---------------------------------------------------------------------------
# projective resolutions

@dataclass(frozen=True)
class ProjResolution:
    """0 -> P(p2) -> P(p1) -> P(p0) -> M -> 0 with path-coefficient maps.

    Slots are vertex indices; a formal sum P(slots) is the direct sum of
    the corresponding indecomposable projectives.  The (row, col) entry
    of d1/d2 is a Z-linear combination of paths from the row slot's
    vertex to the column slot's vertex, stored as a sorted tuple of
    (arrow tuple, coefficient) pairs.  The augmentation records, per p0
    slot, the generator-lift vector of its image in the module.
    """

    module: ZRep
    p0: tuple
    p1: tuple
    p2: tuple
    d1: tuple
    d2: tuple
    augmentation: tuple


def projective_resolution(m: ZRep) -> ProjResolution:
    """The minimal projective resolution, length <= 1 for lattices, <= 2 in general.

    Each stage is a projective cover, minimal as built.  The arrow ideal
    J of ZQ is nilpotent on an acyclic Q, so by the graded Nakayama
    lemma lifts of any generating set of top(N) = N / JN generate N; a
    projective ZQ-module is a sum of P(v)s and has free top.  P0 lifts a
    minimal generating set of top(M), P1 one of top(K) for the lattice
    K = ker(P0 -> M), and P2 a basis of top(L) for L = ker(P1 -> P0),
    which is projective because lattices have projective dimension <= 1
    over ZQ; so P2 -> L is an isomorphism.

    A kernel element's trivial-path coefficients at v are the
    coefficients of a relation among the chosen generators of the top at
    v, so each lies in d Z for d the least invariant factor other than 1
    there, which divides the others.  Hence no same-vertex trivial-path
    block of d1 or d2 has a unit invariant factor: nothing splits off.
    """
    q = m.quiver
    p0, aug = _cover(m)
    k, k_basis = _kernel(m, p0, aug)
    p1, k_lifts = _cover(k)
    l, l_basis = _kernel(k, p1, k_lifts)
    p2, l_lifts = _cover(l, free_top=True)
    return ProjResolution(
        module=m,
        p0=p0,
        p1=p1,
        p2=p2,
        d1=_path_entries(q, p0, p1, [k_basis[v - 1].mul_vec(u) for v, u in zip(p1, k_lifts)]),
        d2=_path_entries(q, p1, p2, [l_basis[v - 1].mul_vec(u) for v, u in zip(p2, l_lifts)]),
        augmentation=aug,
    )


def _cover(n: ZRep, free_top: bool = False) -> tuple:
    """(slots, lifts) of a minimal generating set of top(n), vertex by vertex.

    top(n)_v is Z^{g_v} modulo the relations and the images of the
    arrows into v.  With that span = U S V, the columns of U at the
    invariant factors other than 1 lift generators of its cyclic
    factors.  free_top asserts there is no torsion factor, as for a
    projective n.
    """
    slots, lifts = [], []
    for v in n.quiver.vertices:
        span = n.relations[v - 1]
        for a in n.quiver.arrows_into(v):
            span = span.hstack(n.actions[a])
        dec = snf(span)
        factors = dec.diagonal + (0,) * (n.gens[v - 1] - len(dec.diagonal))
        for i, d in enumerate(factors):
            if d != 1:
                assert not (free_top and d), "the top of a projective has torsion"
                slots.append(v)
                lifts.append(dec.U.col(i))
    return tuple(slots), tuple(lifts)


def _ambient(q: Quiver, slots, j: int) -> list:
    """The basis of P(slots) at vertex j: (slot, path) pairs in slot order."""
    return [(k, p) for k, v in enumerate(slots) for p in paths_from(q, v)[j]]


def _kernel(n: ZRep, slots, lifts) -> tuple:
    """The kernel of P(slots) -> n sending slot k's trivial path to lifts[k].

    Returns the kernel as a lattice and, per vertex, its basis as
    columns in the (slot, path) basis of P(slots).
    """
    q = n.quiver
    basis = []
    for j in q.vertices:
        amb = _ambient(q, slots, j)
        cols = [action_along_path(n, slots[k], p).mul_vec(lifts[k]) for k, p in amb]
        g = n.gens[j - 1]
        eps = IntMatrix(g, len(cols), tuple(tuple(c[r] for c in cols) for r in range(g)))
        kb = kernel_basis(eps.hstack(n.relations[j - 1].neg()))
        basis.append(column_span_basis(kb.submatrix(range(len(amb)), range(kb.cols))))
    actions = []
    for a, (s, t) in enumerate(q.arrows):
        src = basis[s - 1]
        index = {key: i for i, key in enumerate(_ambient(q, slots, t))}
        image = [(0,) * src.cols] * len(index)
        # the arrow sends the basis path (k, p) to (k, p + a)
        for r, (k, p) in enumerate(_ambient(q, slots, s)):
            image[index[(k, p + (a,))]] = src.entries[r]
        actions.append(solve_matrix(basis[t - 1], IntMatrix(len(image), src.cols, tuple(image))))
    return make_lattice(q, tuple(b.cols for b in basis), actions), tuple(basis)


def _path_entries(q: Quiver, row_slots, col_slots, columns) -> tuple:
    """Entries of the map P(col_slots) -> P(row_slots) sending column c's
    trivial path to columns[c], given in the (slot, path) basis of
    P(row_slots) at that column's vertex.  That basis lists each slot's
    paths sorted, so every entry comes out as a sorted path sum."""
    out = [[[] for _ in col_slots] for _ in row_slots]
    for c, (v, vec) in enumerate(zip(col_slots, columns)):
        for x, (r, p) in zip(vec, _ambient(q, row_slots, v)):
            if x:
                out[r][c].append((p, x))
    return tuple(tuple(tuple(e) for e in row) for row in out)


# ---------------------------------------------------------------------------
# kernels, cokernels, summands

def kernel_subrep(m: ZRep, n: ZRep, maps) -> tuple:
    """Kernel of a morphism of lattices m -> n, with its inclusion matrices.

    Returns (K, incl) where incl[v] expresses the chosen basis of the
    kernel at v inside Z^{g_v}.  The kernel of an integer matrix is
    saturated, so K is a lattice.
    """
    q = m.quiver
    incl = [kernel_basis(maps[v]) for v in range(q.n)]
    gens = tuple(b.cols for b in incl)
    actions = []
    for a, (s, t) in enumerate(q.arrows):
        image = m.actions[a].mul(incl[s - 1])
        actions.append(solve_matrix(incl[t - 1], image))
    return make_lattice(q, gens, actions), tuple(incl)


def cokernel_rep(m: ZRep, n: ZRep, maps, saturate: bool = False) -> ZRep:
    """Cokernel of a morphism of lattices m -> n.

    With saturate=True the torsion of each vertex group is discarded so
    the result is a lattice; otherwise the honest presented cokernel is
    returned.
    """
    q = m.quiver
    if saturate:
        projections, sections = zip(*(free_cokernel(maps[v]) for v in range(q.n)))
        new_gens = tuple(p.rows for p in projections)
        actions = []
        for a, (s, t) in enumerate(q.arrows):
            actions.append(projections[t - 1].mul(n.actions[a]).mul(sections[s - 1]))
        return make_lattice(q, new_gens, tuple(actions))
    relations = tuple(n.relations[v].hstack(maps[v]) for v in range(q.n))
    return ZRep(q, n.gens, relations, n.actions)


def strip_summand(m: ZRep, s: ZRep) -> ZRep:
    """Remove one direct summand isomorphic to s from m.

    Searches for a split pair r . incl = id_s through the composition
    pairing of Hom bases; the Smith form of the pairing matrix attains
    its gcd, so a unit first invariant factor yields explicit witnesses.
    Raises NotASummand when no split pair exists, before either basis
    is read when one of the two Hom groups is trivial.
    """
    if not is_exceptional(s):
        raise PreconditionViolated("strip_summand needs an exceptional summand")
    hom_in, hom_out = hom_group(s, m), hom_group(m, s)
    if hom_in.group.is_trivial or hom_out.group.is_trivial:
        raise NotASummand("no homomorphisms in one direction")
    maps_in, maps_out = hom_in.basis, hom_out.basis
    probe = next((v for v in range(m.quiver.n) if s.gens[v] > 0), None)
    pairing = []
    for rb in maps_out:
        row = []
        for sb in maps_in:
            comp = rb[probe].mul(sb[probe])
            row.append(comp.entries[0][0])
        pairing.append(row)
    c = IntMatrix.from_rows(pairing, cols=len(maps_in))
    dec = snf(c)
    if dec.rank == 0 or dec.S.entries[0][0] != 1:
        raise NotASummand("composition pairing never attains a unit")
    y = dec.u_inv.row(0)
    x = dec.v_inv.col(0)
    q = m.quiver
    retraction = []
    for v in range(q.n):
        acc = IntMatrix.zero(s.gens[v], m.gens[v])
        for coeff, rb in zip(y, maps_out):
            if coeff:
                acc = acc.add(IntMatrix.from_rows(
                    [[coeff * e for e in row] for row in rb[v].entries], cols=m.gens[v]))
        retraction.append(acc)
    section = []
    for v in range(q.n):
        acc = IntMatrix.zero(m.gens[v], s.gens[v])
        for coeff, sb in zip(x, maps_in):
            if coeff:
                acc = acc.add(IntMatrix.from_rows(
                    [[coeff * e for e in row] for row in sb[v].entries], cols=s.gens[v]))
        section.append(acc)
    for v in range(q.n):
        comp = retraction[v].mul(section[v])
        if comp.entries != IntMatrix.identity(s.gens[v]).entries:
            raise NotASummand("split pair verification failed")
    complement, _ = kernel_subrep(m, s, tuple(retraction))
    return complement


def are_isomorphic_exceptional(m: ZRep, n: ZRep) -> bool:
    """Isomorphism test valid for exceptional representations.

    Exceptional objects have endomorphism ring Z, so any isomorphism is
    visible on a Hom basis element as a family of vertexwise unimodular
    matrices.
    """
    if not is_exceptional(m) or not is_exceptional(n):
        raise PreconditionViolated("isomorphism test requires exceptional inputs")
    if dim_vector(m) != dim_vector(n) or m.gens != n.gens:
        return False
    for f in hom_group(m, n).basis:
        if all(_is_unimodular(mat) for mat in f):
            return True
    return False


def _is_unimodular(mat: IntMatrix) -> bool:
    return mat.rows == mat.cols and is_split_injective(mat)


# ---------------------------------------------------------------------------
# rigidity

def is_rigid(m: ZRep) -> bool:
    return ext1_group(m, m).is_trivial


@memo
def is_exceptional(m: ZRep) -> bool:
    """Rigid with endomorphism group free of rank one."""
    if not is_rigid(m):
        return False
    return hom_group(m, m).group == FinAbGroup(1)


# ---------------------------------------------------------------------------
# base change

@dataclass(frozen=True)
class FieldRep:
    """A representation over F_p (p prime) or Q (p == 0)."""

    quiver: Quiver
    p: int
    dims: tuple
    actions: tuple  # per arrow, tuple of row tuples (ints mod p; integers for p == 0)


def base_change(m: ZRep, p: int) -> FieldRep:
    """Vertexwise tensor with the prime field F_p, or with Q when p == 0.

    Over Q the torsion dies, so the saturated cokernel of the relations
    is an integral form of m tensor Q and its action matrices serve as is.
    """
    q = m.quiver
    if p == 0:
        free = cokernel_rep(m, m, m.relations, saturate=True)
        return FieldRep(q, 0, free.gens, tuple(a.entries for a in free.actions))
    bases = []   # per vertex: (pivot coords, reduced relation rows, free coords)
    for v in range(q.n):
        reduced, pivots = rref_mod_p(m.relations[v].transpose().entries, p)
        free = [c for c in range(m.gens[v]) if c not in pivots]
        bases.append((pivots, reduced, free))
    dims = tuple(len(b[2]) for b in bases)
    actions = []
    for a, (s, t) in enumerate(q.arrows):
        su, tv = s - 1, t - 1
        mat = m.actions[a]
        cols = []
        for c in bases[su][2]:
            vec = [mat.entries[r][c] % p for r in range(m.gens[tv])]
            vec = _reduce_mod_basis(vec, bases[tv][0], bases[tv][1], p)
            cols.append([vec[r] for r in bases[tv][2]])
        actions.append(tuple(tuple(cols[c][r] for c in range(dims[su]))
                             for r in range(dims[tv])))
    return FieldRep(q, p, dims, tuple(actions))


def _reduce_mod_basis(vec, pivots, reduced, p):
    out = list(vec)
    for c, r in pivots.items():
        f = out[c] % p
        if f:
            out = [(x - f * y) % p for x, y in zip(out, reduced[r])]
    return out


def field_hom_ext_dims(m: FieldRep, n: FieldRep) -> tuple:
    """(dim Hom, dim Ext^1) over the field, from one intertwining matrix.

    The standard two-term sequence for path algebra representations over
    a field identifies Hom with the kernel and Ext^1 with the cokernel
    of the same map of vertexwise Hom spaces.
    """
    if m.quiver != n.quiver or m.p != n.p:
        raise DimensionMismatch("field representations are not comparable")
    rows, nvars = _intertwining_rows(m.quiver, m.dims, n.dims, m.actions, n.actions)
    rk = smith_invariants(rows, n.p)[0]
    return nvars - rk, len(rows) - rk
