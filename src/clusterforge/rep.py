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

Between lattices Hom is the kernel and Ext^1 the cokernel of one
intertwining matrix, so each ordered pair costs one Smith reduction with
no transform tracked; a Hom basis is computed only when it is read.
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
    block_diag,
    column_span_basis,
    free_cokernel,
    is_split_injective,
    kernel_basis,
    kernel_rank_cokernel,
    rank,
    rank_mod,
    rref_mod_p,
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


def path_target(q: Quiver, start: int, path: tuple) -> int:
    at = start
    for a in path:
        s, t = q.arrows[a]
        if s != at:
            raise DimensionMismatch("path does not compose")
        at = t
    return at


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

    def relation(self, v: int) -> IntMatrix:
        return self.relations[v - 1]

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
    entry (r, c) of each arrow component, in arrow, row, column order.
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
                row = [0] * nvars
                for k in range(g_mt):
                    row[at_t + k] += ma[k][c]
                at_s = offsets[su] + c
                for k in range(g_ns):
                    row[at_s + k * g_ms] -= na_r[k]
                rows.append(row)
    return rows, nvars


def _intertwining_matrix(q: Quiver, m_gens, n_gens, m_actions, n_actions) -> IntMatrix:
    rows, nvars = _intertwining_rows(q, m_gens, n_gens, m_actions, n_actions)
    return IntMatrix(len(rows), nvars, tuple(map(tuple, rows)))


def _lattice_matrix(m: ZRep, n: ZRep) -> IntMatrix:
    """The intertwining matrix of two ZReps, on their generator columns."""
    return _intertwining_matrix(m.quiver, m.gens, n.gens,
                                [x.entries for x in m.actions], [x.entries for x in n.actions])


@memo
def _lattice_hom_ext(m: ZRep, n: ZRep) -> tuple:
    """(Hom, Ext^1) between lattices from one untracked reduction.

    Hom is free of rank cols - rank of the intertwining matrix and Ext^1
    is its cokernel.  The Hom basis is rebuilt from (m, n) when read, so
    no matrix is kept alive.
    """
    nullity, ext = kernel_rank_cokernel(_lattice_matrix(m, n))
    return Hom(FinAbGroup(nullity), partial(_lattice_hom_basis, m, n)), ext


def _lattice_hom_basis(m: ZRep, n: ZRep) -> tuple:
    kb = kernel_basis(_lattice_matrix(m, n))
    return tuple(_unflatten_hom(m, n, kb.col(j)) for j in range(kb.cols))


@memo
def hom_group(m: ZRep, n: ZRep) -> Hom:
    """All homomorphisms of representations m -> n over the path algebra.

    Solves the intertwining system f_{t(a)} M_a = N_a f_{s(a)} on
    vertexwise matrices.  Between lattices Hom is the kernel of the
    intertwining matrix, read with Ext^1 from one reduction per ordered
    pair, and the basis is computed on first read; otherwise the system
    is solved modulo the target presentations.
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
    read with the Hom rank from one reduction per ordered pair; in
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

    @property
    def length(self) -> int:
        if self.p2:
            return 2
        if self.p1:
            return 1
        return 0


def _ps_add(a: dict, b: dict, scale: int = 1) -> None:
    for p, c in b.items():
        nc = a.get(p, 0) + scale * c
        if nc:
            a[p] = nc
        else:
            a.pop(p, None)


def _ps_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for p, c in a.items():
        for p2, c2 in b.items():
            key = p + p2
            nc = out.get(key, 0) + c * c2
            if nc:
                out[key] = nc
            else:
                out.pop(key, None)
    return out


def _ps_freeze(a: dict) -> tuple:
    return tuple(sorted(a.items()))


def _apply_path_sum(m: ZRep, ps: dict, start: int, target: int, vec) -> tuple:
    """Transport a generator-lift vector along a path sum."""
    acc = [0] * m.gens[target - 1]
    for p, c in ps.items():
        if path_target(m.quiver, start, p) != target:
            raise DimensionMismatch("path sum does not land at the expected vertex")
        img = action_along_path(m, start, p).mul_vec(vec)
        acc = [y + c * x for y, x in zip(acc, img)]
    return tuple(acc)


def projective_resolution(m: ZRep) -> ProjResolution:
    """A minimal projective resolution, length <= 1 for lattices, <= 2 in general.

    Built by covering the generators, computing the honest kernel
    lattice of the augmentation, resolving that lattice by the standard
    two-term sequence, and then splitting off every unit summand.
    """
    q = m.quiver

    p0 = [v for v in q.vertices for _ in range(m.gens[v - 1])]
    aug = []
    for v in q.vertices:
        g = m.gens[v - 1]
        for k in range(g):
            aug.append(tuple(1 if r == k else 0 for r in range(g)))

    # ambient basis of P(p0) at each vertex: (slot, path) pairs in slot order
    gen_index = []
    seen = {}
    for slot, v in enumerate(p0):
        gen_index.append(seen.get(v, 0))
        seen[v] = seen.get(v, 0) + 1
    ambient = {}
    for j in q.vertices:
        ambient[j] = [(slot, p) for slot, v in enumerate(p0) for p in paths_from(q, v)[j]]

    # honest kernel of the augmentation at each vertex
    k_basis = {}
    for j in q.vertices:
        basis = ambient[j]
        cols = [action_along_path(m, p0[slot], p).col(gen_index[slot]) for slot, p in basis]
        eps = IntMatrix(m.gens[j - 1], len(cols),
                        tuple(tuple(c[r] for c in cols) for r in range(m.gens[j - 1])))
        system = eps.hstack(m.relations[j - 1].neg())
        kb = kernel_basis(system)
        proj = kb.submatrix(range(len(cols)), range(kb.cols))
        k_basis[j] = column_span_basis(proj)

    k_gens = {j: k_basis[j].cols for j in q.vertices}
    k_actions = {}
    for a, (s, t) in enumerate(q.arrows):
        amb_src, amb_dst = ambient[s], ambient[t]
        index = {key: i for i, key in enumerate(amb_dst)}
        rows = [[0] * len(amb_src) for _ in amb_dst]
        for c, (slot, p) in enumerate(amb_src):
            rows[index[(slot, p + (a,))]][c] = 1
        amb_a = IntMatrix.from_rows(rows, cols=len(amb_src))
        k_actions[a] = solve_matrix(k_basis[t], amb_a.mul(k_basis[s]))

    # d1: K-generators included into P(p0) via their ambient coordinates
    p1 = [v for v in q.vertices for _ in range(k_gens[v])]
    d1 = [[{} for _ in p1] for _ in p0]
    col = 0
    for v in q.vertices:
        for tcol in range(k_gens[v]):
            vec = k_basis[v].col(tcol)
            for coord, (slot, p) in enumerate(ambient[v]):
                if vec[coord]:
                    d1[slot][col][p] = vec[coord]
            col += 1

    # d2: standard two-term resolution of the kernel lattice
    p1_offsets = {}
    at = 0
    for v in q.vertices:
        p1_offsets[v] = at
        at += k_gens[v]
    p2 = []
    d2_cols = []
    for a, (s, t) in enumerate(q.arrows):
        ka = k_actions[a]
        for tcol in range(k_gens[s]):
            p2.append(t)
            centry = [{} for _ in p1]
            centry[p1_offsets[s] + tcol][(a,)] = 1
            for r in range(k_gens[t]):
                coeff = ka.entries[r][tcol]
                if coeff:
                    _ps_add(centry[p1_offsets[t] + r], {(): -coeff})
            d2_cols.append(centry)
    d2 = [[d2_cols[c][r] for c in range(len(p2))] for r in range(len(p1))]

    p0, p1, p2, d1, d2, aug = _minimize_resolution(m, p0, p1, p2, d1, d2, aug)

    return ProjResolution(
        module=m,
        p0=tuple(p0),
        p1=tuple(p1),
        p2=tuple(p2),
        d1=tuple(tuple(_ps_freeze(e) for e in row) for row in d1),
        d2=tuple(tuple(_ps_freeze(e) for e in row) for row in d2),
        augmentation=tuple(aug),
    )


def _minimize_resolution(m, p0, p1, p2, d1, d2, aug):
    """Alternately split unit summands out of d1 and d2 until stable.

    Per vertex the coefficients of trivial paths between same-vertex
    slots form an integer block; SNF of that block exposes every unit
    that can be split, including units hidden by a change of basis.
    """
    changed = True
    while changed:
        changed = False
        res = _minimize_step(m, p0, p1, d1, aug=aug, down=(p2, d2))
        if res is not None:
            p0, p1, d1, aug, (p2, d2) = res
            changed = True
        res = _minimize_step(m, p1, p2, d2, aug=None, up=(p0, d1))
        if res is not None:
            p1, p2, d2, _, (p0, d1) = res
            changed = True
    return p0, p1, p2, d1, d2, aug


def _minimize_step(m, rows_slots, cols_slots, d, aug=None, down=None, up=None):
    """One sweep of unit splitting over d; returns updated data or None.

    `down` is the next differential (its rows are indexed by our
    columns); `up` is the previous one (its columns are indexed by our
    rows).  Whichever is present receives the compensating change of
    basis so that consecutive compositions stay zero.
    """
    q = m.quiver
    rows_slots = list(rows_slots)
    cols_slots = list(cols_slots)
    d = [[dict(e) for e in row] for row in d]
    aug = list(aug) if aug is not None else None
    down_slots = down_d = up_slots = up_d = None
    if down is not None:
        down_slots, down_d = list(down[0]), [[dict(e) for e in row] for row in down[1]]
    if up is not None:
        up_slots, up_d = list(up[0]), [[dict(e) for e in row] for row in up[1]]

    dead_rows: set = set()
    dead_cols: set = set()
    split_any = False

    for u in q.vertices:
        rows_u = [i for i, v in enumerate(rows_slots) if v == u and i not in dead_rows]
        cols_u = [j for j, v in enumerate(cols_slots) if v == u and j not in dead_cols]
        if not rows_u or not cols_u:
            continue
        scalar = IntMatrix.from_rows(
            [[d[i][j].get((), 0) for j in cols_u] for i in rows_u], cols=len(cols_u))
        dec = snf(scalar)
        units = [t for t in range(min(scalar.rows, scalar.cols))
                 if abs(dec.S.entries[t][t]) == 1]
        if not units:
            continue
        split_any = True

        # row basis change: d[rows_u] <- u_inv . d[rows_u]
        old_rows = {i: d[i] for i in rows_u}
        new_rows = {}
        for li, i in enumerate(rows_u):
            new_row = [dict() for _ in cols_slots]
            for lk, k in enumerate(rows_u):
                coeff = dec.u_inv.entries[li][lk]
                if coeff:
                    for j in range(len(cols_slots)):
                        _ps_add(new_row[j], old_rows[k][j], coeff)
            new_rows[i] = new_row
        for i in rows_u:
            d[i] = new_rows[i]
        if aug is not None:
            old_aug = {i: aug[i] for i in rows_u}
            for li, i in enumerate(rows_u):
                vec = [0] * m.gens[u - 1]
                for lk, k in enumerate(rows_u):
                    coeff = dec.U.entries[lk][li]
                    if coeff:
                        vec = [x + coeff * y for x, y in zip(vec, old_aug[k])]
                aug[i] = tuple(vec)
        if up_d is not None:
            # our rows index up_d's columns
            old_cols = {i: [up_d[r][i] for r in range(len(up_slots))] for i in rows_u}
            for li, i in enumerate(rows_u):
                for r in range(len(up_slots)):
                    acc: dict = {}
                    for lk, k in enumerate(rows_u):
                        coeff = dec.U.entries[lk][li]
                        if coeff:
                            _ps_add(acc, old_cols[k][r], coeff)
                    up_d[r][i] = acc

        # column basis change: d[:, cols_u] <- d[:, cols_u] . v_inv
        old_cols = {j: [d[r][j] for r in range(len(rows_slots))] for j in cols_u}
        new_cols = {}
        for lj, j in enumerate(cols_u):
            col_data = [dict() for _ in rows_slots]
            for lk, k in enumerate(cols_u):
                coeff = dec.v_inv.entries[lk][lj]
                if coeff:
                    for r in range(len(rows_slots)):
                        _ps_add(col_data[r], old_cols[k][r], coeff)
            new_cols[j] = col_data
        for j in cols_u:
            for r in range(len(rows_slots)):
                d[r][j] = new_cols[j][r]
        if down_d is not None:
            # our columns index down_d's rows
            old_down = {j: down_d[j] for j in cols_u}
            new_down = {}
            for lj, j in enumerate(cols_u):
                row_data = [dict() for _ in range(len(down_slots))]
                for lk, k in enumerate(cols_u):
                    coeff = dec.V.entries[lj][lk]
                    if coeff:
                        for cix in range(len(down_slots)):
                            _ps_add(row_data[cix], old_down[k][cix], coeff)
                new_down[j] = row_data
            for j in cols_u:
                down_d[j] = new_down[j]

        for t in units:
            r, c = rows_u[t], cols_u[t]
            sign = dec.S.entries[t][t]
            # clear the pivot column with row operations
            for r2 in range(len(rows_slots)):
                if r2 == r or r2 in dead_rows or not d[r2][c]:
                    continue
                w = {p: sign * cc for p, cc in d[r2][c].items()}
                for j2 in range(len(cols_slots)):
                    if j2 in dead_cols or not d[r][j2]:
                        continue
                    _ps_add(d[r2][j2], _ps_mul(w, d[r][j2]), -1)
                if aug is not None:
                    addend = _apply_path_sum(m, w, rows_slots[r2], u, aug[r2])
                    aug[r] = tuple(x + y for x, y in zip(aug[r], addend))
                if up_d is not None:
                    for rr in range(len(up_slots)):
                        if up_d[rr][r2]:
                            _ps_add(up_d[rr][r], _ps_mul(up_d[rr][r2], w))
            # clear the pivot row with column operations
            for j2 in range(len(cols_slots)):
                if j2 == c or j2 in dead_cols or not d[r][j2]:
                    continue
                w = {p: sign * cc for p, cc in d[r][j2].items()}
                for r2 in range(len(rows_slots)):
                    if r2 in dead_rows or not d[r2][c]:
                        continue
                    _ps_add(d[r2][j2], _ps_mul(d[r2][c], w), -1)
                if down_d is not None:
                    for cc2 in range(len(down_slots)):
                        if down_d[j2][cc2]:
                            _ps_add(down_d[c][cc2], _ps_mul(w, down_d[j2][cc2]))
            dead_rows.add(r)
            dead_cols.add(c)

    if not split_any:
        return None

    keep_rows = [i for i in range(len(rows_slots)) if i not in dead_rows]
    keep_cols = [j for j in range(len(cols_slots)) if j not in dead_cols]
    for i in dead_rows:
        if up_d is not None:
            assert all(not up_d[r][i] for r in range(len(up_slots))), "nonzero column dropped"
    for j in dead_cols:
        if down_d is not None:
            assert all(not e for e in down_d[j]), "nonzero row dropped"

    new_rows_slots = [rows_slots[i] for i in keep_rows]
    new_cols_slots = [cols_slots[j] for j in keep_cols]
    new_d = [[d[i][j] for j in keep_cols] for i in keep_rows]
    new_aug = [aug[i] for i in keep_rows] if aug is not None else None
    if down_d is not None:
        extra = (down_slots, [[down_d[j][cix] for cix in range(len(down_slots))]
                              for j in keep_cols])
    else:
        extra = (up_slots, [[up_d[r][i] for i in keep_rows] for r in range(len(up_slots))])
    return new_rows_slots, new_cols_slots, new_d, new_aug, extra


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
    Raises NotASummand when no split pair exists.
    """
    if not is_exceptional(s):
        raise PreconditionViolated("strip_summand needs an exceptional summand")
    maps_in = hom_group(s, m).basis
    maps_out = hom_group(m, s).basis
    if not maps_in or not maps_out:
        raise NotASummand("no homomorphisms in one direction")
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
    mat = _intertwining_matrix(m.quiver, m.dims, n.dims, m.actions, n.actions)
    rk = rank_mod(mat, n.p)
    return mat.cols - rk, mat.rows - rk
