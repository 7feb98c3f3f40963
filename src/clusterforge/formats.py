"""Line-oriented structured text formats, version header clusterforge/1.

All files start with `clusterforge/1 <kind>`.  Integers are unbounded
decimals; matrices are bracketed row lists like [[1, 2], [3, 4]], with
[] for a matrix that has no entries (shapes are inferred from the
generator counts).  Arrow and vertex indices are 1-based in files.

The formats are deliberately diffable: serialization is deterministic,
so fixtures can be compared byte for byte.
"""

from __future__ import annotations

import ast
import os

from .errors import ClusterForgeError, FormatError
from .quiver import Quiver
from .zlinalg import FinAbGroup, IntMatrix
from . import cluster, rep
from .cluster import ClusterObject, ExchangeGraph
from .rep import ZRep

HEADER = "clusterforge/1"


def format_group(g: FinAbGroup) -> str:
    parts = []
    if g.free_rank:
        parts.append(f"Z^{g.free_rank}")
    parts.extend(f"Z/{d}" for d in g.torsion)
    return " ⊕ ".join(parts) if parts else "0"


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _check_header(text: str, kind: str):
    for no, line in _lines(text):
        parts = line.split()
        if len(parts) != 2 or parts[0] != HEADER or parts[1] != kind:
            raise FormatError(f"expected header '{HEADER} {kind}', found '{line}'", line=no)
        return no
    raise FormatError("empty file", line=1)


def _parse_int_list(token: str, line: int):
    try:
        value = ast.literal_eval(token)
    except (ValueError, SyntaxError):
        raise FormatError(f"malformed integer list {token!r}", line=line)
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise FormatError(f"expected a flat integer list, found {token!r}", line=line)
    return value


def _parse_index(token: str, top: int, what: str, line: int) -> int:
    """A 1-based index in 1..top."""
    try:
        idx = int(token)
    except ValueError:
        raise FormatError(f"{what} wants an index, found {token!r}", line=line)
    if not 1 <= idx <= top:
        raise FormatError(f"{what} index {idx} out of range 1..{top}", line=line)
    return idx


def _parse_matrix(token: str, line: int):
    try:
        value = ast.literal_eval(token)
    except (ValueError, SyntaxError):
        raise FormatError(f"malformed matrix {token!r}", line=line)
    if value == []:
        return []
    if not (isinstance(value, list) and all(isinstance(r, list) for r in value)
            and all(type(x) is int for r in value for x in r)):
        raise FormatError(f"expected a bracketed row list, found {token!r}", line=line)
    widths = {len(r) for r in value}
    if len(widths) > 1:
        raise FormatError("ragged matrix rows", line=line)
    return value


# ---------------------------------------------------------------------------
# quiver files

def parse_quiver(text: str) -> Quiver:
    header_line = _check_header(text, "quiver")
    vertices = None
    arrows = None
    for no, line in _lines(text):
        if no == header_line:
            continue
        key, _, value = line.partition(" ")
        value = value.strip()
        if key == "vertices":
            if vertices is not None:
                raise FormatError("vertices is given twice", line=no)
            try:
                vertices = int(value)
            except ValueError:
                raise FormatError(f"vertices wants an integer, found {value!r}", line=no)
        elif key == "arrows":
            if arrows is not None:
                raise FormatError("arrows is given twice", line=no)
            rows = _parse_matrix(value, no)
            for pair in rows:
                if len(pair) != 2:
                    raise FormatError("arrows must be 2-element lists", line=no)
            arrows = tuple((a, b) for a, b in rows)
        else:
            raise FormatError(f"unknown field {key!r} in quiver file", line=no)
    if vertices is None:
        raise FormatError("missing 'vertices' field", line=header_line)
    if arrows is None:
        arrows = ()
    try:
        return Quiver(vertices, arrows)
    except ClusterForgeError as exc:
        raise FormatError(str(exc), line=header_line)


def load_quiver(path: str) -> Quiver:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_quiver(fh.read())
    except OSError as exc:
        raise FormatError(f"cannot read quiver file {path}: {exc}")


# ---------------------------------------------------------------------------
# representation files

def parse_rep(text: str, quiver: Quiver) -> ZRep:
    header_line = _check_header(text, "rep")
    gens = None
    relations = {}
    actions = {}
    for no, line in _lines(text):
        if no == header_line:
            continue
        key, _, value = line.partition(" ")
        value = value.strip()
        if key == "quiver":
            continue  # reference resolved by the caller
        elif key == "generators":
            if gens is not None:
                raise FormatError("generators is given twice", line=no)
            gens = _parse_int_list(value, no)
            if any(g < 0 for g in gens):
                raise FormatError("generator counts must be non-negative", line=no)
        elif key in ("relations", "action"):
            idx_token, _, mat_token = value.partition(" ")
            top = quiver.n if key == "relations" else len(quiver.arrows)
            idx = _parse_index(idx_token, top, key, no)
            mat = _parse_matrix(mat_token.strip(), no)
            table = relations if key == "relations" else actions
            if idx in table:
                raise FormatError(f"{key} {idx} is given twice", line=no)
            table[idx] = (mat, no)
        else:
            raise FormatError(f"unknown field {key!r} in rep file", line=no)
    if gens is None:
        raise FormatError("missing 'generators' field", line=header_line)
    if len(gens) != quiver.n:
        raise FormatError(
            f"generators lists {len(gens)} vertices, quiver has {quiver.n}",
            line=header_line)
    rel_mats = []
    for v in quiver.vertices:
        g = gens[v - 1]
        if v in relations:
            rows, no = relations[v]
            if len(rows) != g:
                raise FormatError(
                    f"relations at vertex {v} need {g} rows, found {len(rows)}", line=no)
            cols = len(rows[0]) if rows else 0
            rel_mats.append(IntMatrix.from_rows(rows, cols=cols))
        else:
            rel_mats.append(IntMatrix.zero(g, 0))
    act_mats = []
    for a, (s, t) in enumerate(quiver.arrows):
        shape = (gens[t - 1], gens[s - 1])
        if a + 1 in actions:
            rows, no = actions[a + 1]
            if rows == [] and shape[0] * shape[1] == 0:
                act_mats.append(IntMatrix.zero(*shape))
                continue
            if len(rows) != shape[0] or (rows and len(rows[0]) != shape[1]):
                raise FormatError(
                    f"action for arrow {a + 1} must be {shape[0]}x{shape[1]}", line=no)
            act_mats.append(IntMatrix.from_rows(rows, cols=shape[1]))
        else:
            act_mats.append(IntMatrix.zero(*shape))
    try:
        return ZRep(quiver, tuple(gens), tuple(rel_mats), tuple(act_mats))
    except ClusterForgeError as exc:
        raise FormatError(str(exc), line=header_line)


def _matrix_token(m: IntMatrix) -> str:
    if m.rows == 0 or m.cols == 0:
        return "[]"
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]"
                           for row in m.entries) + "]"


def serialize_rep(m: ZRep, quiver_ref: str = "inline") -> str:
    out = [f"{HEADER} rep", f"quiver {quiver_ref}",
           "generators [" + ", ".join(str(g) for g in m.gens) + "]"]
    for v in m.quiver.vertices:
        rel = m.relations[v - 1]
        if rel.cols:
            out.append(f"relations {v} {_matrix_token(rel)}")
    for a in range(len(m.quiver.arrows)):
        mat = m.actions[a]
        if not mat.is_zero():
            out.append(f"action {a + 1} {_matrix_token(mat)}")
    return "\n".join(out) + "\n"


def load_rep(path: str, quiver: Quiver | None = None) -> tuple:
    """Read a rep file; returns (ZRep, quiver).  The quiver reference in
    the file is resolved relative to the file's directory unless an
    explicit quiver is supplied."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read rep file {path}: {exc}")
    if quiver is None:
        ref = None
        for no, line in _lines(text):
            key, _, value = line.partition(" ")
            if key == "quiver":
                ref = value.strip()
        if ref is None or ref == "inline":
            raise FormatError(f"rep file {path} carries no quiver reference")
        qpath = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
        quiver = load_quiver(qpath)
    return parse_rep(text, quiver), quiver


# ---------------------------------------------------------------------------
# cluster files

def parse_cluster(text: str, quiver: Quiver, pool: cluster.RigidPool | None = None,
                  rep_loader=None) -> tuple:
    """Summand list of a cluster file.

    Supported summand forms: `projective i` (the pool's P_i when it holds
    it), `shifted_projective i`, `dim [d1, ...]` (resolved through the
    pool), `rep <path>` (resolved through rep_loader).
    """
    header_line = _check_header(text, "cluster")
    summands = []
    for no, line in _lines(text):
        if no == header_line:
            continue
        key, _, value = line.partition(" ")
        value = value.strip()
        if key == "quiver":
            continue
        if key != "summand":
            raise FormatError(f"unknown field {key!r} in cluster file", line=no)
        kind, _, arg = value.partition(" ")
        arg = arg.strip()
        if kind == "projective":
            p = rep.projective(quiver, _parse_index(arg, quiver.n, "projective", no))
            obj = pool.find(("M", p.gens)) if pool is not None else None
            summands.append(obj or ClusterObject.from_module(p))
        elif kind == "shifted_projective":
            v = _parse_index(arg, quiver.n, "shifted_projective", no)
            summands.append(ClusterObject.sigma_projective(quiver, v))
        elif kind == "dim":
            dims = tuple(_parse_int_list(arg, no))
            if pool is None:
                raise FormatError("dim summands need a pool to resolve against", line=no)
            obj = pool.find(("M", dims))
            if obj is None:
                raise FormatError(f"no pool object with dimension vector {dims}", line=no)
            summands.append(obj)
        elif kind == "rep":
            if rep_loader is None:
                raise FormatError("rep summands are not available here", line=no)
            summands.append(ClusterObject.from_module(rep_loader(arg)))
        else:
            raise FormatError(f"unknown summand kind {kind!r}", line=no)
    if not summands:
        raise FormatError("cluster file lists no summands", line=header_line)
    return tuple(summands)


def load_cluster(path: str, quiver: Quiver, pool=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read cluster file {path}: {exc}")

    def loader(ref):
        rpath = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
        m, _ = load_rep(rpath, quiver)
        return m

    return parse_cluster(text, quiver, pool=pool, rep_loader=loader)


# ---------------------------------------------------------------------------
# graph output

def describe_object(obj: ClusterObject) -> str:
    if obj.is_module:
        return "M[" + ",".join(str(d) for d in obj.dim_c()) + "]"
    return f"SP{obj.shifted_projective}"


def graph_to_structured(g: ExchangeGraph) -> str:
    out = [f"{HEADER} graph",
           f"vertices {g.quiver.n}",
           "arrows [" + ", ".join(f"[{s}, {t}]" for s, t in g.quiver.arrows) + "]",
           f"nodes {len(g.nodes)}"]
    # each object once; every summand of a middle term is one of a node
    name = {s: describe_object(s) for s in set().union(*g.nodes)}.__getitem__
    for i, node in enumerate(g.nodes):
        out.append(f"node {i} {' '.join(map(name, node))}")
    for i, k, j, tri in g.edges:
        e = ",".join(map(name, tri.e)) or "-"
        ep = ",".join(map(name, tri.e_prime)) or "-"
        out.append(f"edge {i} {k} {j} e {e} eprime {ep}")
    out.append(f"truncated {'true' if g.truncated else 'false'}")
    if g.truncated and g.truncation_reason:
        out.append(f"reason {g.truncation_reason}")
    return "\n".join(out) + "\n"


def graph_to_dot(g: ExchangeGraph) -> str:
    out = ["graph exchange {"]
    for i, node in enumerate(g.nodes):
        out.append(f'  n{i} [label="{" ".join(map(describe_object, node))}"];')
    seen = set()
    for i, k, j, _tri in g.edges:
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        out.append(f'  n{i} -- n{j} [label="k={k + 1}"];')
    if g.truncated:
        out.append('  truncated [shape=box, label="truncated"];')
    out.append("}")
    return "\n".join(out) + "\n"
