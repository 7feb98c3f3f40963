"""Command-line front end.

Commands: check, ext, hom, tau, mutate, graph, verify, pool.
Exit codes: 0 success, 1 domain error (cyclic quiver, failed check,
unreachable mutation), 2 usage or parse error.

Output is deterministic: identical inputs produce byte-identical
output, so fixtures can assert on it directly.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ClusterForgeError, CyclicQuiver, FormatError
from .quiver import validate
from . import cluster, formats, rep, serre, verify


def _add_check(sub) -> None:
    p = sub.add_parser("check", help="validate a quiver file")
    p.add_argument("quiver")


def _add_group(sub, name: str) -> None:
    p = sub.add_parser(name, help=f"{name}-group of two representations")
    p.add_argument("quiver")
    p.add_argument("rep_m")
    p.add_argument("rep_n")
    p.add_argument("--prime", type=int, action="append", default=[],
                   help="compute dimensions over F_p instead (repeatable)")


def _add_tau(sub) -> None:
    p = sub.add_parser("tau", help="Auslander-Reiten translate of a representation")
    p.add_argument("quiver")
    p.add_argument("rep_m")
    p.add_argument("--power", type=int, default=1,
                   help="apply tau this many times; negative powers use the inverse")


def _add_mutate(sub) -> None:
    p = sub.add_parser("mutate", help="mutate a cluster-tilting object")
    p.add_argument("quiver")
    p.add_argument("cluster")
    p.add_argument("position", type=int, nargs="?",
                   help="1-based position in the printed summand order")
    p.add_argument("--dim-bound", type=int, default=12)
    p.add_argument("--interactive", action="store_true",
                   help="read successive positions from standard input")


def _add_graph(sub) -> None:
    p = sub.add_parser("graph", help="exchange graph exploration")
    p.add_argument("quiver")
    p.add_argument("--dim-bound", type=int, default=12)
    p.add_argument("--max-nodes", type=int, default=10000)
    p.add_argument("--format", choices=("text", "structured", "dot"), default="text")


def _add_verify(sub) -> None:
    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("quiver")
    p.add_argument("--dim-bound", type=int, default=12)
    p.add_argument("--prime", type=int, action="append", default=[])
    p.add_argument("--rep", action="append", default=[],
                   help="representation files to validate alongside the suite")


def _add_pool(sub) -> None:
    p = sub.add_parser("pool", help="list the rigid object pool")
    p.add_argument("quiver")
    p.add_argument("--dim-bound", type=int, default=12)


# command -> the function that adds its subparser, in help order
COMMANDS = {
    "check": _add_check,
    "ext": lambda sub: _add_group(sub, "ext"),
    "hom": lambda sub: _add_group(sub, "hom"),
    "tau": _add_tau,
    "mutate": _add_mutate,
    "graph": _add_graph,
    "verify": _add_verify,
    "pool": _add_pool,
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the one command given.

    A parser of one command names all of them in its usage line, so its
    usage and error text are those of the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="clusterforge",
        description="exact computation in integral cluster categories of acyclic quivers")
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        COMMANDS[name](sub)
    return parser


# Miller-Rabin to the 13 primes up to 41 is exact below the bound (Sorenson
# and Webster); to the 12 up to 37 only below 318665857834031151167461.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_EXACT_BELOW = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < _EXACT_BELOW."""
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    s = ((p - 1) & (1 - p)).bit_length() - 1   # p - 1 = d 2^s with d odd
    d = (p - 1) >> s
    return all(pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s))
               for a in _WITNESSES)


def _primes_or_default(primes):
    """The primes given, each checked and kept at its first occurrence."""
    primes = tuple(dict.fromkeys(primes))
    for p in primes:
        if p >= _EXACT_BELOW:
            raise FormatError(f"primes from {_EXACT_BELOW} on are not supported")
        if not _is_prime(p):
            raise FormatError(f"{p} is not prime")
    return tuple(primes)


def cmd_check(args) -> int:
    q = formats.load_quiver(args.quiver)
    try:
        order = validate(q)
    except CyclicQuiver as exc:
        print(f"cyclic: {' -> '.join(str(v) for v in exc.cycle)}")
        return 1
    print("acyclic")
    print("order " + " ".join(str(v) for v in order))
    return 0


def cmd_ext(args, which: str) -> int:
    q = formats.load_quiver(args.quiver)
    m = formats.load_rep(args.rep_m, q)[0]
    n = formats.load_rep(args.rep_n, q)[0]
    primes = _primes_or_default(args.prime)
    if not primes:
        if which == "ext":
            print(formats.format_group(rep.ext1_group(m, n)))
        else:
            print(formats.format_group(rep.hom_group(m, n).group))
        return 0
    for p in primes:
        hom_dim, ext_dim = rep.field_hom_ext_dims(rep.base_change(m, p), rep.base_change(n, p))
        print(f"mod {p}: {ext_dim if which == 'ext' else hom_dim}")
    return 0


def cmd_tau(args) -> int:
    q = formats.load_quiver(args.quiver)
    m = formats.load_rep(args.rep_m, q)[0]
    power = args.power
    for _ in range(abs(power)):
        m = serre.tau(m) if power > 0 else serre.tau_inv(m)
    sys.stdout.write(formats.serialize_rep(m, quiver_ref=args.quiver))
    return 0


def _print_cluster(summands) -> None:
    for i, s in enumerate(summands, start=1):
        print(f"cluster {i} {formats.describe_object(s)}")


def _mutation_menu(summands, pool):
    menu = []
    for k in range(len(summands)):
        try:
            neighbor, tri = cluster.mutate(summands, k, pool)
        except ClusterForgeError as exc:
            menu.append((k, None, str(exc)))
            continue
        menu.append((k, (neighbor, tri), formats.format_group(cluster.ext1_c(tri.x, tri.y))))
    return menu


def _print_triangles(tri) -> None:
    e = ",".join(formats.describe_object(s) for s in tri.e) or "-"
    ep = ",".join(formats.describe_object(s) for s in tri.e_prime) or "-"
    print(f"triangle e {e}")
    print(f"triangle eprime {ep}")
    print(f"certificate {formats.format_group(cluster.ext1_c(tri.x, tri.y))}")


def cmd_mutate(args) -> int:
    q = formats.load_quiver(args.quiver)
    pool = cluster.build_pool(q, args.dim_bound)
    summands = cluster.canonical_cluster(formats.load_cluster(args.cluster, q, pool=pool))
    ok, cert = cluster.is_cluster_tilting(summands)
    if not ok:
        print("not cluster-tilting:")
        for line in cert:
            print(f"  {line}")
        return 1
    if args.interactive:
        return _mutate_interactive(summands, pool)
    if args.position is None:
        print("position required outside --interactive", file=sys.stderr)
        return 2
    k = args.position - 1
    if not 0 <= k < len(summands):
        print(f"position {args.position} out of range 1..{len(summands)}", file=sys.stderr)
        return 2
    new_summands, tri = cluster.mutate(summands, k, pool)
    print(f"mutated {formats.describe_object(tri.x)} -> {formats.describe_object(tri.y)}")
    _print_cluster(new_summands)
    _print_triangles(tri)
    return 0


def _mutate_interactive(summands, pool) -> int:
    while True:
        _print_cluster(summands)
        print("mutations:")
        menu = _mutation_menu(summands, pool)
        for k, payload, cert in menu:
            if payload is None:
                print(f"  {k + 1} unavailable ({cert})")
            else:
                _, tri = payload
                print(f"  {k + 1} -> {formats.describe_object(tri.y)} (Ext1 {cert})")
        sys.stdout.write("> ")
        sys.stdout.flush()
        line = sys.stdin.readline()
        if not line or line.strip() in ("q", "quit", "exit"):
            print("")
            return 0
        try:
            k = int(line.strip()) - 1
        except ValueError:
            print(f"not a position: {line.strip()}")
            continue
        if not 0 <= k < len(summands):
            print(f"position {k + 1} out of range")
            continue
        entry = menu[k]
        if entry[1] is None:
            print(f"position {k + 1} unavailable: {entry[2]}")
            continue
        summands, tri = entry[1]
        print(f"mutated {formats.describe_object(tri.x)} -> {formats.describe_object(tri.y)}")
        _print_triangles(tri)


def cmd_graph(args) -> int:
    q = formats.load_quiver(args.quiver)
    g = cluster.exchange_graph(q, args.dim_bound, args.max_nodes)
    if args.format == "dot":
        sys.stdout.write(formats.graph_to_dot(g))
    elif args.format == "structured":
        sys.stdout.write(formats.graph_to_structured(g))
    else:
        print(f"nodes {len(g.nodes)}")
        undirected = {(min(i, j), max(i, j)) for i, _, j, _ in g.edges}
        print(f"edges {len(undirected)}")
        print(f"truncated {'true' if g.truncated else 'false'}")
    return 0


def cmd_verify(args) -> int:
    q = formats.load_quiver(args.quiver)
    primes = _primes_or_default(args.prime) or (2, 3, 5)
    extra = []
    parse_failures = []
    for path in args.rep:
        try:
            extra.append((path, formats.load_rep(path, q)[0]))
        except FormatError as exc:
            parse_failures.append((path, str(exc)))
    report = verify.run_suite(q, args.dim_bound, primes, extra_reps=extra)
    failed = False
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        detail = f": {check.detail}" if check.detail and not check.passed else ""
        print(f"{status} {check.name}{detail}")
        failed = failed or not check.passed
    for path, msg in parse_failures:
        print(f"FAIL rep-wellformed({path}): {msg}")
        failed = True
    return 1 if failed else 0


def cmd_pool(args) -> int:
    q = formats.load_quiver(args.quiver)
    pool = cluster.build_pool(q, args.dim_bound)
    print(f"pool {len(pool.objects)} complete {'true' if pool.complete else 'false'}")
    for obj in pool.objects:
        print(f"{formats.describe_object(obj)} {pool.provenance[obj.key()]}")
    return 0


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Only the parser of the command that argv names is built; with no
    command or an unknown one every parser is, so that help and errors
    list them all.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command in ("ext", "hom"):
            return cmd_ext(args, args.command)
        if args.command == "tau":
            return cmd_tau(args)
        if args.command == "mutate":
            return cmd_mutate(args)
        if args.command == "graph":
            return cmd_graph(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "pool":
            return cmd_pool(args)
        raise AssertionError("unreachable")
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ClusterForgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
