import pytest

from clusterforge import cli, clear_caches, rep
from clusterforge.cli import _is_prime, main
from clusterforge.errors import FormatError
from clusterforge.formats import (
    format_group,
    graph_to_dot,
    graph_to_structured,
    parse_cluster,
    parse_quiver,
    parse_rep,
    serialize_rep,
)
from clusterforge.quiver import Quiver
from clusterforge.rep import projective, simple, torsion_simple
from clusterforge.cluster import build_pool, exchange_graph
from clusterforge.zlinalg import FinAbGroup

A2 = Quiver(2, ((1, 2),))

A2_TEXT = """clusterforge/1 quiver
vertices 2
arrows [[1, 2]]
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "a2.quiver").write_text(A2_TEXT)
    (tmp_path / "m.rep").write_text(
        "clusterforge/1 rep\nquiver a2.quiver\ngenerators [1, 0]\nrelations 1 [[2]]\n")
    (tmp_path / "s1.rep").write_text(
        "clusterforge/1 rep\nquiver a2.quiver\ngenerators [1, 0]\n")
    (tmp_path / "s2.rep").write_text(
        "clusterforge/1 rep\nquiver a2.quiver\ngenerators [0, 1]\n")
    (tmp_path / "p1.rep").write_text(
        "clusterforge/1 rep\nquiver a2.quiver\ngenerators [1, 1]\naction 1 [[1]]\n")
    # P_1 again, presented with two generators at vertex 2 and one relation
    (tmp_path / "n.rep").write_text(
        "clusterforge/1 rep\nquiver a2.quiver\ngenerators [1, 2]\n"
        "relations 2 [[1], [1]]\naction 1 [[1], [0]]\n")
    (tmp_path / "initial.cluster").write_text(
        "clusterforge/1 cluster\nquiver a2.quiver\nsummand projective 1\nsummand projective 2\n")
    (tmp_path / "cyclic.quiver").write_text(
        "clusterforge/1 quiver\nvertices 2\narrows [[1, 2], [2, 1]]\n")
    (tmp_path / "broken.quiver").write_text("clusterforge/1 quiver\nvertices x\n")
    (tmp_path / "corrupt.rep").write_text(
        "clusterforge/1 rep\nquiver a2.quiver\ngenerators [1, 0]\naction 1 [[1], [2]]\n")
    return tmp_path


def test_quiver_round_trip():
    q = parse_quiver(A2_TEXT)
    assert q == A2


def test_quiver_parse_errors_name_lines():
    with pytest.raises(FormatError) as info:
        parse_quiver("clusterforge/1 quiver\nvertices 2\narrows [[1]]\n")
    assert "line 3" in str(info.value)
    with pytest.raises(FormatError):
        parse_quiver("clusterforge/0 quiver\nvertices 2\n")
    # True is an int to isinstance: this arrow would read as 1 -> 2
    with pytest.raises(FormatError) as info:
        parse_quiver("clusterforge/1 quiver\nvertices 2\narrows [[True, 2]]\n")
    assert "line 3" in str(info.value)


def test_constructor_errors_become_format_errors(tmp_path, capsys):
    # both files parse cleanly; the Quiver / ZRep constructors reject them
    bad_quiver = "clusterforge/1 quiver\nvertices 2\narrows [[1, 3]]\n"
    bad_rep = ("clusterforge/1 rep\nquiver a2.quiver\ngenerators [1, 1]\n"
               "relations 1 [[2]]\naction 1 [[1]]\n")
    with pytest.raises(FormatError) as info:
        parse_quiver(bad_quiver)
    assert "out of range" in str(info.value)
    with pytest.raises(FormatError) as info:
        parse_rep(bad_rep, A2)
    assert "does not preserve relations" in str(info.value)
    (tmp_path / "a2.quiver").write_text(A2_TEXT)
    (tmp_path / "bad.quiver").write_text(bad_quiver)
    (tmp_path / "bad.rep").write_text(bad_rep)
    assert main(["check", str(tmp_path / "bad.quiver")]) == 2
    assert "out of range" in capsys.readouterr().err
    assert main(["ext", str(tmp_path / "a2.quiver"), str(tmp_path / "bad.rep"),
                 str(tmp_path / "bad.rep")]) == 2
    assert "does not preserve relations" in capsys.readouterr().err


def test_bad_rep_lines_name_lines(tmp_path, capsys):
    with pytest.raises(FormatError) as info:
        parse_rep("clusterforge/1 rep\ngenerators [1, 0]\naction 7 [[5]]\n", A2)
    assert "line 3" in str(info.value) and "out of range" in str(info.value)
    with pytest.raises(FormatError) as info:
        parse_rep("clusterforge/1 rep\ngenerators [1, 0]\nrelations 9 [[2]]\n", A2)
    assert "line 3" in str(info.value) and "out of range" in str(info.value)
    with pytest.raises(FormatError) as info:
        parse_rep("clusterforge/1 rep\ngenerators [1, 1]\naction 1 [[1]]\naction 1 [[0]]\n", A2)
    assert "line 4" in str(info.value) and "twice" in str(info.value)
    with pytest.raises(FormatError) as info:
        parse_rep("clusterforge/1 rep\ngenerators [-1, 0]\n", A2)
    assert "line 2" in str(info.value)
    with pytest.raises(FormatError) as info:
        parse_rep("clusterforge/1 rep\ngenerators [True, False]\n", A2)
    assert "line 2" in str(info.value)
    with pytest.raises(FormatError) as info:
        parse_rep("clusterforge/1 rep\ngenerators [1, 1]\naction 1 [[False]]\n", A2)
    assert "line 3" in str(info.value)
    (tmp_path / "a2.quiver").write_text(A2_TEXT)
    (tmp_path / "stray.rep").write_text(
        "clusterforge/1 rep\nquiver a2.quiver\ngenerators [1, 0]\n"
        "action 7 [[5]]\nrelations 9 [[2]]\n")
    assert main(["ext", str(tmp_path / "a2.quiver"), str(tmp_path / "stray.rep"),
                 str(tmp_path / "stray.rep")]) == 2
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("parse, text, line, field", (
    (parse_quiver, "clusterforge/1 quiver\nvertices 2\narrows [[1, 2]]\nvertices 3\n", 4,
     "vertices"),
    (parse_quiver, "clusterforge/1 quiver\narrows [[1, 2]]\nvertices 2\narrows [[2, 1]]\n", 4,
     "arrows"),
    (lambda text: parse_rep(text, A2),
     "clusterforge/1 rep\ngenerators [1, 0]\ngenerators [0, 1]\n", 3, "generators"),
), ids=["vertices", "arrows", "generators"])
def test_a_repeated_field_is_a_parse_error(parse, text, line, field):
    # a field given twice is refused at its second line, not read at its last
    with pytest.raises(FormatError) as info:
        parse(text)
    assert str(info.value) == f"line {line}: {field} is given twice"


@pytest.mark.parametrize("summand", ["projective 9", "projective x", "shifted_projective 0",
                                     "shifted_projective 3"])
def test_bad_cluster_vertex_is_a_parse_error(tmp_path, capsys, summand):
    (tmp_path / "a2.quiver").write_text(A2_TEXT)
    (tmp_path / "c.cluster").write_text(
        f"clusterforge/1 cluster\nquiver a2.quiver\nsummand projective 1\nsummand {summand}\n")
    assert main(["mutate", str(tmp_path / "a2.quiver"), str(tmp_path / "c.cluster"), "1",
                 "--dim-bound", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 4:")


def test_rep_round_trip():
    for m in (simple(A2, 1), projective(A2, 1), torsion_simple(A2, 1, 2)):
        text = serialize_rep(m, quiver_ref="a2.quiver")
        assert parse_rep(text, A2) == m


def test_format_group():
    assert format_group(FinAbGroup(0)) == "0"
    assert format_group(FinAbGroup(1)) == "Z^1"
    assert format_group(FinAbGroup(0, (2,))) == "Z/2"
    assert format_group(FinAbGroup(2, (2, 4))) == "Z^2 ⊕ Z/2 ⊕ Z/4"


def test_graph_exports():
    g = exchange_graph(A2, 5, 100)
    dot = graph_to_dot(g)
    assert dot.count(" -- ") == 5
    assert "truncated" not in dot
    structured = graph_to_structured(g)
    assert "nodes 5" in structured
    assert structured.endswith("truncated false\n")


def test_cli_check(workdir, capsys):
    assert main(["check", str(workdir / "a2.quiver")]) == 0
    assert "acyclic" in capsys.readouterr().out
    assert main(["check", str(workdir / "cyclic.quiver")]) == 1
    assert "cyclic" in capsys.readouterr().out
    assert main(["check", str(workdir / "broken.quiver")]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_ext_and_hom(workdir, capsys):
    quiver = str(workdir / "a2.quiver")
    assert main(["ext", quiver, str(workdir / "m.rep"), str(workdir / "m.rep")]) == 0
    assert capsys.readouterr().out == "Z/2\n"
    assert main(["ext", quiver, str(workdir / "p1.rep"), str(workdir / "p1.rep")]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["ext", quiver, str(workdir / "s1.rep"), str(workdir / "s2.rep")]) == 0
    assert capsys.readouterr().out == "Z^1\n"
    assert main(["hom", quiver, str(workdir / "p1.rep"), str(workdir / "p1.rep")]) == 0
    assert capsys.readouterr().out == "Z^1\n"
    # Hom(P_1, N) = N_1 = Z by Yoneda, for N a presented copy of P_1
    assert main(["hom", quiver, str(workdir / "p1.rep"), str(workdir / "n.rep")]) == 0
    assert capsys.readouterr().out == "Z^1\n"
    assert main(["ext", quiver, str(workdir / "s1.rep"), str(workdir / "s2.rep"),
                 "--prime", "2"]) == 0
    assert capsys.readouterr().out == "mod 2: 1\n"
    # a presented module is read over F_p on the lattice of its reduction:
    # M = Z/2 at vertex 1 reduces to S_1 mod 2 and to 0 mod 3, so
    # Ext^1(M, S_2), 0 over Z, has dimension 1 mod 2 and 0 mod 3
    m, s2 = str(workdir / "m.rep"), str(workdir / "s2.rep")
    assert main(["ext", quiver, m, s2, "--prime", "2", "--prime", "3"]) == 0
    assert capsys.readouterr().out == "mod 2: 1\nmod 3: 0\n"
    assert main(["ext", quiver, m, s2]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["hom", quiver, m, m, "--prime", "2", "--prime", "3"]) == 0
    assert capsys.readouterr().out == "mod 2: 1\nmod 3: 0\n"
    assert main(["hom", quiver, str(workdir / "p1.rep"), str(workdir / "n.rep"),
                 "--prime", "2"]) == 0
    assert capsys.readouterr().out == "mod 2: 1\n"


def test_cli_repeated_primes_count_once(workdir, capsys):
    # a prime given twice is reduced and printed once, at its first place
    quiver, m, s2 = (str(workdir / name) for name in ("a2.quiver", "m.rep", "s2.rep"))
    for command, args in (("ext", (m, s2)), ("hom", (m, m))):
        assert main([command, quiver, *args, "--prime", "3", "--prime", "2",
                     "--prime", "3", "--prime", "2"]) == 0
        assert capsys.readouterr().out == "mod 3: 0\nmod 2: 1\n"
    assert main(["verify", quiver, "--dim-bound", "5", "--prime", "2", "--prime", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS bijection-mod-2") == 1 and "FAIL" not in out


def test_prime_check_matches_trial_division():
    trial = [p for p in range(3000) if p > 1 and all(p % d for d in range(2, p))]
    assert [p for p in range(-5, 3000) if _is_prime(p)] == trial
    # strong pseudoprimes to every prime base up to 31 and up to 37
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    assert _is_prime(2 ** 89 - 1)


@pytest.mark.parametrize("prime, out, err", (
    (str(10 ** 400), "", "parse error: primes from 3317044064679887385961981 on are not supported\n"),
    ("1000000000000000001", "", "parse error: 1000000000000000001 is not prime\n"),
    ("1000000000000000003", "mod 1000000000000000003: 0\n", ""),
), ids=["10**400", "composite", "prime"])
def test_cli_prime_check_on_large_inputs(workdir, capsys, prime, out, err):
    # trial division to the square root takes a billion steps at 10**18 + 3,
    # and a float square root of 10**400 overflows
    m = str(workdir / "m.rep")
    assert main(["hom", str(workdir / "a2.quiver"), m, m, "--prime", prime]) == (2 if err else 0)
    assert capsys.readouterr() == (out, err)


def test_cli_tau_round_trip(workdir, capsys):
    quiver = str(workdir / "a2.quiver")
    assert main(["tau", quiver, str(workdir / "s1.rep")]) == 0
    out = capsys.readouterr().out
    assert "generators [0, 1]" in out
    (workdir / "tau_s1.rep").write_text(out.replace(quiver, "a2.quiver"))
    assert main(["tau", quiver, str(workdir / "tau_s1.rep"), "--power", "-1"]) == 0
    assert "generators [1, 0]" in capsys.readouterr().out
    assert main(["tau", quiver, str(workdir / "p1.rep")]) == 1
    assert "IsProjective" in capsys.readouterr().err


def test_cli_mutate(workdir, capsys):
    quiver = str(workdir / "a2.quiver")
    cluster = str(workdir / "initial.cluster")
    assert main(["mutate", quiver, cluster, "1", "--dim-bound", "5"]) == 0
    out = capsys.readouterr().out
    assert "mutated M[0,1] -> M[1,0]" in out
    assert "certificate Z^1" in out
    # mutating twice at the same spot is the identity
    assert main(["mutate", quiver, cluster, "3", "--dim-bound", "5"]) == 2


def test_cli_mutate_refuses_a_cluster_that_is_not_tilting(workdir, capsys):
    # three summands, P_1 and sigma P_1 among them: the count and both
    # Ext^1 between them are reported, in the printed summand order, on
    # a first run and on one that reads the stored certificate
    (workdir / "bad.cluster").write_text(
        "clusterforge/1 cluster\nquiver a2.quiver\nsummand shifted_projective 1\n"
        "summand projective 1\nsummand projective 2\n")
    argv = ["mutate", str(workdir / "a2.quiver"), str(workdir / "bad.cluster"), "1"]
    expected = ("not cluster-tilting:\n"
                "  expected 2 summands, got 3\n"
                "  Ext1(M[1, 1], SP1) = Z^1\n"
                "  Ext1(SP1, M[1, 1]) = Z^1\n")
    for _ in range(2):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == (expected, "")


def test_cli_graph_formats(workdir, capsys):
    quiver = str(workdir / "a2.quiver")
    assert main(["graph", quiver, "--dim-bound", "5"]) == 0
    out = capsys.readouterr().out
    assert "nodes 5" in out and "edges 5" in out and "truncated false" in out
    assert main(["graph", quiver, "--dim-bound", "5", "--format", "dot"]) == 0
    assert capsys.readouterr().out.count(" -- ") == 5


def test_cli_graph_refuses_a_node_limit_below_one(workdir, capsys):
    assert main(["graph", str(workdir / "a2.quiver"), "--max-nodes", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: PreconditionViolated: max_nodes must be at least 1\n"


def test_cli_graph_determinism(workdir, capsys):
    quiver = str(workdir / "a2.quiver")
    main(["graph", quiver, "--dim-bound", "5", "--format", "structured"])
    first = capsys.readouterr().out
    main(["graph", quiver, "--dim-bound", "5", "--format", "structured"])
    assert capsys.readouterr().out == first


def test_cli_verify(workdir, capsys):
    quiver = str(workdir / "a2.quiver")
    assert main(["verify", quiver, "--dim-bound", "5", "--prime", "2", "--prime", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS euler-pairing" in out
    assert "FAIL" not in out
    assert main(["verify", quiver, "--dim-bound", "5", "--rep",
                 str(workdir / "corrupt.rep")]) == 1
    out = capsys.readouterr().out
    assert "FAIL rep-wellformed" in out


def test_cli_verify_lattice_rep(workdir, capsys):
    quiver, p1 = str(workdir / "a2.quiver"), str(workdir / "p1.rep")
    assert main(["verify", quiver, "--dim-bound", "5", "--prime", "2", "--rep", p1]) == 0
    out = capsys.readouterr().out
    for check in ("rep-wellformed", "rep-euler", "rep-rigid"):
        assert f"PASS {check}({p1})\n" in out
    assert "FAIL" not in out


def test_cli_verify_rep_over_another_quiver(workdir, capsys):
    (workdir / "a3.quiver").write_text(
        "clusterforge/1 quiver\nvertices 3\narrows [[1, 2], [2, 3]]\n")
    other = workdir / "a3.rep"
    other.write_text("clusterforge/1 rep\nquiver a3.quiver\ngenerators [1, 0, 0]\n")
    assert main(["verify", str(workdir / "a2.quiver"), "--dim-bound", "5", "--prime", "2",
                 "--rep", str(other)]) == 1
    out = capsys.readouterr().out
    assert f"FAIL rep-wellformed({other}): " in out
    assert "quiver has 2" in out
    assert "PASS euler-pairing" in out


def test_cli_verify_unparsable_rep(workdir, capsys):
    junk = workdir / "junk.rep"
    junk.write_text("this is not a rep file\n")
    assert main(["verify", str(workdir / "a2.quiver"), "--dim-bound", "5", "--prime", "2",
                 "--rep", str(junk)]) == 1
    out = capsys.readouterr().out
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith(f"FAIL rep-wellformed({junk}): ")


def test_cli_pool(workdir, capsys):
    assert main(["pool", str(workdir / "a2.quiver"), "--dim-bound", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pool 5 complete true\n")
    assert "M[1,0] tau-orbit" in out


def test_dim_summand_is_the_pool_object():
    # a dim line resolves to the pool's own object, with its coordinate
    pool = build_pool(A2, 5)
    text = "clusterforge/1 cluster\nquiver a2.quiver\nsummand dim [1, 1]\nsummand dim [1, 0]\n"
    summands = parse_cluster(text, A2, pool)
    assert [s.describe() for s in summands] == ["M[1, 1]", "M[1, 0]"]
    assert all(s is pool.find(s.key()) and s.coord is not None for s in summands)
    with pytest.raises(FormatError, match=r"no pool object with dimension vector \(2, 1\)"):
        parse_cluster(text.replace("[1, 0]", "[2, 1]"), A2, pool)


def test_projective_summand_is_the_pool_object():
    # a projective line resolves to the pool's P_i, with its coordinate,
    # and to a module without one when there is no pool or P_i lies past
    # the bound (P_1 of the Kronecker quiver, M[1, 2], at bound 1)
    kronecker = Quiver(2, ((1, 2), (1, 2)))
    text = "clusterforge/1 cluster\nquiver k.quiver\nsummand projective 1\nsummand projective 2\n"
    p1, p2 = parse_cluster(text, kronecker, build_pool(kronecker, 2))
    assert p1.coord == ("P", 1, 0) and p2.coord == ("P", 2, 0)
    p1, p2 = parse_cluster(text, kronecker, build_pool(kronecker, 1))
    assert p1.coord is None and p2.coord == ("P", 2, 0)
    assert all(s.coord is None for s in parse_cluster(text, kronecker))
    assert [s.describe() for s in (p1, p2)] == ["M[1, 2]", "M[0, 1]"]


def test_cli_mutate_on_projectives_presents_no_module(tmp_path, capsys, count_calls):
    # the projective summands are the pool's, at orbit coordinates, so
    # mutating the projective cluster of A4 presents no lattice and
    # computes no module Hom or Ext^1 (6, 10 and 9 calls when each P_i
    # was built from its module)
    (tmp_path / "a4.quiver").write_text(
        "clusterforge/1 quiver\nvertices 4\narrows [[1, 2], [2, 3], [3, 4]]\n")
    (tmp_path / "a4proj.cluster").write_text(
        "clusterforge/1 cluster\nquiver a4.quiver\n"
        + "".join(f"summand projective {i}\n" for i in range(1, 5)))
    clear_caches()
    calls = [count_calls(rep, name) for name in ("_lattice_presentation", "hom_group",
                                                 "ext1_group")]
    assert main(["mutate", str(tmp_path / "a4.quiver"), str(tmp_path / "a4proj.cluster"),
                 "2"]) == 0
    assert capsys.readouterr().out.startswith("mutated M[0,0,1,1] -> M[0,1,0,0]\n")
    assert calls == [[], [], []]


def test_cluster_file_with_rep_summand(workdir, capsys):
    (workdir / "mixed.cluster").write_text(
        "clusterforge/1 cluster\nquiver a2.quiver\nsummand rep s1.rep\n"
        "summand shifted_projective 2\n")
    quiver = str(workdir / "a2.quiver")
    assert main(["mutate", quiver, str(workdir / "mixed.cluster"), "2",
                 "--dim-bound", "5"]) == 0
    out = capsys.readouterr().out
    assert "mutated SP2 -> M[1,1]" in out


def test_cli_interactive_mutate(workdir, capsys, monkeypatch):
    import io
    quiver = str(workdir / "a2.quiver")
    cluster = str(workdir / "initial.cluster")
    monkeypatch.setattr("sys.stdin", io.StringIO("1\nq\n"))
    assert main(["mutate", quiver, cluster, "--interactive", "--dim-bound", "5"]) == 0
    out = capsys.readouterr().out
    assert "mutations:" in out
    assert "mutated M[0,1] -> M[1,0]" in out


def test_cli_verify_a3(tmp_path, capsys):
    (tmp_path / "a3.quiver").write_text(
        "clusterforge/1 quiver\nvertices 3\narrows [[1, 2], [2, 3]]\n")
    assert main(["verify", str(tmp_path / "a3.quiver"), "--dim-bound", "6",
                 "--prime", "2", "--prime", "3", "--prime", "5"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS bijection-mod-5" in out


# one bad-argument error per command; the last is refused by the
# top-level parser, whose usage line names every command
BAD_ARGUMENTS = {
    "check": ["check"],
    "ext": ["ext", "a2.quiver", "m.rep", "s1.rep", "--prime", "two"],
    "hom": ["hom", "a2.quiver", "m.rep"],
    "tau": ["tau", "a2.quiver", "m.rep", "--power", "twice"],
    "mutate": ["mutate", "a2.quiver", "initial.cluster", "first"],
    "graph": ["graph", "a2.quiver", "--format", "svg"],
    "verify": ["verify", "a2.quiver", "--dim-bound", "big"],
    "pool": ["pool", "a2.quiver", "extra"],
}


def _parser_text(parse, argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("command", sorted(BAD_ARGUMENTS))
def test_one_command_parser_prints_what_the_full_parser_prints(command, capsys):
    full = cli._build_parser().parse_args
    for argv in ([command, "-h"], BAD_ARGUMENTS[command]):
        text = _parser_text(main, argv, capsys)
        assert text == _parser_text(full, argv, capsys)
        assert text[0] == (0 if argv[-1] == "-h" else 2)
    if command == "pool":
        assert "{check,ext,hom,tau,mutate,graph,verify,pool} ..." in text[2]


@pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"]], ids=["empty", "help", "bogus"])
def test_top_level_help_and_errors_list_every_command(argv, capsys):
    full = cli._build_parser().parse_args
    text = _parser_text(main, argv, capsys)
    assert text == _parser_text(full, argv, capsys)
    printed = text[1] + text[2]
    assert all(name in printed for name in cli.COMMANDS)
    if argv == ["bogus"]:
        assert "invalid choice: 'bogus'" in printed


def test_main_builds_the_parser_of_the_command_given(workdir, capsys, monkeypatch):
    built = []
    for name, add in cli.COMMANDS.items():
        monkeypatch.setitem(cli.COMMANDS, name,
                            lambda sub, name=name, add=add: built.append(name) or add(sub))
    assert main(["check", str(workdir / "a2.quiver")]) == 0
    assert built == ["check"]
    capsys.readouterr()
    _parser_text(main, ["-h"], capsys)
    assert built == ["check", *cli.COMMANDS]
