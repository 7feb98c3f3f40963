"""Golden CLI output.

The stdout of `graph --format structured`, `pool`, `verify` and `tau` is a
contract: it must stay byte-identical across refactors of the algebra
beneath it.  The graph and verify digests were recorded from the
implementation before the lean Smith-form core, the D4 and Kronecker
pool digests from the one before cached hashes, and the E6 pool and
mixed-orientation A5 graph digests from the one before each translate
orbit was walked once; a changed digest means the CLI output changed.
The `tau` digest was recorded once tau became the Coxeter functor: the
Nakayama transport before it printed an isomorphic lattice in another
basis (actions [[1], [0]], [[1], [1]], [[0], [1]] for this input), so
those bytes differ by design.  The affine A~(2,1) graph (120 edges, with
mutation-cone partners and empty middle terms) and the wild 1=>2->3
graph were recorded before Hom, Ext^1 and the suspension in the cluster
category became fundamental-domain formulas; they pin the suspension and
the non-Dynkin ext1_c path.

No golden pinned `hom` or `ext` before the torsion and presented A2
reps below.  The `ext` digest (Z/2 out of Z/2 at vertex 1 into Z/6 at
vertex 2) was recorded before Hom and Ext^1 were read off one complex
per module, and Ext^1 did not change there.  The `hom` digest (Z^1) was
recorded after it, because the dense system before it printed Z^2 for
Hom(P_1, N) with N a presented copy of P_1: by Yoneda the group is
N_1 = Z, and its rank is the dimension of Hom over Q of the
rationalized modules, which `tests/test_rep.py` checks on random
presented pairs.

The `mutate` digests were recorded before each cluster carried its
exchange matrix: every position of the A4 projective cluster, every
position of a D4 cluster holding sigma P_1, both positions of a
Kronecker cluster holding sigma P_1, and two `--interactive` sessions.
A cluster read from a file carries no orbit coordinates, so these pin
the middle terms a lone cluster reads off its class matrix, and the
sessions pin the ones carried from mutation to mutation.

The larger `graph` digests were recorded before each exchange partner
was predicted from the carried c-vectors, while the pool still searched
its compatibility masks and the first translates past the bound: E6
closing on its 833 clusters, the Kronecker quiver at bound 80 (two
refusals past the bound) and at bound 1 (a cluster holding sigma P_1
whose partner is refused), the wild 1=>2->3 at bound 20 (cone partners)
and at bound 6 with no node limit, and A~(2,2) at bound 4.
"""

import hashlib
import io

import pytest

from clusterforge.cli import main

QUIVERS = {
    "a4.quiver": "vertices 4\narrows [[1, 2], [2, 3], [3, 4]]\n",
    "d4.quiver": "vertices 4\narrows [[1, 4], [2, 4], [3, 4]]\n",
    "kronecker.quiver": "vertices 2\narrows [[1, 2], [1, 2]]\n",
    "e6.quiver": "vertices 6\narrows [[1, 2], [2, 3], [3, 4], [4, 5], [3, 6]]\n",
    "a5mix.quiver": "vertices 5\narrows [[2, 1], [2, 3], [4, 3], [4, 5]]\n",
    "at21.quiver": "vertices 3\narrows [[1, 2], [2, 3], [1, 3]]\n",
    "wild.quiver": "vertices 3\narrows [[1, 2], [1, 2], [2, 3]]\n",
    "a2.quiver": "vertices 2\narrows [[1, 2]]\n",
    "at22.quiver": "vertices 4\narrows [[1, 2], [2, 4], [1, 3], [3, 4]]\n",
}

CLUSTERS = {
    "a4proj.cluster": "quiver a4.quiver\nsummand projective 1\nsummand projective 2\n"
                      "summand projective 3\nsummand projective 4\n",
    "d4sp.cluster": "quiver d4.quiver\nsummand shifted_projective 1\nsummand projective 2\n"
                    "summand projective 3\nsummand projective 4\n",
    "k2sp.cluster": "quiver kronecker.quiver\nsummand projective 2\n"
                    "summand shifted_projective 1\n",
}

REPS = {
    "d4thin.rep": "quiver d4.quiver\ngenerators [1, 1, 1, 1]\n"
                  "action 1 [[1]]\naction 2 [[1]]\naction 3 [[1]]\n",
    "z2at1.rep": "quiver a2.quiver\ngenerators [1, 0]\nrelations 1 [[2]]\n",
    "z6at2.rep": "quiver a2.quiver\ngenerators [0, 1]\nrelations 2 [[6]]\n",
    "p1.rep": "quiver a2.quiver\ngenerators [1, 1]\naction 1 [[1]]\n",
    "p1presented.rep": "quiver a2.quiver\ngenerators [1, 2]\n"
                       "relations 2 [[1], [1]]\naction 1 [[1], [0]]\n",
}

GOLDEN = (
    (("graph", "a4.quiver", "--dim-bound", "12", "--format", "structured"),
     "e549323cf025dc82a20a2875152e36448387fca5f732c24b237511709f2357c4"),
    (("graph", "d4.quiver", "--dim-bound", "12", "--format", "structured"),
     "c6d2b41a971dcc331c6208bd5632a00d2e15688642d912d81040a71e787964bd"),
    (("graph", "kronecker.quiver", "--dim-bound", "6", "--max-nodes", "6",
      "--format", "structured"),
     "26fbacdba565245e9f369faf957b3200954bf2919c50e15c4fb349cc9e3ffcfe"),
    (("verify", "d4.quiver", "--prime", "2"),
     "497d19efc958f25196695f2dc93dd0a6b300b8d8c39b78f778e7bd5cfc8558df"),
    (("pool", "d4.quiver", "--dim-bound", "12"),
     "08cb798a9b89d28f76709598ce21fb40180ef7a02377bee62bdd458aa935c0a6"),
    (("pool", "kronecker.quiver", "--dim-bound", "6"),
     "3ff879cad6657d628f282790d6d2d0ae3449e7069cda773922b351ab86d1addd"),
    (("pool", "e6.quiver", "--dim-bound", "12"),
     "8d2385ac617b0c378dc73dbd3fa1a4377173b597c03100f4acf48d62d0d71c5f"),
    (("graph", "a5mix.quiver", "--dim-bound", "12", "--format", "structured"),
     "6208e6d097aea88838de142ebf086e4a63d45e2483aae9e5c39905001f9b799b"),
    (("tau", "d4.quiver", "d4thin.rep"),
     "be7cfbc9c71dd944b434926b56db500871f652cc076ef7fce7610f9a825a6d2b"),
    (("graph", "at21.quiver", "--dim-bound", "5", "--format", "structured"),
     "e734d8b94ba8a46c38abe0e703cd291a0ac2742eebdeb6eadff25472f490a3ce"),
    (("graph", "wild.quiver", "--dim-bound", "6", "--max-nodes", "20",
      "--format", "structured"),
     "28ecc8713b4788f2399fe8114aebafe407a6f370ca16c107a0e207054444a73d"),
    (("ext", "a2.quiver", "z2at1.rep", "z6at2.rep"),
     "a11fa08845c98900554963661253bc8b2585556250118cf1b4e1aa44ff9a2582"),
    (("hom", "a2.quiver", "p1.rep", "p1presented.rep"),
     "9602df4a88f4c33c1efdf244d247adea280e7170b6495cb3cca4a47fd058177a"),
)


# (graph arguments before --format structured, sha256 of stdout)
GRAPH_GOLDEN = (
    (("e6.quiver", "--dim-bound", "12"),
     "a6d552473c71f7b41ed0a0e0726328c71cf1fa64a1a4127c6a6178ec1001c642"),
    (("kronecker.quiver", "--dim-bound", "80", "--max-nodes", "1000"),
     "ae18d44918ddb1ea155c78700ff3e37ff1e8ce1709f97b0ae4d563ed851ffdfe"),
    (("kronecker.quiver", "--dim-bound", "1", "--max-nodes", "3"),
     "86015b12255ccfa541835c464e7918dd6ee4e3172ea5f13aad1401b7e874b26f"),
    (("wild.quiver", "--dim-bound", "20", "--max-nodes", "20"),
     "19fe277acf95d2636ca9723132411bad3b6bc5b4edd9b1bab33244c9d10d2e58"),
    (("wild.quiver", "--dim-bound", "6", "--max-nodes", "100000"),
     "0cca1ac4bfa3fcd2ceb9d0681c25f4910f86f1c55316e94d7f0366a51d752620"),
    (("at22.quiver", "--dim-bound", "4"),
     "954b9727edf833be61b573f3a13cb2fd0a6eb97509d1915657d42569a170feb1"),
)


# (argv, standard input, sha256 of stdout)
MUTATE_GOLDEN = (
    *((("mutate", "a4.quiver", "a4proj.cluster", str(k)), "", digest) for k, digest in (
        (1, "db283fba1c5fca290752c160daa7aca86cce75918ebff76ba3faea41f270c895"),
        (2, "7383aace77c7c1661996c4eedbaaca2aab5aa110f4b31056e824f5cd676d8d8d"),
        (3, "2365974ead9ba35560d8fa302072e289ed549a240abac9cf486e767a17b5b9fe"),
        (4, "da6686358747f33e4ca246521f6eb3c01a530b0445645ffb8170af2596e6a85a"),
    )),
    *((("mutate", "d4.quiver", "d4sp.cluster", str(k)), "", digest) for k, digest in (
        (1, "a987e797da5d2c3cb7640565ad0786023e2b64097e567dc369a421f7fef8af6e"),
        (2, "ed3213890e1d591ca31fc6fd25d3befe24837c97f65ec389f2ea0d598c170bce"),
        (3, "7531e43071ec38512f84afa74709194eb4f7f9e35feff317f064f3dcd21cbbbb"),
        (4, "174367979d345d7e57b05ba7ca3c576b9c52fd8357155f5f3a6145bbeda86ba9"),
    )),
    *((("mutate", "kronecker.quiver", "k2sp.cluster", str(k), "--dim-bound", "6"), "", digest)
      for k, digest in (
        (1, "f42c84a255f30b73b59f908f25dde5a346a820fa8310133ddd8a089ccab0aa6a"),
        (2, "e864f41b08d1f4d64d61fe607d75f51c0e278818bcd036e035ff75ddf0ea694b"),
    )),
    (("mutate", "a4.quiver", "a4proj.cluster", "--interactive"), "1\n2\n3\n4\n1\nx\n9\n2\nq\n",
     "94241119768855cf2af5c0a579443ecefe4299c0ee580d9b33e7e09deec0ea58"),
    (("mutate", "d4.quiver", "d4sp.cluster", "--interactive"), "1\n4\n2\n3\n1\n",
     "456188bdeb9f91fe68afb9a9b2c3dc24bc3039fc3ab5817bd7e183e4a78a4adc"),
)


def _workdir(tmp_path, monkeypatch):
    for name, body in QUIVERS.items():
        (tmp_path / name).write_text("clusterforge/1 quiver\n" + body)
    for name, body in REPS.items():
        (tmp_path / name).write_text("clusterforge/1 rep\n" + body)
    for name, body in CLUSTERS.items():
        (tmp_path / name).write_text("clusterforge/1 cluster\n" + body)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a[:2]) for a, _ in GOLDEN])
def test_cli_stdout_digest(tmp_path, monkeypatch, capsys, argv, digest):
    _workdir(tmp_path, monkeypatch)
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args,digest", GRAPH_GOLDEN, ids=[" ".join(a) for a, _ in GRAPH_GOLDEN])
def test_cli_graph_digest(tmp_path, monkeypatch, capsys, args, digest):
    _workdir(tmp_path, monkeypatch)
    assert main(["graph", *args, "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,stdin,digest", MUTATE_GOLDEN,
                         ids=[" ".join(a[1:3] + a[3:4]) for a, _, _ in MUTATE_GOLDEN])
def test_cli_mutate_digest(tmp_path, monkeypatch, capsys, argv, stdin, digest):
    _workdir(tmp_path, monkeypatch)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
