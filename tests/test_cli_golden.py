"""Golden CLI bytes: the sha256 of stdout, the exit code and stderr of fixed
invocations of `gen`, `classify` and `enumerate`, and of the argparse surface
(help, usage and error text).

Each input document is written from the library's own constructors, so the
digests pin the CLI's output for a fixed input, not the input's encoding.
A change that alters any of these bytes must say why and update the digest.
"""

import hashlib

import pytest

from skewtwist.braces import trivial_brace
from skewtwist.cli import build_parser, main
from skewtwist.generators import z4_brace
from skewtwist.groups import FiniteGroup, cyclic, klein, symmetric
from skewtwist.serialize import brace_to_doc, canonical_dumps, group_to_doc


def z4_relabelled():
    """Z4 with 1 and 2 exchanged: isomorphic to Z4, but no isomorphism from
    Z4 fixes 1, so trivial Z4 has no twist onto its trivial brace."""
    p = (0, 2, 1, 3)
    return FiniteGroup.from_table([[p[(p[x] + p[y]) % 4] for y in range(4)] for x in range(4)])


INPUTS = {
    "z4-brace": z4_brace,
    "Z4": lambda: trivial_brace(cyclic(4)),
    "Z4-relabelled": lambda: trivial_brace(z4_relabelled()),
    "Z8": lambda: trivial_brace(cyclic(8)),
    "Klein": lambda: trivial_brace(klein()),
    "S3": lambda: trivial_brace(symmetric(3)),
    "Z4-group": lambda: cyclic(4),
    "Klein-group": klein,
    "S3-group": lambda: symmetric(3),
}

# (argv with {name} for an input document, exit code, stderr, sha256 of stdout)
GOLDEN = [
    (["gen", "s4-solution"], 0, "",
     "9e2a814398a2fd30fa0907d2ca72245e7b81adbb56354a0206d45f7b7e0fa496"),
    (["gen", "flip", "3"], 0, "",
     "f3b591d7d27da8ba022279506f2a36f7b406b1532e0ad54f65933a92c6f08a46"),
    (["gen", "lyubashenko", "3", "(0 1 2)", "(0 2 1)"], 0, "",
     "a104ad4113fd0050501708a142104c20ecc5f1f510563baa74640feab1e1a3cb"),
    (["gen", "z4-brace"], 0, "",
     "37c59d21437a50b7c1148d38bee0071b03e8a472661113f8eade7c0f6ba53847"),
    (["gen", "cyclic-trivial-brace", "4"], 0, "",
     "e67662ace03fb00e1eab197cbd1b98a9a3cc07f6ab2cc3dfc4bd9638903f8c92"),
    (["gen", "klein-trivial-brace"], 0, "",
     "7a4ca76aeab70ccbd58b2fdfa87d184f92d820c38faa50bfc755c7d4d9326ead"),
    (["gen", "sym-trivial-brace", "3"], 0, "",
     "e2f9c28a08cb7ea83af9dd08dd8948733fbac623b2fecfba2cf7528bc3818c76"),
    (["classify", "--b1", "{z4-brace}", "--b2", "{Z4}"], 0, "",
     "819b9760f1e6eecc2426c167c87f166601e17fedcb9ad53c775d29ffcb0e825e"),
    (["classify", "--b1", "{Klein}", "--b2", "{Klein}"], 0, "",
     "bf239e31fa4f52e5870ab41b34966c746f6a42e4e954b0595d7bc2b7ab77b323"),
    (["classify", "--b1", "{Z8}", "--b2", "{Z8}"], 0, "",
     "67684900d638aa86ebd7738ddd37f15dfd8c80aca013eeb22d7e85c7a9628fbf"),
    (["classify", "--b1", "{Z4}", "--b2", "{Klein}"], 0, "",
     "d603b9f059dce6ee3c7dbef5f4e99a3edc854125c84e7ba3a4c9bd6aa823b27f"),
    (["classify", "--b1", "{Z4}", "--b2", "{Z4-relabelled}"], 0, "",
     "cae239c716e1cf1e9665cb011f065bb76a07a666cd3e5b679bc320c1b72cb33c"),
    (["enumerate", "twists", "--b1", "{S3}", "--b2", "{S3}"], 0, "",
     "376e2f08c7a4aaeba188bbd4febcb25349f3e8c580452f3f573307849ac1f247"),
    (["enumerate", "twists", "--b1", "{Z8}", "--b2", "{Z8}"], 0, "",
     "07e96c2b9c41e7bbca361758fb9e43c02ac00ee8d5382715b2076139393c95e6"),
    (["enumerate", "twists", "--b1", "{Klein}", "--b2", "{Klein}", "--budget", "47"], 3,
     "error: twist enumeration of 48 items exceeded budget of 47\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["enumerate", "families", "--src", "{S3-group}", "--tgt", "{S3-group}"], 0, "",
     "9203e6af049fcc1d1c8b49f3096ff65326cef6cdf2c863995a8f9f716c8cdff9"),
    (["enumerate", "families", "--src", "{Klein-group}", "--tgt", "{Klein-group}"], 0, "",
     "b163273e825bd9d3614ce8bd76f57a66e60a32c9cf09e5fd091fdc9fa83ba5c2"),
    (["enumerate", "families", "--src", "{Z4-group}", "--tgt", "{Klein-group}"], 0, "",
     "e455eba974286982edc30af5bc3d36c0baf00cb83f0b1c7e6ba4d32ab35354d1"),
]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, make in INPUTS.items():
        obj = make()
        doc = group_to_doc(obj) if isinstance(obj, FiniteGroup) else brace_to_doc(obj)
        paths[name] = root / f"{name}.json"
        paths[name].write_text(canonical_dumps(doc))
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("argv, code, err, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_cli_bytes_are_unchanged(documents, capsys, monkeypatch, argv, code, err, digest):
    monkeypatch.delenv("SKEWTWIST_BUDGET", raising=False)
    got = main([arg.format(**documents) for arg in argv])
    captured = capsys.readouterr()
    assert (got, captured.err) == (code, err)
    assert sha256(captured.out) == digest


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


E = sha256("")

# (argv, exit code, sha256 of stdout, sha256 of stderr), at COLUMNS=80.
SURFACE = [
    (["--help"], 0, "b89857b2b1ec0261f1af5d2c17b1de909a16c0e8a7a9f19d6c5484bbfae8f94d", E),
    (["gen", "--help"], 0, "fed81ff68fa905e77d9f9cbca96e1d069c216becd26c83a5bfe7782d006fd8ee", E),
    (["verify", "--help"], 0, "c173e25573f5e7511d66a58198731367de0804b51dcca18af41de903c71ddda8", E),
    (["twist", "--help"], 0, "f61e6bd1138286cddc0390c10b20867c93813627af94df216255e99ac7b90415", E),
    (["compose", "--help"], 0, "2946984f0150b3dd66a627ad225980332f8c0c15b61c9bf214f91473cf7853a7", E),
    (["invert", "--help"], 0, "d9eb18fb326f0d507f6702fc48c860a563ae120c24e28713d5df737a3fe24a60", E),
    (["enumerate", "--help"], 0, "1e30f31898868da336d653c31852ae9c7fc655e81db6eb6369efb3014cc2418b", E),
    (["classify", "--help"], 0, "be84affaa6a6670d5417015742d373ae97cd6d593e660cedbffddf49cd734659", E),
    (["matched-check", "--help"], 0, "c517175977d218457e75132e391b03b0ef551b658d6c2eb685594f717be87ce9", E),
    (["theta-apply", "--help"], 0, "f4354bbfdf82b092096aa517f346b0839645d9660481dea3589877bc88a2c542", E),
    ([], 2, E, "5665ff849e592b8fd4bddebd81f4576cbebc0fca1c808770704df7d851d4f06a"),
    (["bogus"], 2, E, "d904467f983f36f869f26d4f0efc3182ead0b14b6db84fae01fef65cdb31ad6e"),
    (["enumerate", "bogus"], 2, E, "4026e7555a8d835e37ed53d1a40ab3eb9e1f293dcac5b620b34e2f926c9cf20c"),
    (["enumerate", "thetas", "--budget", "x"], 2, E,
     "e518e1a54a6cb42fdd3c66273982832f7c96fed892151d53fcbb99aaa96b0747"),
    (["classify", "--b2", "b2.json"], 2, E, "201baf8beec55746005891910d132e6e2b654a961691768e5f337a5c1be565c1"),
]


@pytest.mark.parametrize("argv, code, out_digest, err_digest", SURFACE,
                         ids=[" ".join(s[0]) or "(none)" for s in SURFACE])
def test_argparse_surface_is_unchanged(capsys, monkeypatch, argv, code, out_digest, err_digest):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("SKEWTWIST_BUDGET", raising=False)
    build_parser.cache_clear()
    for _ in range(2):  # a cold parser, then a warm one
        try:
            got = main(list(argv))
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        assert (got, sha256(captured.out), sha256(captured.err)) == (code, out_digest, err_digest)
