"""Byte-stable command-line outputs, pinned by SHA-256.

The digests were recorded from topoidx 0.1.0.  Any change to a rendered
value, a listing row, a verdict or the row order changes a digest, so a
refactor of the evaluation or rendering path must leave them all equal.
"""

import hashlib
import random
from itertools import combinations

import pytest

from topoidx import Graph, cli, evaluate, generate_family, lookup, registry_names, write_graph
from topoidx.indices import SPECIAL_NAMES

from conftest import random_graph


def _stdout(capsys, *argv) -> str:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_list_indices(capsys):
    assert _sha(_stdout(capsys, "list-indices")) == (
        "d57bc9a3ea217b0bf8699f953fb47494c0cc6791d67fd78399dee97cdecbaac1")


# Every family but star runs to n = 20 in about a second; star's
# domination enumeration alone takes several seconds more.
VERIFY_WIDE = ["--range", "3..20"] + [
    arg for family in ("regular", "cycle", "complete", "path", "kmn", "knn", "k1n",
                       "wheel", "sunflower", "double_star", "windmill")
    for arg in ("--family", family)
]


@pytest.mark.parametrize("argv, digest", [
    ([], "eb55fb2dcfeaa1bf58f55307e7a11de10e583fc4f6801117a1eb2cc0933839c6"),
    (VERIFY_WIDE, "2930568541023c7c53ab878e047bd77e28eec5e087a8a1185d36f0c7fc9bf030"),
], ids=["default", "wide"])
def test_verify_csv(argv, digest, capsys):
    assert _sha(_stdout(capsys, "verify", "--format", "csv", *argv)) == digest


def test_verify_table(capsys):
    # The table format sizes each column from every row before it writes one.
    assert _sha(_stdout(capsys, "verify")) == (
        "f6ffc8c46e60c7975441a5badd20874159ffc6865d459870a04a79432911fbe4")


COMPUTE_ALL = {
    "wheel_4": (generate_family("wheel", 4),
                "51793ec62c6d188d4216d4129ec7ebbeccbe6017f09a6708f268a01170772a97"),
    "sunflower_3": (generate_family("sunflower", 3),
                    "e86f58615d512fd80d9c35a1723267b305bc4c7e2a5d7dfe3dfe7cb993d08147"),
    "path_4": (generate_family("path", 4),
               "4d9e007583b9497873e864a259659a1d6cd8505fc50871a624ff26bcf07aa6a4"),
    "complete_bipartite_2_3": (generate_family("complete_bipartite", 2, 3),
                               "22360ec42270fca7cc247ed73303ac0412efcab948eb010b1aca7d265d7667f6"),
    "star_5": (generate_family("star", 5),
               "8311c1542e848142ec7f4a60167d9e9d89b3e17b0c62e22ed664b07a4b9ae37c"),
    "cycle_5": (generate_family("cycle", 5),
                "bd10580519789837012a402f378015bfac27d780f4b6b40e3683c1c64e10bcaf"),
    # Closeness needs connectivity, so RL7-RL12 give ERROR rows here while
    # RL5, RL13-RL17 and HeronianRL give values.
    "disconnected_3": (Graph(3, [(0, 1)]),
                       "9e9f12319c4fdd3eb120a7727b9509363dc522083284b0f1485abbf0171dec88"),
    # Connected, with tens of census classes, so product names multiply
    # tens of powers; recorded from the left-to-right folds.  n > 24, so the
    # domination names give GraphTooLarge rows.
    "random_7_30_66": (random_graph(7, 30, 66),
                       "7ef1064836890de286fe652900c7d43d4b4568535f6851ed8c2d9e1e46de68d2"),
    # 120 of the 780 vertex pairs, sampled with seed 13: its kv census (119
    # classes) and nbd census (105) pass m/2 and are not kept, and kv kernel
    # 4 and nbd kernel 4 have zero classes.  CI writes the same graph.
    "sampled_40_120_13": (Graph(40, random.Random(13).sample(list(combinations(range(40), 2)), 120)),
                          "8695bc27135e476c6fe020eaaf87437de8ba0aa313ad035140cdb421498ff3f1"),
}


@pytest.mark.parametrize("label", sorted(COMPUTE_ALL))
def test_compute_all_csv_float(label, tmp_path, capsys):
    g, digest = COMPUTE_ALL[label]
    path = str(tmp_path / f"{label}.g")
    write_graph(g, path)
    out = _stdout(capsys, "compute", path, "--all", "--format", "csv", "--float")
    # The graph column holds the file path; the digest is over the label.
    assert _sha(out.replace(path + ",", label + ",")) == digest


# The pins above all run the general names at a = 2.  These run them at a
# negative, a zero, the first and a non-integral power: the reciprocal
# refusals on zero kernels, k**0, the identity exponent and the float path.
COMPUTE_ALL_GENERAL = {
    ("sunflower_3", "-2"): "919ba1596e5d8e365d9aa7b709f5053fc349e584d862cd947284724448a8de6a",
    ("sunflower_3", "0"): "f3e485c23b8c77594b8c01f2d8514807a2986c3ed1d3e73777e702288c90d8f8",
    ("sunflower_3", "1"): "dedb4178af75050f704cc3979f27a0c2068f76bddd87230248c722ce5fa98fe4",
    ("sunflower_3", "-3/2"): "a7c12b27ad3064f2ef505875609dcf08ec53cab0f6785c91178af7f8676faa7c",
    ("sampled_40_120_13", "-2"): "b9ca2c03b3674bc5ba5e15d36ba6cba0ef3d2ecf6f1e49664fca07c273faa5d4",
    ("sampled_40_120_13", "0"): "452088d29177bf1132b3c84b12e44b9a53b03e7bcb4ca11f9afeef25cb2f410c",
    ("sampled_40_120_13", "1"): "122ea9d1fd51cc2562126a8a9c8c12ea9d54947d25b38c55376a092af991ddb7",
    ("sampled_40_120_13", "-3/2"): "718d38011ae21b1e28f89893078a9fb71a99da049b7edc83ef0d1bc53f5f011d",
}


@pytest.mark.parametrize("label, a", sorted(COMPUTE_ALL_GENERAL))
def test_compute_all_general_powers(label, a, tmp_path, capsys):
    g, _ = COMPUTE_ALL[label]
    path = str(tmp_path / f"{label}.g")
    write_graph(g, path)
    out = _stdout(capsys, "compute", path, "--all", "--format", "csv", "--float", f"--general-a={a}")
    assert _sha(out.replace(path + ",", label + ",")) == COMPUTE_ALL_GENERAL[label, a]


# The name path: every kv catalog name and every standalone name, inline
# (a=...) on general, non-general and standalone names, aliases, and case and
# underscores.  The stem of each name picks its source.
KV_AND_STANDALONE = ",".join(
    [name for name in registry_names() if lookup(name)[0].source == "kv"] + list(SPECIAL_NAMES))

COMPUTE_NAMES = {
    "sunflower_3_kv": (generate_family("sunflower", 3),
                       ["--index", KV_AND_STANDALONE, "--format", "csv", "--float"],
                       "a71d84e3663003926b25fe4047bb67196d4295ca455af451871cb3d3503882b9"),
    "path_5_banhatti": (generate_family("path", 5),
                        ["--index", "GBRL1(a=3),BRL1(a=5),RL7(a=2),c1,HERONIAN,brl_1_exp,"
                                    "m_i_brl1,GBRL2",
                         "--format", "json"],
                        "a66d37da4afa0539e59489340ff75b1bc34cf5f5f723321bccaefc4de3798efc"),
}


@pytest.mark.parametrize("label", sorted(COMPUTE_NAMES))
def test_compute_names(label, tmp_path, capsys):
    g, argv, digest = COMPUTE_NAMES[label]
    path = str(tmp_path / f"{label}.g")
    write_graph(g, path)
    out = _stdout(capsys, "compute", path, *argv)
    assert _sha(out.replace(path, label)) == digest


# RL7-RL12 on graphs that take both closeness methods: one BFS per vertex on
# the path and the cycle, the multi-source BFS on the others, in two blocks
# on star(1500).  The pins include the ``~`` floats of RL10 and RL11.
CLOSENESS_NAMES = "RL7,RL8,RL9,RL10,RL11,RL12"

COMPUTE_CLOSENESS = {
    "wheel_1000": (("wheel", 1000),
                   "e48aa260767e0b95611d099bf092a49c3e0a4b91c591b4fa068fa03ca0c6bf0c"),
    "regular_400_4": (("regular", 400, 4),
                      "90956449c76cbef423afac19ac5aa614aad442a04049e69f20cb1b4cab3c138a"),
    "sunflower_100": (("sunflower", 100),
                      "ab6f327dcd940e8398cd37ec627c6efe9d2f74d5fa79add64116d6f93ae95583"),
    "cycle_401": (("cycle", 401),
                  "7ddbdb5ede82684d17c7c21ae598fe9d917e587d54af66cb32aa4166231540be"),
    "path_300": (("path", 300),
                 "d4e19e100ebca317f175ec24b8bb3f312b2891d09ed29132d7c05f12dcc120ba"),
    "star_1500": (("star", 1500),
                  "d49a5e89628a39178d449d82edd8d2030ca18bcf4d5364db37bf5817591cb23e"),
}


@pytest.mark.parametrize("label", sorted(COMPUTE_CLOSENESS))
def test_compute_closeness(label, tmp_path, capsys):
    family, digest = COMPUTE_CLOSENESS[label]
    path = str(tmp_path / f"{label}.g")
    write_graph(generate_family(*family), path)
    out = _stdout(capsys, "compute", path, "--index", CLOSENESS_NAMES, "--format", "csv", "--float")
    assert _sha(out.replace(path + ",", label + ",")) == digest


def test_functionals_closeness(tmp_path, capsys):
    path = str(tmp_path / "wheel_1000.g")
    write_graph(generate_family("wheel", 1000), path)
    out = _stdout(capsys, "functionals", path, "--source", "closeness")
    assert _sha(out) == "6239fe837ce8d2f6a46e54bf9477ce91b95d2d63a1a679ca03bd916a47f5de4b"


# Exact products over tens of census classes, pinned as the bytes of the
# numerator and denominator: a fold that regroups, reorders or skips the
# reduction of any factor changes a digest.  The bytes avoid int-to-text.
def _value_digest(value) -> str:
    h = hashlib.sha256(b"-" if value.numerator < 0 else b"+")
    for part in (abs(value.numerator), value.denominator):
        data = part.to_bytes((part.bit_length() + 7) // 8, "big")
        h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


BIG_PRODUCTS = {
    "MRL1": "a2ada073aa931a71b39e65380c93b82b7ee2cea32e0a1e438ed2a4c18de425e6",
    "MIRL1": "02f6fff9ff70b7a8fb24601f0f4a8045296ad1ce87c020a52998eda769eea415",
    "MTRL1": "7604741fcde84ff2c220b26ee223efcde46c6ba1e904fd0c5e52692c106dede8",
    "MBRL1": "7eb043d8710ae208d563eaf7e9a074d6f414935074b2e4631b937fa4e68ae448",
    "MNRL1": "1f00255f3ba8aa0a4407cb70cef7ccf91d767351d52a2154be917168419054f1",
}


@pytest.mark.parametrize("name", sorted(BIG_PRODUCTS))
def test_big_product_bytes(name):
    # G(300, 1500): its products reach 12,000-32,000 bits.
    assert _value_digest(evaluate(random_graph(5, 300, 1500), name)) == BIG_PRODUCTS[name]
