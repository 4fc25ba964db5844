"""No command line ends in a traceback: ``cli.main`` fuzzed with hypothesis.

Argument lists are built from ``build_parser``'s commands and flags.  Their
values are drawn from what the program accepts, plus near misses: index names
with case, underscore and one-letter mutations, ``(a=p/q)`` and
``--general-a`` with |p| <= 10**6 and zero or empty denominators, small family
graphs and malformed graph files.  The property: ``cli.main`` returns an int
or raises ``SystemExit``, a nonzero exit writes an ``error:`` line, and
nothing else escapes.
"""

import argparse
import io
import re
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from topoidx import Graph, all_index_names, cli, exact, generate_family, oracle_ids, write_graph
from topoidx.graph import _FAMILIES

from conftest import random_graph

# Powers past this many bits are refused in the fuzz, so that no example
# spends seconds building and printing a power of 10**6; results past
# STR_BITS_MAX still reach the split renderer.
FUZZ_POWER_BITS_MAX = 1 << 18

# argparse writes "topoidx compute: error: ...", the program "error: ...".
ERROR_LINE = re.compile(r"^(topoidx[\w -]*: )?error: ", re.MULTILINE)

PARSER = cli.build_parser()
COMMANDS = next(action for action in PARSER._actions
                if isinstance(action, argparse._SubParsersAction)).choices

GRAPHS = {
    "wheel_4": generate_family("wheel", 4),
    "sunflower_3": generate_family("sunflower", 3),
    "path_2": generate_family("path", 2),
    "star_5": generate_family("star", 5),
    "complete_5": generate_family("complete", 5),
    "cycle_5": generate_family("cycle", 5),
    "random_10_20": random_graph(3, 10, 20),
    "disconnected": Graph(4, [(0, 1), (2, 3)]),
    "isolated": Graph(3, []),
    "empty": Graph(0, []),
}

MALFORMED = {
    "bad_header": b"m 3\n0 1\n",
    "not_utf8": b"n 3\n0 1\n1 \xff2\n",
    "self_loop": b"n 3\n0 1\n1 1\n",
    "huge_n": b"n 100000000000\n",
    "long_n": b"n " + b"9" * 5000 + b"\n",
    "negative_n": b"n -3\n0 1\n",
    "out_of_range": b"n 3\n0 5\n",
    "not_int": b"n 3\n0 x\n",
    "one_field": b"n 3\n0\n",
    "no_header": b"0 1\n",
    "blank": b"",
}

FAMILIES = sorted(_FAMILIES) + sorted({oracle_id.split("/")[1] for oracle_id in oracle_ids()})
NAMES = all_index_names()
NEAR_MISS = "ABDEGHIKLMNRTVX0123456789_ ()=/-"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for label, g in GRAPHS.items():
        paths[label] = str(root / f"{label}.g")
        write_graph(g, paths[label])
    for label, data in MALFORMED.items():
        paths[label] = str(root / f"{label}.g")
        (root / f"{label}.g").write_bytes(data)
    for label, data in (("baseline_malformed", b'{"RL1/wheel": '), ("baseline_list", b"[]")):
        paths[label] = str(root / f"{label}.json")
        (root / f"{label}.json").write_bytes(data)
    paths["missing"] = str(root / "missing.g")
    paths["directory"] = str(root)
    paths["out"] = str(root / "out.txt")
    paths["out_in_missing_dir"] = str(root / "missing" / "out.txt")
    return paths


def usually(valid, near_miss):
    """Draw from ``valid`` seven times in eight, so most examples get past parsing."""
    return st.integers(0, 7).flatmap(lambda i: near_miss if i == 7 else valid)


@st.composite
def mutation(draw, words):
    word = draw(st.sampled_from(words))
    kind = draw(st.sampled_from(["lower", "swapcase", "underscore", "replace", "drop", "insert"]))
    if kind in ("lower", "swapcase"):
        return getattr(word, kind)()
    i = draw(st.integers(0, len(word) - 1))
    if kind == "underscore":
        return word[:i] + "_" + word[i:]
    if kind == "drop":
        return word[:i] + word[i + 1:]
    letter = draw(st.sampled_from(NEAR_MISS))
    return word[:i] + letter + word[i + (kind == "replace"):]


def mutated(words):
    return usually(st.sampled_from(words), mutation(words))


def rationals():
    num = st.integers(-10**6, 10**6).map(str)
    den = st.one_of(st.just(""), st.just("0"), st.integers(1, 10**6).map(str))
    return st.one_of(num, st.tuples(num, den).map("/".join))


@st.composite
def index_names(draw):
    name = draw(mutated(NAMES))
    if draw(st.booleans()):
        name += f"(a={draw(rationals())})"
    return name


def values(files, action):
    """Strategy for the argument tokens of one parser action."""
    def sampled(labels):
        return st.sampled_from([files[label] for label in labels])

    by_dest = {
        "graph": usually(sampled(GRAPHS), sampled(list(MALFORMED) + ["missing", "directory"])),
        "family": mutated(FAMILIES),
        "params": st.lists(usually(st.integers(1, 12).map(str), st.sampled_from(["-1", "0", "x"])),
                           min_size=1, max_size=3),
        "output": sampled(["out", "out_in_missing_dir", "directory"]),
        "index": st.lists(index_names(), min_size=1, max_size=3).map(",".join),
        "general_a": rationals(),
        "range": usually(
            st.tuples(st.integers(-1, 6), st.integers(-1, 6)).map(lambda r: f"{r[0]}..{r[1]}"),
            st.sampled_from(["3", "x..y", "3..", "..4"])),
        "oracle": mutated(oracle_ids()),
        "baseline": sampled(["baseline_malformed", "baseline_list", "missing", "directory"]),
        "update_baseline": sampled(["out", "out_in_missing_dir"]),
    }
    if action.choices is not None:
        tokens = usually(st.sampled_from(sorted(action.choices)), st.just("bogus"))
    else:
        tokens = by_dest[action.dest]
    return tokens if action.nargs in ("+", "*") else tokens.map(lambda token: [token])


@st.composite
def command_lines(draw, files):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    actions = [action for action in COMMANDS[command]._actions
               if not isinstance(action, argparse._HelpAction)]
    argv = [command]
    for action in actions:
        if not action.option_strings:
            argv += draw(values(files, action))
    options = [action for action in actions if action.option_strings]
    for action in draw(st.lists(st.sampled_from(options), min_size=1, max_size=4)) if options else ():
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            argv += draw(values(files, action))
    if command == "verify" and "--range" not in argv:
        argv += ["--range", "3..4"]  # the default range 3..10 is slow to fuzz
    if len(argv) > 1 and draw(st.integers(0, 7)) == 0:  # drop one token
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            mock.patch.object(exact, "POWER_BITS_MAX", FUZZ_POWER_BITS_MAX):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            assert type(code) is int, code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_no_command_line_ends_in_a_traceback(files, data):
    argv = data.draw(command_lines(files), label="argv")
    code, err = run_main(argv)
    event(f"{argv[0]} exit {code}")  # shown by pytest --hypothesis-show-statistics
    if code:
        assert ERROR_LINE.search(err), (code, err)
