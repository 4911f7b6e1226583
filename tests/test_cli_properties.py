"""Property tests of the CLI's argument parsing on arbitrary strings.

`classify` and `plan` get random strings as the values of `--alpha`,
`--beta`, `--alpha-decimal` and `--beta-decimal` (each flag present or not),
mixed with rational, decimal and exponent literals that reach the region
catalog and the size budget.  `plan`, `simulate`, `render` and `atlas` get
random strings and small integers as `--n`, `--k`, `--trials` and `--grid`.
Whatever the input, the command ends with exit 0, 1 or 2 and one JSON object
on standard output, never a traceback (an SVG or CSV payload on exit 0).
Values are passed as `--flag=value`, so a value that starts with "-" is
still a value and not an option.  A third property feeds mutated copies of
the built-in region table to `--table`.
"""

import contextlib
import copy
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from detic.cli import main

FLAGS = ("--alpha", "--beta", "--alpha-decimal", "--beta-decimal")

values = st.one_of(
    st.text(max_size=12),
    st.from_regex(r"\A[+-]?\d{0,4}(/\d{0,4})?\Z"),
    st.from_regex(r"\A[+-]?\d{0,2}\.\d{0,4}([eE][+-]?\d{1,4})?\Z"),
)

# A point whose coordinates have coprime denominators of about 4000 digits:
# its payload would hold values of about 8000 digits.  The second is refused
# too, its common denominator having about 4010 digits.
HUGE_Q = 10**3999 + 7
HUGE_POINT = {"--alpha": f"{3 * HUGE_Q // 2}/{HUGE_Q}", "--beta": f"{(HUGE_Q + 2) // 3}/{HUGE_Q + 2}"}
LONG_POINT = {"--alpha": f"{3 * HUGE_Q // 2}/{HUGE_Q}", "--beta": "3333333333/9999999999"}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["classify", "plan"]),
    point=st.fixed_dictionaries({}, optional={flag: values for flag in FLAGS}),
)
@example(command="plan", point={"--alpha": "8/5", "--beta": "9/10"})
@example(command="classify", point={"--alpha": "1", "--beta": "1"})
@example(command="classify", point={"--alpha-decimal": "1/0", "--beta": "0"})
@example(command="plan", point={"--alpha-decimal": "1e9999", "--beta-decimal": "0.5"})
@example(command="plan", point={"--alpha-decimal": "1.0001", "--beta-decimal": "0.5"})
@example(command="classify", point={"--alpha": "-8/5", "--beta": "\x00"})
@example(command="classify", point=HUGE_POINT)
@example(command="plan", point=HUGE_POINT)
@example(command="simulate", point=HUGE_POINT)
@example(command="render", point=HUGE_POINT)
@example(command="classify", point=LONG_POINT)
def test_point_strings_always_end_in_json(command, point):
    argv = [command, *(f"{flag}={value}" for flag, value in point.items())]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert isinstance(json.loads(out.getvalue()), dict), argv


# Small magnitudes keep every accepted run fast; the budgets and N checks
# are reached through the explicit examples.
sizes = st.one_of(st.text(max_size=8), st.from_regex(r"\A[+-]?\d{1,2}\Z"))


SIZE_FLAGS = {
    "plan": ("--n",),
    "simulate": ("--n", "--k", "--trials"),
    "render": ("--n", "--k"),
    "atlas": ("--grid",),
}


@st.composite
def size_queries(draw) -> tuple[str, dict[str, str]]:
    command = draw(st.sampled_from(sorted(SIZE_FLAGS)))
    flags = st.fixed_dictionaries({}, optional={flag: sizes for flag in SIZE_FLAGS[command]})
    return command, draw(flags)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(query=size_queries())
@example(query=("simulate", {"--n": "40", "--k": "4", "--trials": "3"}))
@example(query=("simulate", {"--n": "6000", "--k": "40", "--trials": "0"}))
@example(query=("simulate", {"--k": "99999999999", "--trials": "-1"}))
@example(query=("render", {"--n": "60", "--k": "5"}))
@example(query=("atlas", {"--grid": "202"}))
@example(query=("atlas", {"--grid": "9" * 5000}))
def test_size_strings_always_end_in_json(query):
    command, flags = query
    point = [] if command == "atlas" else ["--alpha=8/5", "--beta=9/10"]
    argv = [command, *point, *(f"{flag}={value}" for flag, value in flags.items())]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 0 and command in ("render", "atlas"):
        return  # the payload is an SVG or CSV document
    assert isinstance(json.loads(out.getvalue()), dict), argv


BUILTIN_ROWS = json.loads(resources.files("detic.data").joinpath("regions.json").read_text())

junk = st.sampled_from(["1/0", "1e9999", "9" * 5000, "1/" + "7" * 5000, [], ["1", "2"], None, 0, {}])


def entries(node):
    """(container, key) of every value inside a row, at every depth."""
    for key in sorted(node) if isinstance(node, dict) else range(len(node)):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from entries(node[key])


@st.composite
def mutated_tables(draw) -> list:
    """The built-in rows after 1-4 mutations: a key or list entry at any depth
    of a row dropped or swapped for junk, or a whole row duplicated or deleted."""
    rows = copy.deepcopy(BUILTIN_ROWS)
    for _ in range(draw(st.integers(1, 4))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        op = draw(st.sampled_from(["drop", "junk", "duplicate", "delete"]))
        if op == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), copy.deepcopy(rows[i]))
        elif op == "delete":
            del rows[i]
        else:
            parent, key = draw(st.sampled_from(list(entries(rows[i]))))
            if op == "drop":
                del parent[key]
            else:
                parent[key] = draw(junk)
    return rows


TABLE_COMMANDS = (
    ["classify", "--alpha=8/5", "--beta=9/10"],
    ["plan", "--alpha=8/5", "--beta=9/10"],
    ["atlas", "--grid=5"],
    ["verify", "--suite=table"],
    ["verify", "--suite=search"],
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rows=mutated_tables())
@example(rows=[])
@example(rows=BUILTIN_ROWS[1:])  # loads: every command answers
@example(rows=BUILTIN_ROWS + BUILTIN_ROWS[:1])  # a duplicated id
@example(rows=[{**BUILTIN_ROWS[0], "dsym": "9" * 5000}])
@example(rows=[row for row in BUILTIN_ROWS if row["id"] == "Df"])  # covers no search point
def test_mutated_tables_always_end_in_json(rows):
    # A table that fails to load or validate exits 2 with a JSON error; one
    # that loads answers normally.  atlas answers with a CSV on exit 0.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "regions.json"
        path.write_text(json.dumps(rows))
        for command in TABLE_COMMANDS:
            argv = [f"--table={path}", *command]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if code == 0 and command[0] == "atlas":
                assert out.getvalue().startswith("alpha,beta,"), argv
                continue
            assert isinstance(json.loads(out.getvalue()), dict), argv
