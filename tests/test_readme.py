"""The README's examples print what it shows, and its tables mirror rabot.cli."""
import ast
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# each expression the example comments with a result, and that result
EXPECTED = {
    "brute_moment(MomentQuery(base=2, power=2, k=2))": 10,
    "form.render()": "(-1/6)*2^k + (-2/3)*3^k + (2/3)*5^k",
    "verdict.status": "proven",
    "g.excluded_bases()": frozenset(),
}


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no python block under ## Library"
    return match.group(1)


def test_readme_library_example_matches_its_comments():
    source = _library_block()
    lines = source.splitlines()
    namespace: dict = {}
    results = {}
    for node in ast.parse(source).body:
        segment = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            comment = lines[node.lineno - 1].partition("#")[2].strip()
            results[segment] = (value, comment)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    for expression, expected in EXPECTED.items():
        assert expression in results, expression
        value, comment = results[expression]
        assert value == expected, expression
        assert comment.startswith(repr(expected)), (expression, comment)


def test_readme_limits_table_mirrors_cli_limits():
    from rabot.cli import LIMITS

    text = README.read_text(encoding="utf-8")
    header = "| subcommand     | input          | least | greatest |"
    assert header in text, "README has no limits table"
    rows = set()
    for line in text.split(header, 1)[1].splitlines()[2:]:
        if not line.startswith("|"):
            break
        command, flag, least, greatest = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        rows.add((command, flag, int(least), int(greatest) if greatest else None))
    expected = {
        (command, flag, least, greatest)
        for command, limits in LIMITS.items()
        for flag, (least, greatest) in limits.items()
    }
    assert rows == expected


def test_readme_inputs_table_mirrors_cli_recorded():
    from rabot.cli import RECORDED

    text = README.read_text(encoding="utf-8")
    header = "| subcommand     | inputs                                        |"
    assert header in text, "README has no inputs table"
    rows = {}
    for line in text.split(header, 1)[1].splitlines()[2:]:
        if not line.startswith("|"):
            break
        command, dests = (cell.strip() for cell in line.strip("|").split("|"))
        rows[command.strip("`")] = tuple(dest.strip("`") for dest in dests.split(", "))
    assert list(rows.items()) == list(RECORDED.items())


def _cli_examples() -> list[tuple[str, str]]:
    """Each `$ rabot ...` line of the README's CLI block and the lines under it."""
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## CLI\n+```\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no block under ## CLI"
    examples = []
    for example in match.group(1).split("\n\n"):
        command, _, output = example.partition("\n")
        assert command.startswith("$ rabot "), example
        examples.append((command[len("$ rabot ") :], output.rstrip("\n") + "\n"))
    return examples


@pytest.mark.parametrize(
    "command, output", [pytest.param(*example, id=example[0].split()[0]) for example in _cli_examples()]
)
def test_readme_cli_example_prints_what_it_shows(capsys, command, output):
    from rabot.cli import main

    assert main(command.split()) == 0
    assert capsys.readouterr() == (output, "")


def test_readme_cli_examples_cover_every_subcommand():
    from rabot.cli import LIMITS

    assert [command.split()[0] for command, _ in _cli_examples()] == list(LIMITS)
