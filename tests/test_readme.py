"""The README's examples run, and print what their comments say."""

import ast
import io
import json
import re
import shlex
import tokenize
from fractions import Fraction
from pathlib import Path

from dynres.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _fenced_block(heading: str, lang: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _stated_value(comment: str) -> str:
    """The literal a comment opens with: up to a top-level ',' or ':' or a double space."""
    depth, quote = 0, None
    for i, ch in enumerate(comment):
        if quote:
            quote = None if ch == quote else quote
        elif ch in "'\"":
            quote = ch
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0 and (ch in ",:" or comment.startswith("  ", i)):
            return comment[:i]
    return comment


def test_library_quick_start_values():
    block = _fenced_block("Library quick start", "python")
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            expected = eval(_stated_value(comments[stmt.end_lineno]), {"Fraction": Fraction})
            assert value == expected and type(value) is type(expected), ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == 6


def test_command_line_examples(tmp_path, monkeypatch, capsys):
    block = _fenced_block("Command line", "sh")
    payloads = re.findall(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n", block, re.S)
    assert [name for name, _ in payloads] == ["t8.json", "t2.json"]
    for name, text in payloads:
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    seen = set()
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[:1] != ["dynres"] or argv[1] not in ("resultant", "reduce", "invariants", "twist-test"):
            continue
        assert main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if argv[1] == "resultant":
            assert out == comment.strip() + "\n"
        elif argv[1] == "twist-test":
            assert json.loads(out)["status"] == "conjugate"
        seen.add(argv[1])
    assert seen == {"resultant", "reduce", "invariants", "twist-test"}
