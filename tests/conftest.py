import ast
import io
import tokenize
from pathlib import Path

_SOURCES = Path(__file__).parent.parent / "src" / "qlift"

_acceptance_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "::test_criterion_" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.passed:
        _acceptance_results[name] = "PASS"
    elif report.skipped:
        _acceptance_results[name] = "SKIP"
    else:
        _acceptance_results[name] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_results):
        terminalreporter.write_line(f"{name}: {_acceptance_results[name]}")
    texts = [p.read_text(encoding="utf-8") for p in sorted(_SOURCES.glob("*.py"))]
    terminalreporter.write_line(f"non-blank src/qlift lines: {sum(map(_source_lines, texts))}")
    terminalreporter.write_line(f"code lines (no docstrings, comments or blanks): {sum(map(_code_lines, texts))}")


def _source_lines(text: str) -> int:
    """Lines with a non-whitespace character, counted as
    `cat src/qlift/*.py | grep -cv '^\\s*$'` counts them."""
    return sum(1 for line in text.splitlines() if line.strip())


def _code_lines(text: str) -> int:
    """Lines that hold a token of code: not blank, not only a comment and
    not part of a module, class or function docstring."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)
