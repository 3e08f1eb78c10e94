from pathlib import Path

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
    terminalreporter.write_line(f"non-blank src/qlift lines: {_source_lines()}")


def _source_lines() -> int:
    """Lines of src/qlift/*.py with a non-whitespace character, counted as
    `cat src/qlift/*.py | grep -cv '^\\s*$'` counts them."""
    paths = sorted((Path(__file__).parent.parent / "src" / "qlift").glob("*.py"))
    text = "".join(p.read_text(encoding="utf-8") for p in paths)
    return sum(1 for line in text.splitlines() if line.strip())
