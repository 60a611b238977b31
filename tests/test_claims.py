"""The claim ledger, CLAIMS.md: its table parses, every status is a known word, every verified row
names a test, and every test id it names is a test its file defines."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = ["Claim", "Desk analog", "Status", "Evidence", "Caveat"]
STATUSES = ("verified", "pilot only", "untested", "contradicted")
TEST_ID = re.compile(r"`([\w./-]+\.py)::([\w:]+)`")


def cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def ledger(text: str) -> list[dict[str, str]]:
    """The rows of the one table in a ledger's text, as column -> cell."""
    lines = [line for line in text.splitlines() if line.startswith("|")]
    assert cells(lines[0]) == COLUMNS
    assert all(set(cell) == {"-"} for cell in cells(lines[1])), "the header is not followed by a rule"
    rows = [dict(zip(COLUMNS, cells(line), strict=True)) for line in lines[2:]]
    assert rows, "the ledger has no rows"
    return rows


def defined_tests(path: Path) -> set[str]:
    """The test ids a pytest file defines: `test_*` functions, and `test_*` methods of `Test*` classes as
    `Class::name`."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            names.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef) and item.name.startswith("test_"))
    return names


def unresolved(rows: list[dict[str, str]]) -> list[str]:
    """The test ids in the rows' evidence that name no test their file defines."""
    missing = []
    for row in rows:
        for path, name in TEST_ID.findall(row["Evidence"]):
            file = ROOT / path
            if not file.is_file() or name not in defined_tests(file):
                missing.append(f"{path}::{name}")
    return missing


ROWS = ledger((ROOT / "CLAIMS.md").read_text(encoding="utf-8"))


@pytest.mark.parametrize("row", ROWS, ids=[f"row{i}" for i in range(1, len(ROWS) + 1)])
def test_each_row_quotes_a_claim_and_has_a_known_status(row):
    assert row["Claim"].startswith('"') and row["Claim"].endswith('"')
    assert row["Status"] in STATUSES
    assert all(row[column] for column in COLUMNS)


def test_every_verified_row_names_a_test():
    prose = [row["Claim"] for row in ROWS if row["Status"] == "verified" and not TEST_ID.search(row["Evidence"])]
    assert prose == [], "a verified row points at a test, not at prose"


def test_every_test_id_names_a_test_its_file_defines():
    assert any(TEST_ID.search(row["Evidence"]) for row in ROWS)
    assert unresolved(ROWS) == []


def test_a_test_id_that_names_no_test_is_caught():
    table = "\n".join([
        "| " + " | ".join(COLUMNS) + " |", "|---|---|---|---|---|",
        '| "c" | a | verified | `tests/test_acceptance.py::test_criterion_99` | none |',
        '| "c" | a | verified | `tests/no_such_file.py::test_x` | none |',
        '| "c" | a | verified | `tests/test_claims.py::TestNone::test_x` | none |',
        '| "c" | a | verified | `tests/test_claims.py::test_every_test_id_names_a_test_its_file_defines` | none |',
    ])
    assert unresolved(ledger(table)) == ["tests/test_acceptance.py::test_criterion_99", "tests/no_such_file.py::test_x",
                                         "tests/test_claims.py::TestNone::test_x"]
