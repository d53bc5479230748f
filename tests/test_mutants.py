"""The mutant gate reads which tests failed from pytest's report."""

import shutil
from pathlib import Path

import mutants

# pytest's FAILED lines, without that word, for ids that hold a space and " - "
FAILED = [
    "tests/test_a.py::TestX::test_case[a b] - AssertionError: assert 1 == 2",
    "tests/test_a.py::test_other[a - b] - assert False",
    "tests/test_b.py::test_bare",
]


def test_an_id_with_spaces_is_matched_whole():
    for test in ("tests/test_a.py::TestX::test_case[a b]", "tests/test_a.py::test_other[a - b]",
                 "tests/test_a.py::TestX::test_case", "tests/test_a.py::TestX",
                 "tests/test_a.py", "tests/test_b.py::test_bare", "tests/test_b.py"):
        assert mutants.fails(test, FAILED), test
    for test in ("tests/test_a.py::TestX::test_case[a]", "tests/test_a.py::TestX::test_cas",
                 "tests/test_a.py::test_other[a - b c]", "tests/test_a.py::test_other[a]",
                 "tests/test_b.py::test_bar", "tests/test_c.py"):
        assert not mutants.fails(test, FAILED), test


def test_the_failed_ids_of_a_pytest_run(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_ids.py").write_text(
        "import pytest\n\n\n"
        '@pytest.mark.parametrize("case", ["a b", "a - b", "a", "plain"])\n'
        "def test_case(case):\n"
        '    assert case in ("a", "plain")\n')
    code, failed = mutants.run_tests(tmp_path, ("test_ids.py",))
    assert code == 1
    assert len(failed) == 2
    for test in ("test_ids.py::test_case[a b]", "test_ids.py::test_case[a - b]",
                 "test_ids.py::test_case", "test_ids.py"):
        assert mutants.fails(test, failed), (test, failed)
    for test in ("test_ids.py::test_case[a]", "test_ids.py::test_case[plain]"):
        assert not mutants.fails(test, failed), (test, failed)
