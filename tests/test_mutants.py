"""The kill matrix's reader (``tests/mutants.py``): the ids it reads from a
junit report, both a canned report and one that this pytest writes."""
import subprocess
import textwrap

import mutants

# one passed, one failed and one errored test, the failed one parametrized in a class
MODULE = textwrap.dedent("""
    import pytest

    class TestOne:
        @pytest.mark.parametrize("x", [1, "a/b-2.5"])
        def test_value(self, x):
            assert x == 1

    @pytest.fixture
    def broken():
        raise RuntimeError

    def test_errored(broken):
        pass

    def test_passed():
        pass
""")
FAILED = ["tests/test_canned.py::TestOne::test_value[a/b-2.5]",
          "tests/test_canned.py::test_errored"]
REPORT = """<?xml version="1.0" encoding="utf-8"?><testsuites name="pytest tests">
<testsuite name="pytest" errors="1" failures="1" skipped="0" tests="4">
<testcase classname="tests.test_canned.TestOne" name="test_value[1]" file="tests/test_canned.py"
 line="3" time="0.001" />
<testcase classname="tests.test_canned.TestOne" name="test_value[a/b-2.5]"
 file="tests/test_canned.py" line="3" time="0.001"><failure message="assert 'a/b-2.5' == 1">
</failure></testcase>
<testcase classname="tests.test_canned" name="test_errored" file="tests/test_canned.py" line="11"
 time="0.000"><error message="failed on setup with &quot;RuntimeError&quot;"></error></testcase>
<testcase classname="tests.test_canned" name="test_passed" file="tests/test_canned.py" line="14"
 time="0.000" />
</testsuite></testsuites>
"""


def test_failed_ids_of_a_canned_report():
    assert mutants.failed_ids(REPORT) == FAILED


def test_failed_ids_of_this_pytests_report(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_canned.py").write_text(MODULE, encoding="utf-8")
    report = tmp_path / "report.xml"
    run = subprocess.run(mutants.pytest_command(report), cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 1, run.stdout
    assert mutants.failed_ids(report.read_text(encoding="utf-8")) == FAILED


def test_timed_out_run_keeps_the_ids_that_failed(tmp_path, monkeypatch):
    # the first test fails, the second sleeps past TIMEOUT, and pytest is
    # interrupted in it; without plugins a run starts in about 0.3 s
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_canned.py").write_text(textwrap.dedent("""
        import time

        def test_fails():
            assert False

        def test_sleeps():
            time.sleep(60)
    """), encoding="utf-8")
    module = tmp_path / "src" / "twocopy" / "fock.py"
    module.parent.mkdir(parents=True)
    module.write_text("ORIGINAL = 1\n", encoding="utf-8")
    monkeypatch.setattr(mutants, "TIMEOUT", 1.5)
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    killed, timed_out, failed, seconds = mutants.run(
        {"module": "fock", "source": "ORIGINAL = 2\n"}, tmp_path)
    assert (killed, timed_out, failed) == (True, True, ["tests/test_canned.py::test_fails"])
    assert seconds < 1.5 + mutants.GRACE
    assert module.read_text(encoding="utf-8") == "ORIGINAL = 1\n"
