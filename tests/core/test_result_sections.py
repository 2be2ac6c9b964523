"""Golden pins of the result sections behind the CLI report cases.

For every ``run`` and ``infra-test`` case of ``test_cli_reports.py`` this
runs the same command line, captures the ``RunResult`` or
``InfraTestResult`` it produced and compares each feature section (as a
dict, so key order does not matter) with a checked-in JSON file under
``tests/core/result_sections/``. The report text rounds what it prints;
these pins hold every tally and float of the sections exactly.

After an intended section change, rewrite the expected files with::

    PYTHONPATH=src python tests/core/test_result_sections.py [CASE...]
"""

import json
import sys
from pathlib import Path
from unittest import mock

import pytest

import repro.cli
from repro.core.experiment import ExperimentRunner

sys.path.insert(0, str(Path(__file__).parents[2]))  # run as a script
from tests.core.test_cli_reports import CASES, render  # noqa: E402

EXPECTED_DIR = Path(__file__).with_name("result_sections")

#: The feature sections of each result class.
RUN_SECTIONS = (
    "resilience", "overload", "cache", "sharding", "retrieval",
    "scheduler", "availability", "tenancy",
)
INFRA_SECTIONS = (
    "resilience", "overload", "cache", "sharding", "retrieval", "tenancy",
)

SECTION_CASES = sorted(
    name for name, argv in CASES.items()
    if argv[0] in ("run", "infra-test") and "--help" not in argv
)


def sections(name: str, spec_dir: Path) -> dict:
    """The sections of the one result a case produces, JSON-normalised."""
    results = []
    run_experiment = ExperimentRunner.run
    run_infra_test = repro.cli.run_infra_test

    def capture_run(runner, *args, **kwargs):
        results.append(run_experiment(runner, *args, **kwargs))
        return results[-1]

    def capture_infra(*args, **kwargs):
        results.append(run_infra_test(*args, **kwargs))
        return results[-1]

    with mock.patch.object(ExperimentRunner, "run", capture_run), \
            mock.patch.object(repro.cli, "run_infra_test", capture_infra):
        render(name, spec_dir)
    (result,) = results
    names = RUN_SECTIONS if CASES[name][0] == "run" else INFRA_SECTIONS
    return json.loads(
        json.dumps({section: getattr(result, section) for section in names})
    )


@pytest.mark.parametrize("name", SECTION_CASES)
def test_result_sections_unchanged(name, tmp_path):
    expected = json.loads((EXPECTED_DIR / f"{name}.json").read_text())
    assert sections(name, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    EXPECTED_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in SECTION_CASES if len(sys.argv) < 2 else sys.argv[1:]:
            document = sections(case, Path(scratch))
            (EXPECTED_DIR / f"{case}.json").write_text(
                json.dumps(document, indent=2, sort_keys=True) + "\n"
            )
            print(f"wrote {case}")
