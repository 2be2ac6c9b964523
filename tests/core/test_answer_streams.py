"""Golden pins of the answers each ``run``/``infra-test`` report case serves.

The report text and the result sections pin latencies and tallies; a
change in *which items* a server returns, with every latency unchanged,
passes both. This test runs the ``run_*`` and ``infra_*`` cases of
``test_cli_reports.py`` under :func:`tests.fingerprints.answer_stream` and
compares the digest of every recorded response (request id, status,
latency bits, returned item ids, in completion order) with
``tests/core/answer_streams.json``.

After an intended change to the served answers, rewrite the file with::

    PYTHONPATH=src python tests/core/test_answer_streams.py
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parents[2]))  # run as a script
from tests.core.test_cli_reports import CASES, render  # noqa: E402
from tests.fingerprints import answer_stream  # noqa: E402

EXPECTED = Path(__file__).with_name("answer_streams.json")

STREAM_CASES = sorted(name for name in CASES if name.startswith(("run_", "infra_")))


def stream_digest(name: str, spec_dir: Path) -> str:
    with answer_stream() as digest:
        render(name, spec_dir)
    return digest.hexdigest()


@pytest.mark.parametrize("name", STREAM_CASES)
def test_answer_stream_unchanged(name, tmp_path):
    expected = json.loads(EXPECTED.read_text())
    assert stream_digest(name, tmp_path) == expected[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = {name: stream_digest(name, Path(scratch)) for name in STREAM_CASES}
    EXPECTED.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {EXPECTED.name}")
