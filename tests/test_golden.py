"""Every bundled program's transcript and trace, byte for byte.

``tests/golden/<name>.txt`` holds what ``dataspace run <name>`` prints
and ``tests/golden/<name>.trace`` the file its ``--trace`` option
writes.  A change that alters either for any program fails here; when
the change is meant, regenerate both with

    for p in <names>; do dataspace run $p --trace tests/golden/$p.trace > tests/golden/$p.txt; done

and say why in the change's description.
"""
from pathlib import Path

import pytest
from click.testing import CliRunner

from dataspace.cli import main
from dataspace.programs import PROGRAMS

GOLDEN = Path(__file__).parent / "golden"


def test_every_program_has_a_golden_pair():
    names = {p.stem for p in GOLDEN.iterdir()}
    assert names == set(PROGRAMS)
    assert len(list(GOLDEN.iterdir())) == 2 * len(PROGRAMS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_run_matches_golden_transcript_and_trace(name, tmp_path):
    trace_path = tmp_path / f"{name}.trace"
    result = CliRunner().invoke(main, ["run", name, "--trace", str(trace_path)])
    assert result.exit_code == 0, result.output
    assert result.stdout == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert trace_path.read_bytes() == (GOLDEN / f"{name}.trace").read_bytes()
