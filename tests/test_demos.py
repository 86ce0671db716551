"""Every demo prints exactly the stdout recorded for it.

The demos call the library's public API end to end, so a change that
alters any of their output shows here.  Each digest is the SHA-256 of
the demo's whole stdout; a deliberate output change must re-record it.
"""

import hashlib
import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DEMO_STDOUT_SHA256 = {
    "forty_three_cycle.py": "d35d6e3c1d4301045658d93ba05f801395189a0077bf16a6dffac34975e55fee",
    "higher_order_survey.py": "85bc0bebe43bb4d0de918041a7e4adba37232a7bc9ca2367adb10ae01010c61e",
    "period_table.py": "7c24d87e3f1fa78ff0f6f2cbb6af66ad4013792374f7793dce6a1f6c31321824",
    "synthesis_tour.py": "84a7e463a36e712d38f0e77d7b26e3107b11468c56315bf0b65f80781d41f8c1",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_unchanged(name):
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DEMO_STDOUT_SHA256[name]
