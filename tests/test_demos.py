"""Each demo prints exactly what it printed before: the sha256 of its
stdout is pinned, so a change to any witness, distance, partner or table
the demos show fails here and not only in a reader's eyes."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINNED_STDOUT_SHA256 = {
    "alternating_partners":
        "dbbb88ad93218d6fe72d9afca1f8fbb13cf581f7a401b4af611cf8e48d101946",
    "bound_scan":
        "dbecf4875c79130fff2f4ef0ff35f664e9d5755f59b94c724e18d95caae2dc27",
    "distance_survey":
        "43c9f5dffa9e1ae1a216d57cc94e92778bfa24724cc893fa356a477c1e3d3251",
    "orbital_diameter":
        "c8e21dbc90bc23b31dd8ddab65735b30deede875d6055a98fa3d69f282b9046b",
    "witness_tour":
        "335e605e3ccc1bf355a15f5ca28f2b20f7f7568c24aa79996a4311acda354c71",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == \
        sorted(PINNED_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(PINNED_STDOUT_SHA256))
def test_demo_output_is_pinned(name):
    out = subprocess.run([sys.executable, str(ROOT / "demos" / (name + ".py"))],
                         env={"PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, timeout=120)
    assert out.returncode == 0, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == \
        PINNED_STDOUT_SHA256[name]
