"""Both digests of ``tools/preset_digest.py`` are pinned, so a change to any
trace, CSV byte or Monte-Carlo result it hashes fails here. A change that
alters the random stream on purpose updates these values and says so."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "preset_digest.py"
DIGESTS = {
    "default": "8d6305cffb22e06af16f3795182fdbe9d72cdb1af64e0fb60aef4a370fc1bc78",
    "extended": "28fb1492f3f4e5ced36925cbee68445f2f09b14ac332fc83ebf613583f851d03",
}


@pytest.mark.parametrize("kind", ["default", "extended"])
def test_preset_digest_is_pinned(kind):
    spec = importlib.util.spec_from_file_location("preset_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.preset_digest(extended=kind == "extended") == DIGESTS[kind]
