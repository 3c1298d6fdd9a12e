"""Both digests of ``tools/preset_digest.py`` are pinned, so a change to any
trace, CSV byte or Monte-Carlo result it hashes fails here. A change that
alters the random stream or the arithmetic on purpose updates these values
and says so. The extended pin last changed when ``frames.cos_sq`` became
``ab * ab / (aa * bb)``: C_t, D_t and the Monte-Carlo results moved by a few
ulps, every other column of the run matrix stayed bit-identical."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "preset_digest.py"
DIGESTS = {
    "default": "8d6305cffb22e06af16f3795182fdbe9d72cdb1af64e0fb60aef4a370fc1bc78",
    "extended": "27523705796b1082e85bb77ce863e93653f88b79b35c1eac08c36ed90503b9aa",
}


@pytest.mark.parametrize("kind", ["default", "extended"])
def test_preset_digest_is_pinned(kind):
    spec = importlib.util.spec_from_file_location("preset_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.preset_digest(extended=kind == "extended") == DIGESTS[kind]
