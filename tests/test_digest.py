"""Both digests of ``tools/preset_digest.py`` are pinned, so a change to any
trace, CSV byte or Monte-Carlo result it hashes fails here. A change that
alters the random stream or the arithmetic on purpose updates these values
and says so. Both pins last changed when History-PARS started at the theta
floor and logged the theta each step ran with, not the next one: only the
``fig2`` History-PARS CSVs and the ``history_pars`` runs of the extended
matrix moved. Before that, the extended pin changed when ``frames.cos_sq``
became ``ab * ab / (aa * bb)``: C_t, D_t and the Monte-Carlo results moved by
a few ulps."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "preset_digest.py"
DIGESTS = {
    "default": "505a0f138de358468c50cb6b0421b8aeb036d13e69e07e44f90decab8b35a2d8",
    "extended": "b64f46023fa2ba80c1618b4730f702ec567f4ac917f187930906c55193c8fe3c",
}


# parts listed on stderr: 39 preset CSVs; extended adds the pars_est CSV,
# 8 algorithms x 2 functions x 2 oracles x 2 seeds and the Monte-Carlo results
PARTS = {"default": 39, "extended": 39 + 1 + 64 + 1}


@pytest.mark.parametrize("kind", ["default", "extended"])
def test_preset_digest_is_pinned(kind, capsys):
    spec = importlib.util.spec_from_file_location("preset_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.preset_digest(extended=kind == "extended") == DIGESTS[kind]
    parts = [line.split(" ", 1) for line in capsys.readouterr().err.splitlines()]
    assert len(parts) == len({name for _, name in parts}) == PARTS[kind]
    assert all(len(sha) == 64 and int(sha, 16) >= 0 for sha, _ in parts)
