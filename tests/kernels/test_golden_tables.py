"""Golden kernel tables: checked-in artifacts gate tuner drift.

The stored tables were produced by::

    repro tune-kernels --gpu A100 H100 --quick --out tests/golden/kernels

Loading them verifies their checksums; re-tuning and diffing catches
any change to the analytical model, the candidate pool, or the tuner
itself.  A legitimate change refreshes them with ``--update-golden``
(same command, same output directory).
"""

import json
from pathlib import Path

import pytest

from repro.kernels.search import TUNE_DIMS_QUICK, tune_table
from repro.kernels.table import KernelTable, compare_tables

GOLDEN_DIR = Path(__file__).parent.parent / "golden" / "kernels"

_GPUS = ("A100", "H100")


@pytest.mark.parametrize("gpu", _GPUS)
class TestGoldenTables:
    def test_artifact_loads_and_checksum_verifies(self, gpu):
        path = GOLDEN_DIR / f"{gpu}-FP16.json"
        table = KernelTable.from_json(path.read_text())  # verifies checksum
        assert table.gpu == gpu
        assert table.dtype == "FP16"
        stated = json.loads(path.read_text())["checksum"]
        assert stated == table.checksum()

    def test_fresh_tune_matches_bit_for_bit(self, gpu, engine):
        path = GOLDEN_DIR / f"{gpu}-FP16.json"
        stored = KernelTable.from_json(path.read_text())
        fresh = tune_table(gpu, dims=TUNE_DIMS_QUICK, engine=engine)
        diff = compare_tables(stored, fresh)
        assert not diff, "\n".join(
            [f"golden kernel table drift for {gpu}/FP16:"]
            + diff
            + [
                "if intentional, refresh with: repro tune-kernels "
                f"--gpu {' '.join(_GPUS)} --quick --out tests/golden/kernels"
            ]
        )
        assert stored.to_json() == fresh.to_json()


def test_goldens_cover_the_advertised_targets():
    found = sorted(p.name for p in GOLDEN_DIR.glob("*.json"))
    assert found == [f"{gpu}-FP16.json" for gpu in _GPUS]
