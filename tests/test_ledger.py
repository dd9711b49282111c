"""The verdict ledger: every check of ``run_all`` at seeds 0-11 keeps its name,
claim, tolerance and status, and every ``expected-fail`` check its defect."""

import importlib.util
import json
import math
import pathlib

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ledger.py"
_spec = importlib.util.spec_from_file_location("ledger_tool", _TOOL)
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

REGENERATE = "a report changed; if the change is meant, run `python3 tools/ledger.py`"


def _mismatch(old: dict, new: dict) -> bool:
    if {k: v for k, v in old.items() if k != "defect"} != {
            k: v for k, v in new.items() if k != "defect"}:
        return True
    if "defect" in old:
        return not math.isclose(old["defect"], new["defect"], rel_tol=1e-9, abs_tol=0.0)
    return False


def test_run_all_matches_the_ledger():
    recorded = json.loads(ledger.LEDGER.read_text())
    assert sorted(map(int, recorded)) == list(ledger.SEEDS), REGENERATE
    for seed in ledger.SEEDS:
        old, new = recorded[str(seed)], ledger.entries(seed)
        assert [(e["scenario"], e["name"]) for e in old] == [
            (e["scenario"], e["name"]) for e in new], f"seed {seed}: {REGENERATE}"
        changed = [(o, n) for o, n in zip(old, new) if _mismatch(o, n)]
        assert not changed, f"seed {seed}: {changed[:3]}; {REGENERATE}"
