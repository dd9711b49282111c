"""Write tests/data/ledger.json: the verdict of every check of ``run_all`` at
seeds 0-11, which ``tests/test_ledger.py`` compares with a fresh run.

Each check is recorded by its scenario, name, claim, tolerance and status.  An
``expected-fail`` check also records its defect, a nonzero value that the
model fixes; a passing check records none, because its status already says
that the defect is within its gate, and the bits of a defect near zero depend
on the BLAS and numpy build.  Run from anywhere: ``python3 tools/ledger.py``.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "data" / "ledger.json"
SEEDS = range(12)


def entries(seed: int) -> list[dict]:
    """The ledger entries of one ``run_all`` at ``seed``, in report order."""
    from bochnerkit.scenarios import ScenarioParams, run_all

    out = []
    for report in run_all(ScenarioParams(seed=seed)):
        for check in report.checks:
            entry = {"scenario": report.scenario, "name": check.name, "claim": check.claim,
                     "tolerance": check.tolerance, "status": check.status}
            if check.status == "expected-fail":
                entry["defect"] = check.defect
            out.append(entry)
    return out


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    blocks = []
    for seed in SEEDS:
        rows = ",\n".join(f"  {json.dumps(e, sort_keys=True)}" for e in entries(seed))
        blocks.append(f' "{seed}": [\n{rows}\n ]')
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {LEDGER.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
