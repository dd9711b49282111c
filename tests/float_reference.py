"""The ``%``-call form of a float run, which ``serialization._float_text``
replaced, and seeded doubles to compare the two on.

``tests/test_serialization.py`` compares about 100,000 values.  Run as a
script, this file compares ``--count`` values and, given ``--document IN OUT``,
writes to OUT the text the ``%`` form gives the arrays of the tensor document
IN, which must equal IN byte for byte:

    PYTHONPATH=src python tests/float_reference.py --count 2000000
    PYTHONPATH=src python tests/float_reference.py --count 0 --document d.json ref.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np


def percent_run(values) -> str:
    """One ``%``-call over the run; adding 0.0 turns -0.0 into 0.0."""
    seq = values.tolist() if isinstance(values, np.ndarray) else list(values)
    return ("%.17g," * len(seq))[:-1] % tuple([f + 0.0 for f in seq])


def reference_document(raw: dict) -> str:
    """The text of a tensor document whose float lists the ``%`` form writes."""
    def render(value) -> str:
        return "[" + percent_run(value) + "]" if isinstance(value, list) else json.dumps(value)
    return "{" + ",".join(f"{json.dumps(k)}:{render(raw[k])}" for k in sorted(raw)) + "}\n"


def float_cases(count: int, seed: int) -> np.ndarray:
    """About ``count`` finite doubles, seeded, and the edge cases of the format.

    Half are random bit patterns spread evenly over every binade, subnormals
    included; most of the rest are normals scaled by 10**U(-30, 30), and a
    tenth odd multiples of powers of two, among them exact rounding ties
    such as 1 + 2**-17 (18 significant digits, the last a 5).  Then each
    10**p for p = -30..30 with both neighbours, fixed edge values, and the
    nine exact ties below 1e-6.
    """
    rng = np.random.default_rng(seed)
    binades, odd = count // 2, count // 10
    bits = (rng.integers(0, 2, binades, dtype=np.uint64) << np.uint64(63)
            | (np.arange(binades, dtype=np.uint64) % np.uint64(2047)) << np.uint64(52)
            | rng.integers(0, 2**52, binades, dtype=np.uint64))
    rest = count - binades - odd
    scaled = rng.standard_normal(rest) * 10.0 ** rng.uniform(-30, 30, rest)
    ties = (2 * rng.integers(0, 2**20, odd) + 1) * 2.0 ** rng.integers(-40, 10, odd)
    powers = np.array([float(f"1e{p}") for p in range(-30, 31)])
    edges = [2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e16, 1e17, 99999999999999999.0, 1 + 2**-17,
             5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308,
             0.0, -0.0]
    # the nine exact ties below 1e-6, where 5**q is a double-double: odd m 2**-(18 + z)
    # in [1e-(z + 1), 1e-z); 18 significant digits need z = 6 or 7
    edges += [m * 2.0**-(18 + z) for z in (6, 7) for m in range(1, 2**(18 + z) // 10**z + 1, 2)
              if 10.0**-(z + 1) <= m * 2.0**-(18 + z) < 10.0**-z]
    return np.concatenate([bits.view(np.float64), scaled, ties, powers,
                           np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), edges])


def mismatches(values: np.ndarray, block: int = 100_000) -> list[tuple[float, str, str]]:
    """(value, written, expected) for each element ``canonical_json`` writes
    otherwise than the ``%`` form, compared in blocks to bound memory."""
    from bochnerkit.serialization import canonical_json

    bad = []
    for start in range(0, values.size, block):
        part = values[start:start + block]
        got, want = canonical_json(part)[1:-1].split(","), percent_run(part).split(",")
        if len(got) != len(want):
            return [(float("nan"), f"{len(got)} entries", f"{len(want)} entries")]
        bad += [(f, g, w) for f, g, w in zip(part.tolist(), got, want) if g != w]
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=2_000_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--document", nargs=2, metavar=("IN", "OUT"))
    args = parser.parse_args(argv)
    values = float_cases(args.count, args.seed)
    bad = mismatches(values)
    print(f"{values.size} values, {len(bad)} written otherwise than by %.17g")
    for f, got, want in bad[:10]:
        print(f"  {f!r}: {got} != {want}")
    if args.document:
        raw = json.loads(pathlib.Path(args.document[0]).read_text())
        pathlib.Path(args.document[1]).write_text(reference_document(raw), encoding="ascii")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
