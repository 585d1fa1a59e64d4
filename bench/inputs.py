"""Seeded poset-JSON inputs for the deep-poset workload.

Run as a script under the environment of the code being measured:

    PYTHONPATH=src python3 bench/inputs.py --seed 3 --out DIR [--smoke]

It writes one poset-JSON file per entry of SHAPES into DIR and prints one JSON
line with the file names and their sizes. The sizes are counted here, from
the JSON alone, so they do not depend on the code under test.

Random graded posets of one shape vary a lot in size: over twelve seeds the
order complex of a [3]*9 poset had 9k to 34k faces. Timings and memory are
compared across seeds, so each file is the candidate, among CANDIDATES
seeded ones, closest to the shape's targets for both the face count and
the sweep work (Σ 2^|F|): the one whose larger relative miss is smallest.
Over twelve seeds the chosen files missed both targets by under 2.5 %.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# (middle layer sizes, cover density, target O(P) faces, target sweep subsets)
SHAPES = {
    False: [((3,) * 9, 0.5, 21000, 1400000), ((4,) * 8, 0.5, 21000, 1020000)],
    True: [((2,) * 4, 0.5, 40, 200), ((2,) * 3, 0.5, 20, 60)],
}
CANDIDATES = 128


def poset_sizes(text: str) -> dict:
    """Elements, rank and order-complex size of a poset-JSON document.

    Counts chains of the proper part by dynamic programming over the order
    relation: ``faces`` includes the empty chain, and ``subsets`` is the sum
    of 2^|C| over all chains C, the work of a full link sweep over O(P).
    """
    data = json.loads(text)
    elements = [json.dumps(e) for e in data["elements"]]
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    ups = [[] for _ in range(n)]
    indeg = [0] * n
    for lo, hi in data["covers"]:
        ups[index[json.dumps(lo)]].append(index[json.dumps(hi)])
        indeg[index[json.dumps(hi)]] += 1
    order = [i for i in range(n) if indeg[i] == 0]
    for i in order:
        for j in ups[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    bottom, top = order[0], order[-1]
    rank = [0] * n
    below = [0] * n  # bitmask of strictly smaller elements
    for i in order:
        for j in ups[i]:
            rank[j] = max(rank[j], rank[i] + 1)
            below[j] |= below[i] | (1 << i)
    proper = [i for i in order if i not in (bottom, top)]
    chains, weighted = {}, {}
    for i in proper:
        lower = [j for j in proper if below[i] >> j & 1]
        chains[i] = 1 + sum(chains[j] for j in lower)
        weighted[i] = 2 * (1 + sum(weighted[j] for j in lower))
    return {"elements": n, "rho": rank[top],
            "faces": 1 + sum(chains.values()),
            "subsets": 1 + sum(weighted.values())}


def make_inputs(seed: int, out: Path, smoke: bool) -> list[dict]:
    from dehnsom.generators import random_graded_poset
    from dehnsom.posets import serialize_poset_json

    made = []
    for k, (layers, density, faces, subsets) in enumerate(SHAPES[smoke]):
        best = None
        for c in range(CANDIDATES):
            poset_seed = (seed * len(SHAPES[smoke]) + k) * CANDIDATES + c
            text = serialize_poset_json(random_graded_poset(layers, density, poset_seed)) + "\n"
            sizes = poset_sizes(text)
            miss = max(abs(sizes["faces"] / faces - 1), abs(sizes["subsets"] / subsets - 1))
            if best is None or miss < best[0]:
                best = (miss, poset_seed, text, sizes)
        _, poset_seed, text, sizes = best
        path = out / f"deep-{k}.json"
        path.write_text(text)
        made.append({"file": path.name, "layers": list(layers), "density": density,
                     "poset_seed": poset_seed, **sizes})
    return made


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    print(json.dumps(make_inputs(args.seed, args.out, args.smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
