"""A fixed amount of work, timed next to every pass to track the host's speed.

    python3 bench/calibrate.py

Uses the standard library only, so it runs the same on every commit of the
program. Its work looks like dehnsom's hot paths: a subset sweep over
bitmask faces kept in a dict, the frozensets of those faces, and products
of Fraction polynomials. It prints one checksum, which bench/run.py checks.
On a shared host the same code runs up to 1.7 times slower for minutes at a
time; bench/run.py divides each time it measures by the time of this work
around it (bench/README.md, "Noise").
"""

from __future__ import annotations

import random
from fractions import Fraction

CHECKSUM = "83354 24489/14"


def sweep(rng: random.Random) -> int:
    """Signed counts over every subset of 600 random 8-element masks."""
    masks = [sum(1 << b for b in rng.sample(range(32), 8)) for _ in range(600)]
    acc: dict[int, int] = {}
    for h in masks:
        sub = h
        while True:
            acc[sub] = acc.get(sub, 0) + (1 if (h ^ sub).bit_count() & 1 else -1)
            if sub == 0:
                break
            sub = (sub - 1) & h
    faces = {frozenset(b for b in range(32) if m >> b & 1) for m in acc}
    return len(faces) + sum(acc.values())


def polynomials(rng: random.Random) -> Fraction:
    """The sum of the coefficients of 300 products of degree-11 polynomials."""
    p = [Fraction(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(12)]
    total = Fraction(0)
    for _ in range(300):
        q = [Fraction(rng.randrange(-5, 6)) for _ in range(12)]
        prod = [Fraction(0)] * 23
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                prod[i + j] += a * b
        total += sum(prod)
    return total


def main() -> str:
    rng = random.Random(20200301)
    return f"{sweep(rng)} {polynomials(rng)}"


if __name__ == "__main__":
    print(main())
