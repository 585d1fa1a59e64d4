"""Mutation check of the kernels: every listed mutant must fail the tier-1 suite.

    python3 tools/mutants.py [--root DIR]

Each mutant is a textual edit ``(path, old, new, note)`` of one file under
``src/``; ``old`` occurs exactly once in that file (tests/test_mutants.py
checks this list against the tree). The script copies ``--root`` (default:
the checkout this file is in) to a temporary directory once, without
``.git`` and caches, and turns hypothesis shrinking off in that copy:
shrinking changes which example a failure reports, not whether the suite
fails. For each mutant it writes the edit, runs the whole tier-1 suite there
with a fixed hypothesis seed, collection errors reported per module, and a
JUnit XML report, and puts the file back. It prints the ids of the tests that
failed under each mutant (its kill set), then the tests that killed none. A
mutant is killed when the suite fails or runs past the timeout. A mutant
with an ``equivalent`` reason computes the same values as the kernel, so it
is expected to survive. The exit status is 1 when a mutant survives that is
not marked equivalent, or a mutant marked equivalent is killed. Standard
library only; the test run needs pytest and hypothesis.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300
# this check reads the unmutated list, so a mutant of the tree fails it by design
LIST_CHECK = "tests/test_mutants.py::test_every_mutant_applies_once"
# appended to the copy's tests/conftest.py; the test modules read the profile
# when their @settings decorators run
NO_SHRINK = """
from hypothesis import Phase, settings as _settings
_settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))
_settings.load_profile("mutants")
"""


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    note: str
    equivalent: str = ""  # why the mutant computes the same values, if it does


CX, BAL, POS, TOR, SUITE, GEN, POLY, REP, CLI = (
    f"src/dehnsom/{m}.py"
    for m in ("complexes", "balanced", "posets", "toric", "suite", "generators", "polynomial",
              "reports", "cli"))

MUTANTS = (
    # --- the closure pass (_set_masks) ---
    Mutant(CX, "level = _gather(_gather(run, cols[j - 1]), face_at)",
           "level = _gather(_gather(run, cols[0]), face_at)",
           "closure: every level built from the parents' parent column"),
    Mutant(CX, "face_at[n] = n", "pass",
           "closure: no \"none\" entry in the run's parent-to-face dict"),
    Mutant(CX, "repeat(1 << t)), repeat(n))", "repeat(1 << t)), repeat(0))",
           "closure: a missing parent read as the empty face"),
    Mutant(CX, "except (IndexError, KeyError):", "except KeyError:",
           "closure: a missing parent escapes as an IndexError"),
    Mutant(CX, "bytes(_gather(run, sizes)).translate(_PLUS_ONE)", "bytes(_gather(run, sizes))",
           "closure: a face's size is its parent's, not one more"),
    Mutant(CX, "depth = max(grown, default=0)", "depth = max(grown, default=0) - 1",
           "closure: the level loop stops one short"),
    Mutant(CX, "for p in level:", "for p in () if j else level:",
           "closure: facets marked from the parent column only"),
    Mutant(CX, "for p in level:", "for p in level if j < 2 else ():",
           "closure: faces marked covered from the parents and one looked-up level only"),
    Mutant(CX, "facet[p] = 0", "facet[p] = 1",
           "closure: no face marked covered"),
    Mutant(CX, "used = list(map(bool, parents))", "used = [True] * len(parents)",
           "closure: unused vertices kept"),
    Mutant(CX, "if len(set(verts)) != len(verts):", "if len(set(verts)) > len(verts):",
           "closure: a repeated vertex accepted"),
    Mutant(CX, "[*compress(starts, used), n]", "[*compress(starts[1:], used), n]",
           "closure: the kept vertices' runs shifted by one"),
    Mutant(CX, "all(map((dim + 1).__eq__,", "all(map(dim.__eq__,",
           "closure: purity read from dim, not dim + 1"),
    Mutant(CX, "tuple(compress(ids, facet))", "tuple(compress(ids, map((0).__eq__, facet)))",
           "closure: the facet positions taken from the covered faces"),
    Mutant(CX, "if any(map(eq, masks, masks[1:])):", "if any(map(eq, masks, masks[2:])):",
           "closure: the repeat test loosened to three in a row"),
    Mutant(CX, "if m != n] + masks[-1:]", "if m != n]",
           "closure: the repeat drop loses the largest mask"),
    Mutant(CX, "m = next(m for m in masks if any(", "m = next(m for m in reversed(masks) if any(",
           "closure: the rescan on KeyError names the largest unclosed face"),
    Mutant(CX, "    if len(keys) > 1:\n        return itemgetter",
           "    if keys:\n        return itemgetter",
           "gather: one key gives a bare value, as an itemgetter of one key does"),
    # --- the link sweep ---
    Mutant(CX, "for j, col in enumerate(cols):", "for j, col in enumerate(cols[:-1]):",
           "sweep: the top level skipped"),
    Mutant(CX, "for j, col in enumerate(cols):", "for j, col in reversed([*enumerate(cols)]):",
           "sweep: the levels in reverse order (the deepest vertex removed first)"),
    Mutant(CX, "for j, col in enumerate(cols):", "for j, col in enumerate(cols[:6]):",
           "sweep: stops one level short on faces of 7 or more vertices"),
    Mutant(CX, "keep = live[::-1]", "keep = live",
           "sweep: a sparse level's mask read in position order, not reversed"),
    Mutant(CX, 'bytes(j + 1) + b"\\1" * (255 - j)', 'bytes(j + 2) + b"\\1" * (254 - j)',
           "sweep: faces of j + 1 vertices treated as padding at level j"),
    Mutant(CX, "compress(reversed(col), keep))", "reversed(col))",
           "sweep: on a sparse level only the values filtered, the column left whole"),
    Mutant(CX, "acc = [-1] * (n + 1)", "acc = [1] * (n + 1)",
           "sweep: the constant's sign flipped"),
    Mutant(CX, "zip(values, reversed(col))", "zip(values, col)",
           "sweep: each face pushes along another face's column entry"),
    Mutant(CX, "        next(values)  # slot n\n", "",
           "sweep: slot n not skipped, so each value moves along the next face's entry"),
    # --- per-face sums ---
    Mutant(CX, "_gather(cols[0][lo:hi], sums)", "_gather(cols[-1][lo:hi], sums)",
           "face sums: read from the deepest column, not the parents"),
    Mutant(CX, "zip(values, starts, starts[1:])", "zip(values[1:], starts, starts[1:])",
           "face sums: each run adds the next vertex's value"),
    Mutant(CX, "zip(values, starts, starts[1:])", "zip(values, starts[1:], starts[2:])",
           "face sums: each run read one start late"),
    # --- the masks, built on demand, and a face's mask from its labels ---
    Mutant(CX, "bits = [1 << i for i in range(len(self.vertices))]",
           "bits = [2 << i for i in range(len(self.vertices))]",
           "masks: vertex i on bit i + 1"),
    Mutant(CX, "m = sum({1 << self.vertices.index(v) for v in face})",
           "m = sum({2 << self.vertices.index(v) for v in face})",
           "face mask: a label's vertex index read one bit high"),
    # --- the face poset, read by position ---
    Mutant(GEN, "for col in x._cols[:x._sizes[k]]]", "for col in x._cols[:x._sizes[k] - 1]]",
           "face poset: each face covers all but its last-removed face below"),
    Mutant(GEN, '(elements[k], "TOP") for k in x._facets)',
           '(elements[k], "TOP") for k in x._facets[1:])',
           "face poset: the first facet not under 1̂"),
    # --- the balanced coloring ---
    Mutant(BAL, "colors = _face_sums(cx, [1 << (kappa[v] - 1) for v in cx.vertices])",
           "colors = _face_sums(cx, [1 << kappa[v] for v in cx.vertices])",
           "coloring: color c on bit c"),
    Mutant(BAL, "if any(map(ne, map(int.bit_count, colors), cx._sizes)):",
           "if any(map(int.__gt__, map(int.bit_count, colors), cx._sizes)):",
           "coloring: a repeated color never found"),
    Mutant(BAL, "for m, c, k in zip(cx._masks, colors, cx._sizes)",
           "for m, c, k in reversed(list(zip(cx._masks, colors, cx._sizes)))",
           "coloring: the witness scan reversed"),
    Mutant(BAL, "mask |= 1 << (c - 1)", "mask += 1 << (c - 1)",
           "coloring: `+=` for `|=` in _color_mask"),
    Mutant(BAL, "if c < 1:", "if c < 0:",
           "coloring: color 0 accepted by _color_mask"),
    # --- the blocks of from_order, and order_complex ---
    Mutant(CX, "all(map(lt, low, low[1:]))", "all(map(int.__le__, low, low[1:]))",
           "order: a repeated vertex in a below list accepted as increasing"),
    Mutant(CX, "low[-1] >= t", "low[-1] > t",
           "order: a vertex accepted under itself"),
    Mutant(CX, "if len(below) != len(verts):", "if len(below) > len(verts):",
           "order: fewer below lists than vertices accepted"),
    Mutant(CX, "if reach & ~mask:", "if False:",
           "order: the transitivity check dropped"),
    Mutant(CX, "runs.append([1 << t, *(", "runs.append([*(",
           "order refusal: the path family lacks each vertex alone"),
    Mutant(CX, "runs.append(1 + sum(", "runs.append(sum(",
           "order: a run's size counts no face {t}"),
    Mutant(CX, "            p = lo + 1\n", "            p = lo\n",
           "order: the first block written over the face {t}"),
    Mutant(CX, "fa[a:b] = ids[p:q]", "fa[a:b] = ids[a:b]",
           "order: the position map sends a face of run s to itself"),
    Mutant(CX, "if covers[t] >> s & 1 else", "if not covers[t] >> s & 1 else",
           "order: the cover test inverted"),
    Mutant(CX, "for t in _bits(under):", "for t in ():",
           "order: the faces under a later vertex not marked"),
    Mutant(CX, "for j in range(1, depth[s] + 1):", "for j in range(1, depth[s]):",
           "order: the block skip read as d > j"),
    Mutant(CX, "within[0] = n > 1", "within[0] = 0",
           "order: ∅ a facet beside the vertices"),
    Mutant(POS, "_bits(down[t + 1] >> 1 & ((1 << t) - 1))", "_bits(down[t + 1] >> 1 & ((2 << t) - 1))",
           "order complex: t counted in its own down-set"),
    Mutant(POS, "_bits(down[t + 1] >> 1 & ((1 << t) - 1))", "_bits(down[t + 1] & ((1 << t) - 1))",
           "order complex: the down-set read one element off"),
    Mutant(POS, "dict(zip(labels, P.rank_of[1:top]))",
           "dict(zip(labels, [P.rho - r for r in P.rank_of[1:top]]))",
           "order complex: colored by ρ − rank, a proper coloring on which flag-ds passes"),
    # --- Möbius rows, the μ(·, 1̂) column and interval errors ---
    Mutant(POS, "acc[u] -= val", "acc[u] += val",
           "mobius rows: the push adds μ(s, w) instead of subtracting it"),
    Mutant(POS, "ups = [s, *above[s]]", "ups = [*above[s]]",
           "mobius rows: the push starts above s"),
    Mutant(POS, "if above[q] else 1", "if above[q] else -1",
           "mobius to top: μ(1̂, 1̂) = −1"),
    Mutant(POS, "e = mu + 1 if (rank[t] ^ rs) & 1 else mu - 1",
           "e = mu + 1 if not (rank[t] ^ rs) & 1 else mu - 1",
           "interval errors: the parity test inverted"),
    # --- poset construction, Boolean lower intervals and P* ---
    Mutant(POS, "if ranks[j] != ranks[i] + 1:", "if ranks[j] > ranks[i] + 2:",
           "gradedness: a cover that skips one rank accepted"),
    Mutant(POS, "and len({down[c] & atoms for c in lower}) == r)", ")",
           "boolean intervals: the distinct atom sets not tested"),
    Mutant(POS, "below.bit_count() == 1 << r", "below.bit_count() >= 1 << r",
           "boolean intervals: more than 2^r elements accepted"),
    Mutant(POS, "key=lambda i: (-rank[i], i))",
           "key=lambda i: (-rank[i], label_sort_key(P.labels[i]), -i))",
           "dual: labels that tie kept in reverse input order"),
    # --- flag and chain tables ---
    Mutant(POS, "counts[rm | bit] = counts.get(rm | bit, 0) + c",
           "counts[rm] = counts.get(rm, 0) + c",
           "alpha: an extended chain keeps the rank set of its prefix"),
    Mutant(POS, "entry = target.setdefault(rm | bit, [0, 0])",
           "entry = target.setdefault(rm, [0, 0])",
           "chain errors: an extended chain keeps the rank set of its prefix"),
    Mutant(POS, "eps = sign(rm.bit_count())", "eps = sign(rm.bit_count() + 1)",
           "chain errors: the chain-length sign flipped"),
    Mutant(CX, "out[m] - out[m ^ bit] if signed", "out[m] + out[m ^ bit] if signed",
           "subset transform: the signed branch adds"),
    Mutant(CX, "if signed else out[m] + out[m ^ bit]", "if signed else out[m] + out[m]",
           "subset transform: the unsigned branch adds the set to itself"),
    Mutant(CX, "full = (1 << d) - 1", "full = (1 << (d - 1)) - 1",
           "flag rows: S^c taken in [d−1]"),
    # --- f to h ---
    Mutant(POLY, "(-1) ** (n - k)", "(-1) ** k",
           "(x − 1)^n: the sign taken from k, not n − k"),
    Mutant(CX, "poly.coeff(d - i) for i in range(d + 1)", "poly.coeff(i) for i in range(d + 1)",
           "h from f: the coefficients read in reverse"),
    # --- ToricTable ---
    Mutant(TOR, "        self.rank_of = rank = P.rank_of\n",
           "        self.P = P\n        self.rank_of = rank = P.rank_of\n",
           "toric: the table points back at its poset, a reference cycle"),
    Mutant(TOR, "hq = [b - a for a, b in zip(hq + [0], [0] + hq)]",
           "hq = [a - b for a, b in zip(hq + [0], [0] + hq)]",
           "toric: Horner step by (1 - x)"),
    Mutant(TOR, "for r in range(1, rq):", "for r in range(0, rq):",
           "toric: one Horner step too many"),
    Mutant(TOR, "hq[:(rq - 1) // 2 + 1]", "hq[:rq // 2 + 1]",
           "toric: ĝ truncated one degree late"),
    Mutant(TOR, "while gq and not gq[-1]:", "while False:",
           "toric: ĝ's trailing zeros kept"),
    Mutant(TOR, "for w in above[q]:", "for w in above[q][1:]:",
           "toric: ĝ pushed past the first element above"),
    Mutant(TOR, "            if c:\n                    for w", "            if c > 0:\n                    for w",
           "toric: negative ĝ coefficients not pushed"),
    Mutant(TOR, "[[0] * P.n for _ in range((r + 1) // 2)]", "[[0] * P.n for _ in range(r // 2)]",
           "toric: one column too few for odd ranks"),
    Mutant(TOR, "        coeffs[k] = half\n", "        coeffs[k] = 2 * half\n",
           "star sum: the half term taken whole"),
    Mutant(TOR, "sign(l) * c * binom(u - rho, v - l)", "c * binom(u - rho, v - l)",
           "C(T,u,v): the sign (−1)^l dropped"),
    Mutant(TOR, "binom(u - rho, v - l) for l, c", "binom(u - rho, v + l) for l, c",
           "C(T,u,v): the binomial read at v + l"),
    # --- the main theorem's sum, its lower-Eulerian reading and the row form ---
    Mutant(TOR, "return [-sums[d - k] for k in range(d + 1)]",
           "return [-sums[k] for k in range(d + 1)]",
           "lower-eulerian: the main theorem's sum read at k, not d − k"),
    Mutant(TOR, "asserted=k > last_free,", "asserted=k >= last_free,",
           "rows: the last informational index asserted"),
    Mutant(TOR, "if e and rt <= j:", "if e and rt < j:",
           "main sum: the elements of rank j left out"),
    # --- refusals come before any table ---
    Mutant(TOR, "    cls = classify_poset(P)\n    if not cls.lower_eulerian:",
           "    cls = classify_poset(P)\n    _upper_error_sums(P, cls.min_j_sing)\n"
           "    if not cls.lower_eulerian:",
           "refusal: lower-eulerian builds the main theorem's sum before it refuses"),
    Mutant(TOR, '    """A_k = (−1)^{d−k+1} C(d,k) e(0̂,1̂) on a semi-Eulerian poset, for all k."""\n',
           '    """A_k = (−1)^{d−k+1} C(d,k) e(0̂,1̂) on a semi-Eulerian poset, for all k."""\n'
           "    defect_sequence(P)\n",
           "refusal: swartz builds the defect before it refuses"),
    # --- refusals of bad input (tests/test_cli.py's REFUSALS) ---
    Mutant(POS, "if lo == hi:", "if False:",
           "refusal: a self-cover refused as a cycle, with another message"),
    Mutant(BAL, "if kappa is not None:", "if False:",
           "refusal: a second colors: header accepted"),
    Mutant(GEN, "if not isinstance(value, bool):", "if False:",
           "refusal: a number accepted where a boolean is wanted"),
    Mutant(GEN, "if depth > MAX_SPEC_DEPTH:", "if depth >= MAX_SPEC_DEPTH:",
           "refusal: a spec MAX_SPEC_DEPTH levels deep refused"),
    Mutant(REP, 'and "lhs" in r and "rhs" in r):', "):",
           "refusal: a report row without 'lhs' or 'rhs' escapes as a KeyError"),
    Mutant(POS, "if len(set(elements)) != len(elements):", "if False:",
           "refusal: repeated element labels read as one poset"),
    Mutant(POS, "if not (isinstance(elements, list) and isinstance(covers, list)):", "if False:",
           "refusal: poset JSON whose elements are not a list escapes as a TypeError"),
    Mutant(GEN, 'if d < 1:\n        raise BadParams("simplex_boundary',
           'if d < 0:\n        raise BadParams("simplex_boundary',
           "refusal: simplex_boundary(0) accepted"),
    # --- guards of the library calls ---
    Mutant(TOR, "if u < rho:", "if u < rho - 1:",
           "guard: C(T,u,v) accepts u one below the interval rank"),
    Mutant(TOR, "        if odd:", "        if False:",
           "guard: star sum halves an odd middle difference"),
    Mutant(POS, 'raise AttributeError("GradedPoset is immutable")',
           "object.__setattr__(self, name, value)",
           "guard: a built poset's attributes can be set"),
    # --- the CLI's exit path (main() and the process entry point run()) ---
    Mutant(CLI, "        sys.stdout.flush()  # a block-buffered write can fail only here\n",
           "", "exit path: main() does not flush stdout"),
    Mutant(CLI, "if sys.stdout is None:", "if False:",
           "exit path: a closed stdout (None) runs the request and exits 0"),
    Mutant(CLI, "    gc.disable()\n", "",
           "exit path: run() serves its request with the cyclic collector on"),
    Mutant(CLI, "    os._exit(code)", "    os._exit(0)",
           "exit path: run() exits 0 whatever main() returned"),
    Mutant(CLI, "        code = exc.code", "        code = 2",
           "exit path: --help's SystemExit becomes exit 2"),
    # --- the catalog run ---
    Mutant(GEN, "if key not in memo:", "if True:",
           "catalog: every spec generates its object again"),
    Mutant(GEN, "value = built(value, memo)", "value = generate(value)",
           "catalog: nested specs not shared through the memo"),
    Mutant(SUITE, "if last[key] == i]:", "if last[key] >= i]:",
           "catalog: an object dropped after its first entry"),
    Mutant(SUITE, "            del memo[key]", "            pass",
           "catalog: objects kept after their last entry"),
    # --- the report header and the line rule of the text inputs ---
    Mutant(REP, '{"object": name or repr(obj),', '{"object": repr(obj),',
           "report: the object named by its repr even when it is given a name"),
    Mutant(CX, 'line.split("#", 1)[0].strip() for line', "line.strip() for line",
           "line reader: '#' comments kept"),
    Mutant(CX, "return [line for line in lines if line]", "return lines",
           "line reader: blank lines kept"),
)


def _failed(report: Path) -> tuple[list[str], list[str]]:
    """(every test id, the failed ones) of a JUnit XML report, as ``module::test``;
    a module that failed to collect is listed as ``::module``."""
    ids, failed = [], []
    for case in ET.parse(report).getroot().iter("testcase"):
        ids.append(f"{case.get('classname')}::{case.get('name')}")
        if case.find("failure") is not None or case.find("error") is not None:
            failed.append(ids[-1])
    return ids, failed


def _run(tree: Path) -> tuple[str, list[str], list[str]]:
    """(verdict, every test id, the failed ones) of one tier-1 run in ``tree``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    report = tree.parent / "junit.xml"
    report.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--hypothesis-seed=0",
           "--deselect", LIST_CHECK, f"--junitxml={report}", "tests"]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed (timeout)", [], []
    ids, failed = _failed(report) if report.exists() else ([], [])
    return ("survived" if proc.returncode == 0 else "killed"), ids, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="the checkout to mutate")
    args = parser.parse_args(argv)
    counts = {"killed": 0, "survived": 0, "not applied": 0}
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(args.root, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out"))
        with open(tree / "tests" / "conftest.py", "a", encoding="utf-8") as conftest:
            conftest.write(NO_SHRINK)
        start = time.perf_counter()
        base, tests, failed = _run(tree)
        print(f"unmutated: {base} ({time.perf_counter() - start:.0f} s, {len(tests)} tests)",
              flush=True)
        if base != "survived":
            print("the unmutated suite fails; no mutant can be judged")
            print("".join(f"    {t}\n" for t in failed), end="")
            return 1
        idle = dict.fromkeys(tests)
        for m in MUTANTS:
            target = tree / m.path
            text = target.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"{'not applied':16} {m.path}: {m.note}", flush=True)
                counts["not applied"] += 1
                bad += 1
                continue
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                verdict, _, failed = _run(tree)
            finally:
                target.write_text(text, encoding="utf-8")
            counts[verdict.split()[0]] += 1
            bad += verdict.startswith("survived") != bool(m.equivalent)
            mark = f" [equivalent: {m.equivalent}]" if m.equivalent else ""
            print(f"{verdict:16} {m.path}: {m.note}{mark} ({len(failed)} tests)", flush=True)
            print("".join(f"    {t}\n" for t in failed), end="", flush=True)
            for t in failed:
                idle.pop(t, None)
    print(f"{len(idle)} of {len(tests)} tests kill no mutant:")
    print("".join(f"    {t}\n" for t in idle), end="")
    print(f"{len(MUTANTS)} mutants: " + ", ".join(f"{n} {k}" for k, n in counts.items())
          + f"; {bad} unexpected", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
