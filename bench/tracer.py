"""In-process traced run of dehnsom CLI requests, with spans per module.

Run as a script under the environment of the code being measured:

    PYTHONPATH=src python3 bench/tracer.py REQUESTS.json

REQUESTS.json holds {"requests": [[argv...], ...], "seconds": S, "spans": PATH}.
The script alternates untraced and traced passes over the requests, each pass
calling ``dehnsom.cli.main`` once per request with stdout captured, until S
seconds have gone (at least one pass of each). It prints one JSON line: the
stdout bytes of every request in every pass (as SHA-256), the wall times of
both kinds of pass, and per-layer self times and counts of each traced pass.
The spans of the last traced pass are written to PATH as tab-separated rows.

The wrappers sit at the boundary of each module's public functions; nothing
inside ``src/`` is changed. A layer's self time is the time inside its spans
minus the time inside their child spans; the root span of each request is the
CLI itself, so its self time is the remainder no layer claims.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
import time

# layer -> (module, attribute path) of every function whose calls it owns
LAYERS = {
    "generators": [
        ("generators", "generate"),
        ("generators", "generate_from_string"),
        ("generators", "parse_spec"),
    ],
    "complexes.construct": [
        ("complexes", "SimplicialComplex.__init__"),
        ("complexes", "build_complex"),
        ("complexes", "link"),
        ("complexes", "join_with_mapping"),
        ("complexes", "parse_facets"),
    ],
    "complexes.sweep": [
        ("complexes", "face_error_table"),
        ("complexes", "link_euler_table"),
    ],
    "complexes.h": [
        ("complexes", "f_vector"),
        ("complexes", "h_vector"),
        ("complexes", "verify_pure_ds"),
    ],
    "balanced.flag": [
        ("balanced", "flag_f_vector"),
        ("balanced", "flag_h_vector"),
        ("balanced", "verify_flag_ds"),
    ],
    "posets.build": [
        ("posets", "build_poset"),
        ("posets", "parse_poset_json"),
        ("posets", "dual"),
    ],
    "posets.order_complex": [("posets", "order_complex")],
    "posets.flag_poset": [
        ("posets", "verify_flag_poset"),
        ("posets", "flag_alpha_beta"),
    ],
    "posets.classify": [("posets", "classify_poset")],
    "posets.simplicial": [("posets", "verify_simplicial_ds")],
    "posets.mobius": [
        ("posets", "GradedPoset.mobius_i"),
        ("posets", "GradedPoset.mobius_to_top"),
        ("posets", "GradedPoset.bad_intervals"),
    ],
    "toric.table": [("toric", "ToricTable.__init__")],
    "toric.verify": [
        ("toric", "verify_stanley"),
        ("toric", "verify_swartz"),
        ("toric", "verify_1sing"),
        ("toric", "verify_euler_relation"),
        ("toric", "verify_generalized"),
        ("toric", "verify_main"),
        ("toric", "verify_lower_eulerian"),
        ("toric", "dual_defect_report"),
    ],
    "polynomial": [
        ("polynomial", "ExactPolynomial." + op)
        for op in ("__add__", "__sub__", "__neg__", "__mul__", "scale", "reversed_at",
                   "truncate", "zero", "one", "x_minus_one_power")
    ],
    "reports.serialize": [("reports", "VerificationReport.to_dict")],
}
ROOT = "cli"

# layer -> name of the count of its calls
CALL_COUNTS = {
    "generators": "generators.objects",
    "complexes.construct": "complexes.constructs",
    "balanced.flag": "balanced.flag_calls",
    "posets.classify": "posets.classify_calls",
    "posets.mobius": "posets.mobius_calls",
    "toric.table": "toric.tables_built",
    "toric.verify": "toric.verify_calls",
    "polynomial": "polynomial.ops",
}


def _faces_built(args, result):
    return len(args[0].faces)


def _chains(args, result):
    return len(result.complex.faces)


def _rows(args, result):
    return len(args[0].rows)


# (module, attribute path) -> (count name, function of the call's args and result)
WORK_COUNTS = {
    ("complexes", "SimplicialComplex.__init__"): ("complexes.faces_built", _faces_built),
    ("posets", "order_complex"): ("posets.chains", _chains),
    ("reports", "VerificationReport.to_dict"): ("reports.rows", _rows),
}
# Σ 2^|F| over the faces of each swept complex; counted after the pass
SWEEP = ("complexes", "link_euler_table")


def self_time_name(layer: str) -> str:
    """``posets.build`` -> ``posets.build_self_s``; ``polynomial`` -> ``polynomial.self_s``."""
    return f"{layer}_self_s" if "." in layer else f"{layer}.self_s"


class Tracer:
    """Spans kept in memory: (name, start_ns, end_ns, parent, request)."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.request = 0
        self.counts: dict[str, int] = {}
        self.swept: list = []
        self._wrappers: dict = {}
        self._restore: list = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.swept.clear()

    def span(self, name: str, layer: str, fn, on_exit=None):
        """A wrapper of ``fn`` that records one span per call."""
        k = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (k, start, end, parent, tracer.request)
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    def _on_exit(self, key):
        if key in WORK_COUNTS:
            counter, fn = WORK_COUNTS[key]
            counts = self.counts

            def hook(args, result):
                counts[counter] = counts.get(counter, 0) + fn(args, result)

            return hook
        if key == SWEEP:
            swept = self.swept
            return lambda args, result: swept.append(args[0])
        return None

    def install(self, modules: dict):
        """Replace every binding of every traced function by one wrapper.

        Modules that import a traced name (``balanced.face_error_table``,
        ``toric.classify_poset``, ``cli.generate``, the package namespace)
        get the same wrapper as its home module. A function is matched by
        identity and wrapped once, so a module reached under two names
        (``cli.ps`` is ``posets``) never gets a wrapper of a wrapper.
        """
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "dehnsom" or name.startswith("dehnsom.")]
        for layer, targets in LAYERS.items():
            for mod_name, path in targets:
                owner = modules[mod_name]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                key = (mod_name, path)
                if key not in self._wrappers:
                    self._wrappers[key] = self.span(path, layer, fn, self._on_exit(key))
                wrapper = self._wrappers[key]
                new = classmethod(wrapper) if is_cm else wrapper
                # a class may bind one method twice (__mul__ is __rmul__)
                for scope in [owner] if cls_path else package:
                    for name, value in list(vars(scope).items()):
                        if value is raw:
                            self._restore.append((scope, name, value))
                            setattr(scope, name, new)

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Self time per layer in seconds, and every count, for the spans held."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for i, (k, start, end, _, _) in enumerate(self.spans):
            layer = self.layer_of[k]
            self_ns[layer] = self_ns.get(layer, 0) + (end - start - child[i])
            calls[layer] = calls.get(layer, 0) + 1
        out = {self_time_name(layer): self_ns.get(layer, 0) / 1e9 for layer in [ROOT, *LAYERS]}
        out.update({name: calls.get(layer, 0) for layer, name in CALL_COUNTS.items()})
        for counter, _ in WORK_COUNTS.values():
            out[counter] = self.counts.get(counter, 0)
        out["complexes.sweep_subsets"] = sum(1 << len(f) for cx in self.swept for f in cx.faces)
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            fh.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i, (k, start, end, parent, request) in enumerate(self.spans):
                fh.write(f"{request}\t{i}\t{parent}\t{self.names[k]}\t{start}\t{end}\n")


def run_pass(main, requests, texts: dict, tracer=None) -> tuple[float, list[dict]]:
    """Run every request once in this process; wall seconds and stdout digests.

    ``texts`` collects the stdout of each distinct digest, for checking.
    """
    digests = []
    wall = 0.0
    for rid, argv in enumerate(requests):
        buf = io.StringIO()
        if tracer is not None:
            tracer.request = rid
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            code = main(argv)
            wall += time.perf_counter() - start
        out = buf.getvalue().encode()
        digests.append({"code": code, "sha256": hashlib.sha256(out).hexdigest(),
                        "bytes": len(out)})
        texts.setdefault(digests[-1]["sha256"], out.decode())
    return wall, digests


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    requests, seconds = job["requests"], job["seconds"]

    from dehnsom import balanced, cli, complexes, generators, polynomial, posets, reports, toric
    modules = {"balanced": balanced, "complexes": complexes, "generators": generators,
               "polynomial": polynomial, "posets": posets, "reports": reports,
               "toric": toric}

    tracer = Tracer()
    root = tracer.span("main", ROOT, cli.main)
    plain, traced, layers, outputs, texts = [], [], [], [], {}
    began = time.perf_counter()
    while True:
        wall, digests = run_pass(cli.main, requests, texts)
        plain.append(wall)
        outputs.append(digests)

        tracer.reset()
        tracer.install(modules)
        try:
            wall, digests = run_pass(root, requests, texts, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        outputs.append(digests)
        summary = tracer.summary()
        summary["reports.bytes"] = sum(d["bytes"] for d in digests)
        summary["trace.wall_s"] = wall
        layers.append(summary)

        elapsed = time.perf_counter() - began
        if elapsed + (plain[-1] + traced[-1]) > seconds:
            break
    tracer.write_spans(job["spans"])
    print(json.dumps({"plain_wall_s": plain, "traced_wall_s": traced,
                      "layers": layers, "outputs": outputs, "texts": texts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
