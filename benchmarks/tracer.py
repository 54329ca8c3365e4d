"""Per-layer trace of one in-process `hodgefock verify` run.

The package source is not touched.  `Tracer.install` replaces the public
functions of each layer with timing wrappers, in every hodgefock module
namespace that binds the name (`cli`, `hodge` and `rep_theory` import
them by name), and `Tracer.restore` puts the originals back.  Each call
is a span: its self time is its duration minus the duration of the
wrapped calls made inside it.  Spans are grouped per case, with the case
name as the id; `cli._run_case` is itself wrapped, so its self time is
the case's code outside every listed layer function.

Run one pass and write its record as JSON:

    python3 benchmarks/tracer.py --mode full --out trace.json -- \\
        verify all --max-dim 2 --max-n 3 --seed 0

`--mode cases` wraps only `cli._run_case` (per-case wall time, near-zero
overhead); `--mode full` wraps every layer below.  The run is serial:
the caller sets HODGEFOCK_WORKERS=1, because spans inside pool workers
would not reach this process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

LAYERS = {
    "tensor_core": ("embed", "enum_basis", "inner", "FockTensor.__init__"),
    "fock_ops": ("lower", "raise_", "permute", "operator_matrix"),
    "linalg": ("EchelonBasis.insert", "kernel_basis", "matrix_rank"),
    "hodge": ("hodge_split", "exactness_report", "weitzenboeck_defect", "random_tensor"),
    "rep_theory": (
        "intersect",
        "span_all_positions",
        "embedded_subspace",
        "orbit_span",
        "orbit_split_spaces",
        "action_trace",
    ),
    "chaos": (
        "chaos_field",
        "HermiteExpansion.from_poly",
        "exterior_derivative",
        "codifferential",
        "hodge_laplacian",
        "gaussian_inner",
        "exp_vector",
        "commutation_defect",
    ),
}
CASE_SPAN = "cli.case"
OUTSIDE = "(outside cases)"


class Tracer:
    """Timing wrappers for the hodgefock layers; spans aggregated per case.

    `spans[case][name]` is `[calls, self_s]`; `case_s[case]` is the
    inclusive wall time of the case.  Counters: `inserts` and `grown`
    count `EchelonBasis.insert` calls and those that grew the span;
    `subspace_nnz_max` is the largest stored nnz of a `Subspace` returned
    by a `rep_theory` function.
    """

    def __init__(self):
        self.spans: dict = {}
        self.case_s: dict = {}
        self.inserts = 0
        self.grown = 0
        self.subspace_nnz_max = 0
        self._stack: list = []
        self._current = self.spans.setdefault(OUTSIDE, {})
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, observe=None):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()
                rec = self._current.get(name)
                if rec is None:
                    rec = self._current[name] = [0, 0.0]
                rec[0] += 1
                rec[1] += t1 - t0 - child
                if stack:
                    stack[-1] += t1 - t0
            if observe is not None:
                observe(result)
                if stack:
                    # Bookkeeping time is charged to no span.
                    stack[-1] += clock() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _case_wrapper(self, run_case):
        timed = self._timed(CASE_SPAN, run_case)
        clock = time.perf_counter

        def wrapper(spec):
            case = spec[1]
            outer = self._current
            self._current = self.spans.setdefault(case, {})
            t0 = clock()
            try:
                return timed(spec)
            finally:
                self.case_s[case] = self.case_s.get(case, 0.0) + clock() - t0
                self._current = outer

        wrapper.__wrapped__ = run_case
        return wrapper

    def _observe_insert(self, grew):
        self.inserts += 1
        self.grown += bool(grew)

    def _observe_subspaces(self, result):
        for space in result if isinstance(result, tuple) else (result,):
            nnz = sum(len(t.coeffs) for t in space.basis())
            self.subspace_nnz_max = max(self.subspace_nnz_max, nnz)

    # -- install / restore ------------------------------------------------

    def _replace_everywhere(self, orig, new):
        """Rebind every hodgefock module attribute that is `orig` to `new`."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hodgefock" or modname.startswith("hodgefock.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, new)
                    hits += 1
        return hits

    def install(self, layers=True) -> None:
        """Wrap `cli._run_case`, and with `layers` every function in LAYERS."""
        cli = importlib.import_module("hodgefock.cli")
        self._replace_everywhere(cli._run_case, self._case_wrapper(cli._run_case))
        if not layers:
            return
        for modname, names in LAYERS.items():
            mod = importlib.import_module(f"hodgefock.{modname}")
            for name in names:
                key = f"{modname}.{name}"
                observe = None
                if key == "linalg.EchelonBasis.insert":
                    observe = self._observe_insert
                elif modname == "rep_theory" and name != "action_trace":
                    observe = self._observe_subspaces
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._timed(key, raw.__func__, observe))
                    else:
                        new = self._timed(key, raw, observe)
                    self._undo.append((cls, meth, raw))
                    setattr(cls, meth, new)
                else:
                    orig = getattr(mod, name)
                    if not self._replace_everywhere(orig, self._timed(key, orig, observe)):
                        raise RuntimeError(f"{key} is bound in no hodgefock module")

    def restore(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def span_totals(spans: dict) -> dict:
    """Sum `spans[case][name] = [calls, self_s]` over the cases, per name."""
    out: dict = {}
    for per_case in spans.values():
        for name, (calls, self_t) in per_case.items():
            rec = out.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += self_t
    return out


def traced_main(argv, mode: str) -> dict:
    """Run `hodgefock <argv>` in-process under a Tracer and return its record."""
    from hodgefock import cli

    tracer = Tracer()
    with tracer:
        tracer.install(layers=(mode == "full"))
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    return {
        "mode": mode,
        "exit_code": code,
        "wall_s": wall,
        "case_s": tracer.case_s,
        "spans": tracer.spans,
        "inserts": tracer.inserts,
        "grown": tracer.grown,
        "subspace_nnz_max": tracer.subspace_nnz_max,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=("cases", "full"), required=True)
    parser.add_argument("--out", required=True, help="where to write the trace record")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- hodgefock arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if os.environ.get("HODGEFOCK_WORKERS") != "1":
        print("error: set HODGEFOCK_WORKERS=1 for a traced run", file=sys.stderr)
        return 2
    record = traced_main(argv, args.mode)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
