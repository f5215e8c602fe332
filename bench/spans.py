"""In-memory span tracing of monolc's public functions, from outside.

monolc modules import each other with ``from .x import f``, so one
function is bound in several module namespaces.  ``Tracer.install``
replaces every binding of each traced function, in every loaded
``monolc`` module, with a recording wrapper; ``uninstall`` puts the
originals back.  A span is [name, start, end, parent span, job id];
a layer's self time is its span time minus its child spans.  Counters
run after a span closes, in a COUNT span of their own that no layer
metric includes, so their cost shows only in the tracing overhead.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

JOB = "job"
COUNT = "trace.count"


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_rank(tr: "Tracer", span: list, args: tuple, kwargs: dict, result) -> None:
    field = _arg(args, kwargs, 1, "field")
    span[0] = "linalg.rank_q" if field.is_rationals else "linalg.rank_modp"
    matrix = _arg(args, kwargs, 0, "matrix")
    c = tr.counts
    c["linalg.rank_rows"] += matrix.rows
    c["linalg.rank_nnz"] += len(matrix.entries)
    c["linalg.rank_max_rows"] = max(c["linalg.rank_max_rows"], matrix.rows)


def _count_complex(tr: "Tracer", span: list, args: tuple, kwargs: dict, cx) -> None:
    c = tr.counts
    c["takayama.faces"] += len(cx.faces)
    c["takayama.void"] += cx.is_void
    # equal complexes hash equally; the hash and size stand in for the
    # complex so a job's complexes are not all kept alive
    key = (cx.n_vertices, len(cx.faces), hash(cx))
    if key in tr.job_complexes:
        c["takayama.repeats"] += 1
    else:
        tr.job_complexes.add(key)


def _count_box(tr: "Tracer", span: list, args: tuple, kwargs: dict, box) -> None:
    tr.counts["takayama.box_degrees"] += len(box)


def _count_strand(tr: "Tracer", span: list, args: tuple, kwargs: dict, strand) -> None:
    tr.counts["cech.basis"] += sum(len(level) for level in strand.basis)


def _count_checks(tr: "Tracer", span: list, args: tuple, kwargs: dict, report) -> None:
    tr.counts["verify.checks"] += len(report.checks)


# (defining module, function) -> (span name, counter called with the
# closed span and the result, or None); _count_rank renames its span by
# field
TRACED: dict[tuple[str, str], tuple[str, Callable | None]] = {
    ("linalg", "rank"): ("linalg.rank", _count_rank),
    ("simplicial", "reduced_cohomology_dims"): ("simplicial.cohomology", None),
    ("takayama", "takayama_complex"): ("takayama.complex", _count_complex),
    ("takayama", "lc_dims"): ("takayama.lc_dims", None),
    ("takayama", "canonical_box"): ("takayama.box", _count_box),
    ("cech", "cech_strand"): ("cech.strand", _count_strand),
    ("cech", "cech_dims"): ("cech.dims", None),
    ("ideals", "parse_ideal"): ("ideals.parse", None),
    ("polarization", "polarize_ideal"): ("polarization.polarize", None),
    ("polarization", "degree_map"): ("polarization.degree_map", None),
    ("polarization", "partial_polarize"): ("polarization.partial", None),
    ("verify", "verify_main_theorem"): ("verify", _count_checks),
    ("verify", "verify_reduction_chain"): ("verify", _count_checks),
    ("verify", "verify_reduction_to_degree_zero"): ("verify", _count_checks),
    ("verify", "verify_depth_shift"): ("verify", _count_checks),
}


def monolc_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "monolc" or name.startswith("monolc.")
    ]


class Tracer:
    """Records spans and counters while installed; one job at a time."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters (between passes)."""
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self.job_complexes: set = set()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.job])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def begin_job(self, job_id: int) -> None:
        self.job = job_id
        self.job_complexes = set()
        self._open(JOB)

    def end_job(self) -> None:
        self._close(self._stack[0])
        self._stack.clear()

    def _wrap(self, fn: Callable, name: str, count: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                counting = self._open(COUNT)
                try:
                    count(self, self.spans[idx], args, kwargs, result)
                finally:
                    self._close(counting)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of each traced function in every monolc module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = monolc_modules()
        by_name = {mod.__name__: mod for mod in modules}
        try:
            for (modname, fname), (name, count) in TRACED.items():
                original = getattr(by_name[f"monolc.{modname}"], fname)
                wrapper = self._wrap(original, name, count)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts and counters of the spans
        recorded since the last reset."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        c = self.counts
        complexes = calls["takayama.complex"]
        return {
            "linalg.rank_s": self_s["linalg.rank_q"] + self_s["linalg.rank_modp"],
            "linalg.rank_calls": calls["linalg.rank_q"] + calls["linalg.rank_modp"],
            "linalg.rank_q_s": self_s["linalg.rank_q"],
            "linalg.rank_modp_s": self_s["linalg.rank_modp"],
            "linalg.rank_rows": c["linalg.rank_rows"],
            "linalg.rank_nnz": c["linalg.rank_nnz"],
            "linalg.rank_max_rows": c["linalg.rank_max_rows"],
            "simplicial.cohomology_s": self_s["simplicial.cohomology"],
            "simplicial.cohomology_calls": calls["simplicial.cohomology"],
            "takayama.complex_s": self_s["takayama.complex"],
            "takayama.complex_calls": complexes,
            "takayama.faces": c["takayama.faces"],
            "takayama.void_frac": c["takayama.void"] / complexes if complexes else 0.0,
            "takayama.repeat_frac": c["takayama.repeats"] / complexes if complexes else 0.0,
            "takayama.lc_dims_s": self_s["takayama.lc_dims"],
            "takayama.box_s": self_s["takayama.box"],
            "takayama.box_degrees": c["takayama.box_degrees"],
            "cech.strand_s": self_s["cech.strand"],
            "cech.strand_calls": calls["cech.strand"],
            "cech.basis": c["cech.basis"],
            "cech.dims_s": self_s["cech.dims"],
            "ideals.parse_s": self_s["ideals.parse"],
            "ideals.parse_calls": calls["ideals.parse"],
            "polarization.polarize_s": self_s["polarization.polarize"],
            "polarization.degree_map_s": self_s["polarization.degree_map"],
            "polarization.partial_s": self_s["polarization.partial"],
            "verify.self_s": self_s["verify"],
            "verify.checks": c["verify.checks"],
            "trace.unattributed_s": self_s[JOB],
        }
