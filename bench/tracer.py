"""Spans and counters around relcone's layer boundaries, from outside.

`install_spans` re-binds every module attribute that holds a public
relcone function to one recording wrapper, so a call is caught whichever
module makes it: `cli` calls `homology_at` through its own global name,
`cech` calls `chain_complex` through its own, and so on.  `Matrix` and
the chain-level classes are wrapped on the class.  Nothing inside `src/`
is edited.

Spans (name, start, end, parent) live in flat arrays while the workload
runs and are written out when it ends.  Scalar arithmetic is far too hot
for spans: `install_counters` counts `CoeffRing` calls and `Matrix`
entries in a separate pass, so its cost never shows in a span's time.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter

RING_OPS = ("add", "neg", "sub", "mul", "zmul", "inv")

# names whose time is reported as one layer; nested calls inside the same
# group are not counted twice
GROUPS = {
    "homology.field": ("homology.field_rank", "homology.kernel_field", "homology.solve_field"),
    "homology.les": ("homology.les_of_cone", "homology.ker_coker_les"),
    "chain.build": ("chain.GradedComplex", "chain.ComplexMap"),
    "chain.cone": ("chain.cone_of_map", "chain.cone_of_cochain_map"),
    "geo.integrality": ("geo.is_integral", "geo.bohr_sommerfeld"),
    "geo.class": ("geo.classify", "geo.trivialize"),
}


def _is_parse(fn_name: str) -> bool:
    return fn_name in ("read_json", "loads") or "_from_" in fn_name


class Tracer:
    """Span recorder: flat arrays plus a stack of open span ids."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxes: dict[str, int] = {}

    def intern(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start[sid] = self.clock()
        return sid

    def close(self, sid: int):
        self.end[sid] = self.clock()
        self.stack.pop()

    def record(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span (for tests on hand-made spans)."""
        sid = len(self.name)
        self.name.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return sid

    def span(self, name: str):
        return _Span(self, self.intern(name))

    def wrap(self, name: str, fn, before=None, after=None):
        """A wrapper that records one span per call of `fn`.

        `before(args)` and `after(args, result)` update counters outside
        the span's own interval.
        """
        nid = self.intern(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def bump_max(self, key: str, value: int):
        if value > self.maxes.get(key, 0):
            self.maxes[key] = value

    # -- output -------------------------------------------------------------

    def write(self, path: str, header: str):
        """One tab-separated line per span: id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header.rstrip("\n") + "\n")
            names = self.names
            for sid in range(len(self.name)):
                fh.write(
                    f"{sid}\t{names[self.name[sid]]}\t{self.start[sid]:.9f}\t"
                    f"{self.end[sid]:.9f}\t{self.parent[sid]}\n"
                )


class _Span:
    __slots__ = ("tracer", "nid", "sid")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.sid = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------


def _modules(package):
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _matrix_bits(m) -> int:
    return max((abs(x).bit_length() for r in m.rows for x in r), default=0)


def install_spans(tracer: Tracer, package):
    """Wrap relcone's public functions and the chain/matrix classes in spans.

    Every module attribute bound to a wrapped function is re-bound, so a
    name imported with `from .homology import snf` is caught as well as
    `homology.snf`.  Returns the undo list for `uninstall`.
    """
    counts = tracer.counts

    def snf_before(args):
        a = args[0]
        counts["homology.snf_cells"] += a.nrows * a.ncols

    def snf_after(args, r):
        bits = max(_matrix_bits(m) for m in (r.u, r.v, r.uinv, r.vinv, r.d))
        tracer.bump_max("homology.snf_max_bits", bits)

    def dumps_after(args, text):
        counts["jsonio.bytes_out"] += len(text.encode("utf-8"))

    def matmul_before(args):
        a, b = args
        counts["matrix.matmul_mults"] += a.nrows * a.ncols * b.ncols
        counts["matrix.matmul_useful"] += useful_products(a.rows, b.rows, a.ncols)

    hooks = {"homology.snf": (snf_before, snf_after), "jsonio.dumps": (None, dumps_after)}
    undo = []
    wrappers = {}
    for mod in _modules(package):
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith(package.__name__ + "."):
                continue
            w = wrappers.get(id(obj))
            if w is None:
                name = f"{_short(obj.__module__)}.{obj.__name__}"
                before, after = hooks.get(name, (None, None))
                w = wrappers[id(obj)] = tracer.wrap(name, obj, before, after)
            setattr(mod, attr, w)
            undo.append((mod, attr, obj))

    matrix_cls = importlib.import_module(f"{package.__name__}.matrix").Matrix
    chain_mod = importlib.import_module(f"{package.__name__}.chain")
    _patch(undo, matrix_cls, "__matmul__", tracer.wrap("matrix.matmul", matrix_cls.__matmul__, matmul_before))
    for cls in (chain_mod.GradedComplex, chain_mod.ComplexMap):
        _patch(undo, cls, "__init__", tracer.wrap(f"chain.{cls.__name__}", cls.__init__))
    return undo


def install_counters(tracer: Tracer, package):
    """Count scalar ring calls and matrix entries built; no spans.

    Returns (undo, flush); `flush()` adds the counts to `tracer.counts`.
    """
    undo = []
    ring_cls = importlib.import_module(f"{package.__name__}.coeffs").CoeffRing
    matrix_cls = importlib.import_module(f"{package.__name__}.matrix").Matrix
    ring_cell, norm_cell, entries_cell = [0], [0], [0]

    def counted(fn, cell):
        def call(*args):
            cell[0] += 1
            return fn(*args)

        return call

    for op in RING_OPS:
        _patch(undo, ring_cls, op, counted(ring_cls.__dict__[op], ring_cell))
    _patch(undo, ring_cls, "normalize", counted(ring_cls.normalize, norm_cell))
    init = matrix_cls.__init__

    def matrix_init(self, ring, nrows, ncols, rows):
        entries_cell[0] += nrows * ncols
        init(self, ring, nrows, ncols, rows)

    _patch(undo, matrix_cls, "__init__", matrix_init)

    def flush():
        tracer.counts["coeffs.ring_op_calls"] += ring_cell[0]
        tracer.counts["coeffs.normalize_calls"] += norm_cell[0]
        tracer.counts["matrix.build_entries"] += entries_cell[0]

    return undo, flush


def _patch(undo, owner, attr, new):
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, new)


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def useful_products(a_rows, b_rows, inner: int) -> int:
    """Scalar products of A @ B with both factors nonzero.

    Entry k of a row of A meets row k of B; the pair contributes
    nnz(column k of A) * nnz(row k of B).
    """
    if not inner:
        return 0
    col_nz = [0] * inner
    for r in a_rows:
        for k, x in enumerate(r):
            if x:
                col_nz[k] += 1
    return sum(c * sum(1 for y in row if y) for c, row in zip(col_nz, b_rows) if c)


# ---------------------------------------------------------------------------
# Reading the spans back
# ---------------------------------------------------------------------------


def self_times(tr: Tracer) -> list[float]:
    """Per span: its duration minus the part its children's intervals cover."""
    n = len(tr.name)
    children: list[list[int]] = [[] for _ in range(n)]
    for sid in range(n):
        p = tr.parent[sid]
        if p >= 0:
            children[p].append(sid)
    out = []
    for sid in range(n):
        lo, hi = tr.start[sid], tr.end[sid]
        ivs = sorted(
            (max(lo, tr.start[c]), min(hi, tr.end[c])) for c in children[sid]
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in ivs:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def ancestor_names(tr: Tracer) -> list:
    """Per span, the set of name ids on its path to the root.

    A span is opened after its parent, so one pass in id order suffices.
    """
    out = []
    empty = frozenset()
    for sid in range(len(tr.name)):
        p = tr.parent[sid]
        out.append(empty if p < 0 else out[p] | {tr.name[p]})
    return out


def _ids(tr: Tracer, names) -> set:
    return {tr._name_id[n] for n in names if n in tr._name_id}


def layer_totals(tr: Tracer, names, anc=None) -> tuple[int, float]:
    """(calls, seconds) of spans named in `names`, time taken outermost only."""
    anc = ancestor_names(tr) if anc is None else anc
    nids = _ids(tr, names)
    calls = 0
    secs = 0.0
    for sid in range(len(tr.name)):
        if tr.name[sid] in nids:
            calls += 1
            if nids.isdisjoint(anc[sid]):
                secs += tr.end[sid] - tr.start[sid]
    return calls, secs


def child_time(tr: Tracer, child: str, parent: str) -> float:
    """Seconds of `child` spans whose direct parent is a `parent` span."""
    cid = tr._name_id.get(child)
    pid = tr._name_id.get(parent)
    total = 0.0
    for sid in range(len(tr.name)):
        p = tr.parent[sid]
        if tr.name[sid] == cid and p >= 0 and tr.name[p] == pid:
            total += tr.end[sid] - tr.start[sid]
    return total


def useful_share(useful: int, attempted: int) -> float:
    """Share of attempted scalar products whose factors are both nonzero."""
    return useful / attempted if attempted else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Every per-layer number, summed over all recorded spans and counters."""
    c = tr.counts
    selfs = self_times(tr)
    anc = ancestor_names(tr)

    def self_of(name):
        nid = tr._name_id.get(name)
        return sum(s for sid, s in enumerate(selfs) if tr.name[sid] == nid) if nid is not None else 0.0

    def calls(name):
        return layer_totals(tr, [name], anc)[0]

    def secs(*names):
        return layer_totals(tr, names, anc)[1]

    jsonio_names = [n for n in tr.names if n.startswith("jsonio.")]
    parse_names = [n for n in jsonio_names if _is_parse(n.split(".", 1)[1])]
    dump_names = [n for n in jsonio_names if n not in parse_names]
    # chain-complex builds per classify/trivialize call, nested calls counted once
    cls_ids = _ids(tr, GROUPS["geo.class"])
    build_id = tr._name_id.get("simplicial.chain_complex")
    classes = sum(1 for sid in range(len(tr.name)) if tr.name[sid] in cls_ids and cls_ids.isdisjoint(anc[sid]))
    builds_in_class = sum(
        1 for sid in range(len(tr.name)) if tr.name[sid] == build_id and not cls_ids.isdisjoint(anc[sid])
    )

    return {
        "matrix.matmul_calls": calls("matrix.matmul"),
        "matrix.matmul_s": secs("matrix.matmul"),
        "matrix.matmul_mults": c["matrix.matmul_mults"],
        "matrix.matmul_useful_share": useful_share(c["matrix.matmul_useful"], c["matrix.matmul_mults"]),
        "matrix.build_entries": c["matrix.build_entries"],
        "coeffs.ring_op_calls": c["coeffs.ring_op_calls"],
        "coeffs.normalize_calls": c["coeffs.normalize_calls"],
        "homology.snf_calls": calls("homology.snf"),
        "homology.snf_s": secs("homology.snf"),
        "homology.snf_self_s": self_of("homology.snf"),
        "homology.snf_check_s": child_time(tr, "matrix.matmul", "homology.snf"),
        "homology.snf_cells": c["homology.snf_cells"],
        "homology.snf_max_bits": tr.maxes.get("homology.snf_max_bits", 0),
        "homology.field_rank_calls": calls("homology.field_rank"),
        "homology.field_s": secs(*GROUPS["homology.field"]),
        "homology.homology_data_calls": calls("homology.homology_data"),
        "homology.homology_data_s": secs("homology.homology_data"),
        "homology.solve_int_s": secs("homology.solve_int"),
        "homology.les_s": secs(*GROUPS["homology.les"]),
        "simplicial.chain_complex_calls": calls("simplicial.chain_complex"),
        "simplicial.chain_complex_s": secs("simplicial.chain_complex"),
        "simplicial.chain_map_calls": calls("simplicial.chain_map"),
        "simplicial.cone_space_s": secs("simplicial.mapping_cone_space"),
        "simplicial.compare_cones_s": secs("simplicial.compare_cones"),
        "chain.complex_builds": calls("chain.GradedComplex"),
        "chain.map_builds": calls("chain.ComplexMap"),
        "chain.build_s": secs(*GROUPS["chain.build"]),
        "chain.cone_s": secs(*GROUPS["chain.cone"]),
        "cech.rel_diff_s": secs("cech.rel_diff"),
        "cech.pullback_s": secs("cech.pullback"),
        "cech.cech_diff_s": secs("cech.cech_diff"),
        "cech.cone_complex_builds": calls("cech.relative_cone_complex"),
        "cech.builds_per_class": builds_in_class / classes if classes else 0.0,
        "geo.classify_s": secs("geo.classify"),
        "geo.trivialize_s": secs("geo.trivialize"),
        "geo.integrality_s": secs(*GROUPS["geo.integrality"]),
        "jsonio.parse_s": secs(*parse_names) if parse_names else 0.0,
        "jsonio.dump_s": secs(*dump_names) if dump_names else 0.0,
        "jsonio.bytes_out": c["jsonio.bytes_out"],
        "cli.self_s": self_of("cli.main"),
    }
