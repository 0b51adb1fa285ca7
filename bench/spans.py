"""Layer spans and per-layer counters from a trace hook.

The tracer never touches the code it measures: it installs a
``sys.settrace`` hook, classifies every Python frame by the file its code
lives in, and opens a span whenever a call crosses from one layer into
another, or enters one of the functions the per-layer metrics name.  Only
frames that open a span are traced further (for their return), which keeps
the hook's cost to one callback for every other Python call.

Layers are the seven ``lpiso`` modules plus ``mpmath`` as an external
layer.  Frames from any other file (``fractions``, ``json``, the standard
library) inherit the layer of their caller, so ``Fraction`` arithmetic is
charged to the layer that asked for it.  C calls are charged the same way.
Self time is the time a layer is the innermost open layer, which equals a
span's duration minus the time its child spans cover.

Spans are kept in memory and written out by :meth:`Tracer.write` once the
run ends.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
import types
from array import array
from typing import Any, Callable, Dict, List

LAYERS = (
    "bench",
    "scalar_core",
    "lp_vectors",
    "presentations",
    "tree_maps",
    "extension_engine",
    "chain_partition",
    "iso_cli",
    "mpmath",
)
_HARNESS, _SCALAR, _VECTORS, _PRES, _TREES, _ENGINE, _CHAINS, _CLI, _MPMATH = range(len(LAYERS))

# Families: functions whose calls are counted and timed.  Only the outermost
# active call of a family counts, so delegation (a presentation's
# ``norm_approx`` calling a wrapped presentation's) and recursion are not
# counted twice.  Entries are (module, qualified name).
FAMILIES: Dict[str, List[tuple]] = {
    "pow": [("scalar_core", "pow_enclosure")],
    "norm": [("lp_vectors", "norm_p")],
    "sigma1": [("lp_vectors", "sigma1_vec"), ("lp_vectors", "sigma1_from_norms")],
    "oracle": [
        ("presentations", "norm_approx"),
        ("presentations", "Presentation.norm_approx"),
        ("presentations", "StandardPresentation.norm_approx"),
        ("presentations", "RotatedPresentation.norm_approx"),
        ("presentations", "AdversarialPresentation.norm_approx"),
    ],
    "backdoor": [
        ("presentations", "transparent_eval"),
        ("presentations", "Presentation.transparent_eval"),
        ("presentations", "StandardPresentation.transparent_eval"),
        ("presentations", "RotatedPresentation.transparent_eval"),
        ("presentations", "AdversarialPresentation.transparent_eval"),
        ("presentations", "Presentation.generator_vector"),
        ("presentations", "Presentation.encode_vector"),
        ("presentations", "StandardPresentation.encode_vector"),
        ("presentations", "RotatedPresentation.encode_vector"),
        ("presentations", "AdversarialPresentation.encode_vector"),
    ],
    "sigma_tree": [("tree_maps", "sigma_tree")],
    "sigma_pair": [("tree_maps", "_sigma1_pair")],
    "validate": [("tree_maps", "validate_partial_disintegration")],
    "extend": [("extension_engine", "approximate_extend")],
    "certify": [("extension_engine", "certify_ball")],
    "refine": [("extension_engine", "_refined_values.<locals>.ensure")],
    "structure": [("extension_engine", "_values_on_structure")],
    "anm": [("chain_partition", "find_anm_child")],
    "stage_query": [
        ("chain_partition", "ChainSource.norm_power_approx"),
        ("chain_partition", "LazyDisintegration.norm_power_approx"),
    ],
    "emit": [("iso_cli", "_emit")],
    "build": [("extension_engine", "build_disintegration")],
    "partition": [("chain_partition", "partition_chains"), ("chain_partition", "chain_limit")],
}
FAMILY_NAMES = tuple(FAMILIES)
_FAM = {name: i for i, name in enumerate(FAMILY_NAMES)}

# Phases of the CLI layer: a family call made directly from ``iso_cli``.
_PHASE_OF_FAMILY = {
    _FAM["build"]: "disintegrate",
    _FAM["partition"]: "chains",
    _FAM["sigma1"]: "pairwise",
    _FAM["emit"]: "emit",
}
PHASES = ("disintegrate", "chains", "pairwise", "emit")

# name -> unit, in the order they are printed
PER_LAYER_METRICS = {
    "scalar_core.pow_calls": "count",
    "scalar_core.pow_repeat_ratio": "ratio",
    "scalar_core.mp_calls": "count",
    "scalar_core.self_s": "s",
    "mpmath.self_s": "s",
    "lp_vectors.norm_calls": "count",
    "lp_vectors.sigma1_calls": "count",
    "lp_vectors.self_s": "s",
    "presentations.oracle_queries": "count",
    "presentations.oracle_repeat_ratio": "ratio",
    "presentations.oracle_s": "s",
    "presentations.backdoor_calls": "count",
    "presentations.self_s": "s",
    "tree_maps.sigma_tree_calls": "count",
    "tree_maps.sigma_pairs": "count",
    "tree_maps.validate_calls": "count",
    "tree_maps.sigma_tree_s": "s",
    "tree_maps.self_s": "s",
    "extension_engine.extend_calls": "count",
    "extension_engine.certify_calls": "count",
    "extension_engine.certify_s": "s",
    "extension_engine.refine_steps": "count",
    "extension_engine.self_s": "s",
    "chain_partition.anm_searches": "count",
    "chain_partition.stage_queries": "count",
    "chain_partition.s": "s",
    "chain_partition.self_s": "s",
    "iso_cli.disintegrate_s": "s",
    "iso_cli.chains_s": "s",
    "iso_cli.pairwise_s": "s",
    "iso_cli.emit_s": "s",
    "iso_cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}

# Metrics that must repeat exactly between two traced runs of one seed.
COUNT_METRICS = tuple(
    name for name, unit in PER_LAYER_METRICS.items() if unit in ("count", "ratio")
    and name != "trace.overhead_ratio"
)


def _walk_code(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _walk_code(const)


def _module_codes(module) -> List[types.CodeType]:
    """Every code object defined in a module's own file, nested ones too."""
    out = []
    seen = set()
    for obj in vars(module).values():
        candidates = [obj]
        if isinstance(obj, type):
            candidates = list(vars(obj).values())
        for item in candidates:
            if isinstance(item, (staticmethod, classmethod)):
                item = item.__func__
            if isinstance(item, property):
                item = item.fget
            code = getattr(item, "__code__", None)
            if code is None or code.co_filename != module.__file__:
                continue
            for c in _walk_code(code):
                if id(c) not in seen:
                    seen.add(id(c))
                    out.append(c)
    return out


def _pow_key(loc: dict) -> tuple:
    base, p = loc["base"], loc["p"]
    pkey = p.exact if p.exact is not None else id(p)
    return (base.lo, base.hi, pkey, loc["k"], loc["num"], loc["over_p"])


def _oracle_key(loc: dict) -> tuple:
    combo = loc["combo"] if "combo" in loc else loc["f"]
    pres = loc["self"] if "self" in loc else loc["pres"]
    return (id(pres), combo, loc["k"])


class Tracer:
    """Spans at layer boundaries plus the counters the per-layer metrics need.

    ``modules`` maps each lpiso layer name to its imported module.
    """

    def __init__(self, modules: Dict[str, types.ModuleType], mpmath_dir: str):
        self._mpmath_dir = os.path.join(os.path.realpath(mpmath_dir), "")
        self._layer_of_file: Dict[str, int] = {}
        for name, mod in modules.items():
            self._layer_of_file[mod.__file__] = LAYERS.index(name)
        # qualified names of the families, resolved to code objects
        self._fam_of_code: Dict[int, int] = {}
        for fam, members in FAMILIES.items():
            for mod_name, qual in members:
                found = [c for c in _module_codes(modules[mod_name]) if c.co_qualname == qual]
                if not found:
                    raise LookupError(f"{mod_name}.{qual} not found for tracing")
                for c in found:
                    self._fam_of_code[id(c)] = _FAM[fam]
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        # span columns
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_time = [0.0] * len(LAYERS)
        self.layer_time = [0.0] * len(LAYERS)  # outermost entries only
        self.fam_calls = [0] * len(FAMILY_NAMES)
        self.fam_time = [0.0] * len(FAMILY_NAMES)
        self.phase_time = {ph: 0.0 for ph in PHASES}
        self.counts = {"mp": 0, "refine": 0, "pow_rep": 0, "oracle_rep": 0}
        self._build_hook()

    # -- classification ------------------------------------------------------

    def _classify(self, code: types.CodeType) -> tuple:
        fname = code.co_filename
        layer = self._layer_of_file.get(fname)
        if layer is None and os.path.realpath(fname).startswith(self._mpmath_dir):
            layer = _MPMATH
        fam = self._fam_of_code.get(id(code), -1)
        mod = LAYERS[layer] if layer is not None else "?"
        name = f"{mod}.{code.co_qualname}"
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return (code, layer, fam, idx)

    # -- running ---------------------------------------------------------------

    def _build_hook(self) -> None:
        cache: Dict[int, tuple] = {}
        classify = self._classify
        now = time.perf_counter
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end
        self_time, layer_time = self.self_time, self.layer_time
        fam_calls, fam_time = self.fam_calls, self.fam_time
        phase_time = self.phase_time
        fam_depth = [0] * len(FAMILY_NAMES)
        layer_depth = [0] * len(LAYERS)
        fam_pow, fam_oracle = _FAM["pow"], _FAM["oracle"]
        fam_refine, fam_structure = _FAM["refine"], _FAM["structure"]
        phase_of = _PHASE_OF_FAMILY
        # stack entries: (frame, layer before the call, span index, family, phase)
        stack: list = []
        state = {"layer": _HARNESS, "last": 0.0, "op": -1,
                 "pow_seen": set(), "oracle_seen": set()}
        counts = self.counts

        def on_call(frame, event, arg):
            # the global trace function sees only "call" events; returning
            # None leaves the frame untraced, so only frames that open a
            # span pay for a "return" event
            code = frame.f_code
            info = cache.get(id(code))
            if info is None or info[0] is not code:
                info = cache[id(code)] = classify(code)
            layer, fam = info[1], info[2]
            cur = state["layer"]
            if fam < 0 and (layer is None or layer == cur):
                return None
            t = now()
            self_time[cur] += t - state["last"]
            state["last"] = t
            if layer is None:
                layer = cur
            phase = None
            if fam >= 0:
                if fam_depth[fam] == 0:
                    fam_calls[fam] += 1
                    if fam == fam_pow:
                        key = _pow_key(frame.f_locals)
                        seen = state["pow_seen"]
                        if key in seen:
                            counts["pow_rep"] += 1
                        else:
                            seen.add(key)
                    elif fam == fam_oracle:
                        key = _oracle_key(frame.f_locals)
                        seen = state["oracle_seen"]
                        if key in seen:
                            counts["oracle_rep"] += 1
                        else:
                            seen.add(key)
                    elif fam == fam_structure and stack and stack[-1][3] == fam_refine:
                        counts["refine"] += 1
                fam_depth[fam] += 1
                if cur == _CLI:
                    phase = phase_of.get(fam)
            if layer == _MPMATH and cur == _SCALAR:
                counts["mp"] += 1
            layer_depth[layer] += 1
            idx = len(span_start)
            span_name.append(info[3])
            span_parent.append(stack[-1][2] if stack else -1)
            span_op.append(state["op"])
            span_start.append(t)
            span_end.append(0.0)
            stack.append((frame, cur, idx, fam, phase, layer))
            state["layer"] = layer
            frame.f_trace_lines = False
            return on_event

        def on_event(frame, event, arg):
            if event != "return" or not stack or frame is not stack[-1][0]:
                return on_event
            t = now()
            self_time[state["layer"]] += t - state["last"]
            state["last"] = t
            _, prev, idx, fam, phase, layer = stack.pop()
            span_end[idx] = t
            dur = t - span_start[idx]
            layer_depth[layer] -= 1
            if layer_depth[layer] == 0:
                layer_time[layer] += dur
            if fam >= 0:
                fam_depth[fam] -= 1
                if fam_depth[fam] == 0:
                    fam_time[fam] += dur
            if phase is not None:
                phase_time[phase] += dur
            state["layer"] = prev
            return on_event

        self._hook, self._state, self._stack = on_call, state, stack

    def trace_op(self, op_index: int, fn: Callable[[], Any]) -> Any:
        """Run ``fn()`` as op ``op_index`` under the hook; return its result.

        Repeats of power and oracle arguments are counted within one op."""
        state = self._state
        state["op"] = op_index
        state["pow_seen"] = set()
        state["oracle_seen"] = set()
        state["last"] = time.perf_counter()
        sys.settrace(self._hook)
        try:
            return fn()
        finally:
            sys.settrace(None)
            self.self_time[_HARNESS] += time.perf_counter() - state["last"]
            if self._stack:
                raise RuntimeError("unbalanced spans after an op")

    # -- results ---------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> Dict[str, float]:
        fam = dict(zip(FAMILY_NAMES, self.fam_calls))
        fam_t = dict(zip(FAMILY_NAMES, self.fam_time))
        st = dict(zip(LAYERS, self.self_time))
        out = {
            "scalar_core.pow_calls": fam["pow"],
            "scalar_core.pow_repeat_ratio": (
                self.counts["pow_rep"] / fam["pow"] if fam["pow"] else 0.0
            ),
            "scalar_core.mp_calls": self.counts["mp"],
            "scalar_core.self_s": st["scalar_core"],
            "mpmath.self_s": st["mpmath"],
            "lp_vectors.norm_calls": fam["norm"],
            "lp_vectors.sigma1_calls": fam["sigma1"],
            "lp_vectors.self_s": st["lp_vectors"],
            "presentations.oracle_queries": fam["oracle"],
            "presentations.oracle_repeat_ratio": (
                self.counts["oracle_rep"] / fam["oracle"] if fam["oracle"] else 0.0
            ),
            "presentations.oracle_s": fam_t["oracle"],
            "presentations.backdoor_calls": fam["backdoor"],
            "presentations.self_s": st["presentations"],
            "tree_maps.sigma_tree_calls": fam["sigma_tree"],
            "tree_maps.sigma_pairs": fam["sigma_pair"],
            "tree_maps.validate_calls": fam["validate"],
            "tree_maps.sigma_tree_s": fam_t["sigma_tree"],
            "tree_maps.self_s": st["tree_maps"],
            "extension_engine.extend_calls": fam["extend"],
            "extension_engine.certify_calls": fam["certify"],
            "extension_engine.certify_s": fam_t["certify"],
            "extension_engine.refine_steps": self.counts["refine"],
            "extension_engine.self_s": st["extension_engine"],
            "chain_partition.anm_searches": fam["anm"],
            "chain_partition.stage_queries": fam["stage_query"],
            "chain_partition.s": self.layer_time[_CHAINS],
            "chain_partition.self_s": st["chain_partition"],
            "iso_cli.disintegrate_s": self.phase_time["disintegrate"],
            "iso_cli.chains_s": self.phase_time["chains"],
            "iso_cli.pairwise_s": self.phase_time["pairwise"],
            "iso_cli.emit_s": self.phase_time["emit"],
            "iso_cli.self_s": st["iso_cli"],
            "trace.spans": len(self.span_start),
            "trace.overhead_ratio": overhead_ratio,
        }
        assert list(out) == list(PER_LAYER_METRICS)
        return out

    def write(self, path: str, meta: dict) -> None:
        """Write every span, gzip-compressed: one JSON header line, then the
        span columns as native-endian arrays in the order the header lists."""
        columns = [
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("op", self.span_op),
            ("start", self.span_start),
            ("end", self.span_end),
        ]
        header = {
            "meta": meta,
            "names": self.names,
            "count": len(self.span_start),
            "byteorder": sys.byteorder,
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, col in columns:
                fh.write(col.tobytes())
