"""Outside-in tracing of the ybx modules for the traced benchmark run.

The tracer replaces public functions and methods of the imported ``ybx``
modules with thin wrappers, each installed at the name its caller looks it
up by (``ybx.trig.aybe_combine`` for the checks, ``ybx.cli.check_aybe`` for
the suite, ``Tensor3.__mul__`` on the class).  Nothing under ``src/`` is
edited, and ``uninstall`` puts every original object back.

Every wrapped call records one span ``(name, start_ns, end_ns, parent,
structure)`` in memory.  A span's self time is its duration minus the spans
directly below it; the ``layer`` of its site sums those self times into
per-layer seconds.  Counters are computed from the calls' arguments and
results after the span has closed; the time they take is recorded as an
``overhead`` span below the caller, so it is no caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from collections import Counter
from contextlib import contextmanager

OVERHEAD = "overhead"

# contracted index of each factor in a^sa . b^sb for identity-padded
# Tensor2s: the product collapses to a sum over that one shared index
_CONTRACTED = {
    (12, 13): (1, 0),
    (13, 12): (1, 0),
    (12, 23): (3, 0),
    (23, 12): (1, 2),
    (13, 23): (3, 2),
    (23, 13): (3, 2),
}


def pair_terms(a, sa, b, sb) -> int:
    """Multiply-adds of the collapsed contraction a^sa . b^sb."""
    ca, cb = _CONTRACTED[(sa, sb)]
    keys = Counter(idx[cb] for idx, _ in b.items())
    return sum(keys[idx[ca]] for idx, _ in a.items())


def _contract_pairs(name, args):
    if name.endswith("aybe_combine"):
        ra, rb, rc, rd, re, rf = args
        return ((ra, 12, rb, 13), (rc, 23, rd, 12), (re, 13, rf, 23))
    if name.endswith("cybe_residual"):
        x, y, z = args
        return ((x, 12, y, 13), (y, 13, x, 12), (x, 12, z, 23),
                (z, 23, x, 12), (y, 13, z, 23), (z, 23, y, 13))
    return (tuple(args),)  # pair_embed_product(a, sa, b, sb)


def _dense_slots(result) -> int:
    return result.n ** 6 if type(result).__name__ == "Tensor3" else 0


# -- counters, run after the span of the call has closed ------------------------


def _count_contract(tracer, name, args, result):
    c = tracer.counts
    c["tensors.pair_terms"] += sum(pair_terms(*p) for p in _contract_pairs(name, args))
    c["tensors.dense_slots"] += _dense_slots(result)


def _count_triple(tracer, name, args, result):
    tracer.counts["tensors.dense_slots"] += _dense_slots(result)


def _count_eval(tracer, name, args, result):
    if _eval_layer(args) == "trig.eval" and tracer.structure not in tracer.nnz_seen:
        tracer.nnz_seen.add(tracer.structure)
        tracer.counts["trig.r_nnz"] += sum(1 for _ in result.items())


def _count_draws(tracer, name, args, result):
    tracer.counts["scalars.draws_used"] += len(result)


def _count_families(tracer, name, args, result):
    tracer.counts["massey.families"] += len(result.breakdown)


def _eval_layer(args):
    return "jets.eval" if type(args[1]).__name__ == "JetRing" else "trig.eval"


# (module, attribute path, layer or layer(args), counter after the call)
SITES = [
    ("scalars", "PrimeField.sample", "scalars.sample", None),
    ("scalars", "RationalField.sample", "scalars.sample", None),
    ("trig", "TrigSolution.eval", _eval_layer, _count_eval),
    ("trig", "TrigSolution.__init__", "trig.build", None),
    ("trig", "check_aybe", "trig.driver", None),
    ("trig", "check_skew", "trig.driver", None),
    ("trig", "check_cybe", "trig.driver", None),
    ("trig", "check_strong_nondegeneracy", "trig.driver", None),
    ("trig", "qybe_unitarity", "trig.driver", None),
    ("trig", "residues", "trig.driver", None),
    ("trig", "r0_tensor", "trig.driver", None),
    ("trig", "_pole_free", "trig.driver", _count_draws),
    ("trig", "exp_jet", "jets.exp_jet", None),
    ("trig", "aybe_combine", "tensors.contract", _count_contract),
    ("trig", "cybe_residual", "tensors.contract", _count_contract),
    ("trig", "pair_embed_product", "tensors.contract", _count_contract),
    ("trig", "embed_triple", "tensors.triple_mul", _count_triple),
    ("trig", "transposition_p", "tensors.pair_ops", None),
    ("trig", "validate_abd", "perms.validate", None),
    ("tensors", "Tensor3.__mul__", "tensors.triple_mul", _count_triple),
    ("tensors", "Tensor3.is_zero", "tensors.zero_test", None),
    ("tensors", "Tensor2.is_zero", "tensors.zero_test", None),
    ("tensors", "Tensor2.__mul__", "tensors.pair_ops", None),
    ("tensors", "Tensor2.__add__", "tensors.pair_ops", None),
    ("tensors", "Tensor2.flip", "tensors.pair_ops", None),
    ("tensors", "Tensor2.transpose", "tensors.pair_ops", None),
    ("tensors", "Tensor2.scale", "tensors.pair_ops", None),
    ("tensors", "Tensor2.project_sl", "tensors.pair_ops", None),
    ("tensors", "Tensor2.unit", "tensors.pair_ops", None),
    ("tensors", "transposition_p", "tensors.pair_ops", None),
    ("tensors", "Tensor2.tensor_rank", "tensors.det", None),
    ("tensors", "Tensor2.__eq__", "tensors.compare", None),
    ("tensors", "Tensor3.__eq__", "tensors.compare", None),
    ("perms", "validate_abd", "perms.validate", None),
    ("catalog", "acceptance_corpus", "catalog.enumerate", None),
    ("catalog", "suite_catalog", "catalog.enumerate", None),
    ("catalog", "corpus", "catalog.enumerate", None),
    ("catalog", "enumerate_structures", "catalog.enumerate", None),
    ("surface", "puncture_analysis", "surface.build", None),
    ("surface", "topological_invariants", "surface.build", None),
    ("bundles", "random_simple_bundle", "bundles.chain", None),
    ("bundles", "abd_of_bundle", "bundles.chain", None),
    ("bundles", "is_power_of", "bundles.chain", None),
    ("cli", "emit", "cli.emit", None),
    ("cli", "massey_tensor", "massey.tensor", _count_families),
    ("cli", "build_surface", "surface.build", None),
    ("cli", "check_aybe", "trig.driver", None),
    ("cli", "check_skew", "trig.driver", None),
    ("cli", "residues", "trig.driver", None),
    ("cli", "transposition_p", "tensors.pair_ops", None),
    ("cli", "validate_abd", "perms.validate", None),
]


class Tracer:
    """Span recorder plus the wrappers it installs on the ybx modules."""

    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent, structure)
        self.stack = []
        self.structure = 0
        self.counts = Counter()
        self.nnz_seen = set()
        # span name -> layer; TrigSolution.eval names its span by its ring
        self.layer_of = {"trig.eval": "trig.eval", "jets.eval": "jets.eval"}
        self.installed = []      # (owner, attribute, original raw object)
        self.missing = []        # sites the imported ybx does not have

    # -- spans recorded by the benchmark itself ----------------------------------

    def new_structure(self):
        self.structure += 1

    @contextmanager
    def span(self, name):
        spans, stack = self.spans, self.stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[index] = (name, start, end, parent, self.structure)

    # -- wrappers -------------------------------------------------------------------

    def _wrap(self, fn, name, layer, after, before=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        pick = layer if callable(layer) else None
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before()
            span_name = pick(args) if pick is not None else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, start, end, parent, tracer.structure)
            if after is not None:
                t0 = clock()
                after(tracer, name, args, result)
                spans.append((OVERHEAD, t0, clock(), parent, tracer.structure))
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, ybx):
        """Wrap every site of ``SITES`` that the imported ``ybx`` has."""
        for module, path, layer, after in SITES:
            name = "ybx.%s.%s" % (module, path)
            owner, attr, raw = _site(ybx, module, path)
            if raw is None:
                self.missing.append(name)
                continue
            self.layer_of[name] = None if callable(layer) else layer
            before = self.new_structure if path == "TrigSolution.__init__" else None
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, layer, after, before))
            else:
                new = self._wrap(raw, name, layer, after, before)
            setattr(owner, attr, new)
            self.installed.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self.installed):
            setattr(owner, attr, raw)
        self.installed.clear()

    # -- aggregation -------------------------------------------------------------------

    def self_seconds(self, lo=0, hi=None):
        """Self seconds per layer over ``spans[lo:hi]`` (a closed region)."""
        spans = self.spans[lo:hi]
        child = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= lo:
                child[parent - lo] += end - start
        out = Counter()
        layer_of = self.layer_of
        for (name, start, end, _, _), below in zip(spans, child):
            layer = layer_of.get(name)
            if layer is not None:
                out[layer] += (end - start - below) / 1e9
        return out

    def layers(self):
        return {layer for layer in self.layer_of.values() if layer is not None}

    def calls(self, lo=0, hi=None):
        """Wrapped calls per layer in ``spans[lo:hi]``."""
        out = Counter()
        for name, *_ in self.spans[lo:hi]:
            layer = self.layer_of.get(name)
            if layer is not None:
                out[layer] += 1
        return out

    def write(self, path):
        """Write every span as one tab-separated gzip line."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tstructure\n")
            for i, (name, start, end, parent, structure) in enumerate(self.spans):
                fh.write("%d\t%s\t%d\t%d\t%d\t%d\n" % (i, name, start, end, parent, structure))


def _site(ybx, module, path):
    """(owner, attribute, raw object) of a site; raw is None when absent."""
    owner = getattr(ybx, module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
    return owner, attr, raw


def is_pristine(ybx) -> bool:
    """True when no site of ``SITES`` holds a tracer wrapper."""
    for module, path, _, _ in SITES:
        raw = _site(ybx, module, path)[2]
        if isinstance(raw, classmethod):
            raw = raw.__func__
        if hasattr(raw, "__wrapped__"):
            return False
    return True
