"""In-memory spans and counters around the public functions of each su21
layer, installed from outside the package.

Each wrapped name is replaced everywhere it is bound (its defining module
and every su21 module that imported it), so a call made through any import
path is seen.  Methods are wrapped on their class.  A name that no longer
exists is reported as absent, so a refactor that renames or deletes a stage
empties that stage's metrics instead of breaking the benchmark.
"""

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter

# Spans: (module, attribute path).  The span is named "<module>.<path>".
SPANS = (
    ("fpgroup", "upsilon_presentation"),
    ("fpgroup", "reidemeister_schreier"),
    ("fpgroup", "Presentation.__init__"),
    ("matgroup", "SubgroupSpec.membership"),
    ("cocycle", "sigma"),
    ("cocycle", "sigma_at"),
    ("cocycle", "cover_mul"),
    ("weightdenom", "relation_matrix"),
    ("weightdenom", "weight_denominator"),
    ("weightdenom", "weight_denominator_of"),
    ("zlinalg", "hermite_normal_form"),
    ("zlinalg", "smith_normal_form"),
    ("zlinalg", "order_of_last_coordinate"),
    ("zlinalg", "cokernel_invariants"),
    ("gendecomp", "decompose"),
)

# Called far too often for a span each: counted only.
COUNTED = (("matgroup", "GroupMatrix.__mul__"),)

# Observation done by the tracer inside a span; its own span keeps it out of
# the layer's self time.
OBSERVE = "trace.observe"

# Per-layer metrics: name -> (unit, better, the wrapped name it needs).  A
# metric whose name is missing from su21 reads 0 and is listed as absent.
LAYER_METRICS = {
    "fpgroup.presentation_s": ("s", "lower", "fpgroup.Presentation.__init__"),
    "fpgroup.presentation_calls": ("count", "lower", "fpgroup.Presentation.__init__"),
    "fpgroup.enumerate_self_s": ("s", "lower", "fpgroup.reidemeister_schreier"),
    "fpgroup.cosets": ("count", "lower", "fpgroup.reidemeister_schreier"),
    "fpgroup.schreier_generators": ("count", "lower", "fpgroup.reidemeister_schreier"),
    "fpgroup.relators": ("count", "lower", "fpgroup.reidemeister_schreier"),
    "matgroup.membership_calls": ("count", "lower", "matgroup.SubgroupSpec.membership"),
    "matgroup.membership_s": ("s", "lower", "matgroup.SubgroupSpec.membership"),
    "matgroup.membership_hit_ratio": ("ratio", "higher", "fpgroup.reidemeister_schreier"),
    "matgroup.mul_calls": ("count", "lower", "matgroup.GroupMatrix.__mul__"),
    "cocycle.sigma_calls": ("count", "lower", "cocycle.sigma"),
    "cocycle.sigma_s": ("s", "lower", "cocycle.sigma"),
    "cocycle.sigma_at_per_sigma": ("ratio", "lower", "cocycle.sigma_at"),
    "cocycle.max_residual": ("1", "lower", "cocycle.sigma_at"),
    "cocycle.failures": ("count", "lower", "cocycle.sigma"),
    "cocycle.cover_mul_calls": ("count", "lower", "cocycle.cover_mul"),
    "weightdenom.relation_matrix_self_s": ("s", "lower", "weightdenom.relation_matrix"),
    "weightdenom.matrix_rows": ("count", "lower", "weightdenom.relation_matrix"),
    "weightdenom.matrix_cols": ("count", "lower", "weightdenom.relation_matrix"),
    "zlinalg.hnf_calls": ("count", "lower", "zlinalg.hermite_normal_form"),
    "zlinalg.hnf_s": ("s", "lower", "zlinalg.hermite_normal_form"),
    "zlinalg.snf_s": ("s", "lower", "zlinalg.smith_normal_form"),
    "zlinalg.snf_rows": ("count", "lower", "zlinalg.smith_normal_form"),
    "zlinalg.max_abs_entry": ("count", "lower", "zlinalg.hermite_normal_form"),
    "gendecomp.decompose_s": ("s", "lower", "gendecomp.decompose"),
    "gendecomp.word_len_p50": ("letters", "lower", "gendecomp.decompose"),
    "trace.wall_s": ("s", "lower", None),
    "trace.overhead_frac": ("ratio", "lower", None),
    "trace.unattributed_s": ("s", "lower", None),
}


def _max_abs(rows):
    return max((abs(v) for row in rows for v in row), default=0)


def _observe_schreier(obs, args, result):
    presentation, graph = result
    obs["cosets"] += graph.index
    obs["edges"] += len(graph.edges)
    obs["schreier_generators"] += presentation.generator_count
    obs["relators"] += len(presentation.relators)


def _observe_relation_matrix(obs, args, result):
    obs["matrix_rows"] = max(obs["matrix_rows"], result.rows)
    obs["matrix_cols"] = max(obs["matrix_cols"], result.cols)


def _observe_hnf(obs, args, result):
    entry = max(_max_abs(args[0].entries), _max_abs(result.entries))
    obs["max_abs_entry"] = max(obs["max_abs_entry"], entry)


def _observe_snf(obs, args, result):
    obs["snf_rows"] = max(obs["snf_rows"], args[0].rows)
    entry = max(_max_abs(args[0].entries), max(result, default=0))
    obs["max_abs_entry"] = max(obs["max_abs_entry"], entry)


def _observe_sigma_at(obs, args, result):
    obs["max_residual"] = max(obs["max_residual"], float(result[1]))


def _observe_decompose(obs, args, result):
    obs.setdefault("word_lengths", []).append(len(result))


OBSERVERS = {
    "fpgroup.reidemeister_schreier": _observe_schreier,
    "weightdenom.relation_matrix": _observe_relation_matrix,
    "zlinalg.hermite_normal_form": _observe_hnf,
    "zlinalg.smith_normal_form": _observe_snf,
    "cocycle.sigma_at": _observe_sigma_at,
    "gendecomp.decompose": _observe_decompose,
}


def loaded_modules():
    """Every loaded su21 module by its name inside the package."""
    return {
        name.partition(".")[2] or "": module
        for name, module in list(sys.modules.items())
        if name == "su21" or name.startswith("su21.")
    }


class Tracer:
    """Spans and counts for one pass of a workload over freshly imported
    su21 modules.  Wrappers are installed on those modules only, so the
    next fresh import starts untraced.

    Span times are read as perf_counter() - clock.busy, which leaves out
    the time the speed probe's samples take."""

    def __init__(self, clock):
        self.clock = clock
        # span record: [name, start, end, parent index, input id, raised]
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.observed = Counter()
        self.absent = []
        self.broken = set()
        self.input_id = None

    def install(self, modules):
        for module_name, path in SPANS + COUNTED:
            name = "%s.%s" % (module_name, path)
            owner_name, _, attr = path.rpartition(".")
            owner = modules.get(module_name)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if (module_name, path) in COUNTED:
                wrapper = self._counter(name, original)
            else:
                wrapper = self._span(name, original, OBSERVERS.get(name))
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn, observer):
        spans = self.spans
        stack = self.stack
        observed = self.observed
        broken = self.broken
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, perf_counter() - clock.busy, None,
                      stack[-1] if stack else None, self.input_id, False]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if observer is not None and name not in broken:
                    watch = [OBSERVE, perf_counter() - clock.busy, None, index,
                             self.input_id, False]
                    spans.append(watch)
                    try:
                        observer(observed, args, result)
                    except (AttributeError, TypeError, ValueError, IndexError):
                        # the layer's return type changed: report it absent
                        broken.add(name)
                    finally:
                        watch[2] = perf_counter() - clock.busy
                return result
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = perf_counter() - clock.busy
                stack.pop()

        return wrapper

    def layer_metrics(self, wall_s, untraced_wall_s, scale):
        """(metrics, per-span summary) of the traced pass, whose operations
        took wall_s calibrated seconds (untraced_wall_s without the tracer).
        Span times are multiplied by scale, the pass's calibration factor."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += (end - start) * scale
        total = Counter()
        own = Counter()
        calls = Counter()
        raised = Counter()
        rooted = 0.0
        for index, (name, start, end, parent, _, failed) in enumerate(spans):
            duration = (end - start) * scale
            total[name] += duration
            own[name] += duration - child_time[index]
            calls[name] += 1
            raised[name] += failed
            if parent is None:
                rooted += duration
        obs = self.observed
        sigma_calls = calls["cocycle.sigma"]
        membership_calls = calls["matgroup.SubgroupSpec.membership"]
        lengths = obs.get("word_lengths") or [0]
        values = {
            "fpgroup.presentation_s": total["fpgroup.Presentation.__init__"],
            "fpgroup.presentation_calls": calls["fpgroup.Presentation.__init__"],
            "fpgroup.enumerate_self_s": own["fpgroup.reidemeister_schreier"],
            "fpgroup.cosets": obs["cosets"],
            "fpgroup.schreier_generators": obs["schreier_generators"],
            "fpgroup.relators": obs["relators"],
            "matgroup.membership_calls": membership_calls,
            "matgroup.membership_s": total["matgroup.SubgroupSpec.membership"],
            "matgroup.membership_hit_ratio": (
                obs["edges"] / membership_calls if membership_calls else 0.0
            ),
            "matgroup.mul_calls": self.counts["matgroup.GroupMatrix.__mul__"],
            "cocycle.sigma_calls": sigma_calls,
            "cocycle.sigma_s": total["cocycle.sigma"],
            "cocycle.sigma_at_per_sigma": (
                calls["cocycle.sigma_at"] / sigma_calls if sigma_calls else 0.0
            ),
            "cocycle.max_residual": obs["max_residual"],
            "cocycle.failures": raised["cocycle.sigma"],
            "cocycle.cover_mul_calls": calls["cocycle.cover_mul"],
            "weightdenom.relation_matrix_self_s": own["weightdenom.relation_matrix"],
            "weightdenom.matrix_rows": obs["matrix_rows"],
            "weightdenom.matrix_cols": obs["matrix_cols"],
            "zlinalg.hnf_calls": calls["zlinalg.hermite_normal_form"],
            "zlinalg.hnf_s": total["zlinalg.hermite_normal_form"],
            "zlinalg.snf_s": total["zlinalg.smith_normal_form"],
            "zlinalg.snf_rows": obs["snf_rows"],
            "zlinalg.max_abs_entry": obs["max_abs_entry"],
            "gendecomp.decompose_s": total["gendecomp.decompose"],
            "gendecomp.word_len_p50": statistics.median(lengths),
            "trace.wall_s": wall_s,
            "trace.overhead_frac": wall_s / untraced_wall_s - 1.0,
            "trace.unattributed_s": wall_s - rooted,
        }
        for metric in self.absent_metrics():
            values[metric] = 0
        summary = {
            name: (calls[name], total[name], own[name]) for name in sorted(calls)
        }
        return values, summary

    def absent_metrics(self):
        missing = set(self.absent) | self.broken
        return [m for m, (_, _, needs) in LAYER_METRICS.items() if needs in missing]
