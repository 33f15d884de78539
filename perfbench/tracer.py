"""Span tracing from outside the package.

Installing a Tracer rebinds every public function of the traced modules,
in the module that defines it and in every package module that imported
it by name (so `qompress.schemes.apply` is traced as `qstate.apply`), and
wraps the `__post_init__` validators of Unitary, ModeUnitary and
PureState. Each call records a span (name, start, end, parent, size tag)
in flat arrays; self time is computed once the run is over.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

TRACED_MODULES = ("qstate", "optics", "mcz", "schemes", "compress", "cli")

# functions whose self time is reported under a layer metric other than
# their own module's default
_GROUP = {
    "qstate.gram_schmidt_complement": "mcz.flag_unitary",
    "mcz.ancilla_flag_unitary": "mcz.flag_unitary",
    "mcz.prepare_ancillas": "mcz.prepare_ancillas",
    "mcz.trigger_pattern": "mcz.prepare_ancillas",
    "mcz.bell_measurement": "mcz.bell_measurement",
    "mcz.bell_vector": "mcz.bell_measurement",
    "mcz.correction_unitary": "mcz.correction",
    "optics.route_with_ancilla": "optics.route",
    "optics.pair_swap_mesh": "optics.route",
    "optics.build_smr_mesh": "optics.route",
    "optics.evolve_two_photon": "optics.route",
    "optics.smr_abstract": "optics.route",
    "optics.postselect_coincidence": "optics.postselect",
    "optics.ModeUnitary.__post_init__": "optics.mode_unitary_check",
    "qstate.Unitary.__post_init__": "qstate.unitary_check",
    "qstate.PureState.__post_init__": "qstate.pure_state",
    "qstate.apply": "qstate.apply",
    "qstate.tensor": "qstate.other",
    "qstate.permute_subsystems": "qstate.other",
    "qstate.truncate_subsystem": "qstate.other",
    "qstate.fidelity_up_to_phase": "qstate.other",
    "qstate.random_state": "qstate.other",
    "qstate.hadamard": "qstate.other",
    "schemes.run_state_dependent": "schemes.sd",
    "schemes.run_state_independent_joint": "schemes.si",
    "schemes.run_state_independent": "schemes.si",
    "schemes.trigger_flag_unitary": "schemes.si",
    "schemes.verified_two_level_cz": "schemes.si",
    "compress.parse_circuit": "compress.parse",
    "compress.parse_layout": "compress.parse",
    "compress.cost_report": "compress.cost_report",
    "compress.classify_gates": "compress.classify_gates",
    "compress.simulate_compressed": "compress.simulate",
}

DIM_BUCKETS = ((16, "dim_le16"), (64, "dim_le64"), (256, "dim_le256"))


def dim_bucket(dim: int) -> str:
    for top, name in DIM_BUCKETS:
        if dim <= top:
            return name
    return "dim_gt256"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[str] = []
        self._tag_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._tag = -1
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _id(self, table: dict, items: list, key: str) -> int:
        i = table.get(key)
        if i is None:
            i = table[key] = len(items)
            items.append(key)
        return i

    def set_tag(self, tag: str):
        self._tag = self._id(self._tag_ids, self.tags, tag)

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._id(self._name_ids, self.names, name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.tag.append(self._tag)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int):
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name, fn, after=None):
        """`name` is a string or a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(args, result)
            return result

        return traced

    # ------------------------------------------------------------ install

    def _hooks(self) -> dict:
        def amps(args, _):
            self.count("qstate.amps_bytes", args[0].amps.nbytes)

        def coincidence(_, result):
            self.count("optics.kept_mass", result[1])

        def herald(_, outcomes):
            self.count("mcz.herald_mass", sum(o.probability for o in outcomes if o.label != "fail"))

        def two_level(_, result):
            self.count("schemes.two_level_gates", result.nonlocal_gate_count)

        return {
            "qstate.PureState.__post_init__": amps,
            "optics.postselect_coincidence": coincidence,
            "mcz.bell_measurement": herald,
            "schemes.run_state_independent_joint": two_level,
        }

    def install(self, package):
        hooks = self._hooks()
        modules = [getattr(package, m) for m in TRACED_MODULES]
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                full = f"{short}.{attr}"
                name = full
                if full == "mcz.multi_level_cz":
                    def name(args, kwargs):
                        return f"mcz.multi_level_cz.{dim_bucket(args[0] * args[1])}"
                replaced[id(obj)] = (obj, self.wrap(name, obj, hooks.get(full)))
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for owner, cls in (("qstate", "Unitary"), ("optics", "ModeUnitary"), ("qstate", "PureState")):
            klass = getattr(getattr(package, owner), cls)
            full = f"{owner}.{cls}.__post_init__"
            original = klass.__dict__["__post_init__"]
            self._undo.append((klass, "__post_init__", original))
            klass.__post_init__ = self.wrap(full, original, hooks.get(full))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------ results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), tags=np.array(self.tags),
                            **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the part covered by its children, in ns."""
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


def layer_of(name: str) -> str:
    """The layer metric a span's self time is reported under."""
    if name.startswith("mcz.multi_level_cz."):
        return name
    return _GROUP.get(name, name)


# size buckets of the scaling view: register dim (pipeline), qubits
# (truth-table), gates (pricing)
SIZE_TAGS = ("dim2", "dim4", "dim8", "dim16", "q6", "q8", "g100", "g300", "g1000")


def per_layer(tracer: Tracer, passes, overhead: float, extra: dict) -> tuple[dict, list[str]]:
    """The per-layer metrics, per traced pass, and the self-check result.

    `passes` holds (first span, end span, counters before, counters after,
    wall seconds) per traced pass; `extra` carries the cli timings."""
    spans = tracer.arrays()
    self_ns = self_times(spans)
    names = tracer.names
    layer = np.array([layer_of(n) for n in names])
    module = np.array([n.split(".", 1)[0] for n in names])
    n_names = len(names)

    per_pass_counts = []
    sums = {"count": {}, "wall": 0.0, "spans": 0}
    for first, last, c0, c1, wall in passes:
        ids = spans["name"][first:last]
        counts = np.bincount(ids, minlength=n_names)
        counters = {k: c1.get(k, 0.0) - c0.get(k, 0.0) for k in c1}
        per_pass_counts.append((
            {names[i]: int(c) for i, c in enumerate(counts) if c},
            {k: counters.get(k, 0.0) for k in ("qstate.amps_bytes", "schemes.two_level_gates")},
        ))
        sums["wall"] += wall
        sums["spans"] += last - first
        for key, value in counters.items():
            sums["count"][key] = sums["count"].get(key, 0.0) + value
    problems = [f"pass {i} counts differ from pass 0"
                for i, c in enumerate(per_pass_counts) if c != per_pass_counts[0]]

    n = len(passes)
    lo, hi = passes[0][0], passes[-1][1]
    ids = spans["name"][lo:hi]
    tags = spans["tag"][lo:hi]
    selfs = self_ns[lo:hi] / 1e9
    counts, kept = per_pass_counts[0]

    def calls(name):
        return counts.get(name, 0)

    def self_of(layer_name):
        return float(selfs[layer[ids] == layer_name].sum()) / n

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["qstate.unitary_check.calls"] = calls("qstate.Unitary.__post_init__")
    m["qstate.unitary_check.s"] = self_of("qstate.unitary_check")
    m["qstate.apply.calls"] = calls("qstate.apply")
    m["qstate.apply.self_s"] = self_of("qstate.apply")
    m["qstate.other.self_s"] = self_of("qstate.other")
    m["qstate.pure_state.calls"] = calls("qstate.PureState.__post_init__")
    m["qstate.pure_state.s"] = self_of("qstate.pure_state")
    m["qstate.amps_bytes"] = kept["qstate.amps_bytes"]
    m["optics.route.calls"] = calls("optics.route_with_ancilla")
    m["optics.route.self_s"] = self_of("optics.route")
    m["optics.postselect.self_s"] = self_of("optics.postselect")
    m["optics.mode_unitary_check.s"] = self_of("optics.mode_unitary_check")
    m["optics.coincidence_ratio"] = ratio(sums["count"].get("optics.kept_mass", 0.0) / n,
                                          calls("optics.postselect_coincidence"))
    for _, bucket in (*DIM_BUCKETS, (None, "dim_gt256")):
        m[f"mcz.multi_level_cz.calls.{bucket}"] = calls(f"mcz.multi_level_cz.{bucket}")
        m[f"mcz.multi_level_cz.self_s.{bucket}"] = self_of(f"mcz.multi_level_cz.{bucket}")
    m["mcz.flag_unitary.self_s"] = self_of("mcz.flag_unitary")
    m["mcz.prepare_ancillas.self_s"] = self_of("mcz.prepare_ancillas")
    m["mcz.bell_measurement.self_s"] = self_of("mcz.bell_measurement")
    m["mcz.correction.self_s"] = self_of("mcz.correction")
    m["mcz.herald_ratio"] = ratio(sums["count"].get("mcz.herald_mass", 0.0) / n,
                                  calls("mcz.bell_measurement"))
    m["schemes.sd.self_s"] = self_of("schemes.sd")
    m["schemes.si.self_s"] = self_of("schemes.si")
    m["schemes.two_level_gates"] = kept["schemes.two_level_gates"]
    m["compress.parse.self_s"] = self_of("compress.parse")
    m["compress.cost_report.self_s"] = self_of("compress.cost_report")
    m["compress.classify_gates.calls_per_report"] = ratio(
        calls("compress.classify_gates"), calls("compress.cost_report"))
    m["compress.classify_gates.self_s"] = self_of("compress.classify_gates")
    m["compress.trigger_sets.calls"] = calls("compress.trigger_sets")
    m["compress.simulate.self_s"] = self_of("compress.simulate")
    for cmd in ("verify", "compress", "reproduce"):
        m[f"cli.main_s.{cmd}"] = extra.get(f"cli.main_s.{cmd}", 0.0)
    for cmd in ("verify", "compress", "reproduce", "import"):
        m[f"cli.startup_s.{cmd}"] = extra.get(f"cli.startup_s.{cmd}", 0.0)

    # scaling view: package self time per operation, by size bucket
    op_id = names.index("harness.op")
    for tag in SIZE_TAGS:
        in_tag = tags == (tracer.tags.index(tag) if tag in tracer.tags else -2)
        ops = int(np.count_nonzero(in_tag & (ids == op_id)))
        for mod in ("qstate", "optics", "mcz", "schemes", "compress"):
            busy = float(selfs[in_tag & (module[ids] == mod)].sum())
            m[f"bysize.{tag}.{mod}_ms_per_op"] = ratio(1000.0 * busy, ops)

    harness = float(selfs[module[ids] == "harness"].sum()) / n
    wall = sums["wall"] / n
    m["trace.wall_s"] = wall
    m["trace.harness_s"] = harness
    m["trace.unattributed_frac"] = 1.0 - float(selfs.sum()) / n / wall
    m["trace.overhead_frac"] = overhead
    m["trace.spans_per_pass"] = sums["spans"] / n
    return m, problems
