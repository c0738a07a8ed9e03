"""In-memory span tracer that wraps the public functions of each nakex layer.

The tracer is installed only for the traced pass of a benchmark run.  It
replaces every binding of a traced function in the loaded ``nakex`` modules
(a function imported by name into another module is bound there too) and the
``eq`` / ``mul`` methods of the platform classes, and puts the originals back
when the pass ends.

Each span records name, start, end, parent span, operation id and thread.
Self time is a span's duration minus the time its child spans cover.  Only
the outermost call of a recursive function opens a span.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op", "thread")
SPAN_CAP = 100_000  # spans kept in memory; later ones are counted, not kept

# The op kinds the workloads apply, each reported as ldops.apply_op.<kind>.
APPLY_OP_KINDS = (
    "bullet", "conj", "f_conj", "twisted_conj", "shifted", "shifted_bar", "shifted_rev", "laver",
)
_CALLS_SELF = ("calls", "self_s")
# Every span group the wrappers open, and which of its call statistics are
# reported; a group with none is wrapped for a derived metric only.
GROUP_STATS = {
    "braid.normal_form": _CALLS_SELF,
    "braid.canonical_word": _CALLS_SELF,
    "braid.concat": _CALLS_SELF,
    "braid.handle_reduce": _CALLS_SELF,
    "braid.codec": _CALLS_SELF,
    "platforms.eq": _CALLS_SELF,
    "platforms.mul": _CALLS_SELF,
    "platforms.codec": _CALLS_SELF,
    "magma.eval_tree": _CALLS_SELF,
    "magma.push_through": _CALLS_SELF,
    **{f"ldops.apply_op.{kind}": _CALLS_SELF for kind in APPLY_OP_KINDS},
    "ldops.verify": _CALLS_SELF,
    "protocols.run": _CALLS_SELF,
    "protocols.generate_secrets": ("self_s",),
    "protocols.key_extract": ("self_s",),
    "protocols.work_platform": (),
    "session.read_frame": (),
    "session.initiator": (),
    "session.responder": (),
    "attacks.bf_solve": _CALLS_SELF,
    "attacks.closure": ("self_s",),
    "attacks.verify_witness": ("calls",),
    "attacks.length_attack": _CALLS_SELF,
    "attacks.reduce": ("self_s",),
}


class _ThreadState:
    __slots__ = ("stack", "active", "stats", "counters", "op")

    def __init__(self):
        self.stack = []      # open spans: [span id, time covered by children]
        self.active = set()  # traced functions open on this thread
        self.stats = {}      # group -> [calls, self seconds, total seconds]
        self.counters = {}   # counter name -> value
        self.op = -1


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._names: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.seen_words: set = set()

    # -- per-thread state ------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            self._states.append(st)
        return st

    def set_op(self, op_id: int) -> None:
        self._state().op = op_id

    def count(self, name: str, value=1) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + value

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, key: str, group, on_result=None):
        """Wrap ``fn``; ``group`` is a metric prefix or a callable of the args."""
        tracer = self
        clock = time.perf_counter
        ids = self._ids
        names = self._names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            if key in st.active:
                return fn(*args, **kwargs)
            name = group(args) if callable(group) else group
            span_id = next(ids)
            parent = st.stack[-1][0] if st.stack else 0
            frame = [span_id, 0.0]
            st.active.add(key)
            st.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                st.stack.pop()
                st.active.discard(key)
                duration = end - start
                if st.stack:
                    st.stack[-1][1] += duration
                agg = st.stats.get(name)
                if agg is None:
                    agg = st.stats[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration - frame[1]
                agg[2] += duration
                if len(tracer.spans) < SPAN_CAP:
                    idx = names.setdefault(name, len(names))
                    tracer.spans.append(
                        (span_id, idx, start, end, parent, st.op, threading.get_ident())
                    )
                else:
                    tracer.dropped += 1
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def patch_function(self, module, attr: str, group, on_result=None) -> None:
        """Wrap ``module.attr`` and every other binding of it in nakex modules."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, f"{module.__name__}.{attr}", group, on_result)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "nakex" or name.startswith("nakex.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, group, on_result=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, f"{cls.__name__}.{attr}", group, on_result))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        stats: dict[str, list] = {}
        counters: dict[str, float] = {}
        for st in self._states:
            for name, values in st.stats.items():
                agg = stats.setdefault(name, [0, 0.0, 0.0])
                for i, v in enumerate(values):
                    agg[i] += v
            for name, value in st.counters.items():
                counters[name] = counters.get(name, 0) + value
        return stats, counters

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = sorted(self._names, key=self._names.get)
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": SPAN_FIELDS,
                    "names": names,
                    "spans": self.spans,
                    "dropped": self.dropped,
                },
                handle,
                separators=(",", ":"),
            )


# -- the layers ---------------------------------------------------------------


def _letters(x) -> int:
    letters = getattr(x, "letters", None)
    return len(letters) if letters is not None else 0


def _nf_result(tracer: Tracer, args, result) -> None:
    word = args[0]
    tracer.count("braid.normal_form.letters_in", len(word.letters))
    tracer.count("braid.normal_form.factors_out", len(result.factors))
    if word in tracer.seen_words:
        tracer.count("braid.normal_form.repeats")
    else:
        tracer.seen_words.add(word)


def _canonical_result(tracer: Tracer, args, result) -> None:
    tracer.count("braid.canonical_word.letters_in", len(args[0].letters))
    tracer.count("braid.canonical_word.letters_out", len(result.letters))


def _encode_result(tracer: Tracer, args, result) -> None:
    tracer.count("braid.codec.bytes", len(result))


def _decode_result(tracer: Tracer, args, result) -> None:
    offset = args[1] if len(args) > 1 else 0
    tracer.count("braid.codec.bytes", result[1] - offset)


def _push_result(tracer: Tracer, args, result) -> None:
    tracer.count("magma.push_through.letters_out", _letters(result))


def _verify_result(tracer: Tracer, args, result) -> None:
    tracer.count("ldops.verify.checks", result.checked)


def _work_platform_result(tracer: Tracer, args, result) -> None:
    strands = getattr(result, "strands", None)
    if strands is not None:
        tracer.count("protocols.work_platform.braid_calls")
        tracer.count("protocols.work_platform.strands_sum", strands)


def _read_frame_result(tracer: Tracer, args, result) -> None:
    tracer.count("session.frames")
    tracer.count("session.frame_bytes", 5 + len(result[1]))


def _closure_result(tracer: Tracer, args, result) -> None:
    tracer.count("attacks.closure.elements", len(result))


def _witness_result(tracer: Tracer, args, result) -> None:
    tracer.count("attacks.verify_witness.ok", bool(result))


def _length_attack_result(tracer: Tracer, args, result) -> None:
    tracer.count("attacks.length_attack.found", result is not None)


def _apply_op_group(args) -> str:
    return f"ldops.apply_op.{args[0].kind}"


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every nakex layer (not _kernels or cli)."""
    from nakex import attacks, braid, ldops, magma, platforms, protocols, session

    fn = tracer.patch_function
    fn(braid, "normal_form", "braid.normal_form", _nf_result)
    fn(braid, "canonical_word", "braid.canonical_word", _canonical_result)
    fn(braid, "concat", "braid.concat")
    fn(braid, "handle_reduce", "braid.handle_reduce")
    fn(braid, "encode_braid", "braid.codec", _encode_result)
    fn(braid, "decode_braid", "braid.codec", _decode_result)

    for cls in (platforms.BraidPlatform, platforms.SymmetricPlatform, platforms.MultModPlatform):
        tracer.patch_method(cls, "eq", "platforms.eq")
        tracer.patch_method(cls, "mul", "platforms.mul")
    fn(platforms, "encode_element", "platforms.codec")
    fn(platforms, "decode_element", "platforms.codec")

    fn(magma, "eval_tree", "magma.eval_tree")
    fn(magma, "push_through", "magma.push_through", _push_result)

    fn(ldops, "apply_op", _apply_op_group)
    for name in ("verify_ld", "verify_ld_exhaustive", "verify_multi_ld", "verify_near_ld"):
        fn(ldops, name, "ldops.verify", _verify_result)

    fn(protocols, "run", "protocols.run")
    fn(protocols, "generate_secrets", "protocols.generate_secrets")
    fn(protocols, "key_extract", "protocols.key_extract")
    fn(protocols, "work_platform", "protocols.work_platform", _work_platform_result)

    fn(session, "read_frame", "session.read_frame", _read_frame_result)
    fn(session, "connect_and_run", "session.initiator")
    fn(session, "serve_once", "session.responder")

    fn(attacks, "bf_solve", "attacks.bf_solve")
    fn(attacks, "bf_membership_magma", "attacks.bf_solve")
    fn(attacks, "subgroup_closure", "attacks.closure", _closure_result)
    fn(attacks, "submagma_closure", "attacks.closure", _closure_result)
    fn(attacks, "verify_witness", "attacks.verify_witness", _witness_result)
    fn(attacks, "length_attack_skeleton", "attacks.length_attack", _length_attack_result)
    for name in (
        "reduce_cdp_to_klp",
        "reduce_sscsp_to_aagp",
        "reduce_simdp_to_sscsp",
        "reduce_simfcsp_to_simcsp",
        "reduce_simshcsp_to_simcsp",
    ):
        fn(attacks, name, "attacks.reduce")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, sessions: int) -> dict[str, float]:
    """Per-layer metrics by name: the call statistics of every group in
    GROUP_STATS (zero for a group that did not run) and the derived ones.

    Raises ValueError if a span group outside GROUP_STATS ran, so that a
    renamed group or a new op kind cannot go unreported."""
    stats, c = tracer.totals()
    unknown = sorted(set(stats) - set(GROUP_STATS))
    if unknown:
        raise ValueError(f"span groups with no per-layer metric: {unknown}")
    out: dict[str, float] = {}
    for name, wanted in GROUP_STATS.items():
        count, self_s, _total = stats.get(name, (0, 0.0, 0.0))
        if "calls" in wanted:
            out[f"{name}.calls"] = count
        if "self_s" in wanted:
            out[f"{name}.self_s"] = self_s

    def calls(group: str) -> int:
        return stats.get(group, (0, 0.0, 0.0))[0]

    def total_s(group: str) -> float:
        return stats.get(group, (0, 0.0, 0.0))[2]

    out["braid.normal_form.letters_in"] = c.get("braid.normal_form.letters_in", 0)
    out["braid.normal_form.factors_out"] = c.get("braid.normal_form.factors_out", 0)
    out["braid.normal_form.repeat_ratio"] = _ratio(
        c.get("braid.normal_form.repeats", 0), calls("braid.normal_form")
    )
    out["braid.canonical_word.expansion"] = _ratio(
        c.get("braid.canonical_word.letters_out", 0), c.get("braid.canonical_word.letters_in", 0)
    )
    out["braid.codec.bytes"] = c.get("braid.codec.bytes", 0)
    out["magma.push_through.letters_out"] = c.get("magma.push_through.letters_out", 0)
    out["ldops.verify.checks"] = c.get("ldops.verify.checks", 0)
    out["protocols.work_platform.strands"] = _ratio(
        c.get("protocols.work_platform.strands_sum", 0), c.get("protocols.work_platform.braid_calls", 0)
    )
    out["session.frames"] = c.get("session.frames", 0)
    out["session.bytes_per_session"] = _ratio(c.get("session.frame_bytes", 0), sessions)
    out["session.read_frame.wait_s"] = total_s("session.read_frame")
    out["session.initiator.wall_s"] = total_s("session.initiator")
    out["session.responder.wall_s"] = total_s("session.responder")
    out["attacks.closure.elements"] = c.get("attacks.closure.elements", 0)
    out["attacks.verify_witness.ok_ratio"] = _ratio(
        c.get("attacks.verify_witness.ok", 0), calls("attacks.verify_witness")
    )
    out["attacks.length_attack.found_ratio"] = _ratio(
        c.get("attacks.length_attack.found", 0), calls("attacks.length_attack")
    )
    return out
