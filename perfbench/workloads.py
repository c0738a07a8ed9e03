"""The benchmark's four workloads: seeded inputs, one timed operation, gates.

Every input is a pure function of (workload, seed, index).  Timed inputs and
warm-up inputs come from disjoint spec-seed ranges (non-negative and negative),
so warm-up never normalizes a word the timed loop will see.

A workload exposes:

- ``make_input()`` -- draw the next input from the workload's stream;
- ``prepare(inp, op_id)`` -- untimed preparation; returns the timed operation
  as a zero-argument callable that returns the raw output;
- ``fingerprint(inp, out)`` -- bytes identifying the output;
- ``check(inp, out)`` -- the correctness gate, run outside the timed loop.
"""

from __future__ import annotations

import dataclasses
import random
import socket
import threading

from nakex import attacks, braid, ldops, protocols, session
from nakex.platforms import (
    BraidPlatform,
    InnerEndo,
    SymmetricPlatform,
    centralizer,
    g_commutator,
    g_conj,
)

BRAID_TAGS = ("shifted_commutator", "str_kep", "group_dh", "ko_lee", "f_commutator")
FINITE_TAGS = ("classic_dh", "aag_commutator", "simdcp", "simdcp_alt", "symdp", "f_commutator")
SESSION_TAGS = protocols.PROTOCOL_TAGS

# Fixed input sizes.  At random_spec's defaults the cost of one braid run is
# unbounded in practice (one shifted_commutator run took 10.6 s on a 2-core
# x86 box with the numpy kernels), which no 20-second run can average out.
# shifted_commutator specs are therefore the random_spec draws on B_3, with
# secrets of at most two leaves in-process and one leaf in a session, where
# normalizing the decoded words costs 5-10x more; str_kep uses the exponent 2
# on both sides.  In a session the base braid of group_dh, ko_lee and str_kep
# keeps its first SESSION_BASE_LETTERS letters, which halves the run-to-run
# spread of the session metrics.
SHIFTED_STRANDS = 3
SESSION_BASE_LETTERS = 4
KEX_POLICIES = {
    "shifted_commutator": dict(max_leaves=2, max_depth=1),
    "str_kep": dict(exponent_min=2, exponent_max=2),
}
SESSION_POLICIES = {
    "shifted_commutator": dict(max_leaves=1, max_depth=0),
    "str_kep": dict(exponent_min=2, exponent_max=2),
}


class SpecStream:
    """Seeded random_spec draws, resized to the workload's input sizes."""

    def __init__(self, rng: random.Random, warmup: bool, policies: dict, base_letters=None):
        self.rng = rng
        self.sign = -1 if warmup else 1
        self.policies = policies
        self.base_letters = base_letters

    def _seed(self) -> int:
        value = self.rng.randrange(2**40)
        return -1 - value if self.sign < 0 else value

    def spec(self, tag: str, platform_kind=None) -> protocols.ProtocolSpec:
        while True:
            spec = protocols.random_spec(tag, self._seed())
            if platform_kind is not None and not isinstance(spec.platform, platform_kind):
                continue
            if tag == "shifted_commutator" and spec.platform.strands != SHIFTED_STRANDS:
                continue
            if tag in self.policies:
                policy = dataclasses.replace(spec.policy, **self.policies[tag])
                spec = dataclasses.replace(spec, policy=policy)
            if self.base_letters is not None and tag in ("group_dh", "ko_lee", "str_kep"):
                base = braid.BraidWord(spec.base.strands, spec.base.letters[: self.base_letters])
                spec = dataclasses.replace(spec, base=base)
            return spec


class Workload:
    name = ""
    tracer = None  # set for the traced pass

    def open(self):
        pass

    def close(self):
        pass

    def prepare(self, inp, op_id: int):
        return lambda: self.run(inp)


class KexBraid(Workload):
    name = "kex_braid"
    cycle = BRAID_TAGS
    f_commutator_platform = BraidPlatform  # random_spec draws B_4 or S_n

    def __init__(self, rng: random.Random, warmup: bool):
        self.specs = SpecStream(rng, warmup, KEX_POLICIES)
        self.index = 0

    def make_input(self):
        tag = self.cycle[self.index % len(self.cycle)]
        self.index += 1
        return self.specs.spec(tag, self.f_commutator_platform if tag == "f_commutator" else None)

    def run(self, spec):
        return protocols.run(spec)

    def fingerprint(self, spec, out):
        return spec.tag.encode() + out.extracted_key

    def check(self, spec, out):
        # independent oracle: handle reduction of K_A K_B^-1
        return braid.handle_trivial(braid.concat(out.key_a, braid.invert(out.key_b)))


class KexFinite(KexBraid):
    name = "kex_finite"
    cycle = FINITE_TAGS
    f_commutator_platform = SymmetricPlatform

    def check(self, spec, out):
        platform = protocols.work_platform(spec)
        return platform.eq(out.key_a, out.key_b) and (
            protocols.key_extract(platform, out.key_b) == out.extracted_key
        )


class SessionLoopback(Workload):
    """One session over 127.0.0.1: responder thread plus initiator in the caller.

    The responder thread is started, and waits in accept, before the clock
    starts; the operation ends when both endpoints have returned.
    """

    name = "session_loopback"
    cycle = SESSION_TAGS
    timeout = 30.0

    def __init__(self, rng: random.Random, warmup: bool):
        self.specs = SpecStream(rng, warmup, SESSION_POLICIES, SESSION_BASE_LETTERS)
        self.index = 0
        self.server = None

    def open(self):
        self.server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.server.bind(("127.0.0.1", 0))
        self.server.listen(1)
        self.server.settimeout(self.timeout)
        self.port = self.server.getsockname()[1]

    def close(self):
        if self.server is not None:
            self.server.close()
            self.server = None

    def make_input(self):
        tag = self.cycle[self.index % len(self.cycle)]
        self.index += 1
        return self.specs.spec(tag)

    def prepare(self, spec, op_id: int):
        """Start the responder; returns a callable that runs the initiator."""
        box = {}
        tracer = self.tracer
        cfg_r = session.SessionConfig("responder", spec, port=self.port, timeout=self.timeout)
        cfg_i = session.SessionConfig("initiator", spec, port=self.port, timeout=self.timeout)

        def responder():
            if tracer is not None:
                tracer.set_op(op_id)
            try:
                box["responder"] = session.serve_once(cfg_r, self.server)
            except Exception as exc:  # re-raised by initiate()
                box["error"] = exc

        thread = threading.Thread(target=responder, daemon=True)
        thread.start()

        def initiate():
            try:
                initiator = session.connect_and_run(cfg_i)
            finally:
                thread.join()
            if "error" in box:
                raise box["error"]
            return initiator, box["responder"]

        return initiate

    def fingerprint(self, spec, out):
        initiator, responder = out
        return spec.tag.encode() + initiator.extracted_key + responder.extracted_key

    def check(self, spec, out):
        initiator, responder = out
        expected = protocols.run(spec).extracted_key
        return initiator.extracted_key == expected == responder.extracted_key


# -- laws and attacks ---------------------------------------------------------

LD_SAMPLES = 12        # braid LD triples per verify_ld call
MULTI_LD_SAMPLES = 3   # triples per ordered pair of the bi-LD family
FINITE_SAMPLES = 150   # triples per finite-platform verifier call
LAVER_LEVEL = 4        # exhaustive check of A_4 (16^3 triples)
MEMBERSHIP_LEVEL = 3   # Laver membership search in A_3
MEMBERSHIP_LEAVES = 6
ATTACK_DEGREE = 4      # attacks run on S_4
LENGTH_STRANDS = 4
LENGTH_BUDGET = 8


def _law_ld_shifted(rng):
    return ldops.verify_ld(ldops.shifted_op(1), LD_SAMPLES, rng, braid_len=4)


def _law_ld_shifted_rev(rng):
    return ldops.verify_ld(ldops.shifted_rev_op(1), LD_SAMPLES, rng, braid_len=4)


def _law_bi_ld(rng):
    family = [ldops.shifted_op(1), ldops.shifted_bar_op(1)]
    return ldops.verify_multi_ld(family, MULTI_LD_SAMPLES, rng, braid_len=4)


def _law_conj(rng):
    return ldops.verify_ld(ldops.conj_op(SymmetricPlatform(5)), FINITE_SAMPLES, rng)


def _law_f_conj(rng):
    platform = SymmetricPlatform(5)
    f = InnerEndo(platform, platform.random_element(rng))
    return ldops.verify_ld(ldops.f_conj_op(f), FINITE_SAMPLES, rng)


def _law_twisted(rng):
    platform = SymmetricPlatform(5)
    f = InnerEndo(platform, platform.random_element(rng))
    return ldops.verify_near_ld(ldops.twisted_conj_op(f), f, FINITE_SAMPLES, rng)


def _law_laver(rng):
    return ldops.verify_ld_exhaustive(ldops.laver_op(LAVER_LEVEL))


def _nontrivial_centralizer(platform, gens):
    closure = attacks.subgroup_closure(platform, gens)
    found = tuple(
        c for c in centralizer(platform, closure) if not platform.eq(c, platform.identity())
    )
    return found or (platform.identity(),)


def _attack_bf_csp(rng):
    platform = SymmetricPlatform(ATTACK_DEGREE)
    s, x = platform.random_element(rng), platform.random_element(rng)
    inst = attacks.CSPInstance(s, g_conj(platform, x, s))
    witness = attacks.bf_solve(inst, platform)
    return witness, lambda: witness is not None and attacks.verify_witness(platform, inst, witness)


def _attack_cdp_to_klp(rng):
    platform = SymmetricPlatform(ATTACK_DEGREE)
    a_gens = (platform.random_element(rng),)
    b_gens = _nontrivial_centralizer(platform, a_gens)
    x = rng.choice(attacks.subgroup_closure(platform, a_gens))
    y = rng.choice(attacks.subgroup_closure(platform, b_gens))
    s = platform.random_element(rng)
    inst = attacks.KLPInstance(s, g_conj(platform, x, s), g_conj(platform, y, s), a_gens, b_gens)
    key = attacks.reduce_cdp_to_klp(lambda i: attacks.bf_solve(i, platform), inst, platform)
    return key, lambda: platform.eq(key, g_conj(platform, y, g_conj(platform, x, s)))


def _attack_sscsp_to_aagp(rng):
    platform = SymmetricPlatform(ATTACK_DEGREE)
    a_gens = (platform.random_element(rng),)
    b_gens = _nontrivial_centralizer(platform, a_gens)
    x = rng.choice(attacks.subgroup_closure(platform, a_gens))
    y = rng.choice(attacks.subgroup_closure(platform, b_gens))
    inst = attacks.AAGPInstance(
        a_gens, tuple(g_conj(platform, y, g) for g in a_gens),
        b_gens, tuple(g_conj(platform, x, g) for g in b_gens),
        planted=(x, y),
    )
    result = attacks.reduce_sscsp_to_aagp(lambda i: attacks.bf_solve(i, platform), inst, platform)

    def gate():
        witness_x = attacks.SSCSPInstance(tuple(zip(inst.b_gens, inst.b_conj)), inst.a_gens)
        witness_y = attacks.SSCSPInstance(tuple(zip(inst.a_gens, inst.a_conj)), inst.b_gens)
        return (
            platform.eq(result.key, g_commutator(platform, x, y))
            and attacks.verify_witness(platform, witness_x, result.witness_x)
            and attacks.verify_witness(platform, witness_y, result.witness_y)
        )

    return (result.key, result.witness_x, result.witness_y), gate


def _attack_length(rng):
    op = ldops.shifted_op(1)
    b = braid.random_braid(LENGTH_STRANDS, 1, rng)
    ss = [braid.random_braid(LENGTH_STRANDS, 5, rng) for _ in range(2)]
    inst = attacks.ShCSPInstance(1, op.a, tuple((s, ldops.apply_op(op, b, s)) for s in ss))
    witness = attacks.length_attack_skeleton(inst, budget=LENGTH_BUDGET)
    # best effort: not finding a witness is legitimate, an unverified one is not
    return witness, lambda: witness is None or attacks.verify_witness(
        BraidPlatform(LENGTH_STRANDS), inst, witness
    )


def _attack_laver_membership(rng):
    op = ldops.laver_op(MEMBERSHIP_LEVEL)
    size = ldops.laver_table(MEMBERSHIP_LEVEL).size
    g, target = rng.randint(1, size), rng.randint(1, size)
    tree = attacks.bf_membership_magma(target, [g], [op], MEMBERSHIP_LEAVES)

    def gate():
        expected = target in attacks.submagma_closure(op, [g])
        if tree is None:
            return not expected
        return expected and attacks.verify_witness(
            None, attacks.LDMSPInstance((op,), target, (g,)), tree
        )

    return tree, gate


# (name, callable, kind): laws return a LawVerdict that must pass; attacks
# return (witness, gate), the gate being a callable run outside the timed loop
LAWS_ATTACKS = (
    ("ld_shifted", _law_ld_shifted, "law"),
    ("ld_shifted_rev", _law_ld_shifted_rev, "law"),
    ("bi_ld", _law_bi_ld, "law"),
    ("ld_conj_s5", _law_conj, "law"),
    ("ld_f_conj_s5", _law_f_conj, "law"),
    ("near_ld_twisted_s5", _law_twisted, "law"),
    ("ld_laver_a4", _law_laver, "law"),
    ("bf_csp", _attack_bf_csp, "attack"),
    ("cdp_to_klp", _attack_cdp_to_klp, "attack"),
    ("sscsp_to_aagp", _attack_sscsp_to_aagp, "attack"),
    ("length_attack", _attack_length, "attack"),
    ("laver_membership", _attack_laver_membership, "attack"),
)


class LawsAttacks(Workload):
    name = "laws_attacks"
    cycle = LAWS_ATTACKS

    def __init__(self, rng: random.Random, warmup: bool):
        self.rng = rng
        self.sign = -1 if warmup else 1
        self.index = 0

    def make_input(self):
        entry = self.cycle[self.index % len(self.cycle)]
        self.index += 1
        return entry, self.sign * (1 + self.rng.randrange(2**40))

    def run(self, inp):
        (_name, fn, _kind), op_seed = inp
        return fn(random.Random(op_seed))

    def fingerprint(self, inp, out):
        (name, _fn, kind), _seed = inp
        detail = (out.passed, out.checked) if kind == "law" else out[0]
        return f"{name}:{detail!r}".encode()

    def check(self, inp, out):
        (_name, _fn, kind), _seed = inp
        return bool(out.passed if kind == "law" else out[1]())


WORKLOADS = {
    cls.name: cls for cls in (KexBraid, KexFinite, SessionLoopback, LawsAttacks)
}
