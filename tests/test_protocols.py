import hashlib
import json
import random
import warnings
from dataclasses import replace
from functools import cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endo_utils import inner_point_map
from nakex import braid as B
from nakex import ldops as L
from nakex import protocols as P
from nakex.braid import BraidWord
from nakex.platforms import (
    BraidPlatform,
    IdentityEndo,
    MultModPlatform,
    PlatformMismatch,
    PowerShiftEndo,
    SymmetricPlatform,
    encode_element,
    g_commutator,
)

S4 = SymmetricPlatform(4)
S5 = SymmetricPlatform(5)

# sha256 over transcript_to_json(run(random_spec(tag, s))), s = 0..19, for the
# finite-platform tags (f_commutator: its draws on S_n); recorded before
# permutation products stopped re-checking their images.
FINITE_TAGS = ("classic_dh", "aag_commutator", "simdcp", "simdcp_alt", "symdp", "f_commutator")
GOLDEN_FINITE_DIGEST = "5852848fe835ae1934eb1273e8880d218fcca8917a2a6882afeebdb275f44cd6"
# The same digest over the braid-platform draws (f_commutator: its draws on B_n);
# recorded before the unused spec-builder parameters became constants.
BRAID_TAGS = ("group_dh", "ko_lee", "str_kep", "shifted_commutator", "f_commutator")
GOLDEN_BRAID_DIGEST = "f77a85c7a98ddeeedd7e604a25dc374df4c45990d884a8acaa9df2deec84ade2"
# sha256 over spec_to_json(random_spec(tag, s)) for every tag, s = 0..199;
# recorded before random_spec stopped building the S_n platforms it discards.
GOLDEN_SPEC_DRAW_DIGEST = "4e41e68ff01d387e6f73f78d553b34e8e5ed39541c43242fec443edb37a0e15e"


def run_quiet(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", P.WeakKeyWarning)
        return P.run(spec)


# -- classic DH -----------------------------------------------------------------


def test_classic_dh_vector():
    # independent oracle: modular exponentiation
    p, g, k, l = 23, 5, 6, 15
    assert pow(g, k, p) == 8 and pow(g, l, p) == 19 and pow(pow(g, l, p), k, p) == 2
    spec = P.make_classic_dh(p, g, k=k, l=l, seed=7)
    t = P.run(spec)
    assert t.alice_messages == (8,)
    assert t.bob_messages == (19,)
    assert t.key_a == 2 and t.key_b == 2


def test_classic_dh_random_matches_pow():
    for seed in range(20):
        spec = P.random_spec("classic_dh", seed)
        t = P.run(spec)
        ska, skb = P.generate_secrets(spec)
        p = spec.platform.modulus
        assert t.key_a == pow(spec.base, ska.exponents[0] * skb.exponents[0], p)


# -- commutator schemes ------------------------------------------------------------


def test_aag_commutator_on_abelian_platform_is_trivial():
    platform = MultModPlatform(23)
    spec = P.make_aag_commutator(platform, (5, 7), (2, 11), seed=3)
    t = run_quiet(spec)
    assert t.key_a == 1


def test_aag_commutator_matches_direct_computation():
    for seed in range(20):
        spec = P.random_spec("aag_commutator", seed)
        t = run_quiet(spec)
        ska, skb = P.generate_secrets(spec)
        a, b = ska.elements[0], skb.elements[0]
        platform = spec.platform
        assert platform.eq(t.key_a, g_commutator(platform, a, b))


def test_f_commutator_identity_f_gives_plain_commutator():
    f = IdentityEndo(S4)
    rng = random.Random(50)
    gens_s = tuple(S4.random_element(rng) for _ in range(2))
    gens_t = tuple(S4.random_element(rng) for _ in range(2))
    spec = P.make_f_commutator(f, gens_s, gens_t, seed=11)
    t = run_quiet(spec)
    ska, skb = P.generate_secrets(spec)
    assert S4.eq(t.key_a, g_commutator(S4, ska.elements[0], skb.elements[0]))


def test_f_commutator_identity_generators_give_identity_key():
    # trees over identity generators evaluate to identity secrets, and
    # [e, e]_f = e
    f = IdentityEndo(S4)
    e = S4.identity()
    spec = P.make_f_commutator(f, (e,), (e,), seed=5)
    t = run_quiet(spec)
    assert S4.eq(t.key_a, e)


def test_f_commutator_formula():
    # K = a^-1 f(b^-1) f(a) b
    for seed in range(10):
        spec = P.random_spec("f_commutator", seed)
        t = run_quiet(spec)
        ska, skb = P.generate_secrets(spec)
        a, b = ska.elements[0], skb.elements[0]
        platform = spec.platform
        f = spec.endo
        expected = platform.mul(
            platform.mul(platform.inv(a), f.apply(platform.inv(b))),
            platform.mul(f.apply(a), b),
        )
        assert platform.eq(t.key_a, expected)


def test_shifted_commutator_degenerate_key_is_sigma1():
    # both secrets evaluate to the empty braid when the single generator is
    # trivial and trees are leaves: K = [1,1]_sh = sigma_1
    gens = (BraidWord(2),)
    policy = P.KeyPolicy(max_leaves=1, max_depth=0)
    spec = P.make_shifted_commutator(gens, gens, policy=policy, seed=1)
    t = run_quiet(spec)
    platform = P.work_platform(spec)
    assert platform.eq(t.key_a, BraidWord(2, (1,)))


def test_shifted_commutator_formula_bi_ld():
    # K = a^-1 shift(b^-1) sigma1 shift(a) b
    for seed in range(6):
        spec = P.random_spec("shifted_commutator", seed)
        if spec.variant != "bi_ld":
            continue
        t = run_quiet(spec)
        ska, skb = P.generate_secrets(spec)
        a, b = ska.elements[0], skb.elements[0]
        expected = B.concat_all(
            B.invert(a), B.shift(B.invert(b), spec.shift_p), spec.shift_a,
            B.shift(a, spec.shift_p), b,
        )
        assert B.braids_equal(t.key_a, expected)


def test_shifted_commutator_formula_rev():
    # K = [a, b^-1]_sh = a^-1 shift(b) sigma1 shift(a) b^-1
    for seed in range(12):
        spec = P.random_spec("shifted_commutator", seed)
        if spec.variant != "rev":
            continue
        t = run_quiet(spec)
        ska, skb = P.generate_secrets(spec)
        a, b = ska.elements[0], skb.elements[0]
        expected = B.concat_all(
            B.invert(a), B.shift(b, spec.shift_p), spec.shift_a,
            B.shift(a, spec.shift_p), B.invert(b),
        )
        assert B.braids_equal(t.key_a, expected)


def test_shifted_commutator_single_generator_runs():
    # the non-simultaneity regime: m = n = 1
    gens = (BraidWord(3, (1, 2)),)
    spec = P.make_shifted_commutator(gens, gens, seed=9, policy=P.KeyPolicy(max_leaves=4, max_depth=3))
    t = run_quiet(spec)
    assert t.extracted_key == P.key_extract(P.work_platform(spec), t.key_b)


@pytest.mark.parametrize("variant", ["bi_ld", "rev"])
def test_shifted_commutator_generalized_p2(variant):
    # the engine handles higher shift powers and tau-family parameters
    rng = random.Random(53)
    gens = tuple(B.random_braid(4, 5, rng) for _ in range(2))
    policy = P.KeyPolicy(max_leaves=3, max_depth=2)
    spec = P.make_shifted_commutator(gens, gens, variant=variant, p=2, policy=policy, seed=5)
    t = run_quiet(spec)
    assert t.extracted_key == P.key_extract(P.work_platform(spec), t.key_b)

    a = B.concat_all(BraidWord(2, (1,)), B.tau(2, 2), BraidWord(2, (1,)))
    spec2 = P.make_shifted_commutator(gens, gens, variant=variant, p=2, a=a, policy=policy, seed=6)
    t2 = run_quiet(spec2)
    assert t2.extracted_key != t.extracted_key  # different operation, different key
    j = P.transcript_to_json(t2)
    assert P.transcript_to_json(P.transcript_from_json(j)) == j


def test_shifted_commutator_rejects_bad_parameter():
    with pytest.raises(L.ConditionViolation):
        P.make_shifted_commutator(
            (BraidWord(3, (1,)),), (BraidWord(3, (1,)),), p=1, a=BraidWord(3, (1, 2))
        )


# -- decomposition schemes -----------------------------------------------------------


def test_simdcp_key_formula():
    for seed in range(15):
        spec = P.random_spec("simdcp", seed)
        t = run_quiet(spec)
        ska, skb = P.generate_secrets(spec)
        a_r, a_l = ska.elements[0], ska.elements[1]
        b_l, b_r = skb.elements[0], skb.elements[1]
        platform = spec.platform
        expected = platform.mul(platform.mul(a_l, b_l), platform.mul(a_r, b_r))
        assert platform.eq(t.key_a, expected)


def test_simdcp_alt_key_formula_and_alternating_shape():
    for seed in range(15):
        spec = P.random_spec("simdcp_alt", seed)
        t = run_quiet(spec)
        ska, skb = P.generate_secrets(spec)
        assert len(ska.indices) % 2 == 1
        a_r, a_l = ska.elements[0], ska.elements[1]
        b_l, b_r = skb.elements[0], skb.elements[1]
        platform = spec.platform
        expected = platform.mul(platform.mul(a_l, b_l), platform.mul(a_r, b_r))
        assert platform.eq(t.key_a, expected)


def test_simdcp_alt_single_term_message_identity():
    # a length-1 alternating word makes the step-3 reconstruction one of the
    # peer's messages verbatim
    platform = S4
    rng = random.Random(51)
    s = tuple(platform.random_element(rng) for _ in range(2))
    t_gens = tuple(platform.random_element(rng) for _ in range(2))
    policy = replace(P.FINITE_POLICY, max_leaves=1, max_depth=0)
    spec = P.make_simdcp_alt(platform, s, t_gens, policy=policy, seed=13)
    transcript = run_quiet(spec)
    ska, skb = P.generate_secrets(spec)
    assert len(ska.indices) == 1 and len(skb.indices) == 1
    assert any(platform.eq(transcript.alice_step3, m) for m in transcript.bob_messages)
    assert any(platform.eq(transcript.bob_step3, m) for m in transcript.alice_messages)


@pytest.mark.parametrize("make", [P.make_simdcp, P.make_simdcp_alt], ids=["simdcp", "simdcp_alt"])
def test_decomposition_schemes_run_on_one_strand(make):
    # B_1 is the trivial group: the free draws give the identity, K_A = K_B
    platform = BraidPlatform(1)
    transcript = run_quiet(make(platform, [BraidWord(1)], [BraidWord(1)]))
    assert platform.eq(transcript.key_a, transcript.key_b)
    assert platform.eq(transcript.key_a, platform.identity())


def test_symdp_key_formula_and_validation():
    for seed in range(15):
        spec = P.random_spec("symdp", seed)
        t = run_quiet(spec)
        ska, skb = P.generate_secrets(spec)
        a, ka = ska.elements[0], ska.exponents[0]
        b, lb = skb.elements[0], skb.exponents[0]
        platform = spec.platform
        from nakex.platforms import g_pow

        expected = platform.mul(
            platform.mul(g_pow(platform, a, ka), b),
            platform.mul(a, g_pow(platform, b, lb)),
        )
        assert platform.eq(t.key_a, expected)
    with pytest.raises(ValueError):
        P.make_symdp(S4, (S4.identity(),), (S4.identity(),), k=2, l=3)


def test_symdp_secret_exponents():
    rng = random.Random(52)
    s = tuple(S4.random_element(rng) for _ in range(2))
    t_gens = tuple(S4.random_element(rng) for _ in range(2))
    spec = P.make_symdp(S4, s, t_gens, secret_exponents=True, seed=14)
    ska, skb = P.generate_secrets(spec)
    assert ska.exponents[0] == 1 or skb.exponents[0] == 1
    run_quiet(spec)


# -- group DH family ------------------------------------------------------------------


def test_group_dh_trivial_subgroups_give_base():
    platform = BraidPlatform(4)
    e = (BraidWord(4),)
    x = BraidWord(4, (1, 2, 3))
    spec = P.make_group_dh(platform, e, e, e, e, x, seed=2)
    t = run_quiet(spec)
    assert B.braids_equal(t.key_a, x)


def test_group_dh_and_ko_lee_agree_with_direct():
    for tag in ("group_dh", "ko_lee"):
        for seed in range(10):
            spec = P.random_spec(tag, seed)
            t = run_quiet(spec)
            ska, skb = P.generate_secrets(spec)
            platform = spec.platform
            a1, a2 = ska.elements
            b1, b2 = skb.elements
            expected = platform.mul(
                platform.mul(a1, platform.mul(b1, spec.base)),
                platform.mul(b2, a2),
            )
            assert platform.eq(t.key_a, expected)


def test_ko_lee_is_conjugation_shaped():
    spec = P.random_spec("ko_lee", 3)
    ska, _ = P.generate_secrets(spec)
    platform = spec.platform
    assert platform.eq(platform.mul(ska.elements[0], ska.elements[1]), platform.identity())


def test_str_kep_key_formula():
    for seed in range(10):
        spec = P.random_spec("str_kep", seed)
        t = run_quiet(spec)
        ska, skb = P.generate_secrets(spec)
        platform = spec.platform
        from nakex.platforms import g_pow

        (a,), (k,) = ska.elements, ska.exponents
        (b,), (l,) = skb.elements, skb.exponents
        expected = platform.mul(
            platform.mul(platform.inv(a), platform.inv(b)),
            platform.mul(g_pow(platform, spec.base, k * l), platform.mul(b, a)),
        )
        assert platform.eq(t.key_a, expected)


def test_commutation_violation_detected():
    platform = BraidPlatform(4)
    with pytest.raises(P.CommutationViolation):
        P.make_group_dh(
            platform,
            (BraidWord(4, (1,)),), (BraidWord(4, (1,)),),
            (BraidWord(4, (2,)),), (BraidWord(4, (2,)),),
            BraidWord(4, (3,)),
        )
    with pytest.raises(P.CommutationViolation):
        P.make_ko_lee(platform, (BraidWord(4, (1,)),), (BraidWord(4, (2,)),), BraidWord(4, (3,)))


# -- validation on load ----------------------------------------------------------------


def _tampered_json(spec, **fields) -> str:
    obj = json.loads(P.spec_to_json(spec))
    obj.update(fields)
    return json.dumps(obj)


def test_loaded_ko_lee_spec_with_non_commuting_gens_is_rejected():
    spec = P.random_spec("ko_lee", 0)
    # sigma_2 and sigma_3 do not commute with Alice's sigma_1 and sigma_2
    b1 = [encode_element(spec.platform, BraidWord(7, (i,))).hex() for i in (2, 3)]
    with pytest.raises(P.CommutationViolation):
        P.spec_from_json(_tampered_json(spec, b1_gens=b1))
    transcript = json.loads(P.transcript_to_json(run_quiet(spec)))
    transcript["spec"]["b1_gens"] = b1
    with pytest.raises(P.CommutationViolation):
        P.transcript_from_json(json.dumps(transcript))


def test_loaded_shifted_spec_with_bad_parameter_is_rejected():
    spec = P.random_spec("shifted_commutator", 0)
    shift_a = B.encode_braid(BraidWord(3, (1, 2))).hex()
    with pytest.raises(L.ConditionViolation):
        P.spec_from_json(_tampered_json(spec, shift_a=shift_a))


@pytest.mark.parametrize(
    "tag, seed, key",
    [("simdcp", 0, "alice_gens"), ("ko_lee", 0, "b1_gens"), ("classic_dh", 0, "base"),
     ("shifted_commutator", 0, "shift_a"), ("f_commutator", 1, "endo")],
)
def test_loaded_hex_with_trailing_bytes_is_rejected(tag, seed, key):
    # an element or braid in spec or transcript JSON must end where its hex ends
    spec = P.random_spec(tag, seed)
    obj = json.loads(P.spec_to_json(spec))
    if isinstance(obj[key], list):
        obj[key][0] += "00ff"
    elif key == "endo":
        obj[key]["c"] += "00ff"
    else:
        obj[key] += "00ff"
    with pytest.raises(ValueError, match="2 bytes after the encoded value"):
        P.spec_from_json(json.dumps(obj))
    text = P.transcript_to_json(run_quiet(spec))
    transcript = json.loads(text)
    transcript["spec"] = obj
    with pytest.raises(ValueError, match="2 bytes after the encoded value"):
        P.transcript_from_json(json.dumps(transcript))
    transcript = json.loads(text)
    transcript["alice_messages"][0] += "00"
    with pytest.raises(ValueError, match="1 bytes after the encoded value"):
        P.transcript_from_json(json.dumps(transcript))


def _tampered_transcript(spec, /, **fields) -> str:
    obj = json.loads(P.transcript_to_json(run_quiet(spec)))
    obj.update(fields)
    return json.dumps(obj)


def _spec_json_without(spec, key) -> str:
    obj = json.loads(P.spec_to_json(spec))
    del obj[key]
    return json.dumps(obj)


def _transcript_json_without(spec, key) -> str:
    obj = json.loads(P.transcript_to_json(run_quiet(spec)))
    del obj[key]
    return json.dumps(obj)


def _spec_json_with_section(spec, section, edit) -> str:
    obj = json.loads(P.spec_to_json(spec))
    obj[section] = edit(obj[section])
    return json.dumps(obj)


def _s3_point_map_spec_json(edit_pairs) -> str:
    """An f_commutator spec on S_3 whose endo is the identity point map, with
    its written pairs passed through ``edit_pairs``."""
    s3 = SymmetricPlatform(3)
    rng = random.Random(2)
    s_gens, t_gens = ([s3.random_element(rng)] for _ in range(2))
    spec = P.make_f_commutator(inner_point_map(s3, s3.identity()), s_gens, t_gens)
    return _spec_json_with_section(
        spec, "endo", lambda endo: {**endo, "pairs": edit_pairs(endo["pairs"])}
    )


def _short_point_map_on_s12_json() -> str:
    """An f_commutator spec on S_12 whose point map lists no pair: 12! points
    are never listed to find it short."""
    s12 = SymmetricPlatform(12)
    gens = [encode_element(s12, s12.identity()).hex()]
    return _tampered_json(
        P.random_spec("f_commutator", 1), platform={"kind": "symmetric", "degree": 12},
        alice_gens=gens, bob_gens=gens, endo={"kind": "point_map", "pairs": []},
    )


def _upper_cased_simdcp_transcript() -> str:
    obj = json.loads(P.transcript_to_json(run_quiet(P.random_spec("simdcp", 0))))
    obj["alice_messages"][0] = obj["alice_messages"][0].upper()
    obj["extracted_key"] = obj["extracted_key"].upper()
    return json.dumps(obj)


# refusal case -> (call, exception class, message)
PROTOCOL_REFUSALS = {
    "platform_kind": (
        lambda: P.spec_from_json(_tampered_json(P.random_spec("ko_lee", 0), platform={"kind": "torus"})),
        ValueError, "unknown platform kind 'torus'",
    ),
    "endo_kind": (
        lambda: P.spec_from_json(
            _tampered_json(P.random_spec("f_commutator", 1), endo={"kind": "frobenius"})
        ),
        ValueError, "unknown endomorphism kind 'frobenius'",
    ),
    "spec_tag": (lambda: P.random_spec("rsa", 0), ValueError, "unknown protocol tag 'rsa'"),
    "classic_dh_on_s4": (
        lambda: replace(P.random_spec("classic_dh", 0), platform=S4, base=S4.identity()),
        PlatformMismatch, "classic_dh needs a mult_mod platform",
    ),
    "power_shift_non_pure_gen": (
        lambda: P.make_f_commutator(
            PowerShiftEndo(BraidPlatform(4), 1), [BraidWord(4, (1, 1))], [BraidWord(4, (2,))]
        ),
        ValueError, "pure-braid f-commutator needs pure generators",
    ),
    # JSON is written with lower-case hex and an int seed; anything else would
    # load, then be written back with other bytes
    "spec_hex_upper_case": (
        lambda: P.spec_from_json(
            _tampered_json(P.make_classic_dh(23, 11), base="03000000000000000B")
        ),
        ValueError, "hex must be lower case, with no spaces",
    ),
    "transcript_hex_upper_case": (
        lambda: P.transcript_from_json(_upper_cased_simdcp_transcript()),
        ValueError, "hex must be lower case, with no spaces",
    ),
    # the top-level JSON value must be an object with every key the writer writes
    "spec_empty_object": (lambda: P.spec_from_json("{}"), ValueError, "spec has no 'platform'"),
    "spec_array": (lambda: P.spec_from_json("[]"), ValueError, "spec is not a JSON object"),
    "spec_number": (lambda: P.spec_from_json("1"), ValueError, "spec is not a JSON object"),
    "spec_no_endo": (
        lambda: P.spec_from_json(_spec_json_without(P.random_spec("ko_lee", 0), "endo")),
        ValueError, "spec has no 'endo'",
    ),
    # so must every nested value, down to the types of its leaves
    "spec_platform_number": (
        lambda: P.spec_from_json(_tampered_json(P.random_spec("ko_lee", 0), platform=1)),
        ValueError, "platform is not a JSON object",
    ),
    "spec_platform_empty": (
        lambda: P.spec_from_json(_tampered_json(P.random_spec("ko_lee", 0), platform={})),
        ValueError, "platform has no 'kind'",
    ),
    "spec_platform_no_strands": (
        lambda: P.spec_from_json(
            _tampered_json(P.random_spec("ko_lee", 0), platform={"kind": "braid"})
        ),
        ValueError, "platform has no 'strands'",
    ),
    "spec_platform_strands_string": (
        lambda: P.spec_from_json(
            _tampered_json(P.random_spec("ko_lee", 0), platform={"kind": "braid", "strands": "7"})
        ),
        ValueError, "platform strands must be int, got '7'",
    ),
    "spec_platform_strands_true": (
        lambda: P.spec_from_json(
            _tampered_json(P.random_spec("ko_lee", 0), platform={"kind": "braid", "strands": True})
        ),
        ValueError, "platform strands must be int, got True",
    ),
    "spec_policy_number": (
        lambda: P.spec_from_json(_tampered_json(P.random_spec("ko_lee", 0), policy=3)),
        ValueError, "policy is not a JSON object",
    ),
    "spec_policy_unknown_key": (
        lambda: P.spec_from_json(_tampered_json(P.random_spec("ko_lee", 0), policy={"leaves": 3})),
        ValueError, "policy has unknown key 'leaves'",
    ),
    "spec_policy_max_leaves_string": (
        lambda: P.spec_from_json(
            _tampered_json(P.random_spec("ko_lee", 0), policy={"max_leaves": "3"})
        ),
        ValueError, "policy max_leaves must be int, got '3'",
    ),
    "spec_endo_number": (
        lambda: P.spec_from_json(_tampered_json(P.random_spec("f_commutator", 1), endo=1)),
        ValueError, "endo is not a JSON object",
    ),
    "spec_endo_empty": (
        lambda: P.spec_from_json(_tampered_json(P.random_spec("f_commutator", 1), endo={})),
        ValueError, "endo has no 'kind'",
    ),
    "spec_endo_power_shift_d_string": (
        lambda: P.spec_from_json(_tampered_json(
            P.random_spec("f_commutator", 0), endo={"kind": "power_shift", "d": "1"}
        )),
        ValueError, "endo d must be int, got '1'",
    ),
    "spec_endo_point_map_pairs_number": (
        lambda: P.spec_from_json(_tampered_json(
            P.random_spec("f_commutator", 1), endo={"kind": "point_map", "pairs": 1}
        )),
        ValueError, "endo pairs must be a list of [hex, hex] pairs",
    ),
    "spec_gens_number": (
        lambda: P.spec_from_json(_tampered_json(P.random_spec("ko_lee", 0), a1_gens=1)),
        ValueError, "a1_gens must be a list of hex strings, got 1",
    ),
    "spec_gens_of_numbers": (
        lambda: P.spec_from_json(_tampered_json(P.random_spec("ko_lee", 0), a1_gens=[1])),
        ValueError, "expected a hex string, got 1",
    ),
    "spec_shift_a_number": (
        lambda: P.spec_from_json(
            _tampered_json(P.random_spec("shifted_commutator", 0), shift_a=5)
        ),
        ValueError, "expected a hex string, got 5",
    ),
    "transcript_empty_object": (
        lambda: P.transcript_from_json("{}"), ValueError, "transcript has no 'spec'",
    ),
    "transcript_array": (
        lambda: P.transcript_from_json("[]"), ValueError, "transcript is not a JSON object",
    ),
    "transcript_spec_array": (
        lambda: P.transcript_from_json(_tampered_transcript(P.make_classic_dh(23, 5), spec=[])),
        ValueError, "spec is not a JSON object",
    ),
    "transcript_messages_number": (
        lambda: P.transcript_from_json(
            _tampered_transcript(P.make_classic_dh(23, 5), alice_messages=1)
        ),
        ValueError, "alice_messages must be a list of hex strings, got 1",
    ),
    "transcript_no_kB": (
        lambda: P.transcript_from_json(_transcript_json_without(P.make_classic_dh(23, 5), "kB")),
        ValueError, "transcript has no 'kB'",
    ),
    "transcript_seed_true": (
        lambda: P.transcript_from_json(
            _tampered_transcript(P.make_classic_dh(23, 5, seed=1), seed=True)
        ),
        ValueError, "transcript seed True is not its spec's seed 1",
    ),
    # each of these loaded once, then was written back with other bytes: a
    # loader takes exactly the keys its writer writes, at every level
    "spec_extra_key": (
        lambda: P.spec_from_json(_tampered_json(P.random_spec("ko_lee", 0), extra=1)),
        ValueError, "spec has unknown key 'extra'",
    ),
    "spec_platform_extra_key": (
        lambda: P.spec_from_json(_spec_json_with_section(
            P.random_spec("ko_lee", 0), "platform", lambda platform: {**platform, "extra": 1}
        )),
        ValueError, "platform has unknown key 'extra'",
    ),
    "spec_endo_extra_key": (
        lambda: P.spec_from_json(_spec_json_with_section(
            P.random_spec("f_commutator", 1), "endo", lambda endo: {**endo, "extra": 1}
        )),
        ValueError, "endo has unknown key 'extra'",
    ),
    "transcript_extra_key": (
        lambda: P.transcript_from_json(_tampered_transcript(P.make_classic_dh(23, 5), extra=1)),
        ValueError, "transcript has unknown key 'extra'",
    ),
    "spec_policy_empty": (
        lambda: P.spec_from_json(_tampered_json(P.random_spec("ko_lee", 0), policy={})),
        ValueError, "policy has no 'max_leaves'",
    ),
    "spec_policy_no_exponent_max": (
        lambda: P.spec_from_json(_spec_json_with_section(
            P.random_spec("ko_lee", 0), "policy",
            lambda policy: {k: v for k, v in policy.items() if k != "exponent_max"},
        )),
        ValueError, "policy has no 'exponent_max'",
    ),
    "spec_shift_a_empty": (
        lambda: P.spec_from_json(_tampered_json(P.random_spec("ko_lee", 0), shift_a="")),
        ValueError,
        "truncated braid encoding: unpack_from requires a buffer of at least 6 bytes"
        " for unpacking 6 bytes at offset 0 (actual buffer size is 0)",
    ),
    "spec_no_shift_a": (
        lambda: P.spec_from_json(_spec_json_without(P.random_spec("ko_lee", 0), "shift_a")),
        ValueError, "spec has no 'shift_a'",
    ),
    # the writer lists point-map pairs sorted, each once
    "spec_endo_point_map_pairs_unsorted": (
        lambda: P.spec_from_json(_s3_point_map_spec_json(lambda pairs: pairs[::-1])),
        ValueError, "endo pairs must be strictly increasing",
    ),
    "spec_endo_point_map_pair_repeated": (
        lambda: P.spec_from_json(_s3_point_map_spec_json(lambda pairs: pairs[:1] + pairs)),
        ValueError, "endo pairs must be strictly increasing",
    ),
    "spec_endo_point_map_point_twice": (
        lambda: P.spec_from_json(_s3_point_map_spec_json(
            lambda pairs: sorted(pairs + [[pairs[-1][0], pairs[0][1]]])
        )),
        ValueError, "point map table lists a point twice",
    ),
    "spec_endo_point_map_short_on_s12": (
        lambda: P.spec_from_json(_short_point_map_on_s12_json()),
        ValueError, "point map table must cover the whole platform",
    ),
    # a braid element is written as the canonical word on the platform's strands
    "spec_braid_gen_not_canonical": (
        lambda: P.spec_from_json(_tampered_json(
            P.random_spec("ko_lee", 0),
            a1_gens=["01" + B.encode_braid(BraidWord(7, (1, -1, 1))).hex()],
        )),
        ValueError, "element hex is not its canonical encoding",
    ),
    "spec_braid_gen_on_fewer_strands": (
        lambda: P.spec_from_json(_tampered_json(
            P.random_spec("ko_lee", 0), a1_gens=["01" + B.encode_braid(BraidWord(6, (1,))).hex()],
        )),
        ValueError, "element hex is not its canonical encoding",
    ),
}


@pytest.mark.parametrize("case", list(PROTOCOL_REFUSALS))
def test_typed_refusals(case):
    call, cls, message = PROTOCOL_REFUSALS[case]
    with pytest.raises(cls) as exc:
        call()
    assert type(exc.value) is cls and str(exc.value) == message


SIMDCP_SPEC = P.random_spec("simdcp", 0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("digest", "00" * 32, "transcript digest is not the digest of its spec"),
        ("seed", 999, f"transcript seed 999 is not its spec's seed {SIMDCP_SPEC.seed}"),
        ("extracted_key", "ab", "transcript extracted_key is not the key extracted from kA"),
        ("kB", None, "transcript keys kA and kB differ"),  # None: Alice's message
    ],
    ids=["digest", "seed", "extracted_key", "kB"],
)
def test_transcript_refuses_a_field_it_cannot_write_back(field, value, message):
    text = P.transcript_to_json(run_quiet(SIMDCP_SPEC))
    obj = json.loads(text)
    obj[field] = obj["alice_messages"][0] if value is None else value
    assert json.dumps(obj) != text
    with pytest.raises(ValueError) as exc:
        P.transcript_from_json(json.dumps(obj))
    assert type(exc.value) is ValueError and str(exc.value) == message


def test_symdp_spec_needs_a_unit_exponent():
    spec = P.random_spec("symdp", 0)
    with pytest.raises(ValueError):
        replace(spec, k=2, l=2)
    with pytest.raises(ValueError):
        P.spec_from_json(_tampered_json(spec, k=2, l=2))


def test_spec_with_huge_modulus_is_refused_fast():
    # a 20-digit prime would keep the trial-division primality test busy for hours
    import time

    spec = P.random_spec("classic_dh", 0)
    tampered = _tampered_json(spec, platform={"kind": "mult_mod", "modulus": 18446744073709551557})
    start = time.perf_counter()
    with pytest.raises(ValueError, match="2\\^40"):
        P.spec_from_json(tampered)
    assert time.perf_counter() - start < 1.0



# B_400, and a tree depth that would size the work platform at B_20000004
OVERSIZED = [
    ("ko_lee", "platform", "strands", 400),
    ("shifted_commutator", "policy", "max_depth", 10**7),
]


@pytest.mark.parametrize("tag, section, key, value", OVERSIZED)
def test_oversized_spec_is_refused_fast(tag, section, key, value):
    import time

    obj = json.loads(P.spec_to_json(P.random_spec(tag, 0)))
    obj[section][key] = value
    start = time.perf_counter()
    with pytest.raises(ValueError, match="over 64 strands"):
        P.spec_from_json(json.dumps(obj))
    assert time.perf_counter() - start < 1.0


def test_platform_size_cap_boundaries():
    # B_3 generators, p = 1, sigma_1: the work platform is B_(3 + 2 max_depth + 1)
    s, t = (BraidWord(3, (1, 2)),), (BraidWord(3, (2, -1)),)
    spec = P.make_shifted_commutator(s, t, policy=P.KeyPolicy(max_leaves=1, max_depth=30))
    assert P.work_platform(spec).strands == 64
    with pytest.raises(ValueError, match="work platform B_66 has over 64 strands"):
        replace(spec, policy=P.KeyPolicy(max_leaves=1, max_depth=31))
    spec = P.random_spec("simdcp", 0)
    with pytest.raises(ValueError, match="platform S_65 has degree over 64"):
        replace(spec, platform=SymmetricPlatform(65))
    with pytest.raises(ValueError, match="platform B_65 has over 64 strands"):
        replace(P.random_spec("ko_lee", 0), platform=BraidPlatform(65))


def test_shifted_work_platform_matches_level_by_level_sizing():
    # each of the 2 max_depth + 1 levels adds p to the largest index, and the
    # braid parameter's index enters at every level
    rng = random.Random(5)
    for _ in range(40):
        p = rng.randint(1, 3)
        n = rng.randint(2 * p, 2 * p + 3)
        s = (B.random_braid(n, 5, rng),)
        t = (B.random_braid(rng.randint(2, n), 5, rng),)
        depth = rng.randint(0, 6)
        policy = P.KeyPolicy(max_leaves=1, max_depth=depth)
        spec = P.make_shifted_commutator(s, t, p=p, policy=policy)
        idx = max(
            [abs(e) for g in s + t for e in B.freely_reduced(g).letters] + [n - 1]
        )
        a_idx = max((abs(e) for e in B.freely_reduced(spec.shift_a).letters), default=0)
        for _ in range(2 * depth + 1):
            idx = max(idx + p, a_idx)
        assert P.work_platform(spec).strands == idx + 1


def test_protocol_tags_keep_their_order():
    # the session_loopback workload cycles through the tags in this order,
    # and `nakex keygen --tag` offers them as its choices
    assert P.PROTOCOL_TAGS == (
        "classic_dh",
        "group_dh",
        "ko_lee",
        "str_kep",
        "aag_commutator",
        "simdcp",
        "simdcp_alt",
        "symdp",
        "f_commutator",
        "shifted_commutator",
    )

# Every field-level fault a spec can carry, applied to random_spec(tag, 3) of
# every tag: case id -> "module.ExceptionName: message".  The other cases
# (85 of 142) build a spec.
SPEC_FAULT_ERRORS = {
    "classic_dh/no_base": "builtins.ValueError: classic_dh needs a base element",
    "classic_dh/misspelled": "builtins.ValueError: unknown protocol tag 'classic_dhx'",
    "classic_dh/s4": "nakex.platforms.PlatformMismatch: expected Permutation of degree 4",
    "group_dh/no_a1_gens": "builtins.ValueError: group_dh needs a nonempty a1_gens",
    "group_dh/no_a2_gens": "builtins.ValueError: group_dh needs a nonempty a2_gens",
    "group_dh/no_b1_gens": "builtins.ValueError: group_dh needs a nonempty b1_gens",
    "group_dh/no_b2_gens": "builtins.ValueError: group_dh needs a nonempty b2_gens",
    "group_dh/no_base": "builtins.ValueError: group_dh needs a base element",
    "group_dh/misspelled": "builtins.ValueError: unknown protocol tag 'group_dhx'",
    "group_dh/s4": "nakex.platforms.PlatformMismatch: expected Permutation of degree 4",
    "group_dh/mod23": "nakex.platforms.PlatformMismatch: expected residue, got BraidWord",
    "group_dh/a1_b1": "nakex.protocols.CommutationViolation: [A1, B1]: generators do not commute",
    "group_dh/a2_b2": "nakex.protocols.CommutationViolation: [A2, B2]: generators do not commute",
    "ko_lee/no_a1_gens": "builtins.ValueError: ko_lee needs a nonempty a1_gens",
    "ko_lee/no_b1_gens": "builtins.ValueError: ko_lee needs a nonempty b1_gens",
    "ko_lee/no_base": "builtins.ValueError: ko_lee needs a base element",
    "ko_lee/misspelled": "builtins.ValueError: unknown protocol tag 'ko_leex'",
    "ko_lee/s4": "nakex.platforms.PlatformMismatch: expected Permutation of degree 4",
    "ko_lee/mod23": "nakex.platforms.PlatformMismatch: expected residue, got BraidWord",
    "str_kep/no_a1_gens": "builtins.ValueError: str_kep needs a nonempty a1_gens",
    "str_kep/no_b1_gens": "builtins.ValueError: str_kep needs a nonempty b1_gens",
    "str_kep/no_base": "builtins.ValueError: str_kep needs a base element",
    "str_kep/misspelled": "builtins.ValueError: unknown protocol tag 'str_kepx'",
    "str_kep/s4": "nakex.platforms.PlatformMismatch: expected Permutation of degree 4",
    "str_kep/mod23": "nakex.platforms.PlatformMismatch: expected residue, got BraidWord",
    "aag_commutator/no_alice_gens":
        "builtins.ValueError: aag_commutator needs a nonempty alice_gens",
    "aag_commutator/no_bob_gens": "builtins.ValueError: aag_commutator needs a nonempty bob_gens",
    "aag_commutator/misspelled": "builtins.ValueError: unknown protocol tag 'aag_commutatorx'",
    "aag_commutator/s4": "nakex.platforms.PlatformMismatch: expected Permutation of degree 4",
    "aag_commutator/mod23": "nakex.platforms.PlatformMismatch: expected residue, got Permutation",
    "simdcp/no_alice_gens": "builtins.ValueError: simdcp needs a nonempty alice_gens",
    "simdcp/no_bob_gens": "builtins.ValueError: simdcp needs a nonempty bob_gens",
    "simdcp/misspelled": "builtins.ValueError: unknown protocol tag 'simdcpx'",
    "simdcp/s4": "nakex.platforms.PlatformMismatch: expected Permutation of degree 4",
    "simdcp/mod23": "nakex.platforms.PlatformMismatch: expected residue, got Permutation",
    "simdcp_alt/no_alice_gens": "builtins.ValueError: simdcp_alt needs a nonempty alice_gens",
    "simdcp_alt/no_bob_gens": "builtins.ValueError: simdcp_alt needs a nonempty bob_gens",
    "simdcp_alt/misspelled": "builtins.ValueError: unknown protocol tag 'simdcp_altx'",
    "simdcp_alt/mod23": "nakex.platforms.PlatformMismatch: expected residue, got Permutation",
    "symdp/no_alice_gens": "builtins.ValueError: symdp needs a nonempty alice_gens",
    "symdp/no_bob_gens": "builtins.ValueError: symdp needs a nonempty bob_gens",
    "symdp/misspelled": "builtins.ValueError: unknown protocol tag 'symdpx'",
    "symdp/k2_l3": "builtins.ValueError: symdp needs k = 1 or l = 1",
    "symdp/mod23": "nakex.platforms.PlatformMismatch: expected residue, got Permutation",
    "f_commutator/no_alice_gens": "builtins.ValueError: f_commutator needs a nonempty alice_gens",
    "f_commutator/no_bob_gens": "builtins.ValueError: f_commutator needs a nonempty bob_gens",
    "f_commutator/misspelled": "builtins.ValueError: unknown protocol tag 'f_commutatorx'",
    "f_commutator/s4": "builtins.ValueError: f_commutator needs an endomorphism of its platform",
    "f_commutator/mod23": "builtins.ValueError: f_commutator needs an endomorphism of its platform",
    "f_commutator/no_endo":
        "builtins.ValueError: f_commutator needs an endomorphism of its platform",
    "shifted_commutator/no_alice_gens":
        "builtins.ValueError: shifted_commutator needs a nonempty alice_gens",
    "shifted_commutator/no_bob_gens":
        "builtins.ValueError: shifted_commutator needs a nonempty bob_gens",
    "shifted_commutator/misspelled":
        "builtins.ValueError: unknown protocol tag 'shifted_commutatorx'",
    "shifted_commutator/s4":
        "nakex.platforms.PlatformMismatch: shifted_commutator needs a braid platform",
    "shifted_commutator/mod23":
        "nakex.platforms.PlatformMismatch: shifted_commutator needs a braid platform",
    "shifted_commutator/variant": "builtins.ValueError: variant must be 'bi_ld' or 'rev'",
    "shifted_commutator/bad_shift_a":
        "nakex.ldops.ConditionViolation: braid parameter fails the shifted-conjugacy conditions",
}


def _spec_faults():
    """(case id, fields to replace) for every fault of every tag's spec."""
    for tag in P.PROTOCOL_TAGS:
        spec = P.random_spec(tag, 3)
        for name in ("alice_gens", "bob_gens", "a1_gens", "a2_gens", "b1_gens", "b2_gens"):
            yield f"{tag}/no_{name}", spec, {name: ()}
        yield f"{tag}/no_base", spec, {"base": None}
        yield f"{tag}/misspelled", spec, {"tag": tag + "x"}
        yield f"{tag}/s4", spec, {"platform": S4}
        yield f"{tag}/mod23", spec, {"platform": MultModPlatform(23)}
        yield f"{tag}/variant", spec, {"variant": "zzz"}
        yield f"{tag}/k2_l3", spec, {"k": 2, "l": 3}
        yield f"{tag}/no_endo", spec, {"endo": None}
        yield f"{tag}/bad_shift_a", spec, {"shift_a": BraidWord(3, (1, 2))}
    # sigma_2 commutes with neither sigma_1 nor sigma_2
    spec = P.random_spec("group_dh", 3)
    yield "group_dh/a1_b1", spec, {"b1_gens": (BraidWord(7, (2,)),)}
    yield "group_dh/a2_b2", spec, {"b2_gens": (BraidWord(7, (2,)),)}


def test_spec_faults_raise_pinned_typed_errors():
    outcomes = {}
    for case, spec, fields in _spec_faults():
        try:
            replace(spec, **fields)
            outcomes[case] = "ok"
        except Exception as exc:
            outcomes[case] = f"{type(exc).__module__}.{type(exc).__name__}: {exc}"
    assert len(outcomes) == 142
    assert {c: o for c, o in outcomes.items() if o != "ok"} == SPEC_FAULT_ERRORS


def _foreign_elements(platform) -> dict:
    """Elements that are not on ``platform``, by name."""
    if isinstance(platform, SymmetricPlatform):
        return {"perm_of_degree_n+1": SymmetricPlatform(platform.degree + 1).identity(), "int": 1}
    if isinstance(platform, MultModPlatform):
        return {"residue_out_of_range": platform.modulus, "permutation": S4.identity()}
    n = platform.strands  # a pure braid, so that a power_shift endo cannot refuse it first
    return {"braid_on_more_strands": BraidWord(n + 1, (n, n)), "permutation": S4.identity()}


def _foreign_element_specs():
    """(case id, build) for a spec with one element off its platform: in every
    element field each tag reads, by replacing a field of a valid spec, and
    by the constructors."""
    # f_commutator draws B_4 at seed 0 and S_5 at seed 1
    specs = [P.random_spec(tag, 0) for tag in P.PROTOCOL_TAGS] + [P.random_spec("f_commutator", 1)]
    for spec in specs:
        for field in ("base", "alice_gens", "bob_gens", "a1_gens", "a2_gens", "b1_gens", "b2_gens"):
            value = getattr(spec, field)
            if not value:
                continue
            for name, x in _foreign_elements(spec.platform).items():
                new = x if field == "base" else (x, *value[1:])
                kind = type(spec.platform).__name__
                yield f"{spec.tag}/{kind}/{field}/{name}", partial(replace, spec, **{field: new})
    t = (BraidWord(3, (1,)),)
    yield "make_shifted_commutator/permutation", partial(
        P.make_shifted_commutator, (S4.identity(),), t
    )
    yield "make_symdp/int", partial(P.make_symdp, S4, [3], [S4.identity()])
    yield "make_simdcp_alt/braid_on_6_strands", partial(
        P.make_simdcp_alt, BraidPlatform(3), [BraidWord(6, (5,))], t
    )
    yield "make_classic_dh/residue_out_of_range", partial(P.make_classic_dh, 23, 23)


FOREIGN_ELEMENT_SPECS = dict(_foreign_element_specs())


@pytest.mark.parametrize("case", list(FOREIGN_ELEMENT_SPECS))
def test_a_constructed_spec_refuses_an_element_off_its_platform(case):
    # refused when the spec is built, not when it runs
    with pytest.raises(PlatformMismatch):
        FOREIGN_ELEMENT_SPECS[case]()


def _perturbed(scheme):
    """``scheme`` with Bob's key multiplied by an element that is not the identity."""

    def party(spec, platform, role, rng):
        own = scheme.party(spec, platform, role, rng)
        if role == P.ALICE:
            return own
        if isinstance(platform, BraidPlatform):
            other = BraidWord(platform.strands, (1,))
        else:
            other = next(x for x in platform.elements() if not platform.eq(x, platform.identity()))

        def finish(peer):
            step3, key = own.finish(peer)
            return step3, platform.mul(key, other)

        return own._replace(finish=finish)

    return scheme._replace(party=party)


@pytest.mark.parametrize("tag", P.PROTOCOL_TAGS)
def test_run_refuses_keys_that_differ(tag, monkeypatch):
    spec = P.random_spec(tag, 0)
    monkeypatch.setitem(P._SCHEMES, tag, _perturbed(P._SCHEMES[tag]))
    with pytest.raises(P.KeyMismatch) as exc:
        run_quiet(spec)
    assert str(exc.value) == f"derived keys differ for tag {tag!r}, seed {spec.seed}"


# -- engine-level properties ------------------------------------------------------------


@pytest.mark.parametrize("tag", P.PROTOCOL_TAGS)
def test_transcripts_deterministic_and_roundtrip(tag):
    for seed in (0, 1):
        spec = P.random_spec(tag, seed)
        t1 = run_quiet(spec)
        t2 = run_quiet(spec)
        j1 = P.transcript_to_json(t1)
        assert j1 == P.transcript_to_json(t2)
        assert P.transcript_to_json(P.transcript_from_json(j1)) == j1
        assert t1.extracted_key == t2.extracted_key


@pytest.mark.parametrize("tag", P.PROTOCOL_TAGS)
def test_spec_json_roundtrip(tag):
    spec = P.random_spec(tag, 5)
    text = P.spec_to_json(spec)
    again = P.spec_from_json(text)
    assert P.spec_to_json(again) == text
    assert P.spec_digest(again) == P.spec_digest(spec)


BRAID_WORD_SCHEMES = {
    "simdcp": P.make_simdcp,
    "simdcp_alt": P.make_simdcp_alt,
    "symdp_k2": partial(P.make_symdp, k=2, l=1),
    "symdp_secret_exponents": partial(P.make_symdp, secret_exponents=True),
}


@pytest.mark.parametrize("scheme", list(BRAID_WORD_SCHEMES))
def test_two_sided_schemes_on_braids_agree_and_roundtrip(scheme):
    # random_spec draws these tags on S_n only; on B_5 the free secret factor
    # is a random braid word
    platform = BraidPlatform(5)
    for seed in range(20):
        rng = random.Random(seed)
        s, t = ([B.random_braid(5, 4, rng) for _ in range(2)] for _ in range(2))
        spec = BRAID_WORD_SCHEMES[scheme](platform, s, t, seed=seed)
        text = P.spec_to_json(spec)
        assert P.spec_to_json(P.spec_from_json(text)) == text
        transcript = P.transcript_to_json(run_quiet(spec))
        assert P.transcript_to_json(P.transcript_from_json(transcript)) == transcript
        if not scheme.startswith("symdp"):
            alice, bob = P.generate_secrets(spec)
            assert isinstance(alice.elements[1], BraidWord)
            assert isinstance(bob.elements[1], BraidWord)


@pytest.mark.parametrize("endo", ["identity", "point_map"])
def test_f_commutator_spec_roundtrip_keeps_its_endomorphism(endo):
    # the two endomorphism kinds that random_spec never draws
    rng = random.Random(4)
    f = IdentityEndo(S4) if endo == "identity" else inner_point_map(S4, S4.random_element(rng))
    s_gens, t_gens = ([S4.random_element(rng) for _ in range(2)] for _ in range(2))
    spec = P.make_f_commutator(f, s_gens, t_gens, seed=7)
    text = P.spec_to_json(spec)
    again = P.spec_from_json(text)
    assert P.spec_to_json(again) == text
    assert again.endo == f
    assert run_quiet(again).extracted_key == run_quiet(spec).extracted_key


@pytest.mark.parametrize("tag", ["aag_commutator", "f_commutator"])
def test_variant_is_read_only_by_shifted_commutator(tag):
    for seed in range(20):
        spec = P.random_spec(tag, seed)
        key = run_quiet(spec).extracted_key
        for variant in ("rev", "zzz", "bi_ld"):
            assert run_quiet(replace(spec, variant=variant)).extracted_key == key


# specs whose policy contradicts itself, each of which used to load and then
# fail inside its first draw
CONTRADICTORY_POLICIES = {
    "str_kep": (lambda: P.random_spec("str_kep", 0), {"exponent_min": 9, "exponent_max": 8}),
    "symdp": (
        lambda: replace(P.random_spec("symdp", 0), secret_exponents=True),
        {"exponent_min": 9, "exponent_max": 8},
    ),
    "braid_simdcp": (
        lambda: P.make_simdcp(BraidPlatform(4), [BraidWord(4, (1,))], [BraidWord(4, (3,))]),
        {"gen_length": -1},
    ),
}


@pytest.mark.parametrize("case", CONTRADICTORY_POLICIES)
def test_contradictory_policy_fails_at_load(case):
    make_spec, fields = CONTRADICTORY_POLICIES[case]
    with pytest.raises(P.PolicyViolation):
        P.KeyPolicy(**fields)
    obj = json.loads(P.spec_to_json(make_spec()))
    obj["policy"].update(fields)
    with pytest.raises(P.PolicyViolation):
        P.spec_from_json(json.dumps(obj))


def test_step3_matches_whitebox_beta():
    # the push-through value equals beta(peer secret, own secret) recomputed
    # with both secrets visible
    spec = P.random_spec("f_commutator", 2)
    t = run_quiet(spec)
    ska, skb = P.generate_secrets(spec)
    a, b = ska.elements[0], skb.elements[0]
    op = L.f_conj_op(spec.endo)
    platform = spec.platform
    assert platform.eq(t.alice_step3, L.apply_op(op, b, a))
    assert platform.eq(t.bob_step3, L.apply_op(op, a, b))

    spec = P.random_spec("simdcp", 3)
    t = run_quiet(spec)
    ska, skb = P.generate_secrets(spec)
    platform = spec.platform
    a_r, a_l = ska.elements[0], ska.elements[1]
    b_l, b_r = skb.elements[0], skb.elements[1]
    assert platform.eq(t.alice_step3, platform.mul(platform.mul(b_l, a_r), b_r))
    assert platform.eq(t.bob_step3, platform.mul(platform.mul(a_l, b_l), a_r))


def test_step3_whitebox_shifted():
    for seed in range(4):
        spec = P.random_spec("shifted_commutator", seed)
        t = run_quiet(spec)
        ska, skb = P.generate_secrets(spec)
        a, b = ska.elements[0], skb.elements[0]
        star = L.shifted_op(spec.shift_p, spec.shift_a)
        if spec.variant == "rev":
            rev = L.shifted_rev_op(spec.shift_p, spec.shift_a)
            assert B.braids_equal(t.alice_step3, L.apply_op(star, B.invert(b), a))
            assert B.braids_equal(t.bob_step3, L.apply_op(rev, B.invert(a), b))
        else:
            bar = L.shifted_bar_op(spec.shift_p, B.invert(spec.shift_a))
            assert B.braids_equal(t.alice_step3, L.apply_op(star, b, a))
            assert B.braids_equal(t.bob_step3, L.apply_op(bar, a, b))


def test_key_extract_canonical():
    platform = BraidPlatform(3)
    k1 = P.key_extract(platform, BraidWord(3, (1, 2, 1)))
    k2 = P.key_extract(platform, BraidWord(3, (2, 1, 2)))
    assert k1 == k2 and len(k1) == 32
    assert P.key_extract(platform, BraidWord(3)) == P.key_extract(platform, BraidWord(3, (1, -1)))
    assert k1 != P.key_extract(platform, BraidWord(3))


# key_extract pinned per platform: a change to a platform's key_payload moves every key
@pytest.mark.parametrize(
    "platform, x, key",
    [
        (BraidPlatform(3), BraidWord(3, (1, 2, -1, 2)),
         "90a9c111646ee8baf42052fe8e0ccc6046de364fe8c1fbfc3cce28c6b5a943ff"),
        (S4, B.Permutation((2, 3, 1, 4)),
         "721196ddcd51ba78936a13c115c5e844ed749d9ca06019a6f3f88028ae7b0914"),
        (MultModPlatform(23), 5,
         "ffd04f8b815ffa6acdccf9b2c9f82a07fef214b0826bd934459e3339da358252"),
    ],
    ids=["braid", "sym", "modp"],
)
def test_key_extract_bytes(platform, x, key):
    assert P.key_extract(platform, x).hex() == key


def test_weak_key_warning():
    platform = S4
    e = platform.identity()
    spec = P.make_aag_commutator(platform, (e,), (e,), seed=4)
    with pytest.warns(P.WeakKeyWarning):
        P.run(spec)
    # on B_4 the only generator is a relator: seed 0 draws both secrets as
    # nonempty words of exponent sum 0 that are the identity braid
    relator = BraidWord(4, (1, 2, 1, -2, -1, -2))
    spec = P.make_aag_commutator(BraidPlatform(4), (relator,), (relator,), seed=0)
    with pytest.warns(P.WeakKeyWarning) as record:
        P.run(spec)
    assert sorted(str(w.message) for w in record) == [
        "degenerate secret (Alice): identity element",
        "degenerate secret (Bob): identity element",
    ]


def test_policy_validation():
    with pytest.raises(P.PolicyViolation):
        P.KeyPolicy(max_leaves=0)
    with pytest.raises(P.PolicyViolation):
        P.KeyPolicy(max_leaves=8, max_depth=2)
    with pytest.raises(P.PolicyViolation):
        P.KeyPolicy(comb_bias=1.5)
    with pytest.raises(P.PolicyViolation, match="max_leaves must be <= 256"):
        P.KeyPolicy(max_leaves=257, max_depth=257)


def test_policy_at_the_leaf_cap_runs():
    # 256 leaves in a left comb recurse 255 levels deep, well inside the
    # default recursion limit; one more leaf is refused at load
    obj = json.loads(P.spec_to_json(P.random_spec("symdp", 0)))
    cap = P.MAX_POLICY_LEAVES
    obj["policy"].update(max_leaves=cap, max_depth=cap, comb_bias=1.0)
    spec = P.spec_from_json(json.dumps(obj))
    for seed in range(10):
        text = P.transcript_to_json(run_quiet(replace(spec, seed=seed)))
        assert P.transcript_to_json(P.transcript_from_json(text)) == text
    obj["policy"].update(max_leaves=cap + 1)
    with pytest.raises(P.PolicyViolation):
        P.spec_from_json(json.dumps(obj))


def test_work_platform_covers_all_letters():
    for seed in range(8):
        spec = P.random_spec("shifted_commutator", seed)
        platform = P.work_platform(spec)
        t = run_quiet(spec)
        for element in t.alice_messages + t.bob_messages + (t.key_a, t.key_b, t.alice_step3, t.bob_step3):
            platform.check(element)  # raises if any index exceeds the sizing


def test_finite_transcripts_golden_digest():
    digest = hashlib.sha256()
    runs = 0
    for tag in FINITE_TAGS:
        for s in range(20):
            spec = P.random_spec(tag, s)
            if isinstance(spec.platform, BraidPlatform):
                continue
            digest.update(P.transcript_to_json(run_quiet(spec)).encode())
            runs += 1
    assert runs == 114
    assert digest.hexdigest() == GOLDEN_FINITE_DIGEST


def test_braid_transcripts_golden_digest():
    digest = hashlib.sha256()
    runs = 0
    for tag in BRAID_TAGS:
        for s in range(20):
            spec = P.random_spec(tag, s)
            if not isinstance(spec.platform, BraidPlatform):
                continue
            digest.update(P.transcript_to_json(run_quiet(spec)).encode())
            runs += 1
    assert runs == 86
    assert digest.hexdigest() == GOLDEN_BRAID_DIGEST


def test_spec_draws_golden_digest():
    digest = hashlib.sha256()
    for tag in P.PROTOCOL_TAGS:
        for s in range(200):
            digest.update(P.spec_to_json(P.random_spec(tag, s)).encode())
    assert digest.hexdigest() == GOLDEN_SPEC_DRAW_DIGEST


def test_every_golden_transcript_loads_and_writes_back_the_same_bytes():
    # the transcripts the golden digests hash, through transcript_from_json's checks
    for tag in P.PROTOCOL_TAGS:
        for s in range(20):
            text = P.transcript_to_json(run_quiet(P.random_spec(tag, s)))
            assert P.transcript_to_json(P.transcript_from_json(text)) == text


# -- loaders against their writers ----------------------------------------------


@cache
def _written_objects() -> list:
    """(loader, writer, JSON object written) for random_spec(tag, s) of every
    tag, s = 0 and 1, and for the transcript of each."""
    cases = []
    for tag in P.PROTOCOL_TAGS:
        for s in (0, 1):
            spec = P.random_spec(tag, s)
            cases.append((P.spec_from_json, P.spec_to_json, json.loads(P.spec_to_json(spec))))
            transcript = P.transcript_to_json(run_quiet(spec))
            cases.append((P.transcript_from_json, P.transcript_to_json, json.loads(transcript)))
    return cases


def _json_objects_in(obj, path=()):
    """The paths to ``obj`` and to each object nested in it under the keys
    that hold one."""
    yield path
    for key in ("spec", "platform", "policy", "endo"):
        if type(obj.get(key)) is dict:
            yield from _json_objects_in(obj[key], path + (key,))


def _json_items(value):
    """Every (key, value) pair of every object nested in JSON ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        if isinstance(value, dict):
            yield key, item
        if isinstance(item, (dict, list)):
            yield from _json_items(item)


@cache
def _written_values() -> dict:
    """Key -> each distinct value the written objects hold under it."""
    values = {}
    for _, _, obj in _written_objects():
        for key, value in _json_items(obj):
            values.setdefault(key, {}).setdefault(json.dumps(value), value)
    return {key: list(distinct.values()) for key, distinct in values.items()}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated_written_objects(draw):
    """A written object with one key of one of its objects dropped, added, or
    given another value: an arbitrary JSON value, or what some written object
    holds under that key, which more often loads."""
    load, write, written = draw(st.sampled_from(_written_objects()))
    obj = json.loads(json.dumps(written))
    target = obj
    for key in draw(st.sampled_from(list(_json_objects_in(obj)))):
        target = target[key]
    change = draw(st.sampled_from(["replace", "drop", "add"]))
    if change == "add":
        target[draw(st.text(max_size=8).filter(lambda key: key not in target))] = draw(JSON_VALUES)
    elif target:
        key = draw(st.sampled_from(sorted(target)))
        if change == "drop":
            del target[key]
        else:
            target[key] = draw(st.sampled_from(_written_values()[key]) | JSON_VALUES)
    return load, write, obj


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_mutated_written_objects())
def test_loaders_refuse_or_write_back_what_they_load(case):
    # what a loader takes, its writer writes back as it was; all else is a ValueError
    load, write, obj = case
    try:
        loaded = load(json.dumps(obj))
    except ValueError:
        return
    assert json.loads(write(loaded)) == obj
