"""Command line front end.

Subcommands: ``run`` (in-process protocol run from a spec file), ``serve`` /
``connect`` (two-party session over TCP), ``attack`` (experiment from an
instance file, CSV report), ``verify-laws`` (law verdicts for a named
operation), ``bench`` (kernel and protocol timings), and ``keygen`` (emit a
random spec and its secrets under a key policy).

Exit codes: 0 success, 1 verified failure (a law counterexample where none
was expected, a key mismatch), 2 usage errors (including a spec file that does
not load, or whose secrets break its key policy).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from . import attacks, braid, ldops, magma, protocols, session
from .braid import BraidWord
from .platforms import (
    BraidPlatform,
    IdentityEndo,
    InnerEndo,
    MultModPlatform,
    SymmetricPlatform,
)

DEFAULT_LISTEN = os.environ.get("NAKEX_LISTEN", "127.0.0.1:9131")


def _parse_listen(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    return host or "127.0.0.1", int(port)


def _load_spec(path: str, seed: int | None) -> protocols.ProtocolSpec | None:
    """The spec in ``path``, or None after a one-line error on stderr."""
    try:
        with open(path) as handle:
            spec = protocols.spec_from_json(handle.read())
    except (OSError, ValueError, LookupError, TypeError) as exc:
        print(f"cannot load spec {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None
    if seed is not None:
        from dataclasses import replace

        spec = replace(spec, seed=seed)
    return spec


# -- run / serve / connect ---------------------------------------------------


def _cmd_run(args) -> int:
    spec = _load_spec(args.spec, args.seed)
    if spec is None:
        return 2
    try:
        transcript = protocols.run(spec)
    except protocols.KeyMismatch as exc:
        print(f"key mismatch: {exc}", file=sys.stderr)
        return 1
    except protocols.PolicyViolation as exc:
        print(f"policy violation: {exc}", file=sys.stderr)
        return 2
    text = protocols.transcript_to_json(transcript)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        print(text)
    print(f"extracted key: {transcript.extracted_key.hex()}", file=sys.stderr)
    return 0


def _cmd_session(args, role: str) -> int:
    spec = _load_spec(args.spec, args.seed)
    if spec is None:
        return 2
    host, port = _parse_listen(args.address or DEFAULT_LISTEN)
    cfg = session.SessionConfig(
        role=role, spec=spec, host=host, port=port, timeout=args.timeout
    )
    try:
        transcript = session.session_run(cfg)
    except (session.SessionError, OSError) as exc:
        print(f"session failed: {exc}", file=sys.stderr)
        return 1
    except protocols.PolicyViolation as exc:
        print(f"policy violation: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(protocols.transcript_to_json(transcript))
    print(f"extracted key: {transcript.extracted_key.hex()}", file=sys.stderr)
    return 0


# -- keygen -------------------------------------------------------------------


def _cmd_keygen(args) -> int:
    spec = protocols.random_spec(args.tag, args.seed)
    with open(args.out, "w") as handle:
        handle.write(protocols.spec_to_json(spec))
    if args.secrets_out:
        ska, skb = protocols.generate_secrets(spec)
        platform = protocols.work_platform(spec)

        def secret_obj(sk):
            from .platforms import encode_element

            return {
                "trees": [magma.encode_tree(t).hex() for t in sk.trees],
                "elements": [encode_element(platform, x).hex() for x in sk.elements],
                "exponents": list(sk.exponents),
                "indices": list(sk.indices),
            }

        with open(args.secrets_out, "w") as handle:
            json.dump({"alice": secret_obj(ska), "bob": secret_obj(skb)}, handle, indent=2)
    print(f"wrote {args.tag} spec to {args.out}", file=sys.stderr)
    return 0


# -- verify-laws --------------------------------------------------------------


def _law_platform(name: str):
    if name.startswith("s"):
        return SymmetricPlatform(int(name[1:]))
    if name.startswith("mod"):
        return MultModPlatform(int(name[3:]))
    raise argparse.ArgumentTypeError(f"unknown platform {name!r} (use s4, s5, mod23, ...)")


def _cmd_verify_laws(args) -> int:
    rng = random.Random(args.seed)
    name = args.op
    failures = 0

    def report(label: str, verdict: ldops.LawVerdict, expect_pass: bool = True):
        nonlocal failures
        status = "pass" if verdict.passed else "FAIL"
        print(f"{label}: {status} ({verdict.checked} checks)")
        if verdict.passed != expect_pass:
            failures += 1
            if verdict.counterexample is not None:
                print(f"  counterexample: {verdict.counterexample}")

    if name == "conj":
        report("conj LD", ldops.verify_ld(ldops.conj_op(args.platform), args.samples, rng))
    elif name == "sym_conj":
        report("sym_conj LD", ldops.verify_ld(ldops.sym_conj_op(args.platform), args.samples, rng))
    elif name == "f_conj":
        f = InnerEndo(args.platform, args.platform.random_element(rng))
        report("f_conj(inner) LD", ldops.verify_ld(ldops.f_conj_op(f), args.samples, rng))
    elif name == "f_sym_conj":
        f = IdentityEndo(args.platform)
        report("f_sym_conj(id) LD", ldops.verify_ld(ldops.f_sym_conj_op(f), args.samples, rng))
    elif name == "twisted":
        f = InnerEndo(args.platform, args.platform.random_element(rng))
        op = ldops.twisted_conj_op(f)
        report("twisted near-LD", ldops.verify_near_ld(op, f, args.samples, rng))
    elif name == "shifted":
        op = ldops.shifted_op(args.p, args.a)
        report(f"shifted(p={args.p}) LD", ldops.verify_ld(op, args.samples, rng, braid_len=4))
    elif name == "shifted_rev":
        op = ldops.shifted_rev_op(args.p, args.a)
        report(f"shifted_rev(p={args.p}) LD", ldops.verify_ld(op, args.samples, rng, braid_len=4))
    elif name == "bi_ld":
        star = ldops.shifted_op(args.p, args.a)
        bar = ldops.shifted_bar_op(args.p, None if args.a is None else braid.invert(args.a))
        report(
            f"bi-LD {{*, bar*}} (p={args.p})",
            ldops.verify_multi_ld([star, bar], args.samples, rng, braid_len=4),
        )
    elif name == "laver":
        report(f"laver A_{args.level} LD", ldops.verify_ld_exhaustive(ldops.laver_op(args.level)))
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(name)
    return 1 if failures else 0


# -- attack -------------------------------------------------------------------


def centralizer_of_closure(platform, gens):
    """Centralizer of the subgroup generated by gens (finite platforms)."""
    from .platforms import centralizer

    return centralizer(platform, attacks.subgroup_closure(platform, gens))


def _cmd_attack(args) -> int:
    with open(args.instance) as handle:
        config = json.load(handle)
    experiment = config["experiment"]
    seed = config.get("seed", 0)
    trials = config.get("trials", 10)
    rng = random.Random(seed)
    records: list[attacks.ExperimentRecord] = []

    if experiment == "cdp_to_klp":
        from .platforms import g_conj

        platform = SymmetricPlatform(config.get("degree", 4))
        a_gens = (platform.random_element(rng),)
        b_gens = tuple(
            c for c in centralizer_of_closure(platform, a_gens)
            if not platform.eq(c, platform.identity())
        ) or (platform.identity(),)
        for t in range(trials):
            x = rng.choice(attacks.subgroup_closure(platform, a_gens))
            y = rng.choice(attacks.subgroup_closure(platform, b_gens))
            s = platform.random_element(rng)
            inst = attacks.KLPInstance(s, g_conj(platform, x, s), g_conj(platform, y, s), a_gens, b_gens)
            truth = g_conj(platform, y, g_conj(platform, x, s))

            def solve():
                key = attacks.reduce_cdp_to_klp(
                    lambda i: attacks.bf_solve(i, platform), inst, platform
                )
                return key, platform.eq(key, truth)

            _, record = attacks.run_recorded("klp", f"S{platform.degree}", f"trial={t}", solve)
            records.append(record)

    elif experiment == "sscsp_to_aagp":
        from .platforms import g_commutator, g_conj

        platform = SymmetricPlatform(config.get("degree", 4))
        a_gens = (platform.random_element(rng),)
        b_gens = tuple(
            c for c in centralizer_of_closure(platform, a_gens)
            if not platform.eq(c, platform.identity())
        ) or (platform.identity(),)
        a_closure = attacks.subgroup_closure(platform, a_gens)
        b_closure = attacks.subgroup_closure(platform, b_gens)
        for t in range(trials):
            x, y = rng.choice(a_closure), rng.choice(b_closure)
            inst = attacks.AAGPInstance(
                a_gens, tuple(g_conj(platform, y, g) for g in a_gens),
                b_gens, tuple(g_conj(platform, x, g) for g in b_gens),
                planted=(x, y),
            )
            truth = g_commutator(platform, x, y)

            def solve():
                result = attacks.reduce_sscsp_to_aagp(
                    lambda i: attacks.bf_solve(i, platform), inst, platform
                )
                return result.key, platform.eq(result.key, truth)

            _, record = attacks.run_recorded("aagp", f"S{platform.degree}", f"trial={t}", solve)
            records.append(record)

    elif experiment == "inn_centralizer":
        from .platforms import centralizer

        platform = SymmetricPlatform(config.get("degree", 4))
        for t in range(trials):
            p = platform.random_element(rng)
            s_gens = [platform.random_element(rng) for _ in range(2)]
            t_gens = [platform.random_element(rng) for _ in range(2)]
            a, b = platform.random_element(rng), platform.random_element(rng)
            c1 = rng.choice(centralizer(platform, [platform.mul(s, p) for s in s_gens]))
            c2 = rng.choice(centralizer(platform, [platform.mul(u, p) for u in t_gens]))

            def solve():
                report = attacks.inn_centralizer_experiment(
                    platform, s_gens, t_gens, a, b, p, c1, c2
                )
                conditions = report.cond_c1_c2 and report.cond_c1_ap and report.cond_c2_bp
                # the sufficiency claim: conditions holding forces K' = K
                return report, (not conditions) or report.equal

            _, record = attacks.run_recorded(
                "inn_centralizer", f"S{platform.degree}", f"trial={t}", solve
            )
            records.append(record)

    elif experiment == "bf_csp":
        platform = SymmetricPlatform(config.get("degree", 4))
        for t in range(trials):
            from .platforms import g_conj

            s = platform.random_element(rng)
            x = platform.random_element(rng)
            inst = attacks.CSPInstance(s, g_conj(platform, x, s))

            def solve():
                w = attacks.bf_solve(inst, platform, budget=config.get("budget"))
                return w, w is not None and attacks.verify_witness(platform, inst, w)

            _, record = attacks.run_recorded("csp", f"S{platform.degree}", f"trial={t}", solve)
            records.append(record)

    elif experiment == "length_attack":
        p = config.get("p", 1)
        strands = config.get("strands", 5)
        op = ldops.shifted_op(p)
        for t in range(trials):
            b = braid.random_braid(strands, config.get("secret_length", 1), rng)
            ss = [braid.random_braid(strands, 5, rng) for _ in range(config.get("m", 2))]
            inst = attacks.ShCSPInstance(
                p, op.a, tuple((s, ldops.apply_op(op, b, s)) for s in ss)
            )

            def solve():
                # best-effort search: not finding a witness is a legitimate
                # outcome, an unverified claim is not
                w = attacks.length_attack_skeleton(inst, budget=config.get("budget", 8))
                platform = BraidPlatform(strands)
                return w, w is None or attacks.verify_witness(platform, inst, w)

            _, record = attacks.run_recorded(
                "sh_csp", f"B{strands}", f"trial={t},p={p}", solve
            )
            records.append(record)

    elif experiment == "laver_membership":
        level = config.get("level", 3)
        op = ldops.laver_op(level)
        table = ldops.laver_table(level)
        for g in range(1, table.size + 1):
            closure = attacks.submagma_closure(op, [g])
            for target in range(1, table.size + 1):
                def solve(_g=g, _t=target):
                    tree = attacks.bf_membership_magma(_t, [_g], [op], config.get("max_leaves", 6))
                    expected = _t in closure
                    return tree, (tree is not None) == expected

                _, record = attacks.run_recorded(
                    "ld_msp", f"A_{level}", f"gen={g},target={target}", solve
                )
                records.append(record)

    else:
        print(f"unknown experiment {experiment!r}", file=sys.stderr)
        return 2

    attacks.write_report(records, args.out)
    bad = [
        r for r in records
        if not r.witness_verified and r.outcome != "budget_exceeded"
    ]
    print(f"{len(records)} records -> {args.out}", file=sys.stderr)
    return 1 if bad else 0


# -- bench --------------------------------------------------------------------


def _bench_payload(repeat: int) -> dict:
    rng = random.Random(20120401)
    results: dict[str, float] = {}

    words = [braid.random_braid(8, length, rng) for length in (120, 400, 1200) for _ in range(repeat)]
    start = time.perf_counter()
    for w in words:
        braid.normal_form.__wrapped__(w)  # bypass the cache: time the kernel
    results["normal_form_s"] = time.perf_counter() - start

    pairs = [
        (braid.random_braid(6, 30, rng), braid.random_braid(6, 30, rng))
        for _ in range(repeat * 10)
    ]
    start = time.perf_counter()
    for w1, w2 in pairs:
        braid.handle_trivial(braid.concat(w1, braid.invert(w2)))
    results["handle_reduce_s"] = time.perf_counter() - start

    start = time.perf_counter()
    for seed in range(max(2, repeat // 2)):
        protocols.run(protocols.random_spec("shifted_commutator", seed))
    results["shifted_runs_s"] = time.perf_counter() - start
    return results


def _cmd_bench(args) -> int:
    payload = _bench_payload(args.repeat)
    if args.json:
        print(json.dumps(payload))
        return 0

    for key, seconds in payload.items():
        print(f"{key:<18} {seconds:8.3f} s")
    return 0


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nakex",
        description="Workbench for non-associative and non-commutative key establishment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a protocol spec in-process")
    p_run.add_argument("--spec", required=True)
    p_run.add_argument("--out", help="write the transcript JSON here")
    p_run.add_argument("--seed", type=int, help="override the spec seed")

    for name in ("serve", "connect"):
        p = sub.add_parser(name, help=f"{name} a two-party session")
        p.add_argument("--spec", required=True)
        p.add_argument("--address", help="host:port (default from NAKEX_LISTEN)")
        p.add_argument("--timeout", type=float, default=30.0)
        p.add_argument("--out", help="write the transcript JSON here")
        p.add_argument("--seed", type=int)

    p_keygen = sub.add_parser("keygen", help="emit a random spec (and secrets)")
    p_keygen.add_argument("--tag", required=True, choices=protocols.PROTOCOL_TAGS)
    p_keygen.add_argument("--seed", type=int, default=0)
    p_keygen.add_argument("--out", required=True)
    p_keygen.add_argument("--secrets-out")

    p_laws = sub.add_parser("verify-laws", help="run law verifiers for an operation")
    p_laws.add_argument(
        "--op",
        required=True,
        choices=[
            "conj", "sym_conj", "f_conj", "f_sym_conj", "twisted",
            "shifted", "shifted_rev", "bi_ld", "laver",
        ],
    )
    p_laws.add_argument("--p", type=int, default=1)
    p_laws.add_argument("--a", type=_parse_braid, default=None, help="braid letters, e.g. '1,2,-1'")
    p_laws.add_argument("--samples", type=int, default=200)
    p_laws.add_argument("--seed", type=int, default=0)
    p_laws.add_argument("--platform", type=_law_platform, default=SymmetricPlatform(4))
    p_laws.add_argument("--level", type=int, default=2, help="Laver table level")

    p_attack = sub.add_parser("attack", help="run an attack experiment, write CSV")
    p_attack.add_argument("--instance", required=True, help="experiment JSON file")
    p_attack.add_argument("--out", required=True, help="CSV report path")

    p_bench = sub.add_parser("bench", help="time kernels and protocol runs")
    p_bench.add_argument("--repeat", type=int, default=4)
    p_bench.add_argument("--json", action="store_true")

    return parser


def _parse_braid(text: str) -> BraidWord:
    letters = tuple(int(piece) for piece in text.split(",") if piece.strip())
    strands = max((abs(e) for e in letters), default=1) + 1
    return BraidWord(strands, letters)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve":
        return _cmd_session(args, "responder")
    if args.command == "connect":
        return _cmd_session(args, "initiator")
    if args.command == "keygen":
        return _cmd_keygen(args)
    if args.command == "verify-laws":
        return _cmd_verify_laws(args)
    if args.command == "attack":
        return _cmd_attack(args)
    if args.command == "bench":
        return _cmd_bench(args)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
