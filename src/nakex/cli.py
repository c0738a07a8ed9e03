"""Command line front end.

Subcommands: ``run`` (in-process protocol run from a spec file), ``serve`` /
``connect`` (two-party session over TCP), ``attack`` (experiment from an
instance file, CSV report), ``verify-laws`` (law verdicts for a named
operation), and ``keygen`` (emit a random spec and its secrets under a key
policy).  The benchmark is ``perfbench/run.py``, not a subcommand.

This module parses arguments, loads files and maps outcomes to exit codes.
Each subcommand's handler is bound with ``set_defaults``; the attack
experiments are the table ``attacks.EXPERIMENTS`` and the ``verify-laws``
operations the table ``ldops.LAWS``, whose keys are the ``--op`` choices.

Exit codes: 0 success, 1 verified failure (a law counterexample, a key
mismatch in a run or a session, an attack record whose witness did not
verify) or a failed session, 2 usage errors, each reported in one line on
stderr: an argument argparse rejects (among them an ``--address`` or ``NAKEX_LISTEN`` that is
not host:port with a port in 1..65535, a ``--timeout`` that is not a
positive finite number of seconds, or a ``verify-laws`` size over
``protocols.MAX_PLATFORM_SIZE``), a spec or experiment file that does not
load or build, an output path that cannot be written, law parameters the
operation rejects, or a spec whose secrets break its key policy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys

from . import attacks, ldops, magma, protocols, session
from .braid import BraidWord
from .platforms import MultModPlatform, SymmetricPlatform


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, like every other usage error; -h still prints the usage
        self.exit(2, f"{self.prog}: error: {message}\n")


def _parse_listen(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not port.isdecimal() or not 0 < int(port) < 65536:
        raise argparse.ArgumentTypeError(f"expected host:port, port 1..65535; got {value!r}")
    return host or "127.0.0.1", int(port)


def _positive_seconds(value: str) -> float:
    seconds = float(value)
    if not 0 < seconds < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(f"expected positive finite seconds, got {value!r}")
    return seconds


def _usage_error(what: str, exc: Exception) -> int:
    """Print one line for a usage error on stderr; its exit code."""
    print(f"{what}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


def _write_out(path: str, text: str) -> int:
    """Write ``text`` to ``path``: 0, or 2 after a one-line error on stderr."""
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        return _usage_error(f"cannot write {path}", exc)
    return 0


def _load_spec(path: str, seed: int | None) -> protocols.ProtocolSpec | None:
    """The spec in ``path``, or None after a one-line error on stderr."""
    try:
        with open(path) as handle:
            spec = protocols.spec_from_json(handle.read())
    except (OSError, ValueError) as exc:
        _usage_error(f"cannot load spec {path}", exc)
        return None
    if seed is not None:
        from dataclasses import replace

        spec = replace(spec, seed=seed)
    return spec


# -- run / serve / connect ---------------------------------------------------


def _cmd_kex(args, role: str | None = None) -> int:
    """One key establishment from ``--spec``: in-process for ``run`` (no
    role), else a session endpoint in ``role``, which ``session_run`` picks
    the endpoint from."""
    spec = _load_spec(args.spec, args.seed)
    if spec is None:
        return 2
    try:
        if role is None:
            transcript = protocols.run(spec)
        else:
            host, port = args.address
            transcript = session.session_run(session.SessionConfig(
                role=role, spec=spec, host=host, port=port, timeout=args.timeout
            ))
    except (protocols.KeyMismatch, session.SessionError, OSError) as exc:
        print(f"{args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except protocols.PolicyViolation as exc:
        print(f"policy violation: {exc}", file=sys.stderr)
        return 2
    text = protocols.transcript_to_json(transcript)
    if args.out:
        if _write_out(args.out, text):
            return 2
    elif role is None:
        print(text)
    print(f"extracted key: {transcript.extracted_key.hex()}", file=sys.stderr)
    return 0


# -- keygen -------------------------------------------------------------------


def _cmd_keygen(args) -> int:
    spec = protocols.random_spec(args.tag, args.seed)
    if _write_out(args.out, protocols.spec_to_json(spec)):
        return 2
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

        secrets = {"alice": secret_obj(ska), "bob": secret_obj(skb)}
        if _write_out(args.secrets_out, json.dumps(secrets, indent=2)):
            return 2
    print(f"wrote {args.tag} spec to {args.out}", file=sys.stderr)
    return 0


# -- verify-laws --------------------------------------------------------------


# verify-laws takes no size a spec may not use: a symmetric degree or a braid
# parameter over MAX_PLATFORM_SIZE, or a shift p over half of it (the op's
# carrier is B_2p).  Law checks slow down steeply with size.
_MAX_SIZE = protocols.MAX_PLATFORM_SIZE


def _law_platform(name: str):
    if name.startswith("s"):
        degree = int(name[1:])
        if degree > _MAX_SIZE:
            raise argparse.ArgumentTypeError(f"degree {degree} is over {_MAX_SIZE}")
        return SymmetricPlatform(degree)
    if name.startswith("mod"):
        return MultModPlatform(int(name[3:]))
    raise argparse.ArgumentTypeError(f"unknown platform {name!r} (use s4, s5, mod23, ...)")


def _shift_p(value: str) -> int:
    p = int(value)
    if p > _MAX_SIZE // 2:
        raise argparse.ArgumentTypeError(f"p = {p} is over {_MAX_SIZE // 2}: the op acts on B_2p")
    return p


def _cmd_verify_laws(args) -> int:
    label, verdict_of = ldops.LAWS[args.op]
    try:
        if args.samples < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        verdict = verdict_of(args, random.Random(args.seed))
    except ValueError as exc:
        return _usage_error(f"invalid parameters for --op {args.op}", exc)
    status = "pass" if verdict.passed else "FAIL"
    print(f"{label.format_map(vars(args))}: {status} ({verdict.checked} checks)")
    if verdict.passed:
        return 0
    if verdict.counterexample is not None:
        print(f"  counterexample: {verdict.counterexample}")
    return 1


# -- attack -------------------------------------------------------------------


def _cmd_attack(args) -> int:
    try:
        with open(args.instance) as handle:
            trials = attacks.build_experiment(protocols._parse_json(handle.read()))
    except (OSError, ValueError) as exc:
        return _usage_error(f"cannot load experiment {args.instance}", exc)
    records = attacks.run_experiment(trials)
    try:
        attacks.write_report(records, args.out)
    except OSError as exc:
        return _usage_error(f"cannot write report {args.out}", exc)
    bad = [
        r for r in records
        if not r.witness_verified and r.outcome != "budget_exceeded"
    ]
    print(f"{len(records)} records -> {args.out}", file=sys.stderr)
    return 1 if bad else 0


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nakex",
        description="Workbench for non-associative and non-commutative key establishment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a protocol spec in-process")
    p_run.add_argument("--spec", required=True)
    p_run.add_argument("--out", help="write the transcript JSON here")
    p_run.add_argument("--seed", type=int, help="override the spec seed")
    p_run.set_defaults(func=_cmd_kex)

    for name, role in (("serve", "responder"), ("connect", "initiator")):
        p = sub.add_parser(name, help=f"{name} a two-party session")
        p.set_defaults(func=functools.partial(_cmd_kex, role=role))
        p.add_argument("--spec", required=True)
        p.add_argument(
            "--address", type=_parse_listen,
            default=os.environ.get("NAKEX_LISTEN", "127.0.0.1:9131"),
            help="host:port (default from NAKEX_LISTEN, else 127.0.0.1:9131)",
        )
        p.add_argument("--timeout", type=_positive_seconds, default=30.0, help="seconds")
        p.add_argument("--out", help="write the transcript JSON here")
        p.add_argument("--seed", type=int)

    p_keygen = sub.add_parser("keygen", help="emit a random spec (and secrets)")
    p_keygen.add_argument("--tag", required=True, choices=protocols.PROTOCOL_TAGS)
    p_keygen.add_argument("--seed", type=int, default=0)
    p_keygen.add_argument("--out", required=True)
    p_keygen.add_argument("--secrets-out")
    p_keygen.set_defaults(func=_cmd_keygen)

    p_laws = sub.add_parser("verify-laws", help="run law verifiers for an operation")
    p_laws.add_argument("--op", required=True, choices=list(ldops.LAWS))
    p_laws.add_argument("--p", type=_shift_p, default=1)
    p_laws.add_argument("--a", type=_parse_braid, default=None, help="braid letters, e.g. '1,2,-1'")
    p_laws.add_argument("--samples", type=int, default=200)
    p_laws.add_argument("--seed", type=int, default=0)
    p_laws.add_argument("--platform", type=_law_platform, default=SymmetricPlatform(4))
    p_laws.add_argument("--level", type=int, default=2, help="Laver table level")
    p_laws.set_defaults(func=_cmd_verify_laws)

    p_attack = sub.add_parser("attack", help="run an attack experiment, write CSV")
    p_attack.add_argument("--instance", required=True, help="experiment JSON file")
    p_attack.add_argument("--out", required=True, help="CSV report path")
    p_attack.set_defaults(func=_cmd_attack)

    return parser


def _parse_braid(text: str) -> BraidWord:
    letters = tuple(int(piece) for piece in text.split(",") if piece.strip())
    strands = max((abs(e) for e in letters), default=1) + 1
    if strands > _MAX_SIZE:
        raise argparse.ArgumentTypeError(f"braid needs {strands} strands, over {_MAX_SIZE}")
    return BraidWord(strands, letters)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
