import csv
import hashlib
import json
import pathlib
import re
import threading
from dataclasses import replace

import pytest

from nakex import protocols as P
from nakex.braid import BraidWord
from nakex.cli import main
from nakex.platforms import BraidPlatform, encode_element


def test_run_dh_vector(tmp_path, capsys):
    spec = P.make_classic_dh(23, 5, k=6, l=15, seed=1)
    spec_path = tmp_path / "dh23.json"
    spec_path.write_text(P.spec_to_json(spec))
    out_path = tmp_path / "transcript.json"
    assert main(["run", "--spec", str(spec_path), "--out", str(out_path)]) == 0
    transcript = P.transcript_from_json(out_path.read_text())
    assert transcript.key_a == 2
    assert transcript.alice_messages == (8,) and transcript.bob_messages == (19,)


def test_run_seed_override(tmp_path):
    spec = P.random_spec("aag_commutator", 0)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(P.spec_to_json(spec))
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    assert main(["run", "--spec", str(spec_path), "--out", str(out1), "--seed", "99"]) == 0
    assert main(["run", "--spec", str(spec_path), "--out", str(out2), "--seed", "99"]) == 0
    assert out1.read_text() == out2.read_text()


def test_keygen_roundtrip(tmp_path):
    out = tmp_path / "spec.json"
    secrets = tmp_path / "secrets.json"
    code = main([
        "keygen", "--tag", "shifted_commutator", "--seed", "3",
        "--out", str(out), "--secrets-out", str(secrets),
    ])
    assert code == 0
    spec = P.spec_from_json(out.read_text())
    assert spec.tag == "shifted_commutator"
    payload = json.loads(secrets.read_text())
    assert set(payload) == {"alice", "bob"}
    P.run(spec)


def test_verify_laws_pass_and_fail():
    assert main(["verify-laws", "--op", "shifted", "--p", "1", "--samples", "60"]) == 0
    assert main(["verify-laws", "--op", "conj", "--samples", "200"]) == 0
    assert main(["verify-laws", "--op", "laver", "--level", "3"]) == 0
    assert main(["verify-laws", "--op", "bi_ld", "--p", "1", "--samples", "25"]) == 0
    # an invalid shifted parameter must be caught as a counterexample
    assert main([
        "verify-laws", "--op", "shifted", "--p", "1", "--a", "1,2", "--samples", "500",
    ]) == 1


@pytest.mark.parametrize("platform", ["mod23", "s5", "s64"])
def test_verify_laws_named_platforms(platform, capsys):
    # s64 is the largest degree a spec may use
    assert main(["verify-laws", "--op", "conj", "--platform", platform, "--samples", "20"]) == 0
    assert capsys.readouterr().out == "conj LD: pass (20 checks)\n"


def test_run_without_out_prints_transcript(tmp_path, capsys):
    spec = P.random_spec("symdp", 4)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(P.spec_to_json(spec))
    assert main(["run", "--spec", str(spec_path)]) == 0
    assert capsys.readouterr().out == P.transcript_to_json(P.run(spec)) + "\n"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_missing_required_argument_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["run"])
    assert excinfo.value.code == 2


def test_attack_experiment_csv(tmp_path):
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({"experiment": "bf_csp", "degree": 4, "trials": 5, "seed": 1}))
    out = tmp_path / "report.csv"
    assert main(["attack", "--instance", str(instance), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("instance,platform,parameters,outcome")
    assert len(lines) == 6
    assert all(",True," in line for line in lines[1:])


@pytest.mark.parametrize(
    "experiment",
    ["cdp_to_klp", "sscsp_to_aagp", "inn_centralizer", "length_attack", "laver_membership"],
)
def test_attack_experiments_all_verified(tmp_path, experiment):
    config = {"experiment": experiment, "trials": 4, "seed": 7}
    if experiment == "length_attack":
        config.update({"strands": 5, "secret_length": 1, "budget": 6})
    if experiment == "laver_membership":
        config.update({"level": 1, "max_leaves": 4})
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(config))
    out = tmp_path / "report.csv"
    assert main(["attack", "--instance", str(instance), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) >= 2


@pytest.mark.parametrize(
    "op_args",
    [
        ["--op", "sym_conj"],
        ["--op", "f_conj", "--samples", "150"],
        ["--op", "f_sym_conj", "--samples", "150"],
        ["--op", "twisted", "--samples", "150"],
        ["--op", "shifted_rev", "--p", "1", "--samples", "40"],
    ],
)
def test_verify_laws_catalog(op_args):
    assert main(["verify-laws", *op_args]) == 0


# `nakex verify-laws --op OP` stdout at default arguments, recorded before the
# law table moved from the CLI to ldops.LAWS
GOLDEN_LAW_LINES = {
    "conj": "conj LD: pass (200 checks)",
    "sym_conj": "sym_conj LD: pass (200 checks)",
    "f_conj": "f_conj(inner) LD: pass (200 checks)",
    "f_sym_conj": "f_sym_conj(id) LD: pass (200 checks)",
    "twisted": "twisted near-LD: pass (200 checks)",
    "shifted": "shifted(p=1) LD: pass (200 checks)",
    "shifted_rev": "shifted_rev(p=1) LD: pass (200 checks)",
    "bi_ld": "bi-LD {*, bar*} (p=1): pass (800 checks)",
    "laver": "laver A_2 LD: pass (64 checks)",
}


@pytest.mark.parametrize("op", GOLDEN_LAW_LINES)
def test_verify_laws_default_output_golden(capsys, op):
    assert main(["verify-laws", "--op", op]) == 0
    assert capsys.readouterr().out == GOLDEN_LAW_LINES[op] + "\n"


def test_verify_laws_runs_the_largest_laver_table(capsys):
    # A_5 is the largest table laver_table builds; CI runs the same command
    assert main(["verify-laws", "--op", "laver", "--level", "5"]) == 0
    assert capsys.readouterr().out == "laver A_5 LD: pass (32768 checks)\n"
    workflow = pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    assert "nakex verify-laws --op laver --level 5\n" in workflow.read_text()


def test_ci_runs_the_console_script_for_every_law_op():
    # the CI step that runs the installed `nakex verify-laws` names each --op
    from nakex.ldops import LAWS

    workflow = pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    ops = re.search(r"for op in ([\w ]+); do\s+nakex verify-laws --op ", workflow.read_text())
    assert ops is not None and ops.group(1).split() == list(LAWS)


def test_ci_runs_the_console_script_for_every_experiment():
    # the same CI step runs `nakex attack` on a small config of each experiment
    from nakex.attacks import EXPERIMENTS

    workflow = pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    names = re.search(
        r"for experiment in ([\w ]+); do\s+echo .*\$experiment.* > experiment.json\n"
        r"\s+nakex attack --instance experiment.json ",
        workflow.read_text(),
    )
    assert names is not None and names.group(1).split() == list(EXPERIMENTS)


def test_ci_runs_the_console_script_for_every_tag():
    # the same CI step draws a spec with `nakex keygen` and runs it, once per tag
    workflow = pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    tags = re.search(r"for tag in ([\w ]+); do\s+nakex keygen --tag ", workflow.read_text())
    assert tags is not None and tags.group(1).split() == list(P.PROTOCOL_TAGS)


def test_ci_runs_one_session_through_the_console_script():
    # the same CI step serves in the background, connects, waits for the server
    # and compares the two transcripts
    workflow = pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    pair = re.search(
        r"\n\s+nakex serve --spec (\S+) --address (\S+) --out (\S+) &\n\s+server=\$!\n"
        r"(?:.*\n)*?\s+nakex connect --spec \1 --address \2 --out (\S+) && break\n"
        r"(?:.*\n)*?\s+wait \"\$server\"\n\s+cmp \3 \4\n",
        workflow.read_text(),
    )
    assert pair is not None and pair.group(3) != pair.group(4)


def test_ci_traces_every_benchmark_workload():
    # a short traced run of each workload checks that the tracer still finds the
    # platform methods it patches
    root = pathlib.Path(__file__).parents[1]
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    loop = re.search(
        r'for w in ([\w ]+); do\s+python3 perfbench/run.py --workload "\$w" --seconds 1 --trace 1\n',
        workflow,
    )
    assert loop is not None and loop.group(1).split() == names


@pytest.mark.parametrize(
    "platform, line",
    [
        ("q7", "nakex verify-laws: error: argument --platform: unknown platform 'q7'"
               " (use s4, s5, mod23, ...)"),
        ("s65", "nakex verify-laws: error: argument --platform: degree 65 is over 64"),
    ],
)
def test_verify_laws_refuses_an_unknown_platform(capsys, platform, line):
    with pytest.raises(SystemExit) as exc:
        main(["verify-laws", "--op", "conj", "--platform", platform])
    assert exc.value.code == 2
    assert capsys.readouterr().err == line + "\n"


def test_keygen_all_tags_runnable(tmp_path):
    for tag in P.PROTOCOL_TAGS:
        out = tmp_path / f"{tag}.json"
        assert main(["keygen", "--tag", tag, "--seed", "2", "--out", str(out)]) == 0
        P.run(P.spec_from_json(out.read_text()))


@pytest.mark.parametrize("command", ["run", "serve", "connect"])
def test_unloadable_spec_exits_2(tmp_path, capsys, command):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"tag": "classic_dh"}))
    missing = tmp_path / "missing.json"
    for path in (spec_path, missing):
        assert main([command, "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_run_invalid_spec_exits_2(tmp_path, capsys):
    # a ko_lee spec whose subgroups do not commute fails at load, not at run
    spec = P.random_spec("ko_lee", 0)
    obj = json.loads(P.spec_to_json(spec))
    obj["b1_gens"] = [encode_element(spec.platform, BraidWord(7, (2,))).hex()]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(obj))
    assert main(["run", "--spec", str(spec_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "CommutationViolation" in err


def test_run_spec_with_huge_modulus_exits_2(tmp_path, capsys):
    obj = json.loads(P.spec_to_json(P.random_spec("classic_dh", 0)))
    obj["platform"]["modulus"] = 18446744073709551557  # 20-digit prime
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(obj))
    assert main(["run", "--spec", str(spec_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "2^40" in err


@pytest.mark.parametrize(
    "spec, fields",
    [
        (P.random_spec("str_kep", 0), {"exponent_min": 9, "exponent_max": 8}),
        (
            P.make_simdcp(BraidPlatform(4), [BraidWord(4, (1,))], [BraidWord(4, (3,))]),
            {"gen_length": -1},
        ),
        # trees this deep would end in RecursionError when drawn
        (P.random_spec("simdcp", 0), {"max_leaves": 5000, "max_depth": 5000, "comb_bias": 1.0}),
    ],
)
def test_run_contradictory_policy_exits_2(tmp_path, capsys, spec, fields):
    # refused at load, not at the first draw from an empty range
    obj = json.loads(P.spec_to_json(spec))
    obj["policy"].update(fields)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(obj))
    assert main(["run", "--spec", str(spec_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "PolicyViolation" in err


@pytest.mark.parametrize(
    "tag, section, key, value",
    [("ko_lee", "platform", "strands", 400), ("shifted_commutator", "policy", "max_depth", 10**7)],
)
def test_run_oversized_spec_exits_2(tmp_path, capsys, tag, section, key, value):
    # B_400, and a tree depth that would size the work platform at B_20000004
    obj = json.loads(P.spec_to_json(P.random_spec(tag, 0)))
    obj[section][key] = value
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(obj))
    assert main(["run", "--spec", str(spec_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "over 64 strands" in err

# Small configs of all six experiments; the low bf_csp budget and the short
# length-attack search also give budget_exceeded and not_found rows.
GOLDEN_EXPERIMENTS = [
    {"experiment": "bf_csp", "degree": 4, "trials": 8, "budget": 6},
    {"experiment": "cdp_to_klp", "degree": 4, "trials": 4},
    {"experiment": "sscsp_to_aagp", "degree": 4, "trials": 4},
    {"experiment": "inn_centralizer", "degree": 4, "trials": 4},
    {"experiment": "length_attack", "strands": 4, "secret_length": 3, "budget": 2, "trials": 6},
    {"experiment": "laver_membership", "level": 2, "max_leaves": 4},
]
GOLDEN_REPORT_DIGEST = "c2b1c7bfc37b0c173b2eaf870936206eff3bcf9d36bcc9c0e4a9bb094e3e4f3a"


def test_attack_reports_golden_digest(tmp_path):
    # sha256 over the CSV rows without wall_time; recorded when the
    # experiments were written out in the CLI, so it pins their draw order.
    digest = hashlib.sha256()
    instance, out = tmp_path / "instance.json", tmp_path / "report.csv"
    for seed in (3, 11):
        for config in GOLDEN_EXPERIMENTS:
            instance.write_text(json.dumps({**config, "seed": seed}))
            assert main(["attack", "--instance", str(instance), "--out", str(out)]) == 0
            with open(out, newline="") as handle:
                for row in csv.reader(handle):
                    digest.update(",".join(row[:-1]).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_REPORT_DIGEST


ATTACK_ARGV = ["attack", "--instance", "{tmp}/instance.json", "--out", "{tmp}/report.csv"]
# a loadable spec in instance.json, for the cases that fail after loading it
DH_SPEC = P.spec_to_json(P.make_classic_dh(23, 5, seed=1))
SPEC_ARGV = ["--spec", "{tmp}/instance.json"]
# deeper than the JSON decoder's recursion allows
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "instance, argv",
    [
        (None, ATTACK_ARGV),
        ("{nope", ATTACK_ARGV),
        ("[1, 2]", ATTACK_ARGV),
        ("{}", ATTACK_ARGV),
        ('{"experiment": "bf_csp", "trials": "x"}', ATTACK_ARGV),
        ('{"experiment": "bf_csp", "degree": 0}', ATTACK_ARGV),
        ('{"experiment": "laver_membership", "level": 9}', ATTACK_ARGV),
        ('{"experiment": "bf_csp", "trials": 2}', [*ATTACK_ARGV[:4], "{tmp}/none/report.csv"]),
        (None, ["verify-laws", "--op", "laver", "--level", "9"]),
        (None, ["verify-laws", "--op", "shifted", "--p", "0"]),
        ('{"experiment": "bf_csp", "trials": 2, "budget": "x"}', ATTACK_ARGV),
        ('{"experiment": "bf_csp", "trials": 2, "budget": true}', ATTACK_ARGV),
        ('{"experiment": "laver_membership", "max_leaves": "x"}', ATTACK_ARGV),
        (None, ["verify-laws", "--op", "conj", "--samples", "0"]),
        (None, ["verify-laws", "--op", "conj", "--samples", "-5"]),
        ('{"experiment": "length_attack", "trials": 1, "m": 0}', ATTACK_ARGV),
        ('{"experiment": "bf_csp", "trials": true}', ATTACK_ARGV),
        ('{"experiment": "length_attack", "trials": 1, "p": true}', ATTACK_ARGV),
        ('{"experiment": "length_attack", "trials": 1, "p": 0}', ATTACK_ARGV),
        ('{"experiment": "length_attack", "trials": 1, "strands": 1}', ATTACK_ARGV),
        ('{"experiment": "length_attack", "trials": 1, "strands": 65}', ATTACK_ARGV),
        ('{"experiment": "length_attack", "trials": 1, "p": 33}', ATTACK_ARGV),
        ('{"experiment": "length_attack", "trials": 1, "secret_length": true}', ATTACK_ARGV),
        ('{"experiment": "length_attack", "trials": 1, "m": true}', ATTACK_ARGV),
        ('{"experiment": "bf_csp", "trials": 1, "degree": true}', ATTACK_ARGV),
        ('{"experiment": "laver_membership", "level": true}', ATTACK_ARGV),
        (DH_SPEC, ["run", *SPEC_ARGV, "--out", "{tmp}/none/t.json"]),
        (None, ["keygen", "--tag", "classic_dh", "--out", "{tmp}/none/spec.json"]),
        (None, ["keygen", "--tag", "classic_dh", "--out", "{tmp}/spec.json",
                "--secrets-out", "{tmp}/none/secrets.json"]),
        (DH_SPEC, ["serve", *SPEC_ARGV, "--address", "foo"]),
        (DH_SPEC, ["NAKEX_LISTEN=bad", "connect", *SPEC_ARGV]),
        (DH_SPEC, ["serve", *SPEC_ARGV, "--address", "127.0.0.1:99999"]),
        (DH_SPEC, ["connect", *SPEC_ARGV, "--address", "127.0.0.1:99999"]),
        (DH_SPEC, ["serve", *SPEC_ARGV, "--timeout", "-1"]),
        (DH_SPEC, ["connect", *SPEC_ARGV, "--timeout", "0"]),
        (DH_SPEC, ["serve", *SPEC_ARGV, "--timeout", "nan"]),
        (DH_SPEC, ["serve", *SPEC_ARGV, "--timeout", "inf"]),
        (None, ["verify-laws", "--op", "conj", "--platform", "s65"]),
        (None, ["verify-laws", "--op", "shifted", "--p", "33"]),
        (None, ["verify-laws", "--op", "shifted", "--a", "1,64"]),
        *((DH_SPEC.replace('"seed":1', f'"seed":{v}'), ["run", *SPEC_ARGV]) for v in ("[1]", "true")),
        *((DH_SPEC.replace('"k":null', f'"k":{v}'), ["run", *SPEC_ARGV]) for v in ('"3"', "2.5", "false")),
        (DH_SPEC.replace('"shift_p":1', '"shift_p":"2"'), ["run", *SPEC_ARGV]),
        (DH_SPEC.replace('"tag":"classic_dh"', '"tag":["classic_dh"]'), ["run", *SPEC_ARGV]),
        (DH_SPEC.replace('"variant":""', '"variant":0'), ["run", *SPEC_ARGV]),
        (DH_SPEC.replace('"secret_exponents":false', '"secret_exponents":0'), ["run", *SPEC_ARGV]),
        (DEEP_JSON, ["run", *SPEC_ARGV]),
        (DEEP_JSON, ATTACK_ARGV),
        ("null", ATTACK_ARGV),
        ('"bf_csp"', ATTACK_ARGV),
        ('{"experiment": "nonsense"}', ATTACK_ARGV),
        ('{"experiment": ["bf_csp"]}', ATTACK_ARGV),
        ('{"experiment": "bf_csp", "trials": 1, "seed": null}', ATTACK_ARGV),
        ('{"experiment": "bf_csp", "trials": 1, "seed": [1]}', ATTACK_ARGV),
        ('{"experiment": "bf_csp", "trials": 1, "seed": true}', ATTACK_ARGV),
        ('{"experiment": "bf_csp", "trials": 1, "seed": "7"}', ATTACK_ARGV),
        ('{"experiment": "bf_csp", "trials": 1, "seed": 1.5}', ATTACK_ARGV),
        ('{"experiment": "laver_membership", "level": 1, "max_leaves": 0}', ATTACK_ARGV),
        *((f'{{"experiment": "{name}", "trials": 1, "degree": 9}}', ATTACK_ARGV)
          for name in ("cdp_to_klp", "sscsp_to_aagp", "inn_centralizer", "bf_csp")),
    ],
    ids=[
        "missing_instance", "invalid_json", "json_list", "no_experiment", "trials_str",
        "degree_0", "level_9", "out_dir_missing", "laws_level_9", "laws_p_0",
        "budget_str", "budget_bool", "max_leaves_str", "laws_samples_0", "laws_samples_neg",
        "m_0", "trials_bool", "p_bool", "p_0", "strands_1", "strands_65", "p_33",
        "secret_length_bool", "m_bool",
        "degree_bool", "level_bool", "run_out_dir_missing", "keygen_out_dir_missing",
        "keygen_secrets_dir_missing", "address_no_port", "listen_env_bad", "serve_port_99999",
        "connect_port_99999", "timeout_neg", "timeout_0", "timeout_nan", "timeout_inf",
        "laws_degree_65", "laws_p_33", "laws_a_65_strands",
        "spec_seed_list", "spec_seed_bool", "spec_k_str", "spec_k_float", "spec_k_bool",
        "spec_shift_p_str", "spec_tag_list", "spec_variant_int", "spec_secret_exponents_int",
        "spec_nested_deep", "attack_nested_deep",
        "json_null", "json_string", "experiment_unknown", "experiment_list", "seed_null",
        "seed_list", "seed_bool", "seed_str", "seed_float", "max_leaves_0",
        "cdp_to_klp_degree_9", "sscsp_to_aagp_degree_9", "inn_centralizer_degree_9",
        "bf_csp_degree_9",
    ],
)
def test_bad_input_exits_2(tmp_path, capsys, monkeypatch, instance, argv):
    if instance is not None:
        (tmp_path / "instance.json").write_text(instance)
    if "=" in argv[0]:  # a leading NAME=value word sets the environment, as in a shell
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    try:
        code = main([arg.format(tmp=tmp_path) for arg in argv])
    except SystemExit as exc:  # argparse rejected an argument
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_attack_unknown_experiment(tmp_path):
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({"experiment": "nonsense"}))
    assert main(["attack", "--instance", str(instance), "--out", str(tmp_path / "r.csv")]) == 2


def _serve_and_connect(spec_path, out_dir):
    """Exit codes of `serve` and `connect` run against each other on loopback,
    writing their transcripts to out_dir."""
    import socket
    import time

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    address = f"127.0.0.1:{port}"
    results = {}

    def serve():
        results["serve"] = main([
            "serve", "--spec", str(spec_path), "--address", address,
            "--out", str(out_dir / "responder.json"), "--timeout", "20",
        ])

    thread = threading.Thread(target=serve)
    thread.start()
    deadline = time.time() + 10
    code = 1
    while time.time() < deadline:
        code = main([
            "connect", "--spec", str(spec_path), "--address", address,
            "--out", str(out_dir / "initiator.json"), "--timeout", "20",
        ])
        if code != 1:  # 1 is also "connection refused": the server is not up yet
            break
        time.sleep(0.2)
    thread.join(timeout=30)
    assert not thread.is_alive()
    return results.get("serve"), code


def test_serve_connect_loopback(tmp_path):
    # drive the CLI session commands end to end over a local socket
    spec = P.random_spec("shifted_commutator", 11)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(P.spec_to_json(spec))
    assert _serve_and_connect(spec_path, tmp_path) == (0, 0)
    assert (tmp_path / "responder.json").read_text() == (tmp_path / "initiator.json").read_text()


@pytest.mark.parametrize("command", ["serve", "connect"])
def test_session_key_mismatch_exits_1(tmp_path, capsys, monkeypatch, command):
    # Bob keys on 1, not on K = 2, so both endpoints' runs raise KeyMismatch
    import socket
    import time

    from nakex import session

    dh = P._SCHEMES["classic_dh"]

    def party(spec, platform, role, rng):
        own = dh.party(spec, platform, role, rng)
        return own if role == P.ALICE else own._replace(finish=lambda peer: (peer[0], 1))

    monkeypatch.setitem(P._SCHEMES, "classic_dh", dh._replace(party=party))
    spec = P.make_classic_dh(23, 5, k=6, l=15, seed=1)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(P.spec_to_json(spec))
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    argv = [command, "--spec", str(spec_path), "--address", f"127.0.0.1:{port}", "--timeout", "20"]
    peer_role = "initiator" if command == "serve" else "responder"
    peer_cfg = session.SessionConfig(role=peer_role, spec=spec, port=port, timeout=20)
    results = {}

    def peer(endpoint, *args):
        # the library endpoint meets the same mismatch; the test reads the CLI's
        try:
            endpoint(peer_cfg, *args)
        except P.KeyMismatch:
            results["peer"] = "KeyMismatch"

    if command == "connect":
        listener = session._bind("127.0.0.1", port, 20)
        thread = threading.Thread(target=peer, args=(session.serve_once, listener))
        thread.start()
        results["cli"] = main(argv)
    else:
        thread = threading.Thread(target=lambda: results.update(cli=main(argv)))
        thread.start()
        deadline = time.time() + 10
        while "peer" not in results and time.time() < deadline:
            try:
                peer(session.connect_and_run)
            except ConnectionRefusedError:  # the CLI is not listening yet
                time.sleep(0.1)
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert results == {"cli": 1, "peer": "KeyMismatch"}
    message = "derived keys differ for tag 'classic_dh', seed 1"
    assert capsys.readouterr().err == f"{command} failed: KeyMismatch: {message}\n"


def _policy_violating_spec(tmp_path):
    # a valid spec whose evaluated secrets exceed its own letter cap
    spec = P.random_spec("shifted_commutator", 3)
    spec = replace(spec, policy=replace(spec.policy, max_word_letters=1))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(P.spec_to_json(spec))
    return spec_path


def test_run_policy_violation_exits_2(tmp_path, capsys):
    assert main(["run", "--spec", str(_policy_violating_spec(tmp_path))]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cap is 1" in err


def test_session_policy_violation_exits_2(tmp_path, capsys):
    assert _serve_and_connect(_policy_violating_spec(tmp_path), tmp_path) == (2, 2)
    err = capsys.readouterr().err
    # connect may print "connection refused" lines while the server starts
    assert err.count("policy violation: ") == 2 and "Traceback" not in err


def test_session_unwritable_out_exits_2(tmp_path, capsys):
    # both ends finish the session, then fail to write the transcript
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(DH_SPEC)
    assert _serve_and_connect(spec_path, tmp_path / "none") == (2, 2)
    err = capsys.readouterr().err
    assert err.count("cannot write ") == 2 and "Traceback" not in err
