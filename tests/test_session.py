import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nakex import protocols as P
from nakex import session as S
from nakex.braid import Permutation
from nakex.platforms import encode_element


# -- frame codec ----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([S.FRAME_HELLO, S.FRAME_PUBLIC_KEYS, S.FRAME_KEY_CONFIRM, S.FRAME_ERROR]),
    st.binary(max_size=4096),
)
def test_frame_roundtrip(ftype, payload):
    data = S.encode_frame(ftype, payload)
    got_type, got_payload, used = S.decode_frame(data)
    assert (got_type, got_payload, used) == (ftype, payload, len(data))


def test_frame_roundtrip_one_mebibyte():
    payload = bytes(range(256)) * 4096  # 1 MiB
    data = S.encode_frame(S.FRAME_PUBLIC_KEYS, payload)
    got_type, got_payload, _ = S.decode_frame(data)
    assert got_type == S.FRAME_PUBLIC_KEYS and got_payload == payload


def test_frame_malformed():
    with pytest.raises(S.MalformedFrame):
        S.decode_frame(b"\x00\x00")
    with pytest.raises(S.MalformedFrame):
        S.decode_frame(struct.pack(">IB", 10, S.FRAME_HELLO) + b"short")
    with pytest.raises(S.MalformedFrame):
        S.decode_frame(struct.pack(">IB", 0, 0x42))
    with pytest.raises(ValueError):
        S.encode_frame(0x42, b"")


def test_encode_frame_refuses_a_payload_over_the_cap():
    # at the cap the frame round-trips; one byte more is refused before the
    # frame is built, instead of being sent to a peer that refuses it
    payload = bytes(S.MAX_FRAME_PAYLOAD)
    ftype, got, used = S.decode_frame(S.encode_frame(S.FRAME_PUBLIC_KEYS, payload))
    assert (ftype, len(got), used) == (S.FRAME_PUBLIC_KEYS, S.MAX_FRAME_PAYLOAD, 5 + S.MAX_FRAME_PAYLOAD)
    del payload, got
    with pytest.raises(S.MalformedFrame, match="exceeds the cap"):
        S.encode_frame(S.FRAME_PUBLIC_KEYS, bytes(S.MAX_FRAME_PAYLOAD + 1))


def test_frame_over_cap_is_malformed():
    # the header alone is refused: no payload is buffered or awaited
    header = struct.pack(">IB", S.MAX_FRAME_PAYLOAD + 1, S.FRAME_PUBLIC_KEYS)
    with pytest.raises(S.MalformedFrame, match="exceeds the cap"):
        S.decode_frame(header)
    left, right = socket.socketpair()
    with left, right:
        right.settimeout(5)
        left.sendall(header)
        with pytest.raises(S.MalformedFrame, match="exceeds the cap"):
            S.read_frame(right)


# -- loopback sessions ------------------------------------------------------------


def _bound_server():
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    server.settimeout(20)
    return server, server.getsockname()[1]


def _run_loopback(spec_responder, spec_initiator):
    server, port = _bound_server()
    results: dict = {}

    def responder():
        cfg = S.SessionConfig("responder", spec_responder, port=port, timeout=20)
        try:
            results["responder"] = S.serve_once(cfg, server)
        except S.SessionError as exc:
            results["responder_error"] = exc

    thread = threading.Thread(target=responder)
    thread.start()
    cfg = S.SessionConfig("initiator", spec_initiator, port=port, timeout=20)
    try:
        results["initiator"] = S.connect_and_run(cfg)
    except S.SessionError as exc:
        results["initiator_error"] = exc
    thread.join(timeout=30)
    return results


def test_loopback_shifted_commutator():
    spec = P.random_spec("shifted_commutator", 7)
    results = _run_loopback(spec, spec)
    initiator, responder = results["initiator"], results["responder"]
    assert initiator.extracted_key == responder.extracted_key
    assert P.transcript_to_json(initiator) == P.transcript_to_json(responder)
    # loopback agrees with the in-process run, byte for byte
    assert P.transcript_to_json(P.run(spec)) == P.transcript_to_json(initiator)


def test_loopback_finite_platform():
    spec = P.random_spec("aag_commutator", 8)
    results = _run_loopback(spec, spec)
    assert results["initiator"].extracted_key == results["responder"].extracted_key


def test_spec_mismatch_aborts_before_keys():
    spec_a = P.random_spec("shifted_commutator", 1)
    spec_b = P.random_spec("shifted_commutator", 2)
    assert P.spec_digest(spec_a) != P.spec_digest(spec_b)
    results = _run_loopback(spec_a, spec_b)
    assert isinstance(results.get("initiator_error"), S.SessionError)
    assert isinstance(results.get("responder_error"), S.SessionError)
    assert any(
        isinstance(results.get(k), S.SpecMismatch)
        for k in ("initiator_error", "responder_error")
    )


def test_truncated_frame_aborts_session():
    server, port = _bound_server()
    spec = P.random_spec("aag_commutator", 9)
    errors = {}

    def responder():
        cfg = S.SessionConfig("responder", spec, port=port, timeout=5)
        try:
            S.serve_once(cfg, server)
        except S.SessionError as exc:
            errors["responder"] = exc

    thread = threading.Thread(target=responder)
    thread.start()
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(struct.pack(">IB", 32, S.FRAME_HELLO) + b"too short")
        sock.shutdown(socket.SHUT_WR)
    thread.join(timeout=10)
    assert isinstance(errors.get("responder"), S.MalformedFrame)


def test_unknown_frame_type_aborts_session():
    server, port = _bound_server()
    spec = P.random_spec("aag_commutator", 10)
    errors = {}

    def responder():
        cfg = S.SessionConfig("responder", spec, port=port, timeout=5)
        try:
            S.serve_once(cfg, server)
        except S.SessionError as exc:
            errors["responder"] = exc

    thread = threading.Thread(target=responder)
    thread.start()
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(struct.pack(">IB", 4, 0x55) + b"oops")
    thread.join(timeout=10)
    assert isinstance(errors.get("responder"), S.MalformedFrame)


@pytest.mark.parametrize("forgery", ["other_element", "cut_off"])
def test_wrong_public_key_list_is_refused(forgery):
    # a peer with the right Hello that sends a public key list other than the
    # spec's gets an Error frame, and the honest side raises ConfirmMismatch
    server, port = _bound_server()
    spec = P.random_spec("aag_commutator", 11)
    platform = P.work_platform(spec)
    messages = list(P.run(spec).alice_messages)
    if forgery == "other_element":
        swap = Permutation((2, 1) + tuple(range(3, platform.degree + 1)))
        messages[0] = platform.mul(messages[0], swap)
    payload = b"".join(encode_element(platform, x) for x in messages)
    if forgery == "cut_off":
        payload = payload[:-1]
    errors = {}

    def responder():
        cfg = S.SessionConfig("responder", spec, port=port, timeout=5)
        try:
            S.serve_once(cfg, server)
        except S.SessionError as exc:
            errors["responder"] = exc

    thread = threading.Thread(target=responder)
    thread.start()
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(S.encode_frame(S.FRAME_HELLO, bytes.fromhex(P.spec_digest(spec))))
        assert S.read_frame(sock)[0] == S.FRAME_HELLO
        sock.sendall(S.encode_frame(S.FRAME_PUBLIC_KEYS, payload))
        assert S.read_frame(sock)[0] == S.FRAME_PUBLIC_KEYS
        reply, _ = S.read_frame(sock)
    thread.join(timeout=10)
    assert reply == S.FRAME_ERROR
    assert isinstance(errors.get("responder"), S.ConfirmMismatch)


@pytest.mark.parametrize(
    "fault, error, message",
    [
        ("wrong_confirm", S.ConfirmMismatch, "peer key confirmation does not match"),
        ("error_frame", S.SessionError, "peer error: no keys for you"),
        ("confirm_for_keys", S.MalformedFrame, "expected frame 0x2, got 0x3"),
    ],
)
def test_peer_fault_is_refused(fault, error, message):
    # a peer with the right Hello that then sends a wrong KeyConfirm, an Error
    # frame, or a KeyConfirm where its PublicKeyList is due
    server, port = _bound_server()
    spec = P.random_spec("aag_commutator", 11)
    platform = P.work_platform(spec)
    payload = b"".join(encode_element(platform, x) for x in P.run(spec).alice_messages)
    errors = {}

    def responder():
        cfg = S.SessionConfig("responder", spec, port=port, timeout=5)
        try:
            S.serve_once(cfg, server)
        except S.SessionError as exc:
            errors["responder"] = exc

    thread = threading.Thread(target=responder)
    thread.start()
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(S.encode_frame(S.FRAME_HELLO, bytes.fromhex(P.spec_digest(spec))))
        assert S.read_frame(sock)[0] == S.FRAME_HELLO
        if fault == "wrong_confirm":
            sock.sendall(S.encode_frame(S.FRAME_PUBLIC_KEYS, payload))
            assert S.read_frame(sock)[0] == S.FRAME_PUBLIC_KEYS
            sock.sendall(S.encode_frame(S.FRAME_KEY_CONFIRM, bytes(32)))
            assert S.read_frame(sock)[0] == S.FRAME_KEY_CONFIRM
        elif fault == "error_frame":
            sock.sendall(S.encode_frame(S.FRAME_ERROR, b"no keys for you"))
        else:
            sock.sendall(S.encode_frame(S.FRAME_KEY_CONFIRM, bytes(32)))
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert type(errors.get("responder")) is error
    assert str(errors["responder"]) == message


@pytest.mark.parametrize(
    "sent", [b"", struct.pack(">IB", 4, S.FRAME_PUBLIC_KEYS) + b"ab"],
    ids=["no_header", "short_payload"],
)
def test_read_frame_times_out(sent):
    left, right = socket.socketpair()
    with left, right:
        right.settimeout(0.05)
        left.sendall(sent)
        with pytest.raises(S.SessionTimeout) as exc:
            S.read_frame(right)
    assert type(exc.value) is S.SessionTimeout
    assert str(exc.value) == "timed out waiting for the peer"


def test_session_config_validation():
    spec = P.random_spec("classic_dh", 0)
    with pytest.raises(ValueError):
        S.SessionConfig("bystander", spec)


def test_responder_times_out_without_peer():
    server, port = _bound_server()
    server.settimeout(0.2)
    spec = P.random_spec("classic_dh", 1)
    cfg = S.SessionConfig("responder", spec, port=port, timeout=0.2)
    with pytest.raises(S.SessionTimeout):
        S.serve_once(cfg, server)
