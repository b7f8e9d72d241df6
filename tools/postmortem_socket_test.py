#!/usr/bin/env python3
"""elan_postmortem renders flight events from the event table.

Writes a flight record (format v1, see src/obs/flight.cpp) holding the two
event kinds only the socket transport records, exactly as SocketTransport
records them, plus two kinds rendered from the table alone, and asserts the
rendered timeline shows:

  1. kSockError: the error's full name (the recorded detail is cut to 17
     characters) and its numeric code;
  2. kLinkState: the link transition, each state by name;
  3. kFaultArmed: the fault kind and the window bounds under their labels;
  4. kReplicationReplan: the three labelled fields of its table row.

Usage: postmortem_socket_test.py <elan_postmortem>
"""
import os
import struct
import subprocess
import sys
import tempfile

KIND_SOCK_ERROR = 60  # obs::FlightEventKind::kSockError
KIND_LINK_STATE = 61  # obs::FlightEventKind::kLinkState
KIND_FAULT_ARMED = 53  # obs::FlightEventKind::kFaultArmed
KIND_REPLICATION_REPLAN = 42  # obs::FlightEventKind::kReplicationReplan
BODY_LENGTH_MISMATCH = 5  # transport::SocketError::kBodyLengthMismatch
CONNECTING, UP = 1, 2  # transport::LinkState

# obs::FlightEvent: ts_us, seq, a, b, c, thread, kind, actor[17], detail[18].
EVENT = struct.Struct("<dQQQQIB17s18s")


def event(ts_us, seq, kind, actor, detail, a=0, b=0, c=0):
    # The recorder keeps at most 16 actor and 17 detail characters plus NUL.
    return EVENT.pack(ts_us, seq, a, b, c, 0, kind, actor[:16].encode(),
                      detail[:17].encode())


def record(events):
    """One ring, no metrics section: a crash-path record (format v2, origin 1)."""
    head = b"ELANFLT\x02" + struct.pack("<III", EVENT.size, 1, 1)
    ring = struct.pack("<IIQ", 0, len(events), len(events)) + b"".join(events)
    return head + ring + struct.pack("<Q", 0)


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: postmortem_socket_test.py <elan_postmortem>")
    if EVENT.size != 80:
        sys.exit(f"FAIL: event layout is {EVENT.size} bytes, expected 80")
    postmortem = os.path.abspath(sys.argv[1])
    events = [
        event(10.0, 1, KIND_LINK_STATE, "am+job0", "up", a=CONNECTING, b=UP),
        event(20.0, 2, KIND_SOCK_ERROR, "conn/w3+job0", "body-length-mismatch",
              a=BODY_LENGTH_MISMATCH),
        event(30.0, 3, KIND_FAULT_ARMED, "fault", "drop_link", a=3500, b=4750),
        event(40.0, 4, KIND_REPLICATION_REPLAN, "job0", "", a=2, b=5, c=1),
    ]
    with tempfile.TemporaryDirectory(prefix="elan_pm_sock.") as tmp:
        path = os.path.join(tmp, "socket.flt")
        with open(path, "wb") as f:
            f.write(record(events))
        proc = subprocess.run([postmortem, path], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
    text = proc.stdout.decode(errors="replace")
    if proc.returncode != 0:
        sys.exit(f"FAIL: elan_postmortem exited {proc.returncode}:\n{text}")
    for needle, why in [
        ("body-length-mismatch code=5", "the socket error's name or code is missing"),
        ("up from=connecting to=up", "the link transition is missing"),
        ("fault.armed", "the fault.armed kind has no name"),
        ("drop_link from_ms=3500 until_ms=4750", "the armed window's bounds are missing"),
        ("resumed=2 kept_chunks=5 replans=1", "the re-plan's labelled fields are missing"),
    ]:
        if needle not in text:
            sys.exit(f"FAIL: {why} (no '{needle}' in the render):\n{text}")
    print("postmortem renders socket errors, link transitions and table rows")


if __name__ == "__main__":
    main()
