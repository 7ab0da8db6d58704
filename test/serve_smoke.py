"""End-to-end smoke test of the ntserved binary, at one shard and at two.

Usage: python3 serve_smoke.py NTSERVED NTLOAD

For each mode it starts the server on a fresh Unix socket, then
  * speaks the wire protocol directly (<len>\\n<json> frames): Status of
    an id never issued must answer "pending"; one submission followed by
    a Dump must answer "dumped", and the dump must hold the five
    loop-side stages (read, decode, validate, admit, reply);
  * runs a SmallBank ntload campaign with --shutdown --json, which must
    exit 0 with no alarms and no request-id mismatches;
  * waits for the server to drain on its own, exit 0 and print its
    summary line.
"""

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time

LOOP_STAGES = ["read", "decode", "validate", "admit", "reply"]


def fail(msg):
    print("serve_smoke: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def connect(path):
    deadline = time.time() + 5
    while True:
        try:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.connect(path)
            s.settimeout(5)
            return s
        except OSError:
            if time.time() > deadline:
                fail("server did not start listening on " + path)
            time.sleep(0.02)


def call(s, req):
    payload = json.dumps(req).encode()
    s.sendall(str(len(payload)).encode() + b"\n" + payload)
    head = b""
    while not head.endswith(b"\n"):
        head += s.recv(1)
    n = int(head)
    body = b""
    while len(body) < n:
        body += s.recv(n - len(body))
    return json.loads(body)


def probe(sock_path, tmp, shards):
    s = connect(sock_path)
    st = call(s, {"type": "status", "txn": "T0.42"})
    if st.get("state") != "pending":
        fail("shards=%d: Status of an unissued id answered %r" % (shards, st))
    call(s, {"type": "hello", "client": "smoke"})
    acc = call(
        s, {"type": "submit", "req": "smoke-1", "program": "(access r0 read)"})
    if acc.get("type") != "accepted":
        fail("shards=%d: submit answered %r" % (shards, acc))
    d = call(s, {"type": "dump"})
    if d.get("type") != "dumped":
        fail("shards=%d: Dump answered %r" % (shards, d))
    with open(d["jsonl"]) as f:
        stages = {json.loads(line).get("stage") for line in f}
    missing = [st for st in LOOP_STAGES if st not in stages]
    if missing:
        fail("shards=%d: dump lacks stages %s" % (shards, missing))
    s.close()


def run_mode(ntserved, ntload, tmp, shards):
    sock_path = os.path.join(tmp, "nt%d.sock" % shards)
    flight_dir = os.path.join(tmp, "flight%d" % shards)
    os.mkdir(flight_dir)
    srv = subprocess.Popen(
        [ntserved, "--socket", sock_path, "--backend", "undo",
         "--shards", str(shards), "--types", "rw", "--objects", "16",
         "--seed", "11", "--no-gc-trace", "--flight-dir", flight_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        probe(sock_path, tmp, shards)
        load = subprocess.run(
            [ntload, "--socket", sock_path, "--workload", "smallbank",
             "--clients", "4", "--requests", "25", "--seed", "5",
             "--shutdown", "--json"],
            capture_output=True, text=True, timeout=60)
        if load.returncode != 0:
            fail("shards=%d: ntload exited %d\n%s%s"
                 % (shards, load.returncode, load.stdout, load.stderr))
        for key in ['"server_alarms":0', '"req_mismatches":0']:
            if key not in load.stdout:
                fail("shards=%d: ntload JSON lacks %s\n%s"
                     % (shards, key, load.stdout))
        out, _ = srv.communicate(timeout=30)
    finally:
        if srv.poll() is None:
            srv.kill()
            srv.wait()
    if srv.returncode != 0:
        fail("shards=%d: ntserved exited %d\n%s" % (shards, srv.returncode, out))
    if "ntserved: served " not in out or "0 monitor alarms" not in out:
        fail("shards=%d: no clean summary line\n%s" % (shards, out))


def main():
    ntserved, ntload = (os.path.abspath(p) for p in sys.argv[1:3])
    tmp = tempfile.mkdtemp(prefix="ntsmoke")
    try:
        for shards in (1, 2):
            run_mode(ntserved, ntload, tmp, shards)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


main()
