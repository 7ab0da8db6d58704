"""End-to-end smoke test of the ntserved binary: undo at one shard and
at two, and the replication backend at two.

Usage: python3 serve_smoke.py NTSERVED NTLOAD NTWAL NTTOP

For each mode it starts the server on a fresh Unix socket, then
  * speaks the wire protocol directly (<len>\\n<json> frames): Status of
    an id never issued must answer "pending"; one submission followed by
    a Dump must answer "dumped", and the dump must hold the five
    loop-side stages (read, decode, validate, admit, reply);
  * runs a SmallBank ntload campaign with --shutdown --json, which must
    exit 0 with no alarms and no request-id mismatches;
  * waits for the server to drain on its own, exit 0 and print its
    summary line.

Then a durable round at one shard (--wal, --snapshot-every 20): the
same command line with --shards 2 must exit 2 saying the log requires
a single shard; then a campaign with --shutdown, whose server must
report fewer log syncs than records (one sync per log call, not per
record); a restart on the same log whose Ping must report "recovered"
and whose acknowledged outcomes ntwal verify must
find reproduced, and a restart after one byte of the rotated snapshot
is flipped, which must exit 2 naming the snapshot.

Then the client tools against one server: an open-loop SmallBank
campaign (no alarms, no request-id mismatches, every submission
settled, the generator's lateness reported), a subscribed campaign
that must see telemetry frames, and one nttop panel.  Last, SmallBank
against a server without enough registers must exit 2 naming the
ntserved option that provides them.
"""

import json
import os
import re
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


def probe(sock_path, mode):
    s = connect(sock_path)
    st = call(s, {"type": "status", "txn": "T0.42"})
    if st.get("state") != "pending":
        fail("%s: Status of an unissued id answered %r" % (mode, st))
    call(s, {"type": "hello", "client": "smoke"})
    acc = call(
        s, {"type": "submit", "req": "smoke-1", "program": "(access r0 read)"})
    if acc.get("type") != "accepted":
        fail("%s: submit answered %r" % (mode, acc))
    d = call(s, {"type": "dump"})
    if d.get("type") != "dumped":
        fail("%s: Dump answered %r" % (mode, d))
    with open(d["jsonl"]) as f:
        stages = {json.loads(line).get("stage") for line in f}
    missing = [st for st in LOOP_STAGES if st not in stages]
    if missing:
        fail("%s: dump lacks stages %s" % (mode, missing))
    s.close()


def run_mode(ntserved, ntload, tmp, backend, shards):
    mode = "%s shards=%d" % (backend, shards)
    sock_path = os.path.join(tmp, "%s%d.sock" % (backend, shards))
    flight_dir = os.path.join(tmp, "flight-%s%d" % (backend, shards))
    os.mkdir(flight_dir)
    srv = subprocess.Popen(
        [ntserved, "--socket", sock_path, "--backend", backend,
         "--shards", str(shards), "--types", "rw", "--objects", "16",
         "--seed", "11", "--no-gc-trace", "--flight-dir", flight_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        probe(sock_path, mode)
        load = subprocess.run(
            [ntload, "--socket", sock_path, "--workload", "smallbank",
             "--clients", "4", "--requests", "25", "--seed", "5",
             "--shutdown", "--json"],
            capture_output=True, text=True, timeout=60)
        if load.returncode != 0:
            fail("%s: ntload exited %d\n%s%s"
                 % (mode, load.returncode, load.stdout, load.stderr))
        for key in ['"server_alarms":0', '"req_mismatches":0']:
            if key not in load.stdout:
                fail("%s: ntload JSON lacks %s\n%s"
                     % (mode, key, load.stdout))
        out, _ = srv.communicate(timeout=30)
    finally:
        if srv.poll() is None:
            srv.kill()
            srv.wait()
    if srv.returncode != 0:
        fail("%s: ntserved exited %d\n%s" % (mode, srv.returncode, out))
    if "ntserved: served " not in out or "0 monitor alarms" not in out:
        fail("%s: no clean summary line\n%s" % (mode, out))


def durable_round(ntserved, ntload, ntwal, tmp):
    sock_path = os.path.join(tmp, "ntwal.sock")
    wal = os.path.join(tmp, "nt.wal")
    argv = [ntserved, "--socket", sock_path, "--backend", "undo",
            "--types", "rw", "--objects", "16", "--seed", "11",
            "--no-gc-trace", "--flight", "0", "--wal", wal,
            "--snapshot-every", "20"]

    def start():
        return subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)

    refused = subprocess.run(argv + ["--shards", "2"], capture_output=True,
                             text=True, timeout=30)
    if (refused.returncode != 2
            or "requires a single shard" not in refused.stderr):
        fail("wal: --shards 2 --wal exited %d\n%s"
             % (refused.returncode, refused.stderr))
    srv = start()
    try:
        load = subprocess.run(
            [ntload, "--socket", sock_path, "--workload", "smallbank",
             "--clients", "4", "--requests", "25", "--seed", "5",
             "--shutdown"],
            capture_output=True, text=True, timeout=60)
        if load.returncode != 0:
            fail("wal: ntload exited %d\n%s%s"
                 % (load.returncode, load.stdout, load.stderr))
        out, _ = srv.communicate(timeout=30)
        if srv.returncode != 0:
            fail("wal: ntserved exited %d\n%s" % (srv.returncode, out))
        if not os.path.exists(wal + ".snap"):
            fail("wal: no snapshot after the campaign")
        # One write and one sync per log call: a turn's cut carries its
        # Steps record and every outcome behind it under one fsync, so
        # at the default --fsync-batch 1 syncs fall short of records.
        m = re.search(r"^ntserved: wal (\d+) records in (\d+) syncs$", out,
                      re.MULTILINE)
        if m is None or int(m.group(2)) >= int(m.group(1)):
            fail("wal: no sync-ratio line with fewer syncs than records\n%s"
                 % out)
        srv = start()
        s = connect(sock_path)
        deadline = time.time() + 10
        while True:
            pong = call(s, {"type": "ping"})
            if pong.get("status") != "recovering":
                break
            if time.time() > deadline:
                fail("wal: recovery did not finish")
            time.sleep(0.02)
        if pong.get("status") != "recovered":
            fail("wal: restart answered Ping with %r" % pong)
        verify = subprocess.run([ntwal, "verify", wal, "--socket", sock_path],
                                capture_output=True, text=True, timeout=60)
        if verify.returncode != 0 or "recovered server, 0 mismatches" \
                not in verify.stdout:
            fail("wal: ntwal verify exited %d\n%s%s"
                 % (verify.returncode, verify.stdout, verify.stderr))
        call(s, {"type": "shutdown"})
        s.close()
        out, _ = srv.communicate(timeout=30)
        if srv.returncode != 0:
            fail("wal: restarted ntserved exited %d\n%s"
                 % (srv.returncode, out))
        with open(wal + ".snap", "r+b") as f:
            f.seek(os.path.getsize(wal + ".snap") // 2)
            byte = f.read(1)
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([byte[0] ^ 0x10]))
        srv = start()
        out, _ = srv.communicate(timeout=30)
        if srv.returncode != 2 or wal + ".snap" not in out:
            fail("wal: corrupt rotated snapshot gave exit %d\n%s"
                 % (srv.returncode, out))
    finally:
        if srv.poll() is None:
            srv.kill()
            srv.wait()


def run_load(ntload, sock_path, what, args):
    load = subprocess.run([ntload, "--socket", sock_path] + args,
                          capture_output=True, text=True, timeout=60)
    if load.returncode != 0:
        fail("%s: ntload exited %d\n%s%s"
             % (what, load.returncode, load.stdout, load.stderr))
    return json.loads(load.stdout)


def tools_round(ntserved, ntload, nttop, tmp):
    sock_path = os.path.join(tmp, "tools.sock")
    srv = subprocess.Popen(
        [ntserved, "--socket", sock_path, "--backend", "undo",
         "--types", "rw", "--objects", "16", "--seed", "11",
         "--no-gc-trace", "--flight", "0", "--telemetry-interval", "0.2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        r = run_load(ntload, sock_path, "open loop",
                     ["--workload", "smallbank", "--clients", "4",
                      "--requests", "25", "--seed", "5", "--open-loop",
                      "300", "--json"])
        for key in ["server_alarms", "req_mismatches"]:
            if r.get(key) != 0:
                fail("open loop: %s is %r" % (key, r.get(key)))
        if "open_loop_late_ms_max" not in r:
            fail("open loop: JSON lacks open_loop_late_ms_max")
        if r["committed"] + r["aborted"] != r["submitted"]:
            fail("open loop: %d committed + %d aborted != %d submitted"
                 % (r["committed"], r["aborted"], r["submitted"]))
        r = run_load(ntload, sock_path, "subscribe",
                     ["--clients", "2", "--requests", "10", "--seed", "5",
                      "--subscribe", "--json"])
        if r.get("telemetry_frames", 0) < 1:
            fail("subscribe: no telemetry frames in %r" % r)
        top = subprocess.run([nttop, "--socket", sock_path, "--once"],
                             capture_output=True, text=True, timeout=60)
        if top.returncode != 0 or "ntserved  seq" not in top.stdout:
            fail("nttop --once exited %d\n%s%s"
                 % (top.returncode, top.stdout, top.stderr))
        run_load(ntload, sock_path, "shutdown",
                 ["--requests", "0", "--shutdown", "--json"])
        out, _ = srv.communicate(timeout=30)
    finally:
        if srv.poll() is None:
            srv.kill()
            srv.wait()
    if srv.returncode != 0:
        fail("tools: ntserved exited %d\n%s" % (srv.returncode, out))
    sock_path = os.path.join(tmp, "mixed.sock")
    srv = subprocess.Popen(
        [ntserved, "--socket", sock_path, "--backend", "undo",
         "--types", "mixed", "--objects", "4", "--seed", "11",
         "--no-gc-trace", "--flight", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        load = subprocess.run(
            [ntload, "--socket", sock_path, "--workload", "smallbank"],
            capture_output=True, text=True, timeout=60)
        if load.returncode != 2 or "--types rw" not in load.stderr:
            fail("smallbank without registers exited %d\n%s"
                 % (load.returncode, load.stderr))
    finally:
        srv.kill()
        srv.wait()


def main():
    ntserved, ntload, ntwal, nttop = (
        os.path.abspath(p) for p in sys.argv[1:5])
    tmp = tempfile.mkdtemp(prefix="ntsmoke")
    try:
        for backend, shards in (("undo", 1), ("undo", 2), ("replication", 2)):
            run_mode(ntserved, ntload, tmp, backend, shards)
        durable_round(ntserved, ntload, ntwal, tmp)
        tools_round(ntserved, ntload, nttop, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


main()
