"""Process spawning, golden reports and output checks shared by ``run.py``
and ``capture.py``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = BENCH / "golden"

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

# A calibration process: interpreter start and the standard-library imports
# the package makes, no package code. Its wall time tracks the shared
# machine's current speed, by which run.py scales the timed metrics.
CALIBRATION = ["-c", "import argparse, dataclasses, fractions, functools, hashlib, "
               "itertools, json, math, random, typing"]


class Proc:
    """One finished child process: wall time spawn to exit, exit code,
    output and max RSS in KiB."""

    def __init__(self, wall, code, stdout, rss_kb, stderr):
        self.wall, self.code, self.stdout, self.rss_kb, self.stderr = wall, code, stdout, rss_kb, stderr


def _finish(p):
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def spawn(args, cwd, stdin=None, stdin_argv=None, timeout=None):
    """Run ``python args...`` with the checkout's src on the path. With
    ``stdin_argv`` the command reads the stdout of ``python -m toricroots
    stdin_argv`` through a pipe, and the wall time covers both processes."""
    err_path = Path(cwd) / f".stderr-{os.getpid()}"  # one per spawning process
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        first = None
        if stdin_argv is not None:
            first = subprocess.Popen([sys.executable, "-m", "toricroots", *stdin_argv],
                                     cwd=cwd, env=ENV, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, stderr=err)
            src = first.stdout
        else:
            src = subprocess.PIPE if stdin is not None else subprocess.DEVNULL
        p = subprocess.Popen([sys.executable, *args], cwd=cwd, env=ENV,
                             stdin=src, stdout=subprocess.PIPE, stderr=err)
        if first is not None:
            first.stdout.close()
        if stdin is not None:
            p.stdin.write(stdin)
            p.stdin.close()
        killer = None
        if timeout is not None:
            killer = threading.Timer(timeout, p.kill)
            killer.start()
        out = p.stdout.read()
        p.stdout.close()
        rss = _finish(p)
        if first is not None:
            rss = max(rss, _finish(first))
        wall = time.perf_counter() - t0
        if killer is not None:
            killer.cancel()
    return Proc(wall, p.returncode, out, rss, err_path.read_bytes())


def calibrate(cwd):
    """Wall time of one calibration process."""
    proc = spawn(CALIBRATION, cwd)
    if proc.code != 0:
        raise RuntimeError("calibration process failed: " + proc.stderr.decode()[-500:])
    return proc.wall


def spawn_cli(op, cwd, timeout=None):
    return spawn(["-m", "toricroots", *op["argv"]], cwd, stdin_argv=op["stdin_argv"],
                 timeout=timeout)


def spawn_child(mode, cwd, arg=None, stdin=None):
    """Run a mode of child.py with ``arg`` as JSON argument and ``stdin``
    (bytes, or an object sent as JSON); returns (Proc, parsed last line or
    None)."""
    args = [str(BENCH / "child.py"), mode] + ([json.dumps(arg)] if arg is not None else [])
    if stdin is not None and not isinstance(stdin, bytes):
        stdin = json.dumps(stdin).encode()
    proc = spawn(args, cwd, stdin=stdin)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.code != 0 or not lines:
        return proc, None
    return proc, json.loads(lines[-1])


# ---------------------------------------------------------------------------
# goldens


def golden_path(workload):
    return GOLDEN / f"{workload}.json"


def load_golden(workload):
    with open(golden_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks: each returns None when the output is as expected, else a reason


def _text_flag(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip().split(" ")[0] == "yes"
    return None


def _command(argv):
    return "polytope " + argv[1] if argv[0] == "polytope" else argv[0]


def known_answer(op, item, stdout):
    """Check a decision in one op's actual output against the answer the
    input's construction fixes, independently of the golden report."""
    if item is None or op["expect"] != "golden":
        return None
    cmd = _command(op["argv"])
    text = op["format"] == "text"
    try:
        result = None if text else json.loads(stdout)["result"]
        known, got = item.get("known"), {}
        if cmd == "additive":
            got["admits"] = _text_flag(stdout, "admits additive action:") if text else result["admits"]
        elif cmd == "collections" and known is not None:
            count = (int(stdout.splitlines()[0].split(":")[1]) if text else result["count"])
            got["admits"] = count > 0
        elif cmd == "polytope check":
            if text:
                got["admits"] = _text_flag(stdout, "inscribed in a rectangle:")
                fan_side = _text_flag(stdout, "normal fan admits additive action:")
            else:
                got["admits"], fan_side = result["inscribed"], result["fan_admits"]
            if fan_side != got["admits"]:
                return "polytope criterion: inscribed and fan-side answers disagree"
        elif cmd == "fan-check":
            complete = _text_flag(stdout, "complete:") if text else result["complete"]
            if complete != item.get("complete"):
                return f"completeness {complete}, construction says {item.get('complete')}"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"decision not readable from the output ({type(exc).__name__}: {exc})"
    if known is not None and "admits" in got and got["admits"] != known:
        return f"decision {got['admits']}, construction says {known}"
    return None


def check_cli(op, proc, golden, items):
    """Compare one CLI op's exit code and stdout with its known answer and
    its golden report; a wrong known answer is reported first."""
    if op["expect"] == "reject":
        if proc.code != 2:
            return f"exit {proc.code}, expected 2"
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            return "report is not JSON"
        etype = (report.get("error") or {}).get("type")
        if report.get("status") != "invalid" or etype != op["error_type"]:
            return f"status {report.get('status')!r} error {etype!r}, expected invalid {op['error_type']!r}"
        return None
    stdout = proc.stdout.decode("utf-8", "replace")
    why = known_answer(op, items.get(op["item"]), stdout)
    if why:
        return why
    want = golden.get(op["key"])
    if want is None:
        return "no golden report for this operation"
    if proc.code != want["exit"]:
        return f"exit {proc.code}, golden {want['exit']}"
    if stdout != want["stdout"]:
        return "stdout differs from the golden report"
    return None


def check_summary(item, digest, decision, golden):
    """lib-stream: check one item's decision fields against the
    construction's answer, then its summary digest against the golden one."""
    if item["kind"] == "polytope" and decision["inscribed"] != decision["fan_admits"]:
        return "polytope criterion: inscribed and fan-side answers disagree"
    got = decision["admits"] if item["kind"] == "fan" else decision["inscribed"]
    if item.get("known") is not None and got != item["known"]:
        return f"decision {got}, construction says {item['known']}"
    want = golden.get(item["id"])
    if want is None:
        return "no golden summary for this item"
    if digest != want["sha256"]:
        return "pipeline summary differs from the golden one"
    return None
