"""Run the micpq command line and report its own peak resident set size
and host speed.

    python3 perfbench/cli_peak.py COMMAND [ARGS...]

Behaves as ``micpq COMMAND ARGS...`` while probing host speed as
:mod:`hostspeed` does, and then writes
``peak_rss_kib=N probe_s=P probe_total_s=T`` as the last line of
stderr.  N is the process's VmHWM, which counts only memory touched
after exec (``ru_maxrss`` of a child started with vfork also counts the
parent's pages); P is the trimmed mean probe time and T the time all
probes took.
"""
import runpy
import sys

from hostspeed import HostSpeed


def _vm_hwm_kib() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


if __name__ == "__main__":
    sys.argv = ["micpq"] + sys.argv[1:]
    speed = HostSpeed()
    speed.burst()
    try:
        with speed.sampling():
            runpy.run_module("micpq.cli", run_name="__main__", alter_sys=True)
    finally:
        probe, probe_total = speed.summary()
        print(f"peak_rss_kib={_vm_hwm_kib()} probe_s={probe!r} probe_total_s={probe_total!r}",
              file=sys.stderr)
