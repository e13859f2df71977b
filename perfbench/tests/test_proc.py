"""/proc CPU and RSS accounting across forked children."""

import os
import time

import pytest

from common import RssMonitor, cpu_by_role, cpu_snapshot, tree_depths


def _burn(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


ROLES = {0: "front", 1: "worker", 2: "pool"}


def test_cpu_of_a_reaped_child_counts_for_the_child_role():
    start = cpu_snapshot(os.getpid())
    pid = os.fork()
    if pid == 0:  # child: burn, exit without cleanup
        _burn(0.4)
        os._exit(0)
    os.waitpid(pid, 0)
    end = cpu_snapshot(os.getpid())
    roles = cpu_by_role(start, end, ROLES)
    assert roles["worker"] == pytest.approx(0.4, abs=0.1)
    assert roles["front"] < 0.2


def test_cpu_of_live_and_grandchild_processes():
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: fork a grandchild that burns, reap it, then wait
        os.close(read_fd)
        grandchild = os.fork()
        if grandchild == 0:
            _burn(0.3)
            os._exit(0)
        os.waitpid(grandchild, 0)
        _burn(0.2)
        os.write(write_fd, b"x")
        time.sleep(5)
        os._exit(0)
    os.close(write_fd)
    start = {p: v for p, v in cpu_snapshot(os.getpid()).items() if p != pid}
    os.read(read_fd, 1)
    try:
        depths = tree_depths(os.getpid())
        assert depths[pid] == 1
        end = cpu_snapshot(os.getpid())
        roles = cpu_by_role(start, end, ROLES)
        assert roles["worker"] == pytest.approx(0.2, abs=0.1)
        assert roles["pool"] == pytest.approx(0.3, abs=0.1)
    finally:
        os.kill(pid, 9)
        os.waitpid(pid, 0)


def test_rss_monitor_sums_the_tree():
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        block = bytearray(64 * 1024 * 1024)  # touched: 64 MB resident
        for i in range(0, len(block), 4096):
            block[i] = 1
        os.write(write_fd, b"x")
        time.sleep(5)
        os._exit(0)
    os.close(write_fd)
    os.read(read_fd, 1)
    try:
        alone = RssMonitor(os.getpid())
        with alone:
            pass
        own_mb = sum(
            int(line.split()[1]) for line in open("/proc/self/status")
            if line.startswith("VmHWM:")) / 1024
        assert alone.peak_mb >= own_mb + 60
    finally:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
