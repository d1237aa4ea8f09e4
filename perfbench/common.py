"""Paths, output checks and known failures shared by both kinds of run."""

from __future__ import annotations

import json
import os
import pathlib

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
NOTES = json.loads((BENCH_DIR / "workloads.json").read_text())


def tm_env() -> dict:
    """Environment of a `tm` process: the checkout's sources first, a
    fixed hash seed so that set iteration order repeats between runs, and
    bytecode caching on, as in an installed package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def known_failure(workload, metric, code, err) -> bool:
    """Whether a wrong result is a defect recorded in workloads.json."""
    return any(k["workload"] == workload and k["metric"] == metric
               and k["exit"] == code and k["stderr"] in err
               for k in NOTES["known_failures"])


# -- checks of a command's exit code and stdout against the reference --

def _check_check(wl, code, out):
    return (code, out) == wl.expect_check


def _check_fmt(wl, code, out):
    return code == 0 and out == wl.expect_fmt


def _check_simulate(wl, code, out):
    return (code, out) == wl.expect_sim


def _check_dot(wl, code, out):
    counts = {
        "clusters": out.count('subgraph "cluster_'),
        "actions": out.count(" [label="),
        "stores": out.count("[shape=cylinder"),
        "flows": sum(line.endswith('";') and " -> " in line
                     for line in out.splitlines()),
        "triggers": out.count(" [style=dashed];"),
    }
    return code == 0 and counts == wl.expect_dot


def _check_to_class(wl, code, out):
    try:
        return code == 0 and json.loads(out)["classes"] == wl.expect_classes
    except (json.JSONDecodeError, KeyError, TypeError):
        return False


def _check_to_tm(wl, code, out):
    return code == 0 and out == wl.expect_to_tm


def _check_empty(wl, code, out):
    return (code, out) == (0, "")


#: end-to-end metric -> check of the output of the command it times
CHECKS = {
    "setup_s": _check_empty,
    "check_s": _check_check,
    "fmt_s": _check_fmt,
    "simulate_s": _check_simulate,
    "dot_s": _check_dot,
    "to_class_s": _check_to_class,
    "to_tm_s": _check_to_tm,
}
