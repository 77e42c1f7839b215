"""Reference values of the suite outputs and the check against them.

``extract(out_dir)`` reads the values that matter from a suite's artifacts.
Deterministic values are compared by relative tolerance, the same ones the
tests use.  Monte Carlo outputs are stored as ``[successes, trials]`` and
compared within ``Z_LIMIT`` combined standard errors, so a change of the
random trajectories with the same law still passes.  The seeded values (the
hitting catalog and the coupling) are frozen for the default seed only; on
any other seed they are left to the suite's own checks.

    python3 reference.py OUT_DIR    # print the values extracted from OUT_DIR
"""

from __future__ import annotations

import json
import math
import os
import sys

DEFAULT_SEED = 42
Z_LIMIT = 4.0

# key prefix -> ("rel", tolerance) or ("z", limit)
TOLERANCES = {
    "harnack.C_H": ("rel", 1e-8),
    "harnack.rho": ("rel", 1e-6),
    "heat.d_s": ("rel", 1e-9),
    "heat.d_w": ("rel", 1e-6),
    "resist.face": ("rel", 1e-9),
    "resist.R_N": ("rel", 1e-6),
    "hitting.min": ("rel", 1e-6),
    "couple.p_hat": ("z", Z_LIMIT),
    "couple.upgrade": ("z", Z_LIMIT),
}
SEEDED = ("hitting.", "couple.")  # prefixes of seed-dependent values


def _load(out_dir, name):
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def extract(out_dir: str) -> dict:
    """Reference-checked values found in a suite output directory."""
    values = {}
    if data := _load(out_dir, "harnack.json"):
        for rep in data["reports"]:
            values[f"harnack.C_H.{rep['level']}"] = rep["constant"]
            values[f"harnack.rho.{rep['level']}"] = rep["rho"]
    if data := _load(out_dir, "heat.json"):
        values["heat.d_s"] = data["ds"]["value"]
        values["heat.d_w"] = data["dw"]["value"]
    if data := _load(out_dir, "resist.json"):
        for n, r in data["face"].items():
            values[f"resist.face.{n}"] = r
        inf = data["to_infinity"]
        for n, r in zip(inf["levels"], inf["resistances"]):
            values[f"resist.R_N.{n}"] = r
    if data := _load(out_dir, "hitting.json"):
        for m, p in data["minima"].items():
            values[f"hitting.min.{m}"] = p
    if data := _load(out_dir, "couple.json"):
        values["couple.p_hat"] = [data["coupled"], data["valid"]]
        up = data["upgrade"]
        values["couple.upgrade"] = [up["successes"], up["valid"]]
    return values


def _tolerance(key):
    for prefix, tol in TOLERANCES.items():
        if key == prefix or key.startswith(prefix + "."):
            return tol
    raise KeyError(f"no tolerance for {key}")


def _smoothed_se(successes, trials):
    p = (successes + 1.0) / (trials + 2.0)
    return math.sqrt(p * (1.0 - p) / trials)


def compare(found: dict, frozen: dict, seed: int) -> list:
    """Descriptions of the values that miss their reference (empty: all match)."""
    misses = []
    for key, ref in sorted(frozen.items()):
        if key.startswith(SEEDED) and seed != DEFAULT_SEED:
            continue
        if key not in found:
            misses.append(f"{key}: missing (reference {ref!r})")
            continue
        got = found[key]
        kind, limit = _tolerance(key)
        if kind == "rel":
            if not abs(got - ref) <= limit * abs(ref):
                misses.append(f"{key}: {got!r} vs reference {ref!r} (rel tol {limit:g})")
        else:
            (s1, n1), (s2, n2) = got, ref
            if n1 <= 0:
                misses.append(f"{key}: no valid trials")
                continue
            se = math.hypot(_smoothed_se(s1, n1), _smoothed_se(s2, n2))
            z = abs(s1 / n1 - s2 / n2) / se
            if not z <= limit:
                misses.append(f"{key}: {s1}/{n1} vs reference {s2}/{n2} ({z:.2f} combined SE > {limit:g})")
    return misses


def load_frozen(path: str, workload: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


if __name__ == "__main__":
    print(json.dumps(extract(sys.argv[1]), indent=1, sort_keys=True))
