"""One measurement in a fresh interpreter; prints a JSON line last.

    python3 child.py setup  --config CFG
    python3 child.py suite  --config CFG --out DIR --seed N [--trace]

``setup`` stops once ``carpetlab.cli`` is imported and the config parsed and
reports the monotonic clock at that point; the parent subtracts the time it
started the process.  ``suite`` then runs the public CLI path
``carpetlab.cli.main(["suite", ...])``.  With ``--trace`` the modules are
wrapped first (see spans.py), and ``carpet report`` is timed on the manifest
just written.  The carpetlab package is taken from ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "suite"))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out")
    ap.add_argument("--seed")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import carpetlab.cli as cli
    from carpetlab.harness import config_from_sources

    config_from_sources(args.config)
    result = {"ready": time.monotonic(), "package": os.path.dirname(os.path.abspath(cli.__file__))}
    if args.mode == "suite":
        result.update(_suite(cli, args))
    print(json.dumps(result))
    return 0


def _suite(cli, args) -> dict:
    argv = ["suite", "--config", args.config, "--out", args.out, "--seed", args.seed]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        suite_s = time.perf_counter() - start
    out = {
        "exit_code": code,
        "suite_s": suite_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        manifest = os.path.join(args.out, "manifest.json")
        with open(manifest, encoding="utf-8") as fh:
            listed = json.load(fh)["artifacts"]
        summary = tracer.summary()
        layers = spans.layer_metrics(summary, suite_s)
        layers["harness.artifact_bytes"] = sum(
            os.path.getsize(os.path.join(args.out, name)) for name in listed
        )
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            cli.main(["report", "--manifest", manifest])
            layers["cli.report_s"] = time.perf_counter() - start
        out["layers"] = layers
        out["self_by_layer"] = {layer: acc["self_s"] for layer, acc in summary.items()}
    return out


if __name__ == "__main__":
    sys.exit(main())
