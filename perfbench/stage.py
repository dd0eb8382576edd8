"""Run one ``sdiqrng`` CLI stage in this process and report what it cost.

Usage::

    python3 perfbench/stage.py STAGE --root DIR --report FILE [--spans FILE] \\
        -- [CLI arguments]

Imports the package from ``DIR/src``, runs ``sdiqrng STAGE [CLI arguments]``
through ``cli.main`` and writes a JSON report to FILE: the CLI exit code,
``import_s`` (importing the package), ``config_s`` (``load_config``),
``stage_s`` (the rest of ``main``), ``peak_rss_mb`` (``ru_maxrss`` of this
process) and ``threads`` (``run.threads`` of the loaded config).  With
``--spans`` the layer functions are traced and the spans written to that
file.  Exits with the CLI's exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("stage")
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--report", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]
    src = (args.root / "src").resolve()

    start = time.perf_counter()
    sys.path.insert(0, str(src))
    from sdiqrng import cli
    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"stage: sdiqrng was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.spans:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(args.stage)

    load_config = cli.load_config
    loaded = {"config_s": 0.0, "threads": 1}

    def timed_load_config(*a, **kw):
        t0 = time.perf_counter()
        cfg = load_config(*a, **kw)
        loaded["config_s"] = time.perf_counter() - t0
        loaded["threads"] = cfg.run.threads
        return cfg

    cli.load_config = timed_load_config
    t0 = time.perf_counter()
    code = cli.main([args.stage, *cli_args])
    wall = time.perf_counter() - t0

    report = {
        "stage": args.stage,
        "exit_code": code,
        "import_s": import_s,
        "config_s": loaded["config_s"],
        "stage_s": wall - loaded["config_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": loaded["threads"],
    }
    if tracer is not None:
        tracer.dump(args.spans)
    tmp = args.report.with_suffix(".tmp")
    tmp.write_text(json.dumps(report), encoding="utf-8")
    os.replace(tmp, args.report)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
