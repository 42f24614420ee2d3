"""One workload process: import the CLI, run it once, report what it cost.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the checkout root, the CLI argv, whether to trace, a run id
and the file to write the result to.  The parent records the launch time;
this process records when `import ricianfusion.cli` has finished, on the
same monotonic clock, so set-up time covers interpreter start and imports.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import ricianfusion.cli as cli
    ready = time.monotonic()

    rec = None
    if spec["trace"]:
        import tracing
        rec = tracing.install(spec["run_id"])
    t0 = time.perf_counter()
    if rec is None:
        code = cli.main(spec["argv"])
    else:
        code = rec.call("cli.main", cli.main, (spec["argv"],), {})
    run_s = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "code": code,
        "ready": ready,
        "run_s": run_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
        "module": cli.__file__,
        "spans": rec.spans if rec is not None else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
