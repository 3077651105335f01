"""Run one curvegerm CLI command under the tracer (traced cli-cold runs).

Usage: python bench/cli_child.py <cli arguments>.  Times the import of
curvegerm.cli and the call to cli.main from outside the package, and
writes the per-layer self seconds, counts and spans as one JSON line on
stderr after the command's own output.  Exits with cli.main's code.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

start = time.perf_counter()
import curvegerm.cli as cli  # noqa: E402  (the timed import)

imported = time.perf_counter()

sys.path.insert(0, HERE)
import json  # noqa: E402

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.record = True
tracer.install()
before_main = time.perf_counter()
code = cli.main(sys.argv[1:])
end = time.perf_counter()
tracer.uninstall()
self_s, counts = tracer.take()
tables = sys.modules["curvegerm.cyclotomic"]._power_basis.cache_info().currsize
sys.stdout.flush()
print(json.dumps({
    "import_s": imported - start,
    "main_s": end - before_main,
    "self_s": self_s,
    "counts": counts,
    "field_tables": tables,
    "spans": tracer.spans,
}), file=sys.stderr)
sys.exit(code)
