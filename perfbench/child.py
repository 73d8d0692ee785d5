"""One benchmark operation, run as a fresh process.

    child.py [--trace FILE] cli <cecalc arguments...>
    child.py [--trace FILE] lib <spec.json>

``cli`` runs the ``cecalc`` command in-process (the untraced benchmark
launches ``python3 -m cecalc`` instead; this form exists so a traced run
can time the import and wrap the layers first).  ``lib`` runs a one-call
library driver for work that has no command, and prints its result as one
JSON line.  With ``--trace`` the child records spans and counters for every
layer and writes them to FILE when it exits.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


class _CountingStdout:
    """Forward writes to the real stdout while counting the bytes."""

    def __init__(self, real) -> None:
        self.real = real
        self.bytes = 0

    def write(self, s: str) -> int:
        self.bytes += len(s.encode())
        return self.real.write(s)

    def flush(self) -> None:
        self.real.flush()


def _sorted_partitions(total: int, parts: int, minimum: int):
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // parts + 1):
        for rest in _sorted_partitions(total - first, parts - 1, first):
            yield (first,) + rest


def pfaffian_sweep(genera) -> dict:
    """Pairs passing the three Pfaffian inequalities, and their most
    negative summands, over every degree-matched (e, f) with e_1 >= 1 and
    f_1 >= 0 at the given genera."""
    from cecalc import splitting

    pairs, worst, witness = 0, -1, None
    for g in genera:
        for e in _sorted_partitions(g + 4, 4, 1):
            for f in _sorted_partitions(2 * g + 8, 5, 0):
                if not splitting.constraints_5(e, f, g).pfaffian_ok:
                    continue
                pairs += 1
                count = splitting.negative_summand_count5(e, f, g)
                if count > worst:
                    worst, witness = count, [g, list(e), list(f)]
    return {"pairs": pairs, "max": worst, "witness": witness}


def sample(spec: dict) -> dict:
    from fractions import Fraction

    from cecalc import plmin

    value = plmin.sample_check(
        plmin.preset(spec["preset"]),
        trials=spec["trials"],
        seed=spec["seed"],
        center=[Fraction(v) for v in spec["center"]],
    )
    return {"value": str(value)}


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    kind, rest = argv[0], argv[1:]
    tracer = None
    extra: dict = {}
    if kind == "cli":
        start = perf_counter()
        import cecalc.cli

        extra["cli_import_s"] = perf_counter() - start
    if trace_path:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if kind == "cli":
        out = sys.stdout = _CountingStdout(sys.stdout)
        entry = cecalc.cli.main
        if tracer:
            entry = tracer.span("cli.main", entry)
        try:
            code = entry(rest)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        out.flush()
        extra["cli_output_bytes"] = out.bytes
    else:
        with open(rest[0]) as fh:
            spec = json.load(fh)
        if spec["op"] == "sweep":
            sweep = pfaffian_sweep
            if tracer:
                sweep = tracer.span("splitting.sweep", sweep)
            result = sweep(spec["genera"])
        else:
            result = sample(spec)
        print(json.dumps(result, sort_keys=True))
        code = 0
    if tracer:
        tracer.write(trace_path, extra)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
