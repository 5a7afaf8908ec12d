"""Regenerate the pinned references in ``refs/``: the output of every input
variant of every workload pool, computed by the untraced library calls.

    python3 perfbench/make_refs.py [workload ...]

Run from the root of a checkout.  The benchmark compares each op's output
with these files, so they are regenerated only on purpose, from code whose
outputs are known to be right.
"""

from __future__ import annotations

import json
import sys

from run import HERE, NAMES, import_workloads


def main(names: list[str]) -> int:
    wmod = import_workloads()
    status = 0
    for name in names or NAMES:
        wl = wmod.WORKLOADS[name](0)
        refs, crossed = {}, 0
        for pool in wl.slots:
            for spec in pool:
                if spec.key in refs:
                    continue
                op = wmod.run_spec(spec, None)
                if op.error:
                    print(f"{name} {spec.key}: {op.error}", file=sys.stderr)
                    status = 1
                    continue
                refs[spec.key] = json.loads(json.dumps(op.value))
                reason = spec.cross(op.value) if spec.cross else None
                if reason:
                    print(f"{name} {spec.key}: cross-check failed: {reason}", file=sys.stderr)
                    status = 1
                crossed += spec.cross is not None
        path = HERE / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"workload": name, "refs": refs}, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(refs)} references, {crossed} cross-checked -> {path}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
