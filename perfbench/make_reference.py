"""Write reference.json: the certificates of every fixed workload graph.

    python3 perfbench/make_reference.py

Each graph is analysed in its own labelling and its certificates are stored
as (endpoints, kind, tau), as ``workloads.certificate_keys`` gives them. The
benchmark compares every relabelled pass against this file, so regenerate it
only from a commit whose certificates are known to be right.
"""

import json
import subprocess
import sys

import bootstrap


def main() -> int:
    bootstrap.prepare()
    import numpy as np

    import workloads

    certificates = {}
    for workload in workloads.WORKLOADS:
        for task in workloads.make_tasks(workload, seed=0):
            if task.key == workloads.RANDOM_KEY:
                continue
            payload, valid = workloads.analyse(task.graph, task.scan)
            if not valid or payload["health_warnings"]:
                raise SystemExit(f"{task.key}: report does not validate; not a usable reference")
            keys = workloads.certificate_keys(payload, np.arange(task.graph.order))
            certificates[task.key] = [[list(e), kind, tau] for e, kind, tau in keys]
            print(f"{task.key}: {len(keys)} certificates")
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, cwd=bootstrap.ROOT
    ).stdout.strip()
    head = {"commit": commit or None, "environment": bootstrap.environment()}
    lines = [json.dumps(head)[:-1] + ', "certificates": {']
    for i, (key, certs) in enumerate(certificates.items()):
        lines.append(f" {json.dumps(key)}: [")
        lines += [f"  {json.dumps(c)}," for c in certs]
        if certs:
            lines[-1] = lines[-1][:-1]
        lines.append(" ]" + ("," if i + 1 < len(certificates) else ""))
    lines.append("}}")
    workloads.REFERENCE_PATH.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
