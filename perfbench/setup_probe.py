"""Set-up timing in a fresh interpreter; run as a child by ``run.py``.

Reads one JSON object on stdin::

    {"src": "<checkout>/src", "kind": "scenario" | "campaign",
     "configs": [<config dict>, ...], "workers": 2, "work_dir": "<dir>"}

and prints one JSON line ``{"import_s", "build_s", "start_s"}``:

* scenario: import the experiments layer, ``build_network``, ``start``;
* campaign: import ``repro.exec``, build the ``Campaign`` (content hashes
  of every cell), bring the executor up (checkpoint store, backend).

The ``pool`` backend starts its worker processes inside every wave, so
their spawn cost lands in the campaign's ``wall_s``, not here.
"""

import json
import sys
import time


def main() -> None:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    if spec["kind"] == "scenario":
        from repro.experiments.scenario import build_network
        from repro.experiments.serialization import config_from_dict

        t1 = time.perf_counter()
        net = build_network(config_from_dict(spec["configs"][0]))
        t2 = time.perf_counter()
        net.start()
        t3 = time.perf_counter()
    else:
        from repro.exec import (
            Campaign,
            CampaignExecutor,
            CheckpointStore,
            ExecPolicy,
            make_backend,
        )
        from repro.experiments.serialization import config_from_dict

        t1 = time.perf_counter()
        Campaign.from_configs(
            "perfbench-setup", [config_from_dict(c) for c in spec["configs"]]
        )
        t2 = time.perf_counter()
        policy = ExecPolicy(workers=spec["workers"])
        store = CheckpointStore(spec["work_dir"])
        CampaignExecutor(
            policy=policy, store=store, backend=make_backend(policy, store)
        )
        t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "start_s": t3 - t2}))


if __name__ == "__main__":
    main()
