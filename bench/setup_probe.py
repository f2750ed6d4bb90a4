"""One set-up, in a fresh process: import the CLI and load a scenario.

Usage: python3 setup_probe.py <src dir> <scenario.yaml> <routed 0|1>

Prints one JSON line with the CLOCK_MONOTONIC reading at which the process
was ready to run its first episode, so the parent can measure set-up from
before it spawned this process, interpreter start included.
"""

import time

_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402


def main(argv):
    src, scenario_path, routed = argv[1], argv[2], argv[3] == "1"
    sys.path.insert(0, src)
    before_import = time.clock_gettime(time.CLOCK_MONOTONIC)
    import evobeam.cli  # noqa: F401  (pulls in every layer and requests)
    from evobeam import load_scenario

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    scenario = load_scenario(scenario_path)
    if routed:
        from evobeam.llm import EndpointConfig, make_router

        make_router(EndpointConfig.from_settings(scenario.llm))
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(
        json.dumps(
            {
                "started": _START,
                "ready": ready,
                "import_s": imported - before_import,
                "load_s": ready - imported,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv)
