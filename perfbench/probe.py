"""Cold set-up probe: one fresh process that imports sievelab, sets up a
workload and prints {"setup_s": ..., "cold": ...} as JSON.

    python3 perfbench/probe.py mc_matrix
"""

import json
import sys

import run


def main(argv):
    run.use_checkout_source()
    setup_s, _, cold = run.timed_setup(argv[1])
    print(json.dumps({"setup_s": setup_s, "cold": cold}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
