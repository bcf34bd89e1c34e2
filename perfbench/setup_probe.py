"""One set-up as a user pays it: a fresh interpreter imports intlinalg and
loads a workload's prepared .imx files, then reports that it is ready.

Usage: python3 perfbench/setup_probe.py <directory of .imx files>
Run from the root of the checkout; ``run.py`` times it from start to "ready".
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import intlinalg  # noqa: E402
import intlinalg.cli  # noqa: E402,F401  (the enclose workload calls it)


def main(directory: str) -> None:
    loaded = 0
    for name in sorted(os.listdir(directory)):
        if name.endswith(".imx"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                intlinalg.parse_imx(fh.read())
            loaded += 1
    print(f"ready {loaded}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
