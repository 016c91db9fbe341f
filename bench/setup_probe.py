"""Time one fresh-process set-up: import liecurv, resolve the backend, load inputs.

Usage: python3 bench/setup_probe.py SRC_DIR --algebra|--semidirect SELECTOR [STATE_FILE]

Prints the elapsed seconds, measured from before the first numpy import.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402


def main(argv):
    src, flag, selector = argv[:3]
    sys.path.insert(0, src)
    from liecurv import catalog, configio

    resolve = catalog.resolve_semidirect if flag == "--semidirect" else catalog.resolve_algebra
    backend = resolve(selector)
    if len(argv) > 3:
        configio.load_state_file(argv[3], backend)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(sys.argv[1:])
