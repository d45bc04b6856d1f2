"""Child process that times one CLI set-up: runs the CLI until its first call
into ``run_pgd``, prints ``time.monotonic()`` at that moment and exits.

Usage: python3 bench/setup_probe.py <src dir> <json list of CLI arguments>
"""

import json
import os
import sys
import time


def main() -> None:
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    from stacksim import cli, pgd

    original = pgd.run_pgd

    def stop(*args, **kwargs):
        os.write(1, f"{time.monotonic()!r}\n".encode())
        os._exit(0)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stacksim" and getattr(module, "run_pgd", None) is original:
            setattr(module, "run_pgd", stop)
    sys.stdout = sys.stderr  # keep the CLI's own output off the timestamp channel
    cli.main(argv, standalone_mode=False)
    sys.exit("the CLI finished without calling run_pgd")


if __name__ == "__main__":
    main()
