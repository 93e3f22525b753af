"""Cold-start child: launch, import ``qconsensus.cli``, answer one command.

Run as ``python3 perfbench/cold.py <qcl arguments>`` from the repository
root.  After the command's own output it prints one marker line with the
exit code; the parent stops its clock when that line arrives, so the
interpreter's teardown is not counted.
"""

import os
import sys

MARKER = "perfbench-cold: answered"

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from qconsensus.cli import main

    rc = main(sys.argv[1:])
    sys.stdout.write(f"{MARKER} {rc}\n")
    sys.stdout.flush()
