"""The benchmark's set-up step, timed from outside as one process.

Imports the command line module, builds the root system and an
AlgebraState holding degree 1, then exits.  The runner times the whole
process, start to exit.

    python3 perfbench/setup_probe.py A 3 prime
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import nwalgebra.cli  # noqa: E402,F401  (what every command imports)
from nwalgebra.coxeter import RootSystem, cartan_data  # noqa: E402
from nwalgebra.exactlinalg import QQ, PrimeField  # noqa: E402
from nwalgebra.nichols_core import AlgebraState  # noqa: E402

type_, rank, field = sys.argv[1], int(sys.argv[2]), sys.argv[3]
state = AlgebraState(RootSystem(cartan_data(type_, rank)),
                     field=PrimeField() if field == "prime" else QQ)
if state.dim(1) != state.system.nroots:
    sys.exit(1)
