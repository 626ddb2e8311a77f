import subprocess
import sys


def test_package_import_does_not_load_scipy():
    # scipy.special more than doubles the import time of every CLI command;
    # the two functions that need it import it when called. The Monte Carlo
    # helper's executor is likewise imported on first use.
    code = (
        "import sys, heatforms, heatforms.cli;"
        " print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False"
