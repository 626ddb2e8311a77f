import subprocess
import sys


def test_package_import_does_not_load_scipy():
    # the package needs numpy only; the Monte Carlo helper's executor is
    # imported on first use.
    code = (
        "import sys, heatforms, heatforms.cli;"
        " print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False"


def test_imaginary_powers_run_with_scipy_blocked():
    # a None entry in sys.modules makes every scipy import raise ImportError
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from heatforms.fields import random_band_limited\n"
        "from heatforms.multipliers import apply_spectral_multiplier, imaginary_power_constant, imaginary_power_symbol\n"
        "f = random_band_limited(2, (16, 16), 1.0, np.random.default_rng(0), kmax=3)\n"
        "g = apply_spectral_multiplier(imaginary_power_symbol(1.0), f)\n"
        "print(np.all(np.isfinite(g.data)), np.isfinite(imaginary_power_constant(300.0, 3.0)))\n"
        "print([m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod is not None])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:2] == ["True True", "[]"]
