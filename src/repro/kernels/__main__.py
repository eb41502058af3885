"""``python -m repro.kernels``: calibrate this host's dispatch profile.

The command line is :func:`repro.kernels.calibration.main` (``--help`` lists
its options).  It runs through the package so that the calibration module is
imported once, as ``repro.kernels.calibration``, and its module state (the
active profile) exists once.
"""

from repro.kernels.calibration import main

if __name__ == "__main__":
    raise SystemExit(main())
