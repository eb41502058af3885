"""Setuptools entry point, and the build of the compiled kernel library.

``python setup.py build_ext --inplace`` compiles the C hot-path kernels
(``src/repro/kernels/_c/defa_kernels.c``) into a shared library next to
``repro/kernels/``, which :mod:`repro.kernels.compiled_backend` loads via
ctypes and exposes as the ``"compiled"`` backend.  The extension is
**optional**: when no C toolchain exists the build degrades to a warning,
the library is simply absent, ``COMPILED_AVAILABLE`` stays ``False`` and the
backend registry falls back to ``"fused"`` — nothing in the repo requires
the compiled path to run.

The compile flags are part of the numerics contract: the compiled backend is
gated bit-identical to ``"fused"`` (see benchmarks/baselines/README.md), and
a fused multiply-add would change the rounding of the combine loop, so FP
contraction is explicitly disabled.
"""

import sys

from setuptools import Extension, find_packages, setup
from setuptools.command.build_ext import build_ext

if sys.platform == "win32":  # pragma: no cover - no Windows CI leg
    EXTRA_COMPILE_ARGS = ["/O2", "/fp:strict"]
else:
    EXTRA_COMPILE_ARGS = ["-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno"]

DEFA_KERNELS = Extension(
    "repro.kernels._defa_kernels",
    sources=["src/repro/kernels/_c/defa_kernels.c"],
    extra_compile_args=EXTRA_COMPILE_ARGS,
    # Missing toolchain => warning, not error (setuptools honours this flag
    # in build_ext.run/build_extension).
    optional=True,
)


class OptionalBuildExt(build_ext):
    """``build_ext`` that degrades to a warning when no toolchain exists.

    ``Extension.optional`` already covers per-extension compile failures;
    this subclass additionally catches the errors raised *before* any
    extension is attempted (e.g. no compiler binary at all on a minimal
    container), so ``pip install .`` and ``setup.py build_ext`` never fail
    because of the optional kernels.
    """

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any toolchain failure is non-fatal
            self.warn(
                f"building the optional compiled kernels failed ({exc}); "
                "the 'compiled' backend will fall back to 'fused'"
            )


setup(
    # The src layout must be explicit here (there is no pyproject.toml) so
    # `build_ext --inplace` drops the library next to repro/kernels/.
    package_dir={"": "src"},
    packages=find_packages("src"),
    ext_modules=[DEFA_KERNELS],
    cmdclass={"build_ext": OptionalBuildExt},
)
