from setuptools import Extension, setup

# The search kernels: plain C with no Python C-API, loaded through ctypes by
# rturan/_kernels/native.py.  Optional, so that without a C compiler the
# install still succeeds and the pure-Python kernels are used.
setup(ext_modules=[Extension("rturan._kernels._native",
                             ["src/rturan/_kernels/native.c"],
                             extra_compile_args=["-O3"], optional=True)])
