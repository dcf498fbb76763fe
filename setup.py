from setuptools import Extension, setup

# The search kernels and their CPython glue, one C file that builds as the
# extension module rturan._kernels._native; rturan/_kernels/native.py is its
# front end.  Building needs the Python headers.  Optional, so that without
# a C compiler or the headers the install still succeeds and the pure-Python
# kernels are used.
setup(ext_modules=[Extension("rturan._kernels._native",
                             ["src/rturan/_kernels/native.c"],
                             extra_compile_args=["-O3"], optional=True)])
