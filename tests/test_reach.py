"""Every public function, method and property of `src/` is reached by some
golden command, or is on ALLOWED with the reason it stays.

The 33 commands of `test_golden.COMMANDS` run in this process under
`sys.setprofile`, which records the code object of each Python call.  A
public name is one without a leading underscore, defined at the top of a
`staticlab` module or in the body of one of its public classes; a
property or a `functools.cached_property` counts by its getter.  A name
that no command reaches belongs in `tests/oracles.py` (a reference only
the tests read) or out of the package, unless it is listed here.  An
entry that a command now reaches, or that names nothing, fails too, so
the list stays short.
"""

import contextlib
import functools
import importlib
import io
import pkgutil
import sys

import staticlab

import test_golden

TRACER = "named by the benchmark tracer, which patches it by name"
RECONSTRUCT = "read by the benchmark's reconstruct workload"
NO_SUITE = "no check suite reads it yet (ROADMAP item 6 adds one)"

ALLOWED = {
    "conformal.to_conformal": TRACER,
    "conformal.mean_curvature_g0": TRACER,
    "conformal.hess_phi_radial": TRACER,
    "geometry.warped_curvature": TRACER,
    "levelset.phi_p": TRACER,
    "levelset.phi_p_derivative": TRACER,
    "geometry.to_arclength": RECONSTRUCT,
    "geometry.RadialProfile.hermite": RECONSTRUCT,
    "levelset.up_derivative": NO_SUITE,
    "levelset.up_second_derivative_at_boundary": NO_SUITE,
    "levelset.monotonicity_scan": NO_SUITE,
}


def _modules():
    for info in pkgutil.iter_modules(staticlab.__path__):
        yield info.name, importlib.import_module(f"staticlab.{info.name}")


def _code(obj):
    """The code object that runs when `obj` is called or read, or None."""
    obj = getattr(obj, "__wrapped__", obj)  # functools.cache
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    elif isinstance(obj, property):
        obj = obj.fget
    elif isinstance(obj, functools.cached_property):
        obj = obj.func
    return getattr(obj, "__code__", None)


def public_code() -> dict:
    """Qualified name -> code object of every public function, method and
    property of the package."""
    found = {}
    for short, module in _modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__:
                continue
            members = (vars(obj).items() if isinstance(obj, type)
                       else [(None, obj)])
            for attr, member in members:
                code = _code(member)
                if code is not None and not (attr or "").startswith("_"):
                    found[".".join(filter(None, (short, name, attr)))] = code
    return found


def reached_code() -> set:
    """Code objects of the Python calls the golden commands make."""
    reached = set()
    for _, module in _modules():  # a cached function runs on a cache miss
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in test_golden.COMMANDS.values():
            with contextlib.redirect_stdout(io.StringIO()):
                test_golden.run(argv)
    finally:
        sys.setprofile(previous)
    return reached


def test_every_public_name_is_reached_or_allowed():
    public = public_code()
    reached = reached_code()
    unreached = {name for name, code in public.items() if code not in reached}
    assert sorted(unreached - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - unreached) == []
