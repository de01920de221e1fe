"""Layer tracing from outside the program.

`Tracer.install()` replaces each public function of the `staticlab`
modules with a wrapper in every module namespace that binds it (a
`from .levelset import sphere_data` in `identities` makes a second
binding), and patches `StaticTriple.radial_state`, `ReducedSystem.rhs` and
`IdentityReport.as_dict` on their classes.  Triples returned by the model
constructors, `to_arclength` and `shoot_from_horizon` get profiles whose
`fn` counts evaluations (swapped in with `dataclasses.replace`), and the
integrand handed to `quadrature.adaptive` is wrapped so its calls and time
are known.

Each wrapped call pushes a frame on one stack; on return its duration is
added to the function's total and to the parent's child time, so self
time is the span minus what its children cover.  Calls of the per-point
functions are only aggregated; every other call is kept as a span
(name, start, end, parent span, op id) in memory and written out by
`write_spans` when the run ends.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import time

# name -> (module, attribute, record spans); the first module is where the
# function is defined, and every other staticlab module binding the same
# object is patched too
FUNCTIONS = {
    "models.de_sitter": ("models", "de_sitter", True),
    "models.anti_de_sitter": ("models", "anti_de_sitter", True),
    "models.schwarzschild_de_sitter": ("models", "schwarzschild_de_sitter", True),
    "models.nariai": ("models", "nariai", True),
    "models.bracketed_root": ("models", "bracketed_root", True),
    "levelset.level_radii": ("levelset", "level_radii", True),
    "levelset.up_value": ("levelset", "up_value", True),
    "levelset.up_derivative": ("levelset", "up_derivative", True),
    "levelset.phi_p": ("levelset", "phi_p", True),
    "levelset.phi_p_derivative": ("levelset", "phi_p_derivative", True),
    "levelset.sphere_data": ("levelset", "sphere_data", False),
    "levelset.assumption_flags": ("levelset", "assumption_flags", True),
    "levelset.conformal_boundary_data": ("levelset", "conformal_boundary_data", True),
    "levelset.liminf_check": ("levelset", "liminf_check", True),
    "geometry.warped_curvature": ("geometry", "warped_curvature", False),
    "geometry.static_residual": ("geometry", "static_residual", False),
    "geometry.to_arclength": ("geometry", "to_arclength", True),
    "conformal.to_conformal": ("conformal", "to_conformal", False),
    "conformal.mean_curvature_g0": ("conformal", "mean_curvature_g0", False),
    "conformal.hess_phi_radial": ("conformal", "hess_phi_radial", False),
    "conformal.quasi_einstein_residual": ("conformal", "quasi_einstein_residual", False),
    "conformal.bochner_residual": ("conformal", "bochner_residual", False),
    "conformal.w_equation_residual": ("conformal", "w_equation_residual", False),
    "conformal.trace_identity_residual": ("conformal", "trace_identity_residual", False),
    "conformal.mean_curvature_relations": ("conformal", "mean_curvature_relations", False),
    "quadrature.adaptive": ("quadrature", "adaptive", True),
    "identities.first_identity": ("identities", "first_identity", True),
    "identities.second_identity": ("identities", "second_identity", True),
    "identities.curvature_deficit_identity": ("identities", "curvature_deficit_identity", True),
    "identities.boundary_curvature_inequality": ("identities", "boundary_curvature_inequality", True),
    "odegen.shoot_from_horizon": ("odegen", "shoot_from_horizon", True),
    "odegen.monitor_drift": ("odegen", "monitor_drift", True),
    "report.identity_report": ("report", "identity_report", False),
    "report.inequality_report": ("report", "inequality_report", False),
    "report.refusal_report": ("report", "refusal_report", False),
    "cli.main": ("cli", "main", True),
    "cli.cmd_models": ("cli", "cmd_models", True),
    "cli.cmd_up_curve": ("cli", "cmd_up_curve", True),
    "cli.cmd_phi_curve": ("cli", "cmd_phi_curve", True),
    "cli.cmd_check": ("cli", "cmd_check", True),
    "cli.cmd_scan_sds": ("cli", "cmd_scan_sds", True),
    "cli.cmd_shoot": ("cli", "cmd_shoot", True),
    "cli.suite_static": ("cli", "suite_static", True),
    "cli.suite_conformal": ("cli", "suite_conformal", True),
    "cli.suite_identities": ("cli", "suite_identities", True),
    "cli.suite_inequalities": ("cli", "suite_inequalities", True),
    "cli.suite_liminf": ("cli", "suite_liminf", True),
}
CONSTRUCTORS = ("models.de_sitter", "models.anti_de_sitter",
                "models.schwarzschild_de_sitter", "models.nariai")
RESIDUALS = ("conformal.quasi_einstein_residual", "conformal.bochner_residual",
             "conformal.w_equation_residual", "conformal.trace_identity_residual",
             "conformal.mean_curvature_relations")
REPORTS = ("report.identity_report", "report.inequality_report",
           "report.refusal_report", "report.IdentityReport.as_dict")
RETURNS_TRIPLE = CONSTRUCTORS + ("geometry.to_arclength",
                                 "odegen.shoot_from_horizon")


class Tracer:
    """Counts, inclusive and self times, and spans of the wrapped calls."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total s, self s]
        self.stack: list[list] = []        # [start, child s, span id]
        self.spans: list = []
        self.op_id = 0
        self.evals = {"u": 0, "h": 0, "f": 0}
        self.u_evals_in_level = 0
        self.levels_located = 0
        self.level_depth = 0
        self.points: set = set()           # (id(triple), x) seen
        self.triples: dict = {}            # keeps those ids unique
        self.rhs_calls = 0
        self.integrand = [0, 0.0]          # calls, seconds
        self.drift_max = 0.0
        self.max_rel_residual = 0.0
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, spans: bool, post=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, span_list, clock = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            if spans:
                sid = len(span_list)
                span_list.append(None)
            else:
                sid = parent
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if spans:
                    span_list[sid] = (name, frame[0], end, parent, self.op_id)
            return post(result) if post else result
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import importlib
        import staticlab.cli  # noqa: F401  (loads every module)
        from staticlab import geometry, odegen, report
        mods = [m for k, m in sys.modules.items()
                if k == "staticlab" or k.startswith("staticlab.")]
        for name, (mod, attr, spans) in FUNCTIONS.items():
            home = importlib.import_module(f"staticlab.{mod}")
            original = getattr(home, attr)
            post = self._post(name)
            wrapped = self._wrap(name, original, spans, post)
            if name == "quadrature.adaptive":
                wrapped = self._wrap_adaptive(wrapped)
            elif name == "levelset.level_radii":
                wrapped = self._wrap_level(wrapped)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

        radial = self._wrap("geometry.radial_state",
                            geometry.StaticTriple.radial_state, False)
        points, triples = self.points, self.triples

        def radial_state(triple, x):
            key = id(triple)
            triples[key] = triple
            points.add((key, x))
            return radial(triple, x)
        self._patch(geometry.StaticTriple, "radial_state", radial_state)

        rhs = odegen.ReducedSystem.rhs

        def counted_rhs(system, rho, y):
            self.rhs_calls += 1
            return rhs(system, rho, y)
        self._patch(odegen.ReducedSystem, "rhs", counted_rhs)
        self._patch(report.IdentityReport, "as_dict",
                    self._wrap("report.IdentityReport.as_dict",
                               report.IdentityReport.as_dict, False))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _post(self, name: str):
        if name in RETURNS_TRIPLE:
            if name == "geometry.to_arclength":
                return lambda res: (self.instrument(res[0]), res[1])
            return self.instrument
        if name == "odegen.monitor_drift":
            def drift(res):
                self.drift_max = max(self.drift_max, res)
                return res
            return drift
        if name.startswith("identities."):
            def residual(res):
                # the residual that decides pass/fail; NaN when refused
                deciding = min(res.abs_residual, res.rel_residual)
                if deciding == deciding:
                    self.max_rel_residual = max(self.max_rel_residual, deciding)
                return res
            return residual
        return None

    def _wrap_adaptive(self, adaptive):
        stack, clock, counts = self.stack, time.perf_counter, self.integrand

        def traced_adaptive(f, a, b, config=None):
            def integrand(x):
                frame = [clock(), 0.0, stack[-1][2] if stack else -1]
                stack.append(frame)
                try:
                    return f(x)
                finally:
                    end = clock()
                    stack.pop()
                    dur = end - frame[0]
                    counts[0] += 1
                    counts[1] += dur
                    if stack:
                        stack[-1][1] += dur
            return adaptive(integrand, a, b, config)
        return traced_adaptive

    def _wrap_level(self, level_radii):
        def located(*args, **kwargs):
            self.level_depth += 1
            try:
                radii = level_radii(*args, **kwargs)
            finally:
                self.level_depth -= 1
            self.levels_located += len(radii)
            return radii
        return located

    def instrument(self, triple):
        """The same triple with profiles that count their evaluations."""
        tracer = self

        def counted(which: str, fn):
            if which == "u":
                def u_fn(x):
                    tracer.evals["u"] += 1
                    if tracer.level_depth:
                        tracer.u_evals_in_level += 1
                    return fn(x)
                return u_fn

            def other_fn(x):
                tracer.evals[which] += 1
                return fn(x)
            return other_fn

        changes = {}
        for which in ("u", "h", "f"):
            prof = getattr(triple, which)
            if prof is not None:
                changes[which] = dataclasses.replace(prof, fn=counted(which, prof.fn))
        return dataclasses.replace(triple, **changes)

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op = span
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)")


def import_breakdown(root: str, env: dict) -> dict[str, float]:
    """Self time of the numpy, scipy and staticlab modules, and the wall
    time of `import staticlab.cli`, from one `python -X importtime` run."""
    code = ("import time; t = time.perf_counter(); import staticlab.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    by_package = {"numpy": 0.0, "scipy": 0.0, "staticlab": 0.0}
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            package = m.group(2).split(".")[0]
            if package in by_package:
                by_package[package] += int(m.group(1)) * 1e-6
    return {"cli.import_s": float(proc.stdout.split()[-1]),
            "cli.import.numpy_s": by_package["numpy"],
            "cli.import.scipy_s": by_package["scipy"],
            "cli.import.staticlab_s": by_package["staticlab"]}
