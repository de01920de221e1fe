"""Per-layer metrics, and which end-to-end metric each one should move.

The layers are the `staticlab` modules.  PER_LAYER records, for each per-layer
metric, the end-to-end metric and workload it should move and where it
should stay flat, written down before any optimisation is measured.
"""

from __future__ import annotations

from tracing import CONSTRUCTORS, REPORTS, RESIDUALS

# (name, unit, better, what it should move)
PER_LAYER = [
    ("cli.import_s", "s", "lower", "setup_s, op_s_p50, pass_s on cli; flat on curves"),
    ("cli.import.numpy_s", "s", "lower", "setup_s, op_s_p50, pass_s on cli"),
    ("cli.import.scipy_s", "s", "lower", "setup_s, op_s_p50, pass_s on cli"),
    ("cli.import.staticlab_s", "s", "lower", "setup_s, op_s_p50, pass_s on cli"),
    ("cli.self_s", "s", "lower", "pass_s on curves"),
    ("models.build_s", "s", "lower", "setup_s"),
    ("models.build_calls", "count", "lower", "setup_s"),
    ("models.bracketed_root_calls", "count", "lower", "setup_s"),
    ("levelset.level_radii_calls", "count", "lower", "pass_s on curves; flat on identities"),
    ("levelset.level_radii_s", "s", "lower", "pass_s on curves; flat on identities"),
    ("levelset.u_evals_per_level", "evals/level", "lower", "pass_s on curves; flat on identities"),
    ("levelset.up_value_s", "s", "lower", "pass_s on curves"),
    ("levelset.up_derivative_s", "s", "lower", "pass_s on curves"),
    ("levelset.phi_p_s", "s", "lower", "pass_s on curves"),
    ("levelset.phi_p_derivative_s", "s", "lower", "pass_s on curves"),
    ("levelset.sphere_data_calls", "count", "lower", "pass_s on identities and curves"),
    ("levelset.sphere_data_s", "s", "lower", "pass_s on identities and curves"),
    ("levelset.assumption_flags_calls", "count", "lower", "pass_s on identities, op_s_p50 on cli"),
    ("levelset.conformal_boundary_data_calls", "count", "lower", "pass_s on identities, op_s_p50 on cli"),
    ("geometry.radial_state_calls", "count", "lower", "pass_s on identities"),
    ("geometry.radial_state_per_point", "calls/point", "lower", "pass_s on identities"),
    ("geometry.warped_curvature_calls", "count", "lower", "pass_s on identities"),
    ("geometry.profile_evals.u", "count", "lower", "pass_s on identities"),
    ("geometry.profile_evals.h", "count", "lower", "pass_s on identities"),
    ("geometry.profile_evals.f", "count", "lower", "pass_s on identities"),
    ("geometry.to_arclength_s", "s", "lower", "pass_s on reconstruct"),
    ("conformal.to_conformal_calls", "count", "lower", "pass_s on identities"),
    ("conformal.mean_curvature_g0_calls", "count", "lower", "pass_s on identities"),
    ("conformal.residual_s", "s", "lower", "pass_s on identities"),
    ("quadrature.adaptive_calls", "count", "lower", "pass_s on identities and reconstruct; flat on curves"),
    ("quadrature.evals", "count", "lower", "pass_s on identities and reconstruct; flat on curves"),
    ("quadrature.evals_per_call", "evals/call", "lower", "pass_s on identities and reconstruct"),
    ("quadrature.self_s", "s", "lower", "pass_s on identities and reconstruct; flat on curves"),
    ("quadrature.integrand_s", "s", "lower", "pass_s on identities and reconstruct"),
    ("identities.first_s", "s", "lower", "pass_s on identities"),
    ("identities.second_s", "s", "lower", "pass_s on identities"),
    ("identities.deficit_s", "s", "lower", "pass_s on identities"),
    ("identities.max_rel_residual", "ratio", "lower", "none; an accuracy guard for pass_s on identities"),
    ("odegen.shoot_s", "s", "lower", "pass_s on reconstruct"),
    ("odegen.rhs_calls", "count", "lower", "pass_s on reconstruct"),
    ("odegen.monitor_drift_max", "abs", "lower", "none; an accuracy guard for pass_s on reconstruct"),
    ("report.calls", "count", "lower", "op_s_p50 on cli, pass_s on identities"),
    ("report.s", "s", "lower", "op_s_p50 on cli, pass_s on identities"),
    ("trace.overhead_ratio", "ratio", "lower", "none; traced over untraced pass time"),
]


def per_layer(tracer, imports: dict, overhead: float) -> dict:
    """name -> (value, unit, None) for every PER_LAYER metric."""
    calls, total, own = tracer.calls, tracer.total, tracer.self_time
    located = tracer.levels_located
    adaptive_calls = calls("quadrature.adaptive")
    values = dict(imports)
    values.update({
        "cli.self_s": sum(own(n) for n in tracer.stats if n.startswith("cli.")),
        "models.build_s": sum(total(n) for n in CONSTRUCTORS),
        "models.build_calls": sum(calls(n) for n in CONSTRUCTORS),
        "models.bracketed_root_calls": calls("models.bracketed_root"),
        "levelset.level_radii_calls": calls("levelset.level_radii"),
        "levelset.level_radii_s": total("levelset.level_radii"),
        "levelset.u_evals_per_level": tracer.u_evals_in_level / located if located else 0.0,
        "levelset.up_value_s": total("levelset.up_value"),
        "levelset.up_derivative_s": total("levelset.up_derivative"),
        "levelset.phi_p_s": total("levelset.phi_p"),
        "levelset.phi_p_derivative_s": total("levelset.phi_p_derivative"),
        "levelset.sphere_data_calls": calls("levelset.sphere_data"),
        "levelset.sphere_data_s": total("levelset.sphere_data"),
        "levelset.assumption_flags_calls": calls("levelset.assumption_flags"),
        "levelset.conformal_boundary_data_calls": calls("levelset.conformal_boundary_data"),
        "geometry.radial_state_calls": calls("geometry.radial_state"),
        "geometry.radial_state_per_point": (calls("geometry.radial_state") / len(tracer.points)
                                            if tracer.points else 0.0),
        "geometry.warped_curvature_calls": calls("geometry.warped_curvature"),
        "geometry.profile_evals.u": tracer.evals["u"],
        "geometry.profile_evals.h": tracer.evals["h"],
        "geometry.profile_evals.f": tracer.evals["f"],
        "geometry.to_arclength_s": total("geometry.to_arclength"),
        "conformal.to_conformal_calls": calls("conformal.to_conformal"),
        "conformal.mean_curvature_g0_calls": calls("conformal.mean_curvature_g0"),
        "conformal.residual_s": sum(total(n) for n in RESIDUALS),
        "quadrature.adaptive_calls": adaptive_calls,
        "quadrature.evals": tracer.integrand[0],
        "quadrature.evals_per_call": (tracer.integrand[0] / adaptive_calls
                                      if adaptive_calls else 0.0),
        "quadrature.self_s": own("quadrature.adaptive"),
        "quadrature.integrand_s": tracer.integrand[1],
        "identities.first_s": total("identities.first_identity"),
        "identities.second_s": total("identities.second_identity"),
        "identities.deficit_s": total("identities.curvature_deficit_identity"),
        "identities.max_rel_residual": tracer.max_rel_residual,
        "odegen.shoot_s": total("odegen.shoot_from_horizon"),
        "odegen.rhs_calls": tracer.rhs_calls,
        "odegen.monitor_drift_max": tracer.drift_max,
        "report.calls": sum(calls(n) for n in REPORTS),
        "report.s": sum(total(n) for n in REPORTS),
        "trace.overhead_ratio": overhead,
    })
    return {name: (values[name], unit, None) for name, unit, _, _ in PER_LAYER}


# each workload's headline metrics, derived from the generic end-to-end ones:
# (label, unit, function of (pass_s, op_s_p50, items per pass))
HEADLINES = {
    "cli": [("cli_total_s", "s per pass", lambda p, o, k: p),
            ("cmd_s_p50", "s per command", lambda p, o, k: o)],
    "curves": [("levels_per_s", "rows per s", lambda p, o, k: k / p)],
    "identities": [("checks_per_s", "reports per s", lambda p, o, k: k / p)],
    "reconstruct": [("reconstruct_s", "s per pass", lambda p, o, k: p)],
}


def headline_lines(workload, result) -> list[str]:
    """The workload's own headline metrics, derived from the generic ones,
    normalised with raw beside."""
    m = result["metrics"]
    tally = result["tally"]
    per_pass = tally.attempted / result["passes"]
    lines = []
    for label, unit, fn in HEADLINES[workload.name]:
        norm = fn(m["pass_s"][0], m["op_s_p50"][0], per_pass)
        raw = fn(m["pass_s"][2], m["op_s_p50"][2], per_pass)
        lines.append(f"{label:34s} {norm:<14.6g} {unit}   (raw {raw:.6g})")
    lines.append(f"{'error_rate':34s} {tally.failed / tally.attempted:<14.6g} "
                 f"failed/attempted ({tally.failed}/{tally.attempted})")
    lines.append(f"op_s_p50 is the median of {result['ops']} op times")
    return lines
