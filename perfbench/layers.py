"""Where the traced run wraps the wcs layers, and the per-layer metrics.

Each name is wrapped where its caller looks it up: the module global a
caller reads (``wcs.certify.linprog``), the module attribute it goes
through (``numpy.linalg.eigvalsh``), or the dict entry the command line
dispatches on (``wcs.experiments.EXPERIMENTS``). The solver's entry points
are not wrapped inside ``wcs.solver``, where BP delegates to BPDN, so one
solve is one span.
"""

from __future__ import annotations

import numpy as np

from .tracer import Tracer

BENCH = "perfbench.workloads"


def _counting(tracer: Tracer, counter: str, field: str):
    def hook(result, exc):
        if result is not None:
            tracer.add(counter, getattr(result, field))

    return hook


def _solver_hook(tracer: Tracer):
    def hook(result, exc):
        outcome = result if exc is None else getattr(exc, "outcome", None)
        if exc is not None:
            tracer.add("solver.failed")
        if outcome is not None:
            tracer.add("solver.iterations", outcome.iterations)

    return hook


def _nsp_by_data(tr: Tracer, nsp_constant):
    """Real data runs the linear programs, complex data the ratio ascent."""
    real, ascent = (
        tr.wrap(layer, nsp_constant, hook=_counting(tr, layer + ".supports", "supports_examined"))
        for layer in ("certify.nsp_real", "certify.nsp_complex")
    )

    def nsp(A, *args, **kwargs):
        traced = ascent if np.iscomplexobj(getattr(A, "matrix", A)) else real
        return traced(A, *args, **kwargs)

    return nsp


def install(tr: Tracer) -> None:
    import numpy.linalg

    import wcs.certify
    import wcs.cli
    import wcs.construct
    import wcs.core
    import wcs.experiments
    import wcs.matrixio
    import wcs.solver

    def everywhere(modules, attr, wrapper):
        for module in modules:
            tr.patch(module, attr, wrapper)

    # third-party entry points
    tr.patch("wcs.certify", "linprog", tr.wrap("certify.lp", wcs.certify.linprog))
    tr.patch("numpy.linalg", "eigvalsh", tr.wrap("certify.eigvalsh", numpy.linalg.eigvalsh))
    tr.patch("wcs.solver", "brentq", tr.wrap_rootfind("solver.rootfind", wcs.solver.brentq))

    # core and solver internals
    everywhere(
        ["wcs.certify", "wcs.construct"],
        "maximal_admissible_supports",
        tr.wrap_generator("core.supports", wcs.core.maximal_admissible_supports),
    )
    tr.patch(
        "wcs.solver",
        "complex_soft_threshold",
        tr.wrap("solver.soft_threshold", wcs.solver.complex_soft_threshold),
    )
    for attr, callers in (
        ("solve_weighted_bp", ["wcs.certify", "wcs.experiments", "wcs.cli", BENCH]),
        ("solve_weighted_bpdn", ["wcs.experiments", "wcs.cli", BENCH]),
    ):
        everywhere(callers, attr, tr.wrap("solver", getattr(wcs.solver, attr), hook=_solver_hook(tr)))

    # certify
    everywhere(
        ["wcs.certify", "wcs.construct"],
        "null_space_basis",
        tr.wrap("certify.null_space", wcs.certify.null_space_basis),
    )
    everywhere(
        ["wcs.certify", "wcs.experiments", "wcs.cli", "wcs.construct", BENCH],
        "nsp_constant",
        _nsp_by_data(tr, wcs.certify.nsp_constant),
    )
    everywhere(
        ["wcs.certify", "wcs.experiments", "wcs.cli", BENCH],
        "rip_constant",
        tr.wrap(
            "certify.rip",
            wcs.certify.rip_constant,
            hook=_counting(tr, "certify.rip.supports", "supports_examined"),
        ),
    )
    everywhere(
        ["wcs.cli", BENCH],
        "check_robust_nsp_kernel",
        tr.wrap("certify.robust", wcs.certify.check_robust_nsp_kernel),
    )
    tr.patch(
        BENCH,
        "disjoint_inner_product_bound_check",
        tr.wrap(
            "certify.disjoint",
            wcs.certify.disjoint_inner_product_bound_check,
            hook=_counting(tr, "certify.disjoint.pairs", "pairs_examined"),
        ),
    )
    tr.patch(
        "wcs.experiments",
        "exact_recovery_equivalence_test",
        tr.wrap("certify.equivalence", wcs.certify.exact_recovery_equivalence_test),
    )

    # construct, matrixio, experiments, cli
    tr.patch(
        "wcs.cli",
        "build_counterexample",
        tr.wrap(
            "construct.counterexample",
            wcs.construct.build_counterexample,
            hook=_counting(tr, "construct.inner_attempts", "inner_attempts"),
        ),
    )
    for attr in ("write_matrix", "write_vector"):
        tr.patch("wcs.cli", attr, tr.wrap("matrixio.write", getattr(wcs.matrixio, attr)))
    for key, fn in list(wcs.experiments.EXPERIMENTS.items()):
        tr.patch_item(wcs.experiments.EXPERIMENTS, key, tr.wrap("experiments", fn))
    tr.patch(BENCH, "cli_main", tr.wrap("cli", wcs.cli.main))


def per_layer_metrics(tr: Tracer, overhead_share: float) -> dict[str, float]:
    spans = tr.summary()
    counters = tr.counters

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    iterations = counters.get("solver.iterations", 0)
    solver_s = spans.get("solver", {}).get("s", 0.0)
    return {
        "certify.lp.calls": calls("certify.lp"),
        "certify.lp.s": self_s("certify.lp"),
        "certify.nsp_real.s": self_s("certify.nsp_real"),
        "certify.nsp_real.supports": counters.get("certify.nsp_real.supports", 0),
        "certify.nsp_complex.s": self_s("certify.nsp_complex"),
        "certify.nsp_complex.supports": counters.get("certify.nsp_complex.supports", 0),
        "core.supports.calls": counters.get("core.supports.calls", 0),
        "core.supports.count": counters.get("core.supports.count", 0),
        "core.supports.s": self_s("core.supports"),
        "certify.rip.s": self_s("certify.rip"),
        "certify.rip.supports": counters.get("certify.rip.supports", 0),
        "certify.eigvalsh.calls": calls("certify.eigvalsh"),
        "certify.eigvalsh.s": self_s("certify.eigvalsh"),
        "certify.robust.s": self_s("certify.robust"),
        "certify.disjoint.s": self_s("certify.disjoint"),
        "certify.disjoint.pairs": counters.get("certify.disjoint.pairs", 0),
        "certify.null_space.calls": calls("certify.null_space"),
        "certify.null_space.s": self_s("certify.null_space"),
        "solver.solves": calls("solver"),
        "solver.failed": counters.get("solver.failed", 0),
        "solver.iterations": iterations,
        "solver.us_per_iter": 1e6 * solver_s / iterations if iterations else 0.0,
        "solver.s": self_s("solver"),
        "solver.rootfind.calls": calls("solver.rootfind"),
        "solver.rootfind.evals": counters.get("solver.rootfind.evals", 0),
        "solver.rootfind.s": self_s("solver.rootfind"),
        "solver.soft_threshold.s": self_s("solver.soft_threshold"),
        "certify.equivalence.s": self_s("certify.equivalence"),
        "construct.counterexample.calls": calls("construct.counterexample"),
        "construct.counterexample.s": self_s("construct.counterexample"),
        "construct.inner_attempts": counters.get("construct.inner_attempts", 0),
        "matrixio.write.s": self_s("matrixio.write"),
        "cli.self.s": self_s("cli"),
        "trace.overhead_share": overhead_share,
    }
