"""One benchmark operation, run in a fresh interpreter.

    python3 perfbench/child.py [--spans PATH --run-id ID] cli <sepscope args...>

``cli`` does exactly what the ``sepscope`` console script does.

With ``--spans`` the calls into each sepscope module are wrapped in spans
(see ``spans.py``), which are written to PATH when the operation ends.
"""

import sys


def install_spans(tracer):
    """Wrap the functions each layer is called through; see ``spans.py``."""
    from sepscope import cli, estimator

    def rows_in(args, kwargs, out):
        return {"rows_in": len(args[0])}

    def stream(args, kwargs, out):
        return {"rows_in": args[1], "engine": args[0].engine}

    def mask(args, kwargs, out):
        return {"rows_in": len(args[0]), "rows_out": int(out.sum())}

    def desf(args, kwargs, out):
        return {"rows_in": args[1],
                "rows_out": int(out.n_psd.sum()) + out.n_psd_outside}

    def table(args, kwargs, out):
        return {"rows_out": len(out), "evals": sum(r.result.evals for r in out)}

    def evals(args, kwargs, out):
        return {"evals": out.evals}

    def grid(args, kwargs, out):
        return {"rows_in": len(args[1])}

    # sampling
    tracer.wrap(estimator, "next_points", "sampling.next_points", stream)
    tracer.wrap(estimator, "cube_to_bloore_batch",
                "sampling.cube_to_bloore_batch", rows_in)
    # qstate
    tracer.wrap(estimator, "z_psd_mask", "qstate.z_psd_mask", mask)
    tracer.wrap(estimator, "xi_from_diag", "qstate.xi_from_diag", rows_in)
    tracer.wrap(estimator, "pt_corr_det4", "qstate.pt_corr_det4", rows_in)
    # estimator: the public entry points, and one span per batch so that
    # work done inside a kernel between the wrapped calls (the histogram
    # tally) is attributed to the estimator.
    tracer.wrap(cli, "estimate_desf", "estimator.estimate_desf", desf)
    tracer.wrap(cli, "compare_curves", "estimator.compare_curves")
    run_batches = estimator._run_batches

    def traced_run_batches(tasks, kernel, workers):
        def batch(spec, offset, size):
            return tracer.call("estimator.batch", kernel,
                               (spec, offset, size), {},
                               lambda a, k, out: {"rows_in": size})
        return run_batches(tasks, batch, workers)

    estimator._run_batches = traced_run_batches
    # quadrature
    tracer.wrap(cli, "bound_table", "quadrature.bound_table", table)
    tracer.wrap(cli, "complex_speculation_probability",
                "quadrature.complex_speculation_probability", evals)
    # sepfun
    tracer.wrap(cli, "jacobian_general_beta", "sepfun.jacobian_general_beta", grid)
    tracer.wrap(cli, "jacobian_xi", "sepfun.jacobian_xi", rows_in)
    tracer.wrap(cli, "eval_desf_array", "sepfun.eval_desf_array", grid)


def main(argv) -> int:
    spans_path = run_id = None
    while argv and argv[0] in ("--spans", "--run-id"):
        if argv[0] == "--spans":
            spans_path = argv[1]
        else:
            run_id = argv[1]
        argv = argv[2:]
    mode, rest = argv[0], argv[1:]
    if mode != "cli":
        raise SystemExit(f"child.py: unknown mode {mode!r}")
    tracer = None
    if spans_path is not None:
        from spans import Tracer

        tracer = Tracer(run_id or "0")
        install_spans(tracer)
    try:
        from sepscope.cli import main as cli_main

        if tracer is None:
            return cli_main(rest)
        return tracer.call("cli.main", cli_main, (rest,), {})
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
