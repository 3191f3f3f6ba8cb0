"""Command-line interface: file-based, reproducible runs of every pipeline.

All parameter documents are JSON trees with numeric fields as decimal
strings and complex numbers as {re, im} (the same conventions as the
potential documents).  CSV output uses 17 significant digits, '.' decimal
separator and '\\n' line endings, so identical inputs give byte-identical
files.  Exit codes: 0 success, 2 parse/configuration error, 3 numeric or
singularity error (with a structured JSON diagnostic on stderr).

The environment variable TMSCAT_THREADS caps BLAS parallelism (applied when
the package is imported; a malformed value exits 2).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

from . import _apply_thread_cap


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: str, record: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True))
        fh.write("\n")


def _load_doc(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read parameter document {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"parameter document {path} is not a key-value tree")
    return doc


def _finite(x: float, key: str) -> float:
    if not math.isfinite(x):
        raise ValueError(f"field {key!r} is not finite")
    return x


def _real(doc: dict, key: str) -> float:
    try:
        x = float(doc[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"missing or malformed real field {key!r}") from exc
    return _finite(x, key)


def _cplx(doc: dict, key: str) -> complex:
    try:
        re, im = float(doc[key]["re"]), float(doc[key]["im"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"missing or malformed complex field {key!r}") from exc
    return complex(_finite(re, key), _finite(im, key))


def _enc_cplx(z: complex) -> dict:
    return {"re": _fmt(z.real), "im": _fmt(z.imag)}


def _theta_grid_deg(samples: int):
    import numpy as np
    theta = np.arange(samples) * (360.0 / samples)
    keep = (np.abs(theta - 90.0) > 0.75) & (np.abs(theta - 270.0) > 0.75)
    return theta[keep]


def _amplitude_rows(thetas_deg, fvals):
    return [(t, f.real, f.imag, abs(f) ** 2) for t, f in zip(thetas_deg, fvals)]


def _meta_record(k: float, n: int, t_plus, t_minus, flag) -> dict:
    return {
        "k": _fmt(k),
        "n": n,
        "t_plus_delta": _enc_cplx(t_plus.delta_coeff),
        "t_minus_delta": _enc_cplx(t_minus.delta_coeff),
        "singularity_flag": flag.kind,
    }


def _tpm_rows(grid, t_plus, t_minus):
    return [(p, tp.real, tp.imag, tm.real, tm.imag)
            for p, tp, tm in zip(grid.nodes, t_plus.smooth, t_minus.smooth)]


TPM_HEADER = ["p", "re_t_plus", "im_t_plus", "re_t_minus", "im_t_minus"]
AMP_HEADER = ["theta_deg", "re_f", "im_f", "abs_f_sq"]


def _cmd_delta2d(args) -> int:
    import numpy as np
    from . import closedforms as cf
    from .grid import build_grid
    from .operators import amplitude, solve_outgoing

    doc = _load_doc(args.input)
    strength = _cplx(doc, "strength")
    k = _real(doc, "k")
    grid = build_grid(k, args.grid_size)
    t_plus, t_minus, flag = solve_outgoing(cf.delta2d_operator(strength, grid))
    if flag.is_singular:
        cond = "inf" if flag.condition is None else f"{flag.condition:.3e}"
        raise cf.SpectralSingularityError(
            f"spectral singularity at strength {strength} (condition {cond})")
    thetas_deg = _theta_grid_deg(args.theta_samples)
    f = [v for _, v in amplitude(t_plus, t_minus, k, np.radians(thetas_deg))]
    _write_csv(args.output, AMP_HEADER, _amplitude_rows(thetas_deg, f))
    _write_csv(args.output + ".tpm.csv", TPM_HEADER, _tpm_rows(grid, t_plus, t_minus))
    meta = _meta_record(k, grid.size, t_plus, t_minus, flag)
    meta["f_closed_form"] = _enc_cplx(cf.delta2d_amplitude(strength))
    _write_json(args.output + ".meta.json", meta)
    return 0


def _cmd_slab(args) -> int:
    from . import closedforms as cf
    from .grid import build_grid

    doc = _load_doc(args.input)
    sp = cf.SlabParams(epsilon=_cplx(doc, "epsilon"),
                       thickness=_real(doc, "thickness"), k=_real(doc, "k"))
    grid = build_grid(sp.k, args.grid_size)
    m = cf.slab_operator(sp, grid).mult_on_grid()
    rows = [(p, m[0, 0, j].real, m[0, 0, j].imag, m[0, 1, j].real, m[0, 1, j].imag,
             m[1, 0, j].real, m[1, 0, j].imag, m[1, 1, j].real, m[1, 1, j].imag)
            for j, p in enumerate(grid.nodes)]
    _write_csv(args.output, ["p", "re_m11", "im_m11", "re_m12", "im_m12",
                             "re_m21", "im_m21", "re_m22", "im_m22"], rows)
    return 0


def _cmd_slab_defect(args) -> int:
    import numpy as np
    from . import closedforms as cf
    from .grid import build_grid

    doc = _load_doc(args.input)
    sp = cf.SlabParams(epsilon=_cplx(doc, "epsilon"),
                       thickness=_real(doc, "thickness"), k=_real(doc, "k"))
    strength = _cplx(doc, "strength")
    thetas_deg = _theta_grid_deg(args.theta_samples)
    rad = np.radians(thetas_deg)
    p = sp.k * np.sin(rad)
    res = cf.slab_defect_amplitudes(sp, strength, p, quad_points=args.quad_points)
    omega = np.sqrt(sp.k ** 2 - p ** 2)
    smooth = np.where(np.cos(rad) > 0, res.smooth_plus, res.smooth_minus)
    f = -1j * omega * smooth / np.sqrt(2 * np.pi)
    _write_csv(args.output, AMP_HEADER, _amplitude_rows(thetas_deg, f))

    grid = build_grid(sp.k, args.grid_size)
    nodes = cf.slab_defect_amplitudes(sp, strength, grid.nodes,
                                      quad_points=args.quad_points)
    rows = [(pp, tp.real, tp.imag, tm.real, tm.imag)
            for pp, tp, tm in zip(grid.nodes, nodes.smooth_plus, nodes.smooth_minus)]
    _write_csv(args.output + ".tpm.csv", TPM_HEADER, rows)
    _write_json(args.output + ".meta.json", {
        "k": _fmt(sp.k), "n": grid.size,
        "t_plus_delta": _enc_cplx(nodes.delta_plus),
        "t_minus_delta": _enc_cplx(nodes.delta_minus),
        "singularity_flag": "none",
    })
    return 0


def _cmd_threshold_gain(args) -> int:
    import numpy as np
    from .closedforms import threshold_gain_curve

    doc = _load_doc(args.input)
    eta = _real(doc, "eta")
    thickness = _real(doc, "thickness")
    theta = np.arange(args.theta_samples) * (180.0 / (args.theta_samples - 1)) \
        if args.theta_samples > 1 else np.array([0.0])
    g = threshold_gain_curve(eta, thickness, theta)
    _write_csv(args.output, ["theta_deg", "g_times_L"],
               [(t, gv * thickness) for t, gv in zip(theta, g)])
    return 0


def _cmd_scatter(args) -> int:
    import numpy as np
    from .errors import AccuracyWarning
    from .evolution import auto_config, evolve_transfer
    from .grid import build_grid
    from .operators import amplitude, solve_outgoing
    from .potentials import potential_from_document

    doc = _load_doc(args.input)
    if "potential" not in doc:
        raise ValueError("scatter document needs a 'potential' entry")
    pot = potential_from_document(doc["potential"])
    k = _real(doc, "k")
    grid = build_grid(k, args.grid_size)
    if "evolution" in doc:
        ev = doc["evolution"]
        from .evolution import EvolutionConfig
        cfg = EvolutionConfig(x_min=_real(ev, "x_min"), x_max=_real(ev, "x_max"),
                              steps=int(_real(ev, "steps")),
                              check_tolerance=args.check_tolerance)
    else:
        cfg = auto_config(pot, args.steps, check_tolerance=args.check_tolerance)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AccuracyWarning)
        op = evolve_transfer(pot, grid, cfg)
    for w in caught:
        if isinstance(w.message, AccuracyWarning):
            print(json.dumps(w.message.record()), file=sys.stderr)
    t_plus, t_minus, flag = solve_outgoing(op)
    if flag.is_singular:
        from .errors import SpectralSingularityError
        raise SpectralSingularityError("extraction hit a spectral singularity")
    thetas_deg = _theta_grid_deg(args.theta_samples)
    f = [v for _, v in amplitude(t_plus, t_minus, k, np.radians(thetas_deg))]
    _write_csv(args.output, AMP_HEADER, _amplitude_rows(thetas_deg, f))
    _write_csv(args.output + ".tpm.csv", TPM_HEADER, _tpm_rows(grid, t_plus, t_minus))
    _write_json(args.output + ".meta.json", _meta_record(k, grid.size, t_plus, t_minus, flag))
    return 0


def _cmd_singularity(args) -> int:
    from . import closedforms as cf

    doc = _load_doc(args.input)
    sp = cf.SlabParams(epsilon=_cplx(doc, "epsilon"),
                       thickness=_real(doc, "thickness"), k=_real(doc, "k"))
    unknown = doc.get("unknown")
    if unknown not in ("omega", "k"):
        raise ValueError("singularity document needs unknown: 'omega' or 'k'")
    guess = _cplx(doc, "guess")
    res = cf.spectral_singularity(sp, unknown, guess)
    _write_json(args.output, {
        "root_re": _fmt(res.root.real),
        "root_im": _fmt(res.root.imag),
        "residual": _fmt(res.z_abs),
        "m22_abs": _fmt(res.m22_abs),
        "iterations": res.iterations,
    })
    return 0


def _cmd_delta3d(args) -> int:
    import numpy as np
    from . import threed
    from .operators import solve_outgoing

    doc = _load_doc(args.input)
    strength = _cplx(doc, "strength")
    k = _real(doc, "k")
    disc = threed.build_disc_grid(k, args.n_radial, args.n_azimuthal)
    t_plus, t_minus, flag = solve_outgoing(threed.delta3d_operator(strength, disc))
    if flag.is_singular:
        from .errors import SpectralSingularityError
        raise SpectralSingularityError("extraction hit a spectral singularity")
    f = threed.amplitude3d(t_plus, t_minus, k, 0.7, 0.4)
    xi = threed.scattering_length(strength)
    _write_json(args.output, {
        "k": _fmt(k),
        "f_re": _fmt(f.real),
        "f_im": _fmt(f.imag),
        "abs_f_sq": _fmt(abs(f) ** 2),
        "f_closed_form": _enc_cplx(threed.delta3d_amplitude(strength, k)),
        "xi_re": _fmt(xi.real),
        "xi_im": _fmt(xi.imag),
        "mu": _fmt(4 * np.pi / abs(strength)) if strength != 0 else None,
        "singularity_flag": flag.kind,
    })
    return 0


def _cmd_selftest(args) -> int:
    from .acceptance import run_all

    results = run_all()
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmscat",
        description="Transfer-operator scattering pipelines (2D and 3D)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext, **extra):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(fn=fn)
        if extra.get("io", True):
            p.add_argument("--input", required=True, help="JSON parameter document")
            p.add_argument("--output", required=True, help="output file path")
        return p

    p = add("delta2d", _cmd_delta2d, "2D point potential: f(theta) and T+- tables")
    p.add_argument("--grid-size", type=int, default=64)
    p.add_argument("--theta-samples", type=int, default=181)

    p = add("slab", _cmd_slab, "slab transfer-matrix entries per channel")
    p.add_argument("--grid-size", type=int, default=64)

    p = add("slab-defect", _cmd_slab_defect, "slab with surface line defect: T+-, f(theta)")
    p.add_argument("--grid-size", type=int, default=64)
    p.add_argument("--quad-points", type=int, default=200)
    p.add_argument("--theta-samples", type=int, default=181)

    p = add("threshold-gain", _cmd_threshold_gain, "threshold gain curve g(theta)")
    p.add_argument("--theta-samples", type=int, default=181)

    p = add("scatter", _cmd_scatter, "numeric pipeline on a potential document")
    p.add_argument("--grid-size", type=int, default=32)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--theta-samples", type=int, default=181)
    p.add_argument("--check-tolerance", type=float, default=1e-6,
                   help="step-halving accuracy check tolerance (<= 0 disables)")

    p = add("singularity", _cmd_singularity, "complex root of the singularity condition")

    p = add("delta3d", _cmd_delta3d, "3D point potential: f, scattering length")
    p.add_argument("--n-radial", type=int, default=16)
    p.add_argument("--n-azimuthal", type=int, default=8)

    sub.add_parser("selftest", help="run the acceptance criteria").set_defaults(
        fn=_cmd_selftest, io=False)
    return parser


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
        args = _build_parser().parse_args(argv)
        if getattr(args, "check_tolerance", None) is not None and args.check_tolerance <= 0:
            args.check_tolerance = None
        numeric_knobs = [getattr(args, name, 1) for name in
                         ("grid_size", "theta_samples", "quad_points", "steps",
                          "n_radial", "n_azimuthal")]
        if any(int(v) < 1 for v in numeric_knobs if v is not None):
            raise ValueError("numeric knobs must be positive")
    except ValueError as exc:
        print(f"tmscat: {exc}", file=sys.stderr)
        return 2

    from .errors import TmscatError

    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"tmscat: {exc}", file=sys.stderr)
        return 2
    except TmscatError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
