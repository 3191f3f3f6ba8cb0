"""Command-line interface: file-based, reproducible runs of every pipeline.

All parameter documents are JSON trees with numeric fields as decimal
strings and complex numbers as {re, im} (the same conventions as the
potential documents).  CSV output uses 17 significant digits, '.' decimal
separator and '\\n' line endings, so identical inputs give byte-identical
files.  Exit codes: 0 success, 2 parse/configuration error, 3 numeric or
singularity error (with a structured JSON diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import closedforms as cf
from .errors import AccuracyWarning, SpectralSingularityError, TmscatError, finite, integer
from .evolution import EvolutionConfig, auto_config, evolve_transfer
from .grid import SpectralAmplitude, build_disc_grid, build_grid
from .operators import (ScatteringResult, SingularityFlag, amplitude3d, scattering_result,
                        solve_outgoing)
from .potentials import _dec_complex, _field, potential_from_document

TPM_HEADER = ["p", "re_t_plus", "im_t_plus", "re_t_minus", "im_t_minus"]
AMP_HEADER = ["theta_deg", "re_f", "im_f", "abs_f_sq"]


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _encode(value):
    """Floats as 17-digit decimal strings and complex numbers as {re, im}, recursively."""
    if isinstance(value, dict):
        return {key: _encode(v) for key, v in value.items()}
    if isinstance(value, complex):
        return {"re": _fmt(value.real), "im": _fmt(value.imag)}
    if isinstance(value, float):
        return _fmt(value)
    return value


def _write_json(path: str, record: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(_encode(record), indent=2, sort_keys=True))
        fh.write("\n")


def _write_scattering(path: str, thetas_deg, res: ScatteringResult, **extra) -> None:
    """The amplitude table, its .tpm.csv and its .meta.json (metadata plus extra).

    A singular extraction raises SpectralSingularityError before any file is
    written.
    """
    flag = res.singularity_flag
    if flag.is_singular:
        cond = "inf" if flag.condition is None else f"{flag.condition:.3e}"
        raise SpectralSingularityError(f"extraction hit a spectral singularity (condition {cond})")
    _write_csv(path, AMP_HEADER, [(t, f.real, f.imag, abs(f) ** 2)
                                  for t, (_, f) in zip(thetas_deg, res.f_samples)])
    tp, tm = res.t_plus.smooth, res.t_minus.smooth
    _write_csv(path + ".tpm.csv", TPM_HEADER,
               zip(res.t_plus.grid.nodes, tp.real, tp.imag, tm.real, tm.imag))
    _write_json(path + ".meta.json", {**res.metadata(), **extra})


def _load_doc(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read parameter document {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"parameter document {path} is not a key-value tree")
    return doc


def _slab_params(doc: dict) -> cf.SlabParams:
    return cf.SlabParams(epsilon=_field(doc, "epsilon", _dec_complex),
                         thickness=_field(doc, "thickness"), k=_field(doc, "k"))


def _theta_grid_deg(samples: int):
    theta = np.arange(samples) * (360.0 / samples)
    keep = (np.abs(theta - 90.0) > 0.75) & (np.abs(theta - 270.0) > 0.75)
    return theta[keep]


def _cmd_delta2d(args) -> int:
    doc = _load_doc(args.input)
    strength = _field(doc, "strength", _dec_complex)
    grid = build_grid(_field(doc, "k"), args.grid_size)
    thetas_deg = _theta_grid_deg(args.theta_samples)
    res = scattering_result(cf.point_operator(strength, grid), np.radians(thetas_deg))
    _write_scattering(args.output, thetas_deg, res,
                      f_closed_form=cf.delta2d_amplitude(strength))
    return 0


def _cmd_slab(args) -> int:
    sp = _slab_params(_load_doc(args.input))
    grid = build_grid(sp.k, args.grid_size)
    m = cf.slab_operator(sp, grid).mult_on_grid()
    rows = [(p, m[0, 0, j].real, m[0, 0, j].imag, m[0, 1, j].real, m[0, 1, j].imag,
             m[1, 0, j].real, m[1, 0, j].imag, m[1, 1, j].real, m[1, 1, j].imag)
            for j, p in enumerate(grid.nodes)]
    _write_csv(args.output, ["p", "re_m11", "im_m11", "re_m12", "im_m12",
                             "re_m21", "im_m21", "re_m22", "im_m22"], rows)
    return 0


def _cmd_slab_defect(args) -> int:
    doc = _load_doc(args.input)
    sp = _slab_params(doc)
    strength = _field(doc, "strength", _dec_complex)
    thetas_deg = _theta_grid_deg(args.theta_samples)
    rad = np.radians(thetas_deg)
    p = sp.k * np.sin(rad)
    grid = build_grid(sp.k, args.grid_size)
    # one closed-form evaluation at the sampled angles, then at the grid nodes
    res = cf.slab_defect_amplitudes(sp, strength, np.concatenate([p, grid.nodes]),
                                    quad_points=args.quad_points)
    m = p.size
    omega = np.sqrt(sp.k ** 2 - p ** 2)
    smooth = np.where(np.cos(rad) > 0, res.smooth_plus[:m], res.smooth_minus[:m])
    f = -1j * omega * smooth / np.sqrt(2 * np.pi)
    _write_scattering(args.output, thetas_deg, ScatteringResult(
        t_plus=SpectralAmplitude(grid, res.delta_plus, res.smooth_plus[m:]),
        t_minus=SpectralAmplitude(grid, res.delta_minus, res.smooth_minus[m:]),
        f_samples=list(zip(rad, f)), singularity_flag=SingularityFlag("none")))
    return 0


def _cmd_threshold_gain(args) -> int:
    doc = _load_doc(args.input)
    eta = _field(doc, "eta")
    thickness = _field(doc, "thickness")
    theta = np.arange(args.theta_samples) * (180.0 / (args.theta_samples - 1)) \
        if args.theta_samples > 1 else np.array([0.0])
    g = cf.threshold_gain_curve(eta, thickness, theta)
    _write_csv(args.output, ["theta_deg", "g_times_L"],
               [(t, gv * thickness) for t, gv in zip(theta, g)])
    return 0


def _cmd_scatter(args) -> int:
    doc = _load_doc(args.input)
    if "potential" not in doc:
        raise ValueError("scatter document needs a 'potential' entry")
    pot = potential_from_document(doc["potential"])
    grid = build_grid(_field(doc, "k"), args.grid_size)
    if "evolution" in doc:
        ev = doc["evolution"]
        cfg = EvolutionConfig(x_min=_field(ev, "x_min"), x_max=_field(ev, "x_max"),
                              steps=_field(ev, "steps"),
                              check_tolerance=args.check_tolerance)
    else:
        cfg = auto_config(pot, args.steps, check_tolerance=args.check_tolerance)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AccuracyWarning)
        op = evolve_transfer(pot, grid, cfg)
    for w in caught:
        if isinstance(w.message, AccuracyWarning):
            print(json.dumps(w.message.record()), file=sys.stderr)
    thetas_deg = _theta_grid_deg(args.theta_samples)
    _write_scattering(args.output, thetas_deg,
                      scattering_result(op, np.radians(thetas_deg)))
    return 0


def _cmd_singularity(args) -> int:
    doc = _load_doc(args.input)
    sp = _slab_params(doc)
    unknown = doc.get("unknown")
    if unknown not in ("omega", "k"):
        raise ValueError("singularity document needs unknown: 'omega' or 'k'")
    res = cf.spectral_singularity(sp, unknown, _field(doc, "guess", _dec_complex))
    _write_json(args.output, {
        "root_re": res.root.real,
        "root_im": res.root.imag,
        "residual": res.z_abs,
        "m22_abs": res.m22_abs,
        "iterations": res.iterations,
    })
    return 0


def _cmd_delta3d(args) -> int:
    doc = _load_doc(args.input)
    strength = _field(doc, "strength", _dec_complex)
    k = _field(doc, "k")
    disc = build_disc_grid(k, args.n_radial, args.n_azimuthal)
    t_plus, t_minus, flag = solve_outgoing(cf.point_operator(strength, disc))
    if flag.is_singular:
        raise SpectralSingularityError("extraction hit a spectral singularity")
    f = amplitude3d(t_plus, t_minus, k, 0.7, 0.4)
    xi = cf.scattering_length(strength)
    _write_json(args.output, {
        "k": k,
        "f_re": f.real,
        "f_im": f.imag,
        "abs_f_sq": abs(f) ** 2,
        "f_closed_form": cf.delta3d_amplitude(strength, k),
        "xi_re": xi.real,
        "xi_im": xi.imag,
        "mu": 4 * np.pi / abs(strength) if strength != 0 else None,
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

    def add(name, fn, helptext):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(fn=fn)
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

    sub.add_parser("selftest", help="run the acceptance criteria").set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        tol = getattr(args, "check_tolerance", None)
        if tol is not None and finite("--check-tolerance", tol) <= 0:
            args.check_tolerance = None
        for name, least in (("grid_size", 2), ("theta_samples", 1), ("quad_points", 2),
                            ("steps", 1), ("n_radial", 2), ("n_azimuthal", 2)):
            integer("--" + name.replace("_", "-"), getattr(args, name, least), least)
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
