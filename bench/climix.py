"""cli_mix: every file-based subcommand run as its own tmscat process.

Set-up writes one parameter document per subcommand from the seed. A cycle
runs the seven subcommands one after another, plus `slab` on a fixed
document with epsilon = nan, whose documented outcome is exit code 2 or 3
with a diagnostic. Outputs are parsed and checked after the timed phase,
against references the benchmark computes itself.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import time

import numpy as np

import tmscat.cli
from tmscat import closedforms as cf
from tmscat import oracle
from tmscat.potentials import potential_from_document, potential_to_document

from harness import CLI_SUBCOMMANDS as SUBCOMMANDS, Check, median, spawn
from workloads import Workload, compare, jitterer, rel

EXTRA_ARGS = {
    "slab": ["--grid-size", "16"],
    "scatter": ["--grid-size", "16", "--steps", "400"],
}
NAN_SLAB = {"epsilon": {"re": "nan", "im": "0.01"}, "thickness": "1.0", "k": "2.0"}
ORACLE_STEPS = 200


def _real(x: float) -> str:
    return repr(float(x))


def _cplx(z: complex) -> dict:
    return {"re": _real(z.real), "im": _real(z.imag)}


def _read_rows(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array(rows, dtype=float)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _pairs(theta_deg: np.ndarray):
    """Index pairs (i, j) with theta_j = 360 - theta_i, i.e. f(theta) vs f(-theta)."""
    lookup = {round(t, 9): j for j, t in enumerate(theta_deg)}
    pairs = [(i, lookup[round(360.0 - t, 9)]) for i, t in enumerate(theta_deg)
             if 0.0 < t < 180.0 and round(360.0 - t, 9) in lookup]
    return np.array(pairs).T


class CliMix(Workload):
    """Seven subcommands per cycle plus the known-faulty nan slab call."""

    name = "cli_mix"
    solutions_per_cycle = len(SUBCOMMANDS)
    ops_per_cycle = len(SUBCOMMANDS) + 1
    ORACLE_TOL = 1e-8
    EXACT_TOL = 1e-10
    PROPERTY_TOL = 1e-9
    GAIN_TOL = 1e-12

    def __init__(self, seed: int, run_dir: str, src_dir: str):
        super().__init__()
        jit = jitterer(seed, 4)
        self.dir = run_dir
        os.makedirs(run_dir, exist_ok=True)
        self.docs = {
            "delta2d": {"strength": _cplx(jit(1.0 + 0.3j)), "k": _real(jit(2.0))},
            "slab": {"epsilon": _cplx(jit(2.0 + 0.01j)), "thickness": _real(jit(1.0)),
                     "k": _real(jit(2.0))},
            "slab-defect": {"epsilon": _cplx(jit(2.0 + 0.01j)), "thickness": _real(jit(1.0)),
                            "k": _real(jit(2.0)), "strength": _cplx(jit(1.0 + 0.0j))},
            "threshold-gain": {"eta": _real(jit(1.5)), "thickness": _real(jit(1.0))},
            "scatter": {"potential": potential_to_document(tmscat.GaussianBump(
                jit(0.4), (0.0, 0.0), (jit(0.7), jit(0.9)))), "k": _real(jit(1.3))},
            "singularity": {"epsilon": _cplx(jit(2.25 - 0.05j)), "thickness": _real(jit(1.0)),
                            "k": _real(jit(2.0)), "unknown": "k", "guess": _cplx(2.0 + 0.0j)},
            "delta3d": {"strength": _cplx(jit(1.7 + 0.2j)), "k": _real(jit(1.3))},
            "slab-nan": NAN_SLAB,
        }
        self.calls = []     # (label, argv tail, output path)
        for label, doc in self.docs.items():
            doc_path = os.path.join(run_dir, label + ".json")
            with open(doc_path, "w") as fh:
                json.dump(doc, fh)
            sub = "slab" if label == "slab-nan" else label
            ext = ".json" if sub in ("singularity", "delta3d") else ".csv"
            out_path = os.path.join(run_dir, "out-" + label + ext)
            self.calls.append((label, [sub, "--input", doc_path, "--output", out_path]
                               + EXTRA_ARGS.get(sub, []), out_path))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.prefix = [sys.executable, "-m", "tmscat.cli"]
        self.peak_rss_mb = 0.0

    def _run(self, tr, label, tail):
        with tr.span("cli." + label):
            code, _, rss = spawn(self.prefix + tail, self.env,
                                 os.path.join(self.dir, "log-" + label))
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return code

    def cycle(self, tr):
        codes = {}
        for label, tail, _ in self.calls:
            if codes:
                tr.mark()
            codes[label] = self._run(tr, label, tail)
        nan_code = codes.pop("slab-nan")
        # exit 0 on a nan document is the documented contract broken: failed
        failed = sum(c != 0 for c in codes.values()) + (nan_code not in (2, 3))
        if tr.enabled:
            tr.count("cli.output_bytes", self.output_bytes())
        return {"codes": np.array([codes[s] for s in SUBCOMMANDS], dtype=float)}, failed

    def output_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self.dir, name))
                   for name in os.listdir(self.dir) if name.startswith("out-"))

    def parse(self, out) -> dict:
        """Numeric outputs of the last cycle, read back from its files."""
        path = {label: p for label, _, p in self.calls}
        parsed = {"codes": out["codes"]}
        rows = _read_rows(path["delta2d"])
        parsed["delta2d/f"] = rows[:, 1] + 1j * rows[:, 2]
        rows = _read_rows(path["slab"])
        parsed["slab/p"] = rows[:, 0]
        parsed["slab/m"] = rows[:, 1::2] + 1j * rows[:, 2::2]
        meta = _read_json(path["slab-defect"] + ".meta.json")
        parsed["slab-defect/delta"] = np.array([
            complex(float(meta[k]["re"]), float(meta[k]["im"]))
            for k in ("t_minus_delta", "t_plus_delta")])
        rows = _read_rows(path["slab-defect"])
        parsed["slab-defect/theta"] = rows[:, 0]
        parsed["slab-defect/f"] = rows[:, 1] + 1j * rows[:, 2]
        rows = _read_rows(path["threshold-gain"])
        parsed["threshold-gain/theta"] = rows[:, 0]
        parsed["threshold-gain/g"] = rows[:, 1]
        rows = _read_rows(path["scatter"])
        parsed["scatter/theta"] = rows[:, 0]
        parsed["scatter/f"] = rows[:, 1] + 1j * rows[:, 2]
        rep = _read_json(path["singularity"])
        parsed["singularity/root"] = np.array([complex(float(rep["root_re"]),
                                                       float(rep["root_im"]))])
        rep = _read_json(path["delta3d"])
        parsed["delta3d/f"] = np.array([complex(float(rep["f_re"]), float(rep["f_im"]))])
        return parsed

    def checks(self, out) -> list[Check]:
        return self.check_parsed(self.parse(out))

    def check_parsed(self, o) -> list[Check]:
        d = self.docs
        c = [Check("seven subcommands exit 0", "codes", float(np.max(np.abs(o["codes"]))), 0.0)]

        z, k = _doc_cplx(d["delta2d"], "strength"), float(d["delta2d"]["k"])
        want = -np.sqrt(2 / np.pi) * z / (4 + 1j * z)
        c.append(compare("delta2d f = -sqrt(2/pi) z/(4+iz)", "delta2d/f", o["delta2d/f"],
                         np.full(o["delta2d/f"].shape, want), self.EXACT_TOL, ref=True))

        sp = _slab_params(d["slab"])
        want = np.array([_oracle_row(sp, p) for p in o["slab/p"]])
        c.append(compare("slab rows vs transfer_1d per channel", "slab/m", o["slab/m"], want,
                         self.ORACLE_TOL, ref=True))

        sp = _slab_params(d["slab-defect"])
        m11, m12, m21, m22 = _oracle_row(sp, 0.0)
        want = np.array([-m21 / m22, (m11 * m22 - m12 * m21) / m22 - 1.0])
        c.append(compare("slab-defect beam coefficients vs transfer_1d", "slab-defect/delta",
                         o["slab-defect/delta"], want, self.ORACLE_TOL, ref=True))
        i, j = _pairs(o["slab-defect/theta"])
        f = o["slab-defect/f"]
        c.append(compare("slab-defect parity f(theta) = f(-theta)", "slab-defect/f",
                         f[i], f[j], self.PROPERTY_TOL))

        eta, length = float(d["threshold-gain"]["eta"]), float(d["threshold-gain"]["thickness"])
        theta, g = o["threshold-gain/theta"], o["threshold-gain/g"]
        want = 4 * np.log((eta + 1) / np.sqrt(eta * eta - 1))
        c.append(compare("threshold-gain g(0) L = 4 ln((eta+1)/sqrt(eta^2-1))",
                         "threshold-gain/g", g[theta == 0.0], want, self.GAIN_TOL, ref=True))
        c.append(Check("threshold-gain symmetry g(theta) = g(180 - theta)", "threshold-gain/g",
                       float(np.max(np.abs(g - g[::-1]))) / want, self.GAIN_TOL, norm=want))
        c.append(Check("threshold-gain g(90) = 0", "threshold-gain/g",
                       float(np.max(np.abs(g[theta == 90.0]))) if np.any(theta == 90.0)
                       else np.inf, 1e-14))

        i, j = _pairs(o["scatter/theta"])
        f = o["scatter/f"]
        c.append(compare("scatter parity f(theta) = f(-theta)", "scatter/f", f[i], f[j],
                         self.PROPERTY_TOL))

        sing = d["singularity"]
        n = np.sqrt(_doc_cplx(sing, "epsilon"))
        root = o["singularity/root"][0]
        e, r2 = np.exp(-2j * n * float(sing["thickness"]) * root), ((n - 1) / (n + 1)) ** 2
        c.append(Check("singularity |Z(root)| from its formula", "singularity/root",
                       float(abs(e - r2) / (abs(e) + abs(r2))), self.PROPERTY_TOL, ref=True,
                       norm=abs(root)))

        z, k = _doc_cplx(d["delta3d"], "strength"), float(d["delta3d"]["k"])
        c.append(compare("delta3d f = -z/(4 pi + ikz)", "delta3d/f", o["delta3d/f"],
                         np.array([-z / (4 * np.pi + 1j * k * z)]), self.EXACT_TOL, ref=True))
        return c

    def halving(self, out) -> float:
        label, tail, out_path = next(c for c in self.calls if c[0] == "scatter")
        half_path = out_path + ".half.csv"
        tail = list(tail)
        tail[tail.index("--output") + 1] = half_path
        tail[tail.index("--steps") + 1] = "200"
        code, _, _ = spawn(self.prefix + tail, self.env, os.path.join(self.dir, "log-half"))
        if code != 0:
            return float("inf")
        full, half = _read_rows(out_path), _read_rows(half_path)
        return rel(half[:, 1] + 1j * half[:, 2], full[:, 1] + 1j * full[:, 2])

    def probes(self) -> dict:
        """In-process timings of the layers the subcommands call."""
        res = {}
        t0 = time.perf_counter()
        for _ in range(2):
            for _, tail, _ in self.calls:
                tmscat.cli.main(tail)
        res["cli.inprocess_s"] = (time.perf_counter() - t0) / 2

        doc = self.docs["scatter"]["potential"]
        reps = 200
        t0 = time.perf_counter()
        for _ in range(reps):
            potential_to_document(potential_from_document(doc))
        res["potentials.document_s"] = (time.perf_counter() - t0) / reps

        sd = self.docs["slab-defect"]
        sp, z = _slab_params(sd), _doc_cplx(sd, "strength")
        theta = np.radians(tmscat.cli._theta_grid_deg(181))
        nodes = tmscat.build_grid(sp.k, 64).nodes
        res["closedforms.defect_amplitudes_s"] = _timed(
            lambda: [cf.slab_defect_amplitudes(sp, z, p) for p in (sp.k * np.sin(theta), nodes)])
        res["closedforms.slab_y_s"] = _timed(lambda: cf.slab_y(sp, z))
        sing = self.docs["singularity"]
        sp = _slab_params(sing)
        res["closedforms.singularity_s"] = _timed(
            lambda: cf.spectral_singularity(sp, "k", _doc_cplx(sing, "guess")))
        res["closedforms.secant_iterations"] = float(
            cf.spectral_singularity(sp, "k", _doc_cplx(sing, "guess")).iterations)
        return res


def _timed(fn, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def _doc_cplx(doc: dict, key: str) -> complex:
    return complex(float(doc[key]["re"]), float(doc[key]["im"]))


def _slab_params(doc: dict) -> cf.SlabParams:
    return cf.SlabParams(_doc_cplx(doc, "epsilon"), float(doc["thickness"]), float(doc["k"]))


def _oracle_row(sp: cf.SlabParams, p: float):
    """(m11, m12, m21, m22) of the channel at momentum p from the 1D oracle."""
    omega = np.sqrt(sp.k * sp.k - p * p)
    m = oracle.transfer_1d(lambda x: sp.z_tilde, (0.0, sp.thickness), omega,
                           steps=ORACLE_STEPS).matrix
    return m.ravel()
