import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tmscat.cli import main

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def cplx(z):
    z = complex(z)
    return {"re": repr(z.real), "im": repr(z.imag)}


def test_delta2d_outputs(tmp_path):
    inp = write_doc(tmp_path / "in.json", {"strength": cplx(1.0), "k": "2.0"})
    out = str(tmp_path / "amp.csv")
    assert main(["delta2d", "--input", inp, "--output", out,
                 "--grid-size", "16", "--theta-samples", "36"]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "theta_deg,re_f,im_f,abs_f_sq"
    assert len(lines) > 30
    # f is isotropic: all rows carry the same amplitude
    first = [float(v) for v in lines[1].split(",")[1:3]]
    last = [float(v) for v in lines[-1].split(",")[1:3]]
    assert np.allclose(first, last, rtol=1e-12)
    meta = json.loads(open(out + ".meta.json").read())
    assert meta["singularity_flag"] == "none"
    assert meta["t_plus_delta"] == {"re": "0", "im": "0"}
    tpm = open(out + ".tpm.csv").read().splitlines()
    assert tpm[0].startswith("p,re_t_plus")
    assert len(tpm) == 17


def test_delta2d_singular_coupling_exits_3(tmp_path, capsys):
    inp = write_doc(tmp_path / "in.json", {"strength": cplx(4.0j), "k": "1.0"})
    out = str(tmp_path / "amp.csv")
    assert main(["delta2d", "--input", inp, "--output", out]) == 3
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["error"] == "SpectralSingularityError"


def test_determinism(tmp_path):
    inp = write_doc(tmp_path / "in.json",
                    {"strength": cplx(0.5 - 0.25j), "k": "1.5"})
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        assert main(["delta2d", "--input", inp, "--output", out,
                     "--grid-size", "24"]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_slab_transfer_table(tmp_path):
    inp = write_doc(tmp_path / "in.json",
                    {"epsilon": cplx(2 + 0.01j), "thickness": "1.0", "k": "2.0"})
    out = str(tmp_path / "transfer.csv")
    assert main(["slab", "--input", inp, "--output", out, "--grid-size", "8"]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "p,re_m11,im_m11,re_m12,im_m12,re_m21,im_m21,re_m22,im_m22"
    assert len(lines) == 9
    row = [float(v) for v in lines[1].split(",")]
    det = (complex(row[1], row[2]) * complex(row[7], row[8])
           - complex(row[3], row[4]) * complex(row[5], row[6]))
    assert abs(det - 1) < 1e-12


def test_slab_defect_outputs(tmp_path):
    inp = write_doc(tmp_path / "in.json",
                    {"epsilon": cplx(2 + 0.01j), "thickness": "1.0",
                     "strength": cplx(1.0), "k": "2.0"})
    out = str(tmp_path / "amp.csv")
    assert main(["slab-defect", "--input", inp, "--output", out,
                 "--grid-size", "16", "--theta-samples", "72"]) == 0
    assert open(out).read().splitlines()[0] == "theta_deg,re_f,im_f,abs_f_sq"
    meta = json.loads(open(out + ".meta.json").read())
    assert meta["n"] == 16


def test_threshold_gain_curve_minimum_at_90(tmp_path):
    inp = write_doc(tmp_path / "in.json", {"eta": "1.5", "thickness": "1.0"})
    out = str(tmp_path / "gain.csv")
    assert main(["threshold-gain", "--input", inp, "--output", out,
                 "--theta-samples", "181"]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "theta_deg,g_times_L"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    gmin = min(g for _, g in rows)
    assert gmin == 0.0
    assert [t for t, g in rows if g == gmin] == [90.0]


def test_scatter_gaussian(tmp_path):
    pot = {"kind": "gaussian_bump", "amplitude": cplx(0.5),
           "center": {"x": "0.0", "y": "0.0"},
           "widths": {"x": "0.8", "y": "0.8"}}
    inp = write_doc(tmp_path / "in.json", {"potential": pot, "k": "1.5"})
    out = str(tmp_path / "amp.csv")
    assert main(["scatter", "--input", inp, "--output", out, "--grid-size", "12",
                 "--steps", "400", "--theta-samples", "24"]) == 0
    rows = [ln.split(",") for ln in open(out).read().splitlines()[1:]]
    thetas = np.array([float(r[0]) for r in rows])
    f = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    # y-even potential: f(theta) = f(-theta)
    for t, v in zip(thetas, f):
        mirror = (360.0 - t) % 360.0
        j = np.argmin(np.abs(thetas - mirror))
        if abs(thetas[j] - mirror) < 1e-9:
            assert abs(f[j] - v) < 1e-6


def test_scatter_sum_potential(tmp_path):
    # a layer plus a disjoint bump, composed implicitly by the joint evolution
    pot = {"kind": "sum", "members": [
        {"kind": "gaussian_bump", "amplitude": cplx(0.2),
         "center": {"x": "-8.0", "y": "0.0"},
         "widths": {"x": "0.5", "y": "0.8"}},
        {"kind": "slab", "epsilon": cplx(1.5), "thickness": "1.0"},
    ]}
    inp = write_doc(tmp_path / "in.json", {"potential": pot, "k": "1.4"})
    out = str(tmp_path / "amp.csv")
    assert main(["scatter", "--input", inp, "--output", out, "--grid-size", "10",
                 "--steps", "600", "--theta-samples", "24"]) == 0
    meta = json.loads(open(out + ".meta.json").read())
    # the coherent beam feels the layer: nonzero reflected delta coefficient
    assert abs(complex(float(meta["t_minus_delta"]["re"]),
                       float(meta["t_minus_delta"]["im"]))) > 1e-3


def test_scatter_accepts_evolution_document(tmp_path):
    pot = {"kind": "gaussian_bump", "amplitude": cplx(0.3),
           "center": {"x": "0.0", "y": "0.0"},
           "widths": {"x": "0.6", "y": "0.6"}}
    doc = {"potential": pot, "k": "1.2",
           "evolution": {"x_min": "-5.0", "x_max": "5.0", "steps": "300"}}
    inp = write_doc(tmp_path / "in.json", doc)
    out = str(tmp_path / "amp.csv")
    assert main(["scatter", "--input", inp, "--output", out, "--grid-size", "10",
                 "--theta-samples", "16"]) == 0
    assert len(open(out).read().splitlines()) > 10


def test_singularity_report(tmp_path):
    eps = (1.5 - 0.05j) ** 2
    n = np.sqrt(eps)
    k0 = (np.log(((n - 1) / (n + 1)) ** 2) - 2j * np.pi * 15) / (-2j * n * 10.0)
    inp = write_doc(tmp_path / "in.json",
                    {"epsilon": cplx(eps), "thickness": "10.0", "k": "1.0",
                     "unknown": "k", "guess": cplx(k0 * 1.001)})
    out = str(tmp_path / "root.json")
    assert main(["singularity", "--input", inp, "--output", out]) == 0
    rep = json.loads(open(out).read())
    assert abs(complex(float(rep["root_re"]), float(rep["root_im"])) - k0) < 1e-10
    assert float(rep["residual"]) < 1e-10


def test_singularity_no_root_exits_3(tmp_path, capsys):
    inp = write_doc(tmp_path / "in.json",
                    {"epsilon": cplx(1.0), "thickness": "1.0", "k": "2.0",
                     "unknown": "omega", "guess": cplx(1.0)})
    out = str(tmp_path / "root.json")
    assert main(["singularity", "--input", inp, "--output", out]) == 3
    assert "NoRootError" in capsys.readouterr().err


def test_delta3d_report(tmp_path):
    inp = write_doc(tmp_path / "in.json", {"strength": cplx(1.7), "k": "1.3"})
    out = str(tmp_path / "report.json")
    assert main(["delta3d", "--input", inp, "--output", out]) == 0
    rep = json.loads(open(out).read())
    want = -1.7 / (4 * np.pi + 1j * 1.3 * 1.7)
    assert abs(complex(float(rep["f_re"]), float(rep["f_im"])) - want) < 1e-12
    assert abs(float(rep["xi_re"]) - 1.7 / (4 * np.pi)) < 1e-12
    assert abs(float(rep["mu"]) - 4 * np.pi / 1.7) < 1e-12


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["delta2d", "--input", str(bad), "--output",
                 str(tmp_path / "o.csv")]) == 2
    missing = write_doc(tmp_path / "m.json", {"k": "1.0"})
    assert main(["delta2d", "--input", missing, "--output",
                 str(tmp_path / "o.csv")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field, value", [("epsilon", {"re": "nan", "im": "0.01"}),
                                          ("thickness", "inf")])
def test_slab_non_finite_input_exits_2(tmp_path, capsys, field, value):
    doc = {"epsilon": cplx(2 + 0.01j), "thickness": "1.0", "k": "2.0", field: value}
    inp = write_doc(tmp_path / "in.json", doc)
    out = tmp_path / "transfer.csv"
    assert main(["slab", "--input", inp, "--output", str(out)]) == 2
    assert not out.exists()
    assert field in capsys.readouterr().err


BUMP = {"kind": "gaussian_bump", "amplitude": cplx(0.5),
        "center": {"x": "0.0", "y": "0.0"}, "widths": {"x": "0.8", "y": "0.8"}}
SLAB = {"kind": "slab", "epsilon": cplx(1.5), "thickness": "1.0"}


@pytest.mark.parametrize("pot", [
    {**BUMP, "amplitude": {"re": "nan", "im": "0.0"}},
    {**BUMP, "amplitude": {"re": "0.5", "im": "inf"}},
    {**BUMP, "center": {"x": "0.0", "y": "nan"}},
    {**BUMP, "widths": {"x": "0.8", "y": "inf"}},
    {**SLAB, "epsilon": {"re": "1.5", "im": "nan"}},
    {**SLAB, "thickness": "inf"},
], ids=["amplitude-nan", "amplitude-inf", "center-nan", "width-inf", "epsilon-nan",
        "thickness-inf"])
def test_scatter_non_finite_potential_exits_2(tmp_path, capsys, pot):
    inp = write_doc(tmp_path / "in.json", {"potential": pot, "k": "1.5"})
    out = tmp_path / "amp.csv"
    assert main(["scatter", "--input", inp, "--output", str(out), "--grid-size", "8",
                 "--steps", "50"]) == 2
    assert not out.exists()
    assert pot["kind"] in capsys.readouterr().err


def test_slab_overflow_exits_3(tmp_path, capsys):
    # k = 1e300 overflows the closed-form entries to non-finite values
    doc = {"epsilon": cplx(2 + 0.01j), "thickness": "1.0", "k": "1e300"}
    inp = write_doc(tmp_path / "in.json", doc)
    out = tmp_path / "transfer.csv"
    with np.errstate(all="ignore"):
        assert main(["slab", "--input", inp, "--output", str(out), "--grid-size", "4"]) == 3
    assert not out.exists()
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["error"] == "DivergenceError"


def test_bad_knob_exits_2(tmp_path):
    inp = write_doc(tmp_path / "in.json", {"strength": cplx(1.0), "k": "1.0"})
    assert main(["delta2d", "--input", inp, "--output",
                 str(tmp_path / "o.csv"), "--grid-size", "0"]) == 2


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_thread_cap_env(tmp_path, monkeypatch):
    # a fresh process importing tmscat first runs BLAS on one thread
    import tmscat
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["TMSCAT_THREADS"] = "1"
    src = os.path.dirname(os.path.dirname(tmscat.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import os, tmscat, numpy as np\n"
            "a = np.random.default_rng(0).random((600, 600))\n"
            "a @ a\n"
            "print(len(os.listdir('/proc/self/task')))\n")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout.split()[-1]) == 1
    inp = write_doc(tmp_path / "in.json", {"eta": "1.5", "thickness": "1.0"})
    monkeypatch.setenv("TMSCAT_THREADS", "zebra")
    assert main(["threshold-gain", "--input", inp,
                 "--output", str(tmp_path / "g.csv")]) == 2


def test_import_leaves_scipy_unloaded():
    # scipy is loaded by the first dense extraction, not by the package
    # import, and not by a point defect, whose factored kernel needs no LU
    import tmscat
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(tmscat.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, tmscat\n"
            "tmscat.solve_outgoing(tmscat.delta2d_operator(1.0, tmscat.build_grid(2.0, 16)))\n"
            "tmscat.solve_outgoing(tmscat.delta3d_operator(1.0, tmscat.build_disc_grid(2.0, 4, 4)))\n"
            "print('scipy' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-1] == "False"


@pytest.mark.slow
def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 11
