import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmscat.acceptance import CRITERIA
from tmscat.cli import main

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


@pytest.mark.parametrize("command, doc, message", [
    ("delta2d", [{"strength": cplx(1.0), "k": "2.0"}], "not a key-value tree"),
    ("scatter", {"k": "1.3"}, "needs a 'potential' entry"),
    ("singularity", {"epsilon": cplx(2.0), "thickness": "1.0", "k": "2.0",
                     "unknown": "x", "guess": cplx(1.0)}, "needs unknown"),
])
def test_malformed_documents_exit_2(tmp_path, capsys, command, doc, message):
    inp = write_doc(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    assert main([command, "--input", inp, "--output", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("epsilon", {"re": "nan", "im": "0.01"}),
                                          ("thickness", "inf")])
def test_slab_non_finite_input_exits_2(tmp_path, capsys, field, value):
    doc = {"epsilon": cplx(2 + 0.01j), "thickness": "1.0", "k": "2.0", field: value}
    inp = write_doc(tmp_path / "in.json", doc)
    out = tmp_path / "transfer.csv"
    assert main(["slab", "--input", inp, "--output", str(out)]) == 2
    assert not out.exists()
    assert field in capsys.readouterr().err


def test_a_bool_number_exits_2(tmp_path, capsys):
    # float(True) is 1.0: a document must not run at k = 1
    inp = write_doc(tmp_path / "in.json", {"strength": cplx(1.0), "k": True})
    out = tmp_path / "o.csv"
    assert main(["delta2d", "--input", inp, "--output", str(out)]) == 2
    assert not out.exists()
    assert "field 'k'" in capsys.readouterr().err


BUMP = {"kind": "gaussian_bump", "amplitude": cplx(0.5),
        "center": {"x": "0.0", "y": "0.0"}, "widths": {"x": "0.8", "y": "0.8"}}
SLAB = {"kind": "slab", "epsilon": cplx(1.5), "thickness": "1.0"}


@pytest.mark.parametrize("pot, field", [
    ({**BUMP, "amplitude": {"re": "nan", "im": "0.0"}}, "amplitude"),
    ({**BUMP, "amplitude": {"re": "0.5", "im": "inf"}}, "amplitude"),
    ({**BUMP, "center": {"x": "0.0", "y": "nan"}}, "center"),
    ({**BUMP, "widths": {"x": "0.8", "y": "inf"}}, "widths"),
    ({**SLAB, "epsilon": {"re": "1.5", "im": "nan"}}, "epsilon"),
    ({**SLAB, "thickness": "inf"}, "thickness"),
    ({**SLAB, "thickness": "nan"}, "thickness"),
    ({"kind": "sum", "members": [BUMP, {**SLAB, "thickness": "nan"}]}, "thickness"),
], ids=["amplitude-nan", "amplitude-inf", "center-nan", "width-inf", "epsilon-nan",
        "thickness-inf", "thickness-nan", "sum-member-thickness-nan"])
def test_scatter_non_finite_potential_exits_2(tmp_path, capsys, pot, field):
    inp = write_doc(tmp_path / "in.json", {"potential": pot, "k": "1.5"})
    out = tmp_path / "amp.csv"
    assert main(["scatter", "--input", inp, "--output", str(out), "--grid-size", "8",
                 "--steps", "50"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert pot["kind"] in err and f"field {field!r}" in err


POINT = {"kind": "delta2d", "strength": cplx(1.0)}


@pytest.mark.parametrize("pot", [
    POINT,
    {"kind": "delta3d", "strength": cplx(0.5 - 0.1j)},
    {**SLAB, "kind": "slab_with_defect", "strength": cplx(1.0)},
    {"kind": "sum", "members": [POINT, SLAB]},
], ids=["delta2d", "delta3d", "slab_with_defect", "sum"])
def test_scatter_on_a_point_potential_exits_3(tmp_path, capsys, pot):
    # no numeric evolution holds a delta in x: a JSON diagnostic and no files
    inp = write_doc(tmp_path / "in.json", {"potential": pot, "k": "1.5"})
    out = tmp_path / "amp.csv"
    assert main(["scatter", "--input", inp, "--output", str(out), "--grid-size", "8",
                 "--steps", "50"]) == 3
    assert list(tmp_path.iterdir()) == [tmp_path / "in.json"]
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["error"] == "UnsupportedEvaluationError"


def reals(lo, hi):
    return st.floats(lo, hi).map(repr)


def complexes(bound):
    return st.builds(lambda re, im: {"re": re, "im": im}, reals(-bound, bound),
                     reals(-bound, bound))


@st.composite
def potential_documents(draw):
    """A document of every kind the parser accepts; a sum holds a delta2d,
    and maybe a slab on [0, L] and a bump to the left of both."""
    slab = {"epsilon": complexes(3.0), "thickness": reals(0.1, 2.0)}
    fields = {
        "delta2d": {"strength": complexes(2.0)},
        "delta3d": {"strength": complexes(2.0)},
        "slab": slab,
        "slab_with_defect": {**slab, "strength": complexes(2.0)},
        "gaussian_bump": {"amplitude": complexes(1.0),
                          "center": st.fixed_dictionaries({"x": reals(-2.0, 2.0),
                                                           "y": reals(-1.0, 1.0)}),
                          "widths": st.fixed_dictionaries({"x": reals(0.3, 1.0),
                                                           "y": reals(0.3, 1.0)})},
    }

    def document(kind):
        return {"kind": kind, **draw(st.fixed_dictionaries(fields[kind]))}

    kind = draw(st.sampled_from(sorted(fields) + ["sum"]))
    if kind != "sum":
        return document(kind)
    members = [document("delta2d")]
    if draw(st.booleans()):
        members.append(document("slab"))
    if draw(st.booleans()):
        bump = document("gaussian_bump")
        # 8 widths either side of the centre, ending 0.5 left of x = 0
        bump["center"]["x"] = repr(-8 * float(bump["widths"]["x"]) - 0.5)
        members.append(bump)
    return {"kind": "sum", "members": draw(st.permutations(members))}


@settings(max_examples=100, deadline=None)
@given(pot=potential_documents(), k=reals(0.5, 3.0))
def test_scatter_exits_0_or_3_on_every_document_kind(pot, k):
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = write_doc(Path(tmp) / "in.json", {"potential": pot, "k": k}), Path(tmp) / "f.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["scatter", "--input", inp, "--output", str(out), "--grid-size", "6",
                         "--steps", "40", "--theta-samples", "12"])
        assert code in (0, 3)
        assert out.exists() == (code == 0)
        if code == 3:
            assert "error" in json.loads(err.getvalue().strip().splitlines()[-1])


# one valid document per file-based subcommand, and its keys that may go
VALID_DOCUMENTS = {
    "delta2d": {"strength": cplx(1.0 - 0.5j), "k": "2.0"},
    "slab": {"epsilon": cplx(2 + 0.01j), "thickness": "1.0", "k": "2.0"},
    "slab-defect": {"epsilon": cplx(2 + 0.01j), "thickness": "1.0",
                    "strength": cplx(1.0), "k": "2.0"},
    "threshold-gain": {"eta": "1.5", "thickness": "1.0"},
    "scatter": {"potential": {"kind": "sum", "members": [
                    {**BUMP, "center": {"x": "-8.0", "y": "0.0"},
                     "widths": {"x": "0.5", "y": "0.8"}}, SLAB]},
                "k": "1.4", "evolution": {"x_min": "-12.0", "x_max": "1.0", "steps": "40"}},
    "singularity": {"epsilon": cplx(2.2475 - 0.15j), "thickness": "10.0", "k": "1.0",
                    "unknown": "k", "guess": cplx(3.15 - 0.002j)},
    "delta3d": {"strength": cplx(1.7), "k": "1.3"},
}
OPTIONAL_KEYS = {("scatter", ("evolution",))}
SMALL_KNOBS = {"delta2d": ["--grid-size", "8", "--theta-samples", "12"],
               "slab": ["--grid-size", "8"],
               "slab-defect": ["--grid-size", "8", "--theta-samples", "12",
                               "--quad-points", "40"],
               "threshold-gain": ["--theta-samples", "12"],
               "scatter": ["--grid-size", "6", "--theta-samples", "12"],
               "singularity": [],
               "delta3d": ["--n-radial", "4", "--n-azimuthal", "4"]}


def document_paths(node, prefix=()):
    """(path, value) of every key and list item below node."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield prefix + (key,), value
        if isinstance(value, (dict, list)):
            yield from document_paths(value, prefix + (key,))


def is_number(value) -> bool:
    try:
        float(value)
    except (TypeError, ValueError):
        return False
    return True


def run_document(command, doc):
    """main on doc in a fresh directory: (exit code, files it left besides the input)."""
    with tempfile.TemporaryDirectory() as tmp:
        inp = write_doc(Path(tmp) / "in.json", doc)
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--input", inp, "--output", str(Path(tmp) / "out"),
                         *SMALL_KNOBS[command]])
        return code, sorted(p.name for p in Path(tmp).iterdir() if p.name != "in.json")


@pytest.mark.parametrize("command", sorted(VALID_DOCUMENTS))
def test_valid_documents_run(command):
    code, written = run_document(command, VALID_DOCUMENTS[command])
    assert code == 0 and "out" in written


@st.composite
def malformed_documents(draw):
    """A valid document with one required key dropped, or one number
    replaced by "nan", "inf" or a list: every draw must be refused."""
    command = draw(st.sampled_from(sorted(VALID_DOCUMENTS)))
    doc = json.loads(json.dumps(VALID_DOCUMENTS[command]))
    paths = list(document_paths(doc))
    how = draw(st.sampled_from(["drop", "nan", "inf", "list"]))
    if how == "drop":
        path = draw(st.sampled_from([p for p, _ in paths if isinstance(p[-1], str)
                                     and (command, p) not in OPTIONAL_KEYS]))
    else:
        path = draw(st.sampled_from([p for p, v in paths if is_number(v)]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = [parent[path[-1]]] if how == "list" else how
    return command, doc


@settings(max_examples=150, deadline=None)
@given(case=malformed_documents())
def test_malformed_documents_of_every_subcommand_exit_2(case):
    command, doc = case
    assert run_document(command, doc) == (2, [])


def test_scatter_fractional_steps_exits_2(tmp_path, capsys):
    doc = {"potential": BUMP, "k": "1.5",
           "evolution": {"x_min": "-3.0", "x_max": "3.0", "steps": "2.5"}}
    inp = write_doc(tmp_path / "in.json", doc)
    out = tmp_path / "amp.csv"
    args = ["scatter", "--input", inp, "--output", str(out), "--grid-size", "8"]
    assert main(args) == 2
    assert not out.exists()
    assert "steps" in capsys.readouterr().err
    # an integral count still runs, and the warning record carries an integer
    doc["evolution"]["steps"] = "4"
    write_doc(tmp_path / "in.json", doc)
    assert main(args) == 0
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["steps"] == 4 and isinstance(record["steps"], int)


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_scatter_non_finite_check_tolerance_exits_2(tmp_path, capsys, tol):
    inp = write_doc(tmp_path / "in.json", {"potential": BUMP, "k": "1.5"})
    out = tmp_path / "amp.csv"
    args = ["scatter", "--input", inp, "--output", str(out), "--grid-size", "8",
            "--steps", "4"]
    assert main(args + [f"--check-tolerance={tol}"]) == 2
    assert not out.exists()
    assert "check-tolerance" in capsys.readouterr().err
    # the default tolerance reports the coarse run; a tolerance <= 0 disables the check
    assert main(args) == 0
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["delta"] > 1e-6
    assert main(args + ["--check-tolerance", "0"]) == 0
    assert capsys.readouterr().err == ""


def test_scatter_refuses_a_step_halving_check_on_one_step(tmp_path, capsys):
    inp = write_doc(tmp_path / "in.json", {"potential": BUMP, "k": "1.5"})
    out = tmp_path / "amp.csv"
    args = ["scatter", "--input", inp, "--output", str(out), "--grid-size", "8",
            "--steps", "1"]
    # the default tolerance asks for a check that one step cannot halve
    assert main(args) == 2
    assert not out.exists()
    assert "check_tolerance" in capsys.readouterr().err
    # with the check disabled one step runs
    assert main(args + ["--check-tolerance", "0"]) == 0
    assert out.exists()
    assert capsys.readouterr().err == ""


def test_scattering_outputs_share_one_record(tmp_path):
    runs = {
        "delta2d": {"strength": cplx(1.0 - 0.5j), "k": "2.0"},
        "slab-defect": {"epsilon": cplx(2 + 0.01j), "thickness": "1.0",
                        "strength": cplx(1.0), "k": "2.0"},
        "scatter": {"potential": BUMP, "k": "1.5"},
    }
    metas = {}
    for command, doc in runs.items():
        inp = write_doc(tmp_path / (command + ".json"), doc)
        out = str(tmp_path / (command + ".csv"))
        extra = ["--steps", "200"] if command == "scatter" else []
        assert main([command, "--input", inp, "--output", out, "--grid-size", "12",
                     "--theta-samples", "36"] + extra) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.allclose(rows[:, 3], rows[:, 1] ** 2 + rows[:, 2] ** 2, rtol=1e-14, atol=0)
        metas[command] = json.loads(open(out + ".meta.json").read())
    keys = {"k", "n", "t_plus_delta", "t_minus_delta", "singularity_flag", "condition"}
    assert set(metas["slab-defect"]) == set(metas["scatter"]) == keys
    assert set(metas["delta2d"]) == keys | {"f_closed_form"}
    assert metas["slab-defect"]["condition"] is None
    assert float(metas["delta2d"]["condition"]) >= 1.0
    assert float(metas["scatter"]["condition"]) >= 1.0


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


def test_bad_knob_exits_2(tmp_path, capsys):
    inp = write_doc(tmp_path / "in.json", {"strength": cplx(1.0), "k": "1.0"})
    for option, value, least in (("--grid-size", "0", 2), ("--theta-samples", "-3", 1)):
        assert main(["delta2d", "--input", inp, "--output",
                     str(tmp_path / "o.csv"), option, value]) == 2
        # the message names the option
        assert f"{option} must be an integer >= {least}, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    ("delta2d", "--grid-size"), ("delta3d", "--n-radial"), ("delta3d", "--n-azimuthal"),
    ("slab-defect", "--quad-points")])
def test_grid_and_quadrature_sizes_need_two_points(tmp_path, capsys, command, option):
    # the engine's minimum, told under the option's name before any file is read
    inp = write_doc(tmp_path / "in.json", VALID_DOCUMENTS[command])
    assert main([command, "--input", inp, "--output", str(tmp_path / "o"), option, "1"]) == 2
    assert f"tmscat: {option} must be an integer >= 2, got 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_import_leaves_scipy_unloaded(tmp_path):
    # no run loads scipy: not the package import, not a point defect (factored
    # kernel), a slab (no kernel), nor a scatter run, whose kernel is dense
    import tmscat
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(tmscat.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    inp = write_doc(tmp_path / "in.json", {"potential": BUMP, "k": "1.5"})
    out = str(tmp_path / "amp.csv")
    code = ("import sys, tmscat, tmscat.cli\n"
            "def check(label):\n"
            "    print(label, 'scipy' in sys.modules)\n"
            "check('import')\n"
            "tmscat.solve_outgoing(tmscat.point_operator(1.0, tmscat.build_grid(2.0, 16)))\n"
            "tmscat.solve_outgoing(tmscat.point_operator(1.0, tmscat.build_disc_grid(2.0, 4, 4)))\n"
            "check('factored')\n"
            "grid = tmscat.build_grid(2.0, 16)\n"
            "tmscat.solve_outgoing(tmscat.slab_operator(tmscat.SlabParams(2.0, 1.0, 2.0), grid))\n"
            "check('no-kernel')\n"
            f"code = tmscat.cli.main(['scatter', '--input', {inp!r}, '--output', {out!r},\n"
            "                         '--grid-size', '8', '--steps', '50'])\n"
            "check('scatter')\n"
            "print('exit', code)\n")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines == ["import False", "factored False", "no-kernel False", "scatter False",
                     "exit 0"]
    meta = json.loads(open(out + ".meta.json").read())
    assert meta["singularity_flag"] == "none" and float(meta["condition"]) >= 1.0


def test_writer_refuses_a_singular_extraction(tmp_path):
    # the flag turns singular inside scattering_result; no file may appear
    from tmscat import build_grid, point_operator, scattering_result
    from tmscat.cli import _write_scattering
    from tmscat.errors import SpectralSingularityError

    thetas_deg = np.array([10.0, 40.0])
    res = scattering_result(point_operator(4.0j, build_grid(1.0, 12)), np.radians(thetas_deg))
    assert res.singularity_flag.is_singular
    out = tmp_path / "amp.csv"
    with pytest.raises(SpectralSingularityError):
        _write_scattering(str(out), thetas_deg, res)
    assert list(tmp_path.iterdir()) == []


def test_delta3d_singular_coupling_exits_3(tmp_path, capsys):
    # z = 4 pi i / k zeroes the denominator 4 pi + i k z of f
    k = 1.3
    inp = write_doc(tmp_path / "in.json", {"strength": cplx(4j * np.pi / k), "k": repr(k)})
    out = tmp_path / "report.json"
    assert main(["delta3d", "--input", inp, "--output", str(out)]) == 3
    assert not out.exists()
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag == {"error": "SpectralSingularityError",
                    "detail": "extraction hit a spectral singularity"}


@pytest.mark.slow
def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # one line per row of the table, numbered 1-11 and named as there
    assert [line.split(":")[0] for line in lines] == [
        f"PASS criterion {i:2d} {name}" for i, (name, _, _) in enumerate(CRITERIA, start=1)]
    assert len(lines) == 11
