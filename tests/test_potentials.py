import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tmscat import (Delta2D, Delta3D, GaussianBump, Slab, SlabParams, SlabWithDefect,
                    SumPotential, potential_from_document, potential_to_document)
from tmscat.evolution import EvolutionConfig, evolve_transfer
from tmscat.grid import build_grid
from tmscat.potentials import (_CODECS, _KINDS, _PAIR, discontinuities, has_uniform_part,
                               is_real, is_x_singular, is_y_independent, smooth_members,
                               uniform_part, x_support)


def gaussian(amp=1.0, center=(0.0, 0.0), widths=(1.0, 1.0)):
    return GaussianBump(amplitude=amp, center=center, widths=widths)


def vt(member, x, q):
    """Transverse transform of a smooth member: vt(x, q) = profile(x) transform_y(q)."""
    return member.profile(x) * member.transform_y(q)


def test_gaussian_transform_value():
    # int e^{-y^2/2} dy = sqrt(2 pi)
    assert abs(vt(gaussian(), 0.0, 0.0) - np.sqrt(2 * np.pi)) < 1e-14


def test_gaussian_transform_numeric_oracle():
    pot = gaussian(amp=1.3, center=(0.1, 0.25), widths=(0.6, 0.9))

    def integrand_re(y, x, q):
        return (np.exp(-(x - 0.1) ** 2 / (2 * 0.36)) * 1.3
                * np.exp(-(y - 0.25) ** 2 / (2 * 0.81)) * np.cos(q * y))

    def integrand_im(y, x, q):
        return -(np.exp(-(x - 0.1) ** 2 / (2 * 0.36)) * 1.3
                 * np.exp(-(y - 0.25) ** 2 / (2 * 0.81)) * np.sin(q * y))

    for x, q in [(0.0, 0.0), (0.4, 1.7), (-0.2, -0.6)]:
        want = (quad(integrand_re, -12, 12, args=(x, q), limit=200)[0]
                + 1j * quad(integrand_im, -12, 12, args=(x, q), limit=200)[0])
        assert abs(vt(pot, x, q) - want) < 1e-10


def test_transform_linearity_in_amplitude():
    q = np.linspace(-2, 2, 9)
    base = vt(gaussian(amp=1.0), 0.3, q)
    scaled = vt(gaussian(amp=2.5 - 1.0j), 0.3, q)
    assert np.allclose(scaled, (2.5 - 1.0j) * base, rtol=1e-14)


def test_transform_even_in_q_for_centered_potential():
    pot = gaussian(widths=(0.5, 1.5))
    q = np.array([0.3, 1.1, 2.7])
    assert np.allclose(vt(pot, 0.2, q), vt(pot, 0.2, -q), rtol=1e-14)


def test_transform_conjugate_symmetry_for_real_potential():
    pot = gaussian(amp=0.7, center=(0.0, 0.45), widths=(1.0, 0.8))
    q = np.array([0.2, 1.4, 3.0])
    assert np.allclose(vt(pot, 0.1, -q), np.conj(vt(pot, 0.1, q)), rtol=1e-14)


def test_x_support():
    assert x_support(Delta2D(1.0)) == (0.0, 0.0)
    assert x_support(Slab(2.0, 1.5)) == (0.0, 1.5)
    lo, hi = x_support(gaussian(center=(1.0, 0.0), widths=(0.5, 1.0)))
    assert lo == 1.0 - 8 * 0.5 and hi == 1.0 + 8 * 0.5


class Unknown:
    """A potential type the module does not know."""


@pytest.mark.parametrize("call", [
    x_support, potential_to_document, is_x_singular, is_y_independent, discontinuities,
    lambda pot: uniform_part(pot, 0.5, 1.3), has_uniform_part, smooth_members,
    lambda pot: evolve_transfer(pot, build_grid(1.3, 8), EvolutionConfig(0.0, 1.0, 10)),
    lambda pot: SumPotential((Slab(2.0, 1.0), pot)), is_real,
], ids=["x_support", "potential_to_document", "is_x_singular", "is_y_independent",
        "discontinuities", "uniform_part", "has_uniform_part", "smooth_members",
        "evolve_transfer", "sum_member", "is_real"])
def test_unknown_potential_types_raise_type_error(call):
    # one TypeError, whichever question is asked; evolve_transfer must not
    # return the identity for a potential it cannot read
    with pytest.raises(TypeError, match="Unknown"):
        call(Unknown())


def test_sum_rejects_overlapping_supports():
    a = gaussian(center=(0.0, 0.0), widths=(1.0, 1.0))
    b = gaussian(center=(1.0, 0.0), widths=(1.0, 1.0))
    with pytest.raises(ValueError):
        SumPotential(members=(a, b))


def test_sum_of_slabs_is_a_layer_stack():
    # layers add where they overlap; a slab and a bump still may not overlap
    s = SumPotential(members=(Slab(epsilon=2.0, thickness=1.0), Slab(epsilon=1.5, thickness=2.0)))
    assert x_support(s) == (0.0, 2.0)
    assert uniform_part(s, 0.5, 2.0) == 4.0 * (1 - 2.0) + 4.0 * (1 - 1.5)
    assert uniform_part(s, 1.5, 2.0) == 4.0 * (1 - 1.5)
    with pytest.raises(ValueError, match="overlap"):
        SumPotential(members=(Slab(epsilon=2.0, thickness=1.0),
                              gaussian(center=(0.5, 0.0), widths=(0.1, 1.0))))


def test_sum_accepts_endpoint_touch():
    # defect at x = 0 touching a slab on [0, L]
    s = SumPotential(members=(Delta2D(0.5j), Slab(epsilon=2.0, thickness=1.0)))
    assert x_support(s) == (0.0, 1.0)
    assert is_x_singular(s)


def test_classifiers_and_uniform_part():
    assert is_y_independent(Slab(2.0, 1.0))
    assert not is_y_independent(gaussian())
    assert uniform_part(Slab(epsilon=2.0, thickness=1.0), 0.5, 2.0) == 4.0 * (1 - 2.0)
    assert uniform_part(Slab(epsilon=2.0, thickness=1.0), 1.5, 2.0) == 0.0


@pytest.mark.parametrize("pot, real", [
    (Delta2D(1.5), True),
    (Delta2D(1.5 - 0.2j), False),
    (Delta3D(-0.3), True),
    (Delta3D(0.3j), False),
    (Slab(2.0, 1.0), True),
    (Slab(2.0 + 0.01j, 1.0), False),
    (SlabWithDefect(1.5, 1.0, 2.0), True),
    (SlabWithDefect(1.5, 1.0, 2.0 - 3.0j), False),
    (SlabWithDefect(1.5 - 0.1j, 1.0, 2.0), False),
    (GaussianBump(0.4, (0.2, 0.5), (0.6, 0.8)), True),
    (GaussianBump(np.complex128(-0.4 + 0.0j)), True),
    (GaussianBump(0.4 + 1e-300j, (0.2, 0.5), (0.6, 0.8)), False),
    (GaussianBump(5e-324j), False),
    (SumPotential((Slab(2.0, 1.0), GaussianBump(0.3, (4.0, 0.2), (0.3, 0.7)))), True),
    (SumPotential((Slab(2.0, 1.0), GaussianBump(0.3j, (4.0, 0.2), (0.3, 0.7)))), False),
    (SumPotential((Slab(2.0 + 1e-300j, 1.0), Slab(1.5, 2.0))), False),
    (SumPotential((GaussianBump(0.3, (-3.0, 0.0), (0.35, 0.7)),
                   GaussianBump(0.25, (3.0, -0.4), (0.35, 0.6)))), True),
    (SumPotential((GaussianBump(0.3, (-3.0, 0.0), (0.35, 0.7)),
                   GaussianBump(0.25 - 0.05j, (3.0, -0.4), (0.35, 0.6)))), False),
    (SumPotential((Delta2D(0.5j), Slab(2.0, 1.0))), False),
], ids=lambda v: repr(v) if isinstance(v, bool) else None)
def test_is_real_reads_every_complex_field_exactly(pot, real):
    # the time-reversed half evolution is exact only for real potentials, so
    # no imaginary part is small enough to ignore
    assert is_real(pot) is real


def test_validation_errors():
    with pytest.raises(ValueError):
        Slab(epsilon=2.0, thickness=0.0)
    for thickness in (0.0, -1.0):
        with pytest.raises(ValueError, match="thickness"):
            SlabWithDefect(epsilon=2.0, thickness=thickness, strength=1.0)
    with pytest.raises(ValueError):
        GaussianBump(amplitude=1.0, widths=(0.0, 1.0))
    with pytest.raises(ValueError):
        SumPotential(members=())
    with pytest.raises(ValueError):
        SumPotential(members=(Delta3D(1.0),))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make, field", [
    (lambda: Delta2D(complex(1.0, NAN)), "strength"),
    (lambda: Delta3D(INF), "strength"),
    (lambda: Slab(NAN, 1.0), "epsilon"),
    (lambda: Slab(2.0, INF), "thickness"),
    (lambda: SlabWithDefect(2.0, 1.0, complex(NAN, 0.0)), "strength"),
    (lambda: SlabWithDefect(2.0, -INF, 1.0), "thickness"),
    (lambda: GaussianBump(1.0, (NAN, 0.0)), "center"),
    (lambda: GaussianBump(1.0, (0.0, 0.0), (1.0, INF)), "widths"),
    (lambda: GaussianBump(complex(INF, 0.0)), "amplitude"),
    (lambda: Slab("2", 1.0), "epsilon"),
    (lambda: SumPotential([Slab(2.0, 1.0)]), "members"),
], ids=["delta2d", "delta3d", "slab-epsilon", "slab-thickness", "slab_with_defect-strength",
        "slab_with_defect-thickness", "gaussian_bump-center", "gaussian_bump-widths",
        "gaussian_bump-amplitude", "slab-string-epsilon", "sum-list-members"])
def test_leaf_constructors_reject_non_finite_fields(make, field):
    # a nan slab would otherwise evolve to a DivergenceError, and a nan
    # centre would read as a potential with no x-support; a string epsilon
    # raised numpy's TypeError, and a sum of a list failed only when hashed
    with pytest.raises(ValueError, match=f"{field} must be (finite|a nonempty tuple)"):
        make()


# a valid instance of every parameter record: the five leaves and the closed
# forms' SlabParams
RECORDS = [Delta2D(1.0), Delta3D(1.0), Slab(2.0, 1.0), SlabWithDefect(2.0, 1.0, 1.0),
           GaussianBump(1.0), SlabParams(2.0, 1.0, 1.0)]
NON_FINITE = st.sampled_from([NAN, -NAN, INF, -INF])


@given(record=st.sampled_from(RECORDS), data=st.data(),
       bad=(NON_FINITE | st.builds(complex, NON_FINITE, st.floats())
            | st.builds(complex, st.floats(), NON_FINITE) | st.text()))
def test_every_record_names_a_field_that_is_not_a_finite_number(record, data, bad):
    # one field check serves every record: a non-finite float, a complex with
    # a non-finite part, or a string in any field is refused by name
    field = data.draw(st.sampled_from([f.name for f in dataclasses.fields(record)]))
    with pytest.raises(ValueError, match=f"^{type(record).__name__} {field} must be"):
        dataclasses.replace(record, **{field: bad})


@pytest.mark.parametrize("make, field", [
    (lambda: GaussianBump(1.0, (0.0, 0.0, 5.0)), "center"),
    (lambda: GaussianBump(1.0, 0.5), "center"),
    (lambda: GaussianBump(1.0, (0.0, 1.0j)), "center"),
    (lambda: GaussianBump(1.0, ("0.0", "0.0")), "center"),
    (lambda: GaussianBump(1.0, (0.0, 0.0), (1.0,)), "widths"),
    (lambda: GaussianBump(1.0, (0.0, 0.0), [1.0, 1.0]), "widths"),
    (lambda: GaussianBump(1.0, (0.0, 0.0), ((1.0, 1.0), (1.0, 1.0))), "widths"),
], ids=["three-numbers", "scalar", "complex", "strings", "one-number", "list", "nested"])
def test_gaussian_pairs_must_be_pairs_of_real_numbers(make, field):
    # a third centre coordinate would be dropped by the document, and a
    # scalar would fail only when the bump is first evaluated
    with pytest.raises(ValueError, match=f"{field} must be a tuple of two real numbers"):
        make()


def test_gaussian_pairs_accept_any_real_numbers():
    # integers and numpy floats are numbers too; the document stores them as floats
    pot = GaussianBump(1.0, (np.float64(0.5), 0), (1, np.float64(2.0)))
    assert potential_from_document(json.loads(json.dumps(potential_to_document(pot)))) == pot


PINNED_DOCUMENTS = [
    (Delta2D(1.25 - 0.5j), '{"kind": "delta2d", "strength": {"re": "1.25", "im": "-0.5"}}'),
    (Delta3D(0.3j), '{"kind": "delta3d", "strength": {"re": "0.0", "im": "0.3"}}'),
    (Slab(2.0 + 0.01j, 0.7),
     '{"kind": "slab", "epsilon": {"re": "2.0", "im": "0.01"}, "thickness": "0.7"}'),
    (SlabWithDefect(1.5, 1.0, 2.0 - 3.0j),
     '{"kind": "slab_with_defect", "epsilon": {"re": "1.5", "im": "0.0"}, "thickness": "1.0",'
     ' "strength": {"re": "2.0", "im": "-3.0"}}'),
    (GaussianBump(0.1 + 0.9j, (0.125, -3.5), (0.25, 1.75)),
     '{"kind": "gaussian_bump", "amplitude": {"re": "0.1", "im": "0.9"},'
     ' "center": {"x": "0.125", "y": "-3.5"}, "widths": {"x": "0.25", "y": "1.75"}}'),
    (SumPotential((Delta2D(0.5j), Slab(2.0, 1.0), GaussianBump(1.0, (5.0, 0.0), (0.5, 1.0)))),
     '{"kind": "sum", "members": [{"kind": "delta2d", "strength": {"re": "0.0", "im": "0.5"}},'
     ' {"kind": "slab", "epsilon": {"re": "2.0", "im": "0.0"}, "thickness": "1.0"},'
     ' {"kind": "gaussian_bump", "amplitude": {"re": "1.0", "im": "0.0"},'
     ' "center": {"x": "5.0", "y": "0.0"}, "widths": {"x": "0.5", "y": "1.0"}}]}'),
]


@pytest.mark.parametrize("pot, text", PINNED_DOCUMENTS,
                         ids=[text.split('"')[3] for _, text in PINNED_DOCUMENTS])
def test_document_bytes_are_pinned(pot, text):
    # round trips pass whatever the key order or pair layout; saved
    # documents need both to stay as they are
    assert json.dumps(potential_to_document(pot)) == text
    assert potential_from_document(json.loads(text)) == pot


def test_every_field_annotation_has_a_codec():
    # the codec and the pair check read field types as annotation strings;
    # one written otherwise (say Tuple[float, float]) would match neither
    assert {f.type for cls in _KINDS.values() for f in dataclasses.fields(cls)} <= set(_CODECS)
    assert [f.type for f in dataclasses.fields(GaussianBump)[1:]] == [_PAIR, _PAIR]


@pytest.mark.parametrize("pot", [
    Delta2D(strength=1.25 - 0.5j),
    Delta3D(strength=0.3j),
    Slab(epsilon=2.0 + 0.01j, thickness=0.7),
    SlabWithDefect(epsilon=1.5, thickness=1.0, strength=2.0 - 3.0j),
    GaussianBump(amplitude=0.1 + 0.9j, center=(0.125, -3.5), widths=(0.25, 1.75)),
    SumPotential(members=(GaussianBump(amplitude=1.0, center=(-5.0, 0.0), widths=(0.5, 1.0)),
                          GaussianBump(amplitude=2.0, center=(5.0, 1.0), widths=(0.5, 2.0)))),
])
def test_document_round_trip(pot):
    doc = potential_to_document(pot)
    assert doc["kind"]
    assert potential_from_document(doc) == pot
    assert potential_from_document(json.loads(json.dumps(doc))) == pot


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)
# bounded so that a sum's support spans stay finite and its bumps apart
SPAN = st.floats(1e-3, 10.0)
SIGMA = st.floats(1e-3, 5.0)


def slabs(thickness=POSITIVE):
    return st.builds(Slab, COMPLEX, thickness)


def bumps(x0=FINITE, sx=POSITIVE):
    return st.builds(GaussianBump, COMPLEX, st.tuples(x0, FINITE), st.tuples(sx, POSITIVE))


LEAVES = st.one_of(st.builds(Delta2D, COMPLEX), st.builds(Delta3D, COMPLEX), slabs(),
                   st.builds(SlabWithDefect, COMPLEX, POSITIVE, COMPLEX), bumps())


@st.composite
def sums(draw):
    """A sum whose members meet at most at endpoints: a layer stack of slabs
    or one slab with a defect on [0, L], a wire at x = 0, and bumps whose
    supports (at most 2 x 8 sigma = 80 wide) sit in disjoint bins of width
    100 clear of [0, L]."""
    layers = draw(st.lists(slabs(SPAN), max_size=3)
                  | st.builds(SlabWithDefect, COMPLEX, SPAN, COMPLEX).map(lambda m: [m]))
    wire = draw(st.lists(st.builds(Delta2D, COMPLEX), max_size=1))
    bins = draw(st.lists(st.integers(-5, 5).filter(bool), unique=True, max_size=3))
    placed = [draw(bumps(st.just(100.0 * b), SIGMA)) for b in bins]
    members = draw(st.permutations(layers + wire + placed))
    assume(members)
    return SumPotential(tuple(members))


@settings(max_examples=200, deadline=None)
@given(pot=LEAVES | sums())
def test_random_documents_round_trip(pot):
    doc = potential_to_document(pot)
    assert potential_from_document(doc) == pot
    assert potential_from_document(json.loads(json.dumps(doc))) == pot


def fields(doc, path=()):
    """(path, value) of every field of a document tree, members of a sum included."""
    items = enumerate(doc) if isinstance(doc, list) else doc.items()
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from fields(value, path + (key,))


def replaced(doc, path, value):
    """A copy of doc with the field at path set to value, or removed if value is None."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is None:
        del parent[last]
    else:
        parent[last] = value
    return doc


@settings(max_examples=200, deadline=None)
@given(pot=LEAVES | sums(), data=st.data())
def test_documents_with_a_non_finite_or_missing_field_raise(pot, data):
    doc = potential_to_document(pot)
    found = list(fields(doc))
    # every key is required (a sum's member list may shrink, so its items are not keys)
    keys = [path for path, _ in found if isinstance(path[-1], str)]
    numbers = [path for path, value in found if isinstance(value, str) and path[-1] != "kind"]
    with pytest.raises(ValueError):
        potential_from_document(replaced(doc, data.draw(st.sampled_from(keys)), None))
    bad = data.draw(st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity"]))
    with pytest.raises(ValueError, match="must be finite"):
        potential_from_document(replaced(doc, data.draw(st.sampled_from(numbers)), bad))


def test_documents_use_decimal_strings():
    doc = potential_to_document(Delta2D(strength=1.0 + 2.0j))
    assert doc["strength"] == {"re": "1.0", "im": "2.0"}


@pytest.mark.parametrize("doc", [
    {},
    {"kind": "nope"},
    {"kind": "slab", "epsilon": {"re": "1"}},
    {"kind": "delta2d"},
])
def test_malformed_documents_raise(doc):
    with pytest.raises(ValueError):
        potential_from_document(doc)
