"""Property tests of the JSON loaders and of the library's array arguments:
whatever a file or an argument holds, a loader or a call returns a valid
object or raises InfopowerError, and the CLI exits 0 or 2 with one `error:`
line; nothing else escapes."""

import contextlib
import io
import json

import numpy as np
import pytest

from infopower import hilbert, infotheory, sic, states
from infopower.cli import main
from infopower.errors import InfopowerError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FUZZ = hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=12,
)
numbers = st.sampled_from([0, 1, -1, 0.5, 1e-300, 1e308, 2**70, 10**400, True]) | st.floats(-2, 2)
non_numbers = st.none() | st.text(max_size=2) | st.lists(numbers, max_size=2)
entries = numbers | numbers | numbers | non_numbers
# a pair is [re, im]; ragged pairs have one or three entries
pairs = st.lists(entries, min_size=2, max_size=2) | st.lists(entries, max_size=3)


@st.composite
def square_matrices(draw):
    d = draw(st.integers(1, 3))
    return draw(st.lists(st.lists(pairs, min_size=d, max_size=d), min_size=d, max_size=d))


matrices = square_matrices() | st.lists(st.lists(pairs, max_size=3), max_size=3)
kinds = st.sampled_from(["ensemble", "povm", "fiducial", "Povm"])
schema_dicts = st.fixed_dictionaries(
    {
        "kind": kinds | kinds | json_values,
        "dim": st.integers(-1, 4) | st.sampled_from([2.0, True, "2", None]),
        "elements": st.lists(st.fixed_dictionaries({"matrix": matrices}), max_size=4) | json_values,
        "amplitudes": st.lists(pairs, max_size=4) | json_values,
    }
)
VALID = [
    states.to_json_dict(sic.antitetrahedral_ensemble()),
    states.to_json_dict(sic.tetrahedral_povm()),
    {"kind": "fiducial", "dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
]


@st.composite
def mutated_valid(draw):
    """A valid file, mostly with one value somewhere inside it replaced."""
    data = json.loads(json.dumps(draw(st.sampled_from(VALID))))
    node, key = data, draw(st.sampled_from(sorted(data)))
    while isinstance(node[key], (list, dict)) and node[key] and draw(st.integers(0, 4)):
        node = node[key]
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    if draw(st.integers(0, 3)):
        node[key] = draw(numbers | json_values)
    return data


documents = json_values | schema_dicts | mutated_valid() | mutated_valid()


def test_valid_documents_load():
    assert isinstance(states.from_json_dict(VALID[0]), states.Ensemble)
    assert isinstance(states.from_json_dict(VALID[1]), states.Povm)


@FUZZ
@hypothesis.given(documents)
def test_from_json_dict_returns_an_object_or_raises_infopower_error(data):
    try:
        obj = states.from_json_dict(data)
    except InfopowerError:
        return
    assert isinstance(obj, (states.Ensemble, states.Povm))
    assert obj.dim == data["dim"]


# JSON numbers the decoder takes: finite floats, -0.0, bools and ints in int64
decodable = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-(2**63), 2**63 - 1)
    | st.booleans()
    | st.just(-0.0)
)
decodable_pairs = st.lists(decodable, min_size=2, max_size=2)


@st.composite
def pair_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(decodable_pairs, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@FUZZ
@hypothesis.given(
    st.tuples(st.just(1), st.lists(decodable_pairs, min_size=1, max_size=6))
    | st.tuples(st.just(2), pair_matrices())
)
def test_pair_decoder_has_the_bits_of_complex_per_entry(case):
    ndim, pairs = case
    if ndim == 1:
        expected = np.array([complex(re, im) for re, im in pairs])
    else:
        expected = np.array([[complex(re, im) for re, im in row] for row in pairs])
    got = states._complex_from_pairs(pairs, ndim)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "object.json"


def write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content), encoding="utf-8")


@FUZZ
@hypothesis.given(documents | st.binary(max_size=8))
def test_load_fiducial_returns_a_state_or_raises_infopower_error(fuzz_file, content):
    write(fuzz_file, content)
    try:
        psi = states.load_fiducial(fuzz_file)
    except InfopowerError:
        return
    assert psi.shape == (content["dim"],)
    assert np.isclose(np.linalg.norm(psi), 1.0)


def run_cli(argv):
    """main(argv) with stdout and stderr captured: exit code, stdout, stderr.
    A failing run must exit 2 with nothing on stdout and one `error:` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        assert code == 2 and not out.getvalue()
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error:")
    return code, out.getvalue(), err.getvalue()


@FUZZ
@hypothesis.given(documents | st.binary(max_size=8))
def test_mutinfo_exits_0_or_2_with_one_error_line(fuzz_file, content):
    write(fuzz_file, content)
    code, out, err = run_cli(["mutinfo", str(fuzz_file), "builtin:tetrahedral"])
    if code == 0:
        assert out.startswith("I=") and not err


# seeds around the int64 and uint64 limits and far beyond them; the counts
# stay this small, so no drawn size allocates
seeds = st.integers(-3, 4) | st.sampled_from(
    [2**63 - 1, 2**63, 2**64, 2**70, -(2**63), 10**30]
)
search_commands = st.tuples(
    st.sampled_from(["power", "minent"]),
    st.just("--builtin"),
    st.sampled_from(["tetrahedral", "qutrit", "antitetrahedral"]),
    st.just("--starts"),
    st.integers(-2, 3).map(str),
    st.just("--seed"),
    seeds.map(str),
)
scrooge_commands = st.tuples(
    st.just("scrooge"),
    st.just("--dim"),
    st.integers(-2, 6).map(str),
    st.just("--samples"),
    st.integers(-2, 60).map(str),
    st.just("--seed"),
    seeds.map(str),
)


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@FUZZ
@hypothesis.given(search_commands | scrooge_commands)
def test_optimizer_commands_print_strict_json_or_exit_2(argv):
    code, out, err = run_cli(list(argv))
    if code == 0:
        assert isinstance(json.loads(out, parse_constant=reject_constant), dict)
        assert not err


# array arguments as Python nests: bounded floats (huge finite entries make
# numpy warn of overflow), int64 ints, bools, non-numeric strings, None, an
# int too large for a float, and lists that may be ragged
array_leaves = (
    st.floats(-1e6, 1e6)
    | st.integers(-(2**63), 2**63 - 1)
    | st.booleans()
    | st.sampled_from(["", "a", "x1", None, 10**400])
)


@st.composite
def regular_nests(draw):
    """A nest of lists of one shape, as a vector, matrix or stack is; about
    half of them square in their last two axes."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    if draw(st.booleans()):
        shape[-2:] = [shape[-1]] * min(len(shape), 2)

    def build(dims):
        if not dims:
            return draw(array_leaves)
        return [build(dims[1:]) for _ in range(dims[0])]

    return build(shape)


array_nests = regular_nests() | st.recursive(
    array_leaves, lambda inner: st.lists(inner, max_size=3), max_leaves=12
)
ARRAY_CALLS = [
    hilbert.check_hermitian,
    hilbert.check_state_vector,
    infotheory.shannon_entropy,
    infotheory.JointDistribution,
    states.Povm,
    states.Ensemble,
    lambda x: infotheory.index_of_coincidence(sic.tetrahedral_povm(), x),
    lambda x: infotheory.outcome_distribution(sic.tetrahedral_povm(), x),
]


@FUZZ
@hypothesis.given(array_nests)
def test_array_argument_returns_or_raises_infopower_error(x):
    for call in ARRAY_CALLS:
        try:
            call(x)
        except InfopowerError:
            pass
