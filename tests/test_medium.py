"""PatternedMedium behaviour tests: the Fig 2 physics contract."""

import numpy as np
import pytest

from repro.errors import DotAddressError
from repro.medium.dot import BitState, classify
from repro.medium.geometry import MediumGeometry
from repro.medium.medium import MediumConfig, PatternedMedium


@pytest.fixture
def medium() -> PatternedMedium:
    geom = MediumGeometry(cols=64, rows=4, dots_per_block=16)
    return PatternedMedium(geom)


def test_initial_state_all_zero(medium):
    assert medium.read_mag(0) == 0
    assert not medium.is_heated(0)
    assert medium.heated_count() == 0


def test_mwb_mrb_roundtrip(medium):
    medium.write_mag(5, 1)
    assert medium.read_mag(5) == 1
    medium.write_mag(5, 0)
    assert medium.read_mag(5) == 0


def test_mwb_rejects_non_binary(medium):
    with pytest.raises(ValueError):
        medium.write_mag(0, 2)


def test_heat_is_irreversible(medium):
    medium.heat_dot(7)
    assert medium.is_heated(7)
    medium.write_mag(7, 1)  # no effect: nothing latches
    assert medium.is_heated(7)
    # there is deliberately no API that could restore sharpness
    assert not hasattr(medium, "unheat_dot")
    assert not hasattr(medium, "restore_dot")


def test_heated_dot_reads_randomly(medium):
    medium.heat_dot(3)
    reads = {medium.read_mag(3) for _ in range(64)}
    assert reads == {0, 1}  # "a more or less random result"


def test_heated_dot_ignores_writes(medium):
    medium.heat_dot(4)
    medium.write_mag(4, 1)
    # writes don't bias the channel: reads remain random over many trials
    values = [medium.read_mag(4) for _ in range(128)]
    assert 0.2 < np.mean(values) < 0.8


def test_dot_view_and_classification(medium):
    medium.write_mag(1, 1)
    view = medium.dot(1)
    assert view.state is BitState.ONE
    assert str(view) == "1"
    medium.heat_dot(1)
    assert medium.dot(1).state is BitState.HEATED
    assert classify(1, 0.0) is BitState.HEATED


def test_out_of_range_access(medium):
    with pytest.raises(DotAddressError):
        medium.read_mag(10_000)
    with pytest.raises(DotAddressError):
        medium.heat_dot(-1)


def test_span_roundtrip(medium):
    bits = [i % 2 for i in range(16)]
    medium.write_mag_span(16, bits)
    assert medium.read_mag_span(16, 32).tolist() == bits


def test_span_with_heated_dots_randomises_those_only(medium):
    bits = [1] * 16
    medium.write_mag_span(0, bits)
    medium.heat_dot(2)
    zeros_seen = False
    for _ in range(32):
        out = medium.read_mag_span(0, 16)
        assert all(out[i] == 1 for i in range(16) if i != 2)
        if out[2] == 0:
            zeros_seen = True
    assert zeros_seen


def test_span_validation(medium):
    with pytest.raises(DotAddressError):
        medium.read_mag_span(0, 10_000)
    with pytest.raises(ValueError):
        medium.write_mag_span(0, [0, 1, 2])


def test_heat_span_pattern(medium):
    pattern = [True, False] * 8
    medium.heat_span(0, 16, pattern)
    heated = medium.image_heated(range(16))
    assert heated.tolist() == pattern


def test_heat_span_all(medium):
    medium.heat_span(32, 40)
    assert medium.image_heated(range(32, 40)).all()


def test_bulk_erase_clears_magnetics_keeps_heat(medium):
    medium.write_mag_span(0, [1] * 16)
    medium.heat_dot(1)
    medium.bulk_erase()
    # magnetic data gone
    assert medium.read_mag(0) == 0
    # but the heated pattern survives: the Section 5.2 evidence
    assert medium.is_heated(1)


def test_forensic_imaging(medium):
    medium.heat_dot(10)
    medium.heat_dot(20)
    image = medium.image_heated()
    assert image[10] and image[20]
    assert image.sum() == 2


def test_collateral_heating_damages_neighbors():
    geom = MediumGeometry(cols=64, rows=4, dots_per_block=16)
    config = MediumConfig(collateral_heating=True)
    medium = PatternedMedium(geom, config)
    center = geom.dot_index(2, 32)
    before = [medium.sharpness_of(n) for n in geom.neighbors(center)]
    medium.heat_dot(center)
    after = [medium.sharpness_of(n) for n in geom.neighbors(center)]
    assert medium.is_heated(center)
    assert all(a <= b for a, b in zip(after, before))


def test_operation_counters(medium):
    medium.read_mag(0)
    medium.write_mag(0, 1)
    medium.heat_dot(0)
    assert medium.counters["mrb"] == 1
    assert medium.counters["mwb"] == 1
    assert medium.counters["heat"] == 1


def test_only_the_invariant_owners_compare_sharpness_to_the_threshold():
    # mag == 0 is "heated" everywhere else; sharpness decides it only
    # where sharpness changes, in a heat pulse.  A snapshot decode reads
    # the heated bits its MediumDelta carries.
    import ast
    import inspect

    from repro.medium import medium as medium_module

    tree = ast.parse(inspect.getsource(medium_module))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef)
               and node.name == "PatternedMedium")
    naming = {
        fn.name for fn in cls.body if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Name)
                and node.id == "HEATED_SHARPNESS_THRESHOLD"
                for node in ast.walk(fn))}
    assert naming == {"_apply_pulse", "_heat_many"}


def test_only_medium_delta_packs_bits():
    # one encoder and one decoder for a medium's dots: a second packing
    # must not grow back beside MediumDelta.  The erb tables unpack a
    # 256-entry byte table, not a medium.
    import ast
    import inspect

    from repro.medium import medium as medium_module

    tree = ast.parse(inspect.getsource(medium_module))
    callers = {"packbits": set(), "unpackbits": set(), "zlib": set()}
    for top in tree.body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)):
                continue
            if node.func.value.id == "zlib":
                callers["zlib"].add(top.name)
            elif node.func.attr in ("packbits", "unpackbits"):
                callers[node.func.attr].add(top.name)
    assert callers == {"packbits": {"MediumDelta"},
                       "unpackbits": {"MediumDelta", "_erb_outcome_tables"},
                       "zlib": {"MediumDelta"}}


def test_every_epoch_bump_marks_its_blocks_dirty():
    # a patch ships exactly the dirty blocks, so an operation that bumps
    # the mutation epoch without marking would change dots no patch
    # carries
    import ast
    import inspect

    from repro.medium import medium as medium_module

    def is_self_attr(node, name):
        return isinstance(node, ast.Attribute) and node.attr == name \
            and isinstance(node.value, ast.Name) and node.value.id == "self"

    tree = ast.parse(inspect.getsource(medium_module))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef)
               and node.name == "PatternedMedium")
    bumping, marking = set(), set()
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.AugAssign) \
                    and is_self_attr(node.target, "_mut_epoch"):
                bumping.add(fn.name)
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Subscript)
                    and is_self_attr(target.value, "_dirty")
                    for target in node.targets):
                marking.add(fn.name)
    assert bumping == {"write_mag", "heat_dot", "bulk_erase",
                       "write_mag_span", "_heat_many"}
    assert bumping <= marking


def test_cut_delta_holds_the_blocks_an_operation_touched():
    geom = MediumGeometry(cols=64, rows=4, dots_per_block=16)
    medium = PatternedMedium(geom, MediumConfig(collateral_heating=True))
    assert medium.cut_delta().blocks.size == 0
    medium.write_mag(17, 1)
    medium.write_mag_span(40, [1] * 30)
    # a collateral pulse reaches the dots one row up and down: blocks
    # 4 and 12 besides the heated dot's own block 8
    medium.heat_dot(128 + 5)
    delta = medium.cut_delta()
    assert delta.blocks.tolist() == [1, 2, 3, 4, 8, 12]
    assert np.array_equal(delta.mag, medium._mag.reshape(-1, 16)[
        delta.blocks])
    assert medium.cut_delta().blocks.size == 0
    medium.bulk_erase()
    assert medium.cut_delta().blocks.size == geom.total_blocks


def test_a_run_of_blocks_travels_as_its_range():
    """A pickled medium carries every block, and a run of consecutive
    blocks travels as (first, count), not as one int64 per block: a
    sealed 1024-block medium pickled to 29 071 B when its block list
    travelled raw (8 kB of it the list), and to about 21 kB now."""
    import pickle

    from repro import TamperEvidentStore
    from repro.medium.medium import MediumDelta

    store = TamperEvidentStore.create(total_blocks=1024)
    paths = [f"/obj{i:02d}" for i in range(30)]
    for path in paths:
        store.put(path, path.encode() * 200)
    for path in paths[:15]:
        store.seal(path)
    medium = store.device.medium
    assert len(pickle.dumps(medium, pickle.HIGHEST_PROTOCOL)) <= 21_500
    dots = medium.__getstate__()["dots"]
    assert dots.__getstate__()["blocks"] == (0, 1024)
    # a cut of a run and a cut of nothing go the same way; a gapped
    # cut keeps its list
    for blocks in ([5, 6, 7], [], [1, 2, 4]):
        delta = MediumDelta(np.array(blocks, dtype=np.intp),
                            medium._mag.reshape(1024, -1)[blocks],
                            medium._sharpness.reshape(1024, -1)[blocks])
        back = pickle.loads(pickle.dumps(delta))
        assert back.blocks.dtype == delta.blocks.dtype
        assert back.blocks.tolist() == blocks
        assert isinstance(delta.__getstate__()["blocks"], tuple) == \
            (blocks != [1, 2, 4])


def test_medium_builds_no_int64_plus_minus_one_temporaries():
    # np.where(mask, 1, -1) allocates a whole-medium int64 array; the
    # medium writes its +/-1 magnetisation in int8 instead
    import ast
    import pathlib

    from repro import medium as medium_package

    def literal(node):
        try:
            return ast.literal_eval(node)
        except ValueError:
            return None

    offenders = []
    for path in sorted(pathlib.Path(medium_package.__file__).parent
                       .glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "where" and len(node.args) == 3 \
                    and [literal(arg) for arg in node.args[1:]] == [1, -1]:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_switching_field_defects_make_dots_unwritable():
    geom = MediumGeometry(cols=64, rows=16, dots_per_block=16)
    config = MediumConfig(switching_sigma=0.3, write_field=1.5, seed=11)
    medium = PatternedMedium(geom, config)
    unwritable = sum(1 for i in range(geom.total_dots)
                     if not medium.is_writable(i))
    assert 0 < unwritable < geom.total_dots // 2
