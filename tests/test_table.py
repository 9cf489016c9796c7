"""Property tests of the columnar p-value table and the step-ups that read it.

Each property runs on random binomial-test totals (zero included) and
Fisher-exact margins (empty groups included), drawn by hypothesis.
"""

import re
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_registry_consistent
from exact_oracle import exact_pvalues, null_of, tie_classes
from stepfdr import pvalue
from stepfdr.cli import main
from stepfdr.dist import DiscreteDistribution, binomial_null, hypergeometric_null
from stepfdr.errors import InvariantViolation
from stepfdr.ingest import CountTable, filter_hiv, filter_methylation
from stepfdr.pvalue import (
    PValueFlavor,
    PValueTable,
    bt_support,
    count_column,
    fet_support,
    pvalue_table,
)
from stepfdr import stepup
from stepfdr.stepup import (bh, bh_plus, build_max_cdf, critical_values, mid_vs_conventional,
                            run_procedures)

CONV = PValueFlavor.CONVENTIONAL
MID = PValueFlavor.MID
FLAVORS = st.sampled_from([CONV, MID])
ALPHAS = st.floats(0.01, 0.5)

PROPERTY = settings(max_examples=60, deadline=None, database=None)

PAIRS = st.tuples(st.integers(0, 40), st.integers(0, 40))
BT_ROWS = st.lists(PAIRS, min_size=1, max_size=40)


@st.composite
def fet_row(draw):
    n1, n2 = draw(st.integers(0, 25)), draw(st.integers(0, 25))
    return draw(st.integers(0, n1)), draw(st.integers(0, n2)), n1, n2


FET_ROWS = st.lists(fet_row(), min_size=1, max_size=40)
INSTANCES = st.one_of(BT_ROWS, FET_ROWS)


def tables_of(rows):
    """The (conventional, mid) pair of tables from one call."""
    cols = np.array(rows, dtype=np.int64).T
    return pvalue_table(*cols)


def table_of(rows, flavor):
    conv, mid = tables_of(rows)
    return mid if flavor is MID else conv


def exact(flavor, dist, x):
    """The oracle's float p-value of outcome x under `dist`."""
    p, q = exact_pvalues(dist)[x]
    return float(p if flavor is CONV else q)


@PROPERTY
@given(rows=BT_ROWS, flavor=FLAVORS)
def test_bt_table_matches_per_record_pvalues(rows, flavor):
    table = table_of(rows, flavor)
    for i, (c1, c2) in enumerate(rows):
        support = table.supports[table.support_index[i]]
        assert table.p[i] == exact(flavor, binomial_null(c1 + c2), c1)
        assert support is bt_support(c1 + c2, flavor)
        assert support.points[table.point_index[i]] == table.p[i]


@PROPERTY
@given(rows=FET_ROWS, flavor=FLAVORS)
def test_fet_table_matches_per_record_pvalues(rows, flavor):
    table = table_of(rows, flavor)
    for i, (c1, c2, n1, n2) in enumerate(rows):
        support = table.supports[table.support_index[i]]
        assert table.p[i] == exact(flavor, hypergeometric_null(n1, n2, c1 + c2), c1)
        assert support is fet_support(n1, n2, c1 + c2, flavor)
        assert support.points[table.point_index[i]] == table.p[i]


def test_each_margin_null_is_built_once_for_both_flavors(monkeypatch):
    """A tied margin (n1 = n2) is built from its exact null once, and never
    walked; an untied one is walked once and never builds its null."""
    built, walked = [], []

    def counting_null(*margin):
        built.append(margin)
        return hypergeometric_null(*margin)

    def counting_walk(keys, *slots):
        walked.extend(map(tuple, keys.tolist()))
        return walk(keys, *slots)

    walk = pvalue._walk
    monkeypatch.setattr(pvalue, "_margins", {})
    monkeypatch.setattr(pvalue, "hypergeometric_null", counting_null)
    monkeypatch.setattr(pvalue, "_walk", counting_walk)
    for n2 in (97, 89):
        rows = [(10, 43, 97, n2), (20, 33, 97, n2), (1, 52, 97, n2)]
        conv, mid = tables_of(rows)
        assert conv.supports == (fet_support(97, n2, 53, CONV),)
        assert mid.supports == (fet_support(97, n2, 53, MID),)
    assert built == [(97, 97, 53)]
    assert walked == [(97, 89, 53)]


@lru_cache(maxsize=None)
def oracle_floats(margin):
    """{outcome: (P, Q)} as the oracle's correctly rounded floats."""
    return {x: (float(p), float(q))
            for x, (p, q) in exact_pvalues(null_of(margin)).items()}


def outcome_columns(margins):
    """Count columns with one test per outcome of every margin, and the
    (margin, outcome) of each test."""
    tests = [(margin, x) for margin in margins
             for x in list(null_of(margin).support)]
    rows = [(x, margin[-1] - x, *margin[:-1]) for margin, x in tests]
    return np.array(rows, dtype=np.int64).T, tests


# Symmetric fet margins (n1 = n2, so tie classes are pairs), small bt
# totals, and bt totals whose smallest classes round to 0.0, several of
# them onto the same point at 2000 (2 / 2**n is below 2**-1074).
TIED_FET = [(n, n, t) for n in (1, 2, 5, 10, 25, 60) for t in range(2 * n + 1)]
SMALL_AND_HUGE_BT = [(t,) for t in (*range(61), 1075, 2000)]
# Untied Fisher margins, which the certified walk builds: small and lopsided
# ones, every total of (7, 30), and wide supports up to 401 outcomes.
WALKED_FET = [margin for margin in [(3, 4, 2), (1, 0, 1), (0, 5, 3), (97, 89, 53), (400, 50, 300),
                                    (400, 399, 400), *((7, 30, t) for t in range(38))]
              if len(set(null_of(margin).numerators)) == len(null_of(margin).numerators)]


@pytest.mark.parametrize("batch", [512, 7], ids=["one-batch", "many-batches"])
def test_fresh_margins_match_the_oracle_in_any_batching(monkeypatch, batch):
    monkeypatch.setattr(pvalue, "_margins", {})
    monkeypatch.setattr(pvalue, "_BATCH", batch)
    for margins in (SMALL_AND_HUGE_BT, TIED_FET, WALKED_FET):
        columns, tests = outcome_columns(margins)
        conv, mid = pvalue_table(*columns)
        want = np.array([oracle_floats(margin)[x] for margin, x in tests])
        assert np.array_equal(conv.p, want[:, 0])
        assert np.array_equal(mid.p, want[:, 1])
    keys = SMALL_AND_HUGE_BT + TIED_FET + WALKED_FET
    assert sorted(pvalue._margins) == sorted(keys)
    assert bt_support(1075, MID).points[0] == 0.0   # one class rounds to 0.0
    merged = bt_support(2000, MID)                   # several classes do
    assert merged.points[0] == 0.0
    assert len(merged) < len(tie_classes(binomial_null(2000)))
    # Building them all at once, each width in one call, makes the same arrays.
    by_call = records(keys)
    assert_same_records(fresh_records(monkeypatch, keys), by_call)


def test_a_call_builds_only_the_margins_not_yet_cached(monkeypatch):
    built = []

    def counting(null):
        def build(*margin):
            built.append(margin)
            return null(*margin)
        return build

    monkeypatch.setattr(pvalue, "_margins", {})
    monkeypatch.setattr(pvalue, "binomial_null", counting(binomial_null))
    monkeypatch.setattr(pvalue, "hypergeometric_null", counting(hypergeometric_null))
    pvalue_table([1, 2, 3], [4, 0, 2])                     # totals 5, 2, 5
    assert built == [(2,), (5,)]
    cached = bt_support(5, CONV)
    conv, _ = pvalue_table([0, 1, 9, 3, 2], [5, 6, 0, 3, 0])   # 5, 7, 9, 6, 2
    assert built == [(2,), (5,), (6,), (7,), (9,)]
    assert conv.supports[conv.support_index[0]] is cached
    pvalue_table([4, 1], [3, 1], [9, 5], [9, 5])            # (9, 9, 7), (5, 5, 2)
    pvalue_table([2, 0], [5, 2], [9, 2], [9, 2])            # (9, 9, 7), (2, 2, 2)
    assert built[5:] == [(5, 5, 2), (9, 9, 7), (2, 2, 2)]
    assert_registry_consistent()


def test_a_build_out_of_memory_names_its_batchs_widest_margin(monkeypatch):
    def boom(*args):
        raise MemoryError

    monkeypatch.setattr(pvalue, "_margins", {})
    monkeypatch.setattr(pvalue, "_exact", boom)
    with pytest.raises(MemoryError, match=r"^margin \(50,\): out of memory building its "
                                          r"batch's 63 outcomes$"):
        pvalue_table([0, 0, 0], [3, 50, 7])
    assert pvalue._margins == {}
    assert_registry_consistent()


@pytest.mark.parametrize("bad", [
    DiscreteDistribution(range(3), (1, 3, 0), 4),
    DiscreteDistribution(range(3), (1, 2, 1), 5),
    DiscreteDistribution(range(2), (1, 2, 1), 4),
], ids=["zero-mass", "sum-off-by-one", "more-masses-than-outcomes"])
def test_a_bad_null_is_an_invariant_violation_naming_its_margin(
        monkeypatch, tmp_path, capsys, bad):
    """The builder checks each null where it sums the masses, so a null
    builder's bug is ours: InvariantViolation, and exit 3 from the CLI."""
    monkeypatch.setattr(pvalue, "_margins", {})
    monkeypatch.setattr(pvalue, "binomial_null", lambda *margin: bad)
    monkeypatch.setattr(pvalue, "hypergeometric_null", lambda *margin: bad)
    with pytest.raises(InvariantViolation, match=r"^margin \(2,\): "):
        pvalue_table([1], [1])
    with pytest.raises(InvariantViolation, match=r"^margin \(3, 3, 2\): "):
        pvalue_table([1], [1], 3, 3)   # tied, so it falls back to its exact null
    assert pvalue._margins == {}
    counts = tmp_path / "counts.csv"
    counts.write_text("id,c1,c2\na,1,1\n")
    assert main(["analyze", "--input", str(counts), "--test", "bt"]) == 3
    assert capsys.readouterr().err.startswith(
        "stepfdr: error: internal: margin (2,): ")


def test_a_corrupted_walk_is_an_invariant_violation_naming_its_margin(
        monkeypatch, tmp_path, capsys):
    """A walk that certifies wrong masses misses its exact bracket: doubling
    every ratio term of the untied margin (3, 4, 2) walks the masses 1, 4, 2
    for the exact 1, 2, 1/2, which are apart and round cleanly, but f(hi)
    and the sum miss their `math.comb` values."""
    ratio = pvalue._ratio
    monkeypatch.setattr(pvalue, "_margins", {})
    monkeypatch.setattr(pvalue, "_ratio", lambda *args: (2 * ratio(*args)[0], ratio(*args)[1]))
    with pytest.raises(InvariantViolation, match=r"^margin \(3, 4, 2\): "):
        pvalue_table([1], [1], 3, 4)
    assert pvalue._margins == {}
    counts = tmp_path / "counts.csv"
    counts.write_text("id,c1,c2,n1,n2\na,1,1,3,4\n")
    assert main(["analyze", "--input", str(counts), "--test", "fet"]) == 3
    assert capsys.readouterr().err.startswith(
        "stepfdr: error: internal: margin (3, 4, 2): ")


def random_margins(seed, count):
    """`count` distinct Fisher margins with n1, n2 up to 400, drawn a
    quarter tied (n1 = n2), a quarter with the benchmark's totals (rates
    0.01 to 0.2) and half with any total."""
    draws = count + count // 10
    rng = np.random.default_rng(seed)
    n = rng.integers(0, 401, size=(draws, 2))
    n[: draws // 4, 1] = n[: draws // 4, 0]
    t = rng.binomial(n, rng.uniform(0.01, 0.2, size=(draws, 1))).sum(axis=1)
    t[draws // 2:] = rng.integers(0, n[draws // 2:].sum(axis=1) + 1)
    return list(dict.fromkeys(zip(*n.T.tolist(), t.tolist())))[:count]


def build(keys):
    """`pvalue._build` of margin keys of either width, a width at a time."""
    for width in (1, 3):
        rows = [key for key in keys if len(key) == width]
        if rows:
            pvalue._build(np.array(rows, dtype=np.int64))


def records(keys):
    """Each registered margin's support points and CDF values and its
    outcome -> point map, per flavor, as bytes."""
    out = {}
    bases = [chunk.flats[0].base for chunk in pvalue._chunks]
    for key in keys:
        assert type(pvalue._margins[key]) is int
        at = pvalue._margins[key] - pvalue._live
        c = np.searchsorted(bases, at, side="right") - 1
        chunk, k = pvalue._chunks[c], at - bases[c]
        out[key] = tuple(
            (flat.support(k).points.tobytes(), flat.support(k).cdf_values.tobytes(),
             maps[chunk.cuts[k]:chunk.cuts[k + 1]].tobytes())
            for flat, maps in zip(chunk.flats, chunk.maps))
    return out


def fresh_records(monkeypatch, keys, **settings):
    """The records of `keys` built fresh under `settings`."""
    monkeypatch.setattr(pvalue, "_margins", {})
    for name, value in settings.items():
        monkeypatch.setattr(pvalue, name, value)
    build(keys)
    assert len(pvalue._margins) == len(keys)
    assert_registry_consistent()
    return records(keys)


def assert_same_records(got, want):
    """Byte-identical supports and outcome -> point maps."""
    assert got.keys() == want.keys()
    for key, record in want.items():
        assert got[key] == record, key


@pytest.fixture(scope="module")
def exact_records():
    """20,000 random Fisher margins and their records from a forced exact
    build (no margin walked)."""
    keys = random_margins(18, 20_000)
    saved = pvalue._margins, pvalue._WALKED
    pvalue._margins, pvalue._WALKED = {}, 0
    try:
        build(keys)
        return keys, records(keys)
    finally:
        pvalue._margins, pvalue._WALKED = saved


@pytest.mark.parametrize("batch", [512, 7], ids=["batches-of-512", "batches-of-7"])
def test_walked_margins_match_a_forced_exact_build(monkeypatch, exact_records, batch):
    """Walked or fallen back, every margin's supports and maps are the exact
    build's, byte for byte, in any batching; the batches cut the 20,000
    margins (a quarter of them tied) at many places."""
    keys, want = exact_records
    assert len(keys) == 20_000 and len(keys) % batch
    assert_same_records(fresh_records(monkeypatch, keys, _BATCH=batch), want)


# Untied margins with n1 + n2 in the thousands.  Walked from f(lo), the
# first four leave [2**-900, 2**900]: past float's range mid-range, below it
# when lopsided (200, 7900, 200), so they fall back; the last two stay in it.
OVERFLOWING_FET = [(999, 1002, 1000), (1000, 1001, 900), (200, 7900, 200), (3001, 4000, 3500)]
WIDE_FET = [(2500, 4000, 60), (6000, 2000, 7900)]


def test_walks_out_of_range_fall_back_beside_narrow_margins(monkeypatch):
    """Margins whose walk leaves [2**-900, 2**900] overflow or underflow
    into nan and fall back to their exact nulls, once each, and the narrow
    margins after them in key order and in their block, such as
    (1000, 1002, 5), keep their own class slots: every record is the exact
    build's."""
    calls, walked = [], []

    def counting_null(*margin):
        calls.append(margin)
        return hypergeometric_null(*margin)

    def counting_walk(keys, *slots):
        walked.extend(map(tuple, keys.tolist()))
        return walk(keys, *slots)

    walk = pvalue._walk
    keys = [*OVERFLOWING_FET[:2], (1000, 1002, 5), *OVERFLOWING_FET[2:], *WIDE_FET, *WALKED_FET]
    monkeypatch.setattr(pvalue, "hypergeometric_null", counting_null)
    monkeypatch.setattr(pvalue, "_walk", counting_walk)
    got = fresh_records(monkeypatch, keys)
    assert sorted(calls) == sorted(OVERFLOWING_FET)
    assert sorted(walked) == sorted(keys)
    assert_same_records(got, fresh_records(monkeypatch, keys, _WALKED=0))


def test_wide_margins_match_a_forced_exact_build(monkeypatch):
    """600 random Fisher margins, 30% with n1 and n2 up to 4,095 and the
    rest up to 400, build the same records byte for byte whether the walk
    certifies them or they fall back, as with every margin built exactly
    (`_WALKED = 0`)."""
    rng = np.random.default_rng(59)
    n = rng.integers(0, 401, size=(660, 2))
    wide = rng.random(660) < 0.3
    n[wide] = rng.integers(0, 4096, size=(wide.sum(), 2))
    t = rng.integers(0, n.sum(axis=1) + 1)
    keys = list(dict.fromkeys(zip(*n.T.tolist(), t.tolist())))[:600]
    assert len(keys) == 600
    calls, walked = [], []

    def counting_null(*margin):
        calls.append(margin)
        return hypergeometric_null(*margin)

    def counting_walk(keys, *slots):
        walked.extend(map(tuple, keys.tolist()))
        return walk(keys, *slots)

    walk = pvalue._walk
    monkeypatch.setattr(pvalue, "hypergeometric_null", counting_null)
    monkeypatch.setattr(pvalue, "_walk", counting_walk)
    got = fresh_records(monkeypatch, keys)
    assert len(walked) > len(keys) // 2
    untied = [key for key in keys if key[0] != key[1]]
    assert sorted(walked) == sorted(untied) and set(untied) & set(calls)
    assert_same_records(got, fresh_records(monkeypatch, keys, _WALKED=0))


def test_only_tied_margins_reach_the_exact_null(monkeypatch):
    """On 1,000 benchmark-style margins the exact null is built for the
    margins with ties and for no other: every untied one is certified."""
    calls = []

    def counting_null(*margin):
        calls.append(margin)
        return hypergeometric_null(*margin)

    rng = np.random.default_rng(31)
    n = rng.integers(50, 401, size=(1500, 2))
    t = rng.binomial(n, rng.uniform(0.01, 0.2, size=(1500, 1))).sum(axis=1)
    keys = list(dict.fromkeys(zip(*n.T.tolist(), t.tolist())))[:1000]
    tied = [key for key in keys
            if len(set(null_of(key).numerators)) < len(null_of(key).numerators)]
    monkeypatch.setattr(pvalue, "hypergeometric_null", counting_null)
    fresh_records(monkeypatch, keys)
    assert len(keys) == 1000 and tied
    assert sorted(calls) == sorted(tied)


def test_a_bound_that_certifies_nothing_sends_every_margin_to_the_exact_path(monkeypatch):
    """With an error bound too wide to certify any class, every margin
    falls back to its exact null and builds the same records."""
    calls = []

    def counting_null(*margin):
        calls.append(margin)
        return hypergeometric_null(*margin)

    keys = random_margins(47, 400)
    want = dict(fresh_records(monkeypatch, keys))
    monkeypatch.setattr(pvalue, "hypergeometric_null", counting_null)
    assert_same_records(fresh_records(monkeypatch, keys, _REL=1.0), want)
    assert sorted(calls) == sorted(keys)


def test_walking_a_batch_peaks_no_higher_than_building_it_exactly(monkeypatch):
    """The walk's blocks keep its temporaries below the exact build's peak
    on the same 512 benchmark-style margins, one batch."""
    rng = np.random.default_rng(29)
    n = rng.integers(50, 401, size=(1500, 2))
    t = rng.binomial(n, rng.uniform(0.01, 0.2, size=(1500, 1))).sum(axis=1)
    keys = np.array(list(dict.fromkeys(zip(*n.T.tolist(), t.tolist())))[:512])
    peaks = []
    for walked in (pvalue._WALKED, 0):
        monkeypatch.setattr(pvalue, "_margins", {})
        monkeypatch.setattr(pvalue, "_WALKED", walked)
        tracemalloc.start()
        try:
            pvalue._build(keys)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def fresh_fisher_rows(count: int = 1000):
    """Benchmark-style Fisher counts and trial totals (n1, n2 in 50..400),
    with the first rows of `count` distinct margins."""
    rng = np.random.default_rng(29)
    n = rng.integers(50, 401, size=(count * 3 // 2, 2))
    c = rng.binomial(n, rng.uniform(0.01, 0.2, size=(count * 3 // 2, 1)))
    margins = list(zip(n[:, 0].tolist(), n[:, 1].tolist(), c.sum(axis=1).tolist()))
    rows = list(dict(zip(margins, range(len(margins)))).values())[:count]
    assert len(rows) == count
    return c, n, rows, margins


def test_building_fresh_margins_peaks_near_what_the_cache_keeps(monkeypatch):
    """Building 1,000 fresh Fisher margins (two batches) peaks near what the
    cache keeps afterwards, because a batch's typed buffers are freed before
    its views are made; with them still alive, the whole call once peaked at
    1.28 times.  The first assertion measures `_build` alone, whose peak
    comes in the second batch's walk, at the TwoSum and TwoProduct of its P
    and Q blocks; the second the whole `pvalue_table` call, whose peak comes
    in the second batch's `_flatten`, checking its conventional points while
    both flavors' columns and maps are alive.  Both stay within 1.25 times."""
    c, n, rows, margins = fresh_fisher_rows()

    def traced(call, *args):
        """(retained, peak) bytes of `call(*args)` on an empty cache."""
        monkeypatch.setattr(pvalue, "_margins", {})
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    retained, peak = traced(pvalue._build, np.array([margins[i] for i in rows]))
    assert len(pvalue._margins) == 1000
    assert peak <= 1.25 * retained
    retained, peak = traced(pvalue_table, c[rows, 0], c[rows, 1], n[rows, 0], n[rows, 1])
    assert len(pvalue._margins) == 1000
    assert peak <= 1.25 * retained


def test_the_registry_keeps_4_byte_maps_and_32_bytes_an_outcome(empty_registry):
    """Every chunk's two outcome -> point maps are int32, so the per-outcome
    columns (the two maps, both flavors' points and the mid CDF) hold at
    most 33 B per stored outcome on the 1,000 Fisher margins above; with
    int64 maps they held 39.98."""
    c, n, rows, _ = fresh_fisher_rows()
    pvalue_table(c[rows, 0], c[rows, 1], n[rows, 0], n[rows, 1])
    chunks = pvalue._chunks
    assert len(pvalue._margins) == 1000 and len(chunks) == 2
    assert all(column.dtype == np.int32 for chunk in chunks for column in chunk.maps)
    kept = sum(column.nbytes for chunk in chunks for column in (
        *chunk.maps, chunk.flats[0].points, chunk.flats[1].points, chunk.flats[1].cdf))
    assert kept <= 33 * pvalue._stored()
    assert_registry_consistent()


def test_merged_chunks_keep_4_byte_maps(monkeypatch, empty_registry):
    """A run of one-batch builds, which `_compact` merges, keeps int32 maps
    and makes the records of one build of the same margins, byte for byte."""
    keys = random_margins(71, 240) + [(t,) for t in range(0, 1200, 9)]
    want = fresh_records(monkeypatch, keys)
    empty_registry()
    for start in range(0, len(keys), 25):
        build(keys[start:start + 25])
    chunks = pvalue._chunks
    assert len(chunks) < 6 and max(chunk.level for chunk in chunks) >= 3
    assert all(column.dtype == np.int32 for chunk in chunks for column in chunk.maps)
    assert_same_records(records(keys), want)
    assert_registry_consistent()

def test_sweeping_a_batch_of_one_peaks_near_three_pooled_columns():
    """`run_procedures` on one replication sorts each flavor's pooled
    supports once, and holds at most three 8-byte columns of the pooled
    points at once: the points, their CDF values, and the sort order, into
    whose buffer the values are gathered.  On the 1,000 Fisher margins
    above, its traced peak stays within 4 x 8 B per pooled point; ranking
    the points and levels into int64 keys, as a batch does, peaked at 7.2."""
    c, n, rows, _ = fresh_fisher_rows()
    conv, mid = pvalue_table(c[rows, 0], c[rows, 1], n[rows, 0], n[rows, 1])
    points = sum(map(len, mid.supports))
    tracemalloc.start()
    try:
        run_procedures(conv, mid, (0.05,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * points


def test_a_batch_of_one_peaks_near_one_group_of_pooled_points():
    """`run_procedures` on one replication reads F* group by group, so its
    traced peak follows the group bound and m, not the pooled points: on
    m = 4,000 Fisher tests over 1,000 margins (about 50k mid points) and
    over 4,000 (about 190k), it stays within 6 x 8 B x (`stepup._GROUP` +
    m).  Sweeping the whole pool at once peaked at 8.6 and 30 times that."""
    m, points = 4000, []
    for count in (1000, 4000):
        c, n, rows, _ = fresh_fisher_rows(count)
        rows = np.resize(rows, m)
        conv, mid = pvalue_table(c[rows, 0], c[rows, 1], n[rows, 0], n[rows, 1])
        points.append(sum(map(len, mid.supports)))
        tracemalloc.start()
        try:
            run_procedures(conv, mid, (0.05,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * (stepup._GROUP + m)
    assert points[1] > 3.5 * points[0] > 9 * stepup._GROUP   # several groups each


@PROPERTY
@given(rows=INSTANCES)
def test_one_call_builds_both_flavors_on_shared_slots(rows):
    """Both tables of one call share support_index; slot j of each holds the
    same margin's conventional and mid support, and both p columns are the
    oracle's."""
    conv, mid = tables_of(rows)
    assert np.array_equal(conv.support_index, mid.support_index)
    assert len(conv.supports) == len(mid.supports)
    for i, row in enumerate(rows):
        if len(row) == 2:
            margin, dist = (row[0] + row[1],), binomial_null(row[0] + row[1])
            support = bt_support
        else:
            c1, c2, n1, n2 = row
            margin = (n1, n2, c1 + c2)
            dist, support = hypergeometric_null(*margin), fet_support
        j = conv.support_index[i]
        assert conv.supports[j] is support(*margin, CONV)
        assert mid.supports[j] is support(*margin, MID)
        assert conv.p[i] == exact(CONV, dist, row[0])
        assert mid.p[i] == exact(MID, dist, row[0])


@PROPERTY
@given(rows=INSTANCES, flavor=FLAVORS, alpha=ALPHAS)
def test_bh_plus_same_on_table_and_per_test_supports(rows, flavor, alpha):
    """A hand-built table with one support slot per test gives the same run."""
    table = table_of(rows, flavor)
    per_test = PValueTable([table.supports[j] for j in table.support_index],
                           np.arange(len(rows)), table.point_index)
    assert np.array_equal(per_test.p, table.p)
    on_table = bh_plus(table, alpha)
    on_list = bh_plus(per_test, alpha)
    assert on_table.m == on_list.m == len(rows)
    assert (critical_values(build_max_cdf(table), alpha, len(rows)).tobytes()
            == critical_values(build_max_cdf(per_test), alpha, len(rows)).tobytes())
    assert on_table.rejection_count == on_list.rejection_count
    assert on_table.threshold == on_list.threshold
    assert np.array_equal(on_table.rejected, on_list.rejected)


@PROPERTY
@given(rows=INSTANCES, alpha=ALPHAS)
def test_bh_plus_is_bh_and_contains_mid_run(rows, alpha):
    conv, mid = tables_of(rows)
    res_bh = bh(conv.p, alpha)
    res_plus = bh_plus(conv, alpha)
    assert np.array_equal(res_bh.rejected, res_plus.rejected)
    res_mid = mid_vs_conventional(res_plus, mid, alpha).mid_result
    assert np.isin(res_mid.rejected, res_plus.rejected).all()


@st.composite
def null_margin(draw):
    """A bt total, or a Fisher margin (n1, n2, total)."""
    if draw(st.booleans()):
        return (draw(st.integers(0, 400)),)
    n1, n2 = draw(st.integers(0, 300)), draw(st.integers(0, 300))
    return n1, n2, draw(st.integers(0, n1 + n2))


@PROPERTY
@given(margin=null_margin())
def test_null_pmfs_are_strictly_log_concave(margin):
    """The fact the margin builder relies on: f(x+1)/f(x) strictly decreases,
    checked exactly as f(x+1) f(x-1) < f(x)**2.  So each pmf strictly rises
    to its mode, is flat there for at most two outcomes, and strictly falls:
    every tie class holds at most two outcomes, one on each side of the
    mode, and sorting the masses merges two monotone runs."""
    dist = null_of(margin)
    f = dist.numerators
    assert all(f[x + 1] * f[x - 1] < f[x] ** 2 for x in range(1, len(f) - 1))
    lo = int(dist.support[0])
    for xs, _, _ in tie_classes(dist):
        assert len(xs) <= 2
        if len(xs) == 2:
            a, b = xs[0] - lo, xs[1] - lo
            assert all(f[x] > f[a] for x in range(a + 1, b))


@pytest.mark.parametrize("flavors", [(CONV, CONV), (MID, MID), (CONV, MID)],
                         ids=["conventional", "mid", "mixed"])
def test_hand_made_table_hands_back_its_given_supports(flavors):
    """A hand-made table indexes its supports in the registry's layout and
    keeps the given objects, a repeated one included, in their slots."""
    supports = tuple(bt_support(total, flavor) for total, flavor in zip((3, 6), flavors))
    supports += supports[:1]
    table = PValueTable(supports, [2, 1, 0, 1], [0, 3, 1, 0])
    assert len(table.supports) == len(supports)
    assert all(got is given for got, given in zip(table.supports, supports))
    np.testing.assert_array_equal(table.p, [supports[2].points[0], supports[1].points[3],
                                            supports[0].points[1], supports[1].points[0]])


def test_hand_made_table_leaves_the_callers_arrays_writeable():
    """The constructor copies the index columns it sets read-only."""
    si, pi = np.array([0, 0]), np.array([0, 1])
    table = PValueTable((bt_support(2, CONV),), si, pi)
    assert si.flags.writeable and pi.flags.writeable
    assert not any(column.flags.writeable
                   for column in (table.support_index, table.point_index, table.p))
    si[0] = pi[0] = 1
    assert table.support_index[0] == table.point_index[0] == 0


@pytest.mark.parametrize("name", ["p", "support_index", "supports", "extra"])
def test_a_table_refuses_to_set_any_attribute(name):
    table, _ = pvalue_table([1, 2], [2, 3])
    with pytest.raises(AttributeError, match=rf"^PValueTable is read-only: cannot set '{name}'$"):
        setattr(table, name, None)


@pytest.mark.parametrize("support_index, point_index, message", [
    ([-1, 0], [0, 0], "index a point"),
    ([0, 2], [0, 0], "index a point"),
    ([0, 1], [-1, 0], "index a point"),
    ([0, 1], [0, 2], "index a point"),
    ([0, 1], [1, 1], "index a point"),
    ([0.7, 1.2], [0, 0], "column support_index must hold integers"),
    ([0, 1], [1.9, 0.5], "column point_index must hold integers"),
    ([0.0, 1.0], [0.5, 0.0], "column point_index must hold integers"),
    ([[0, 1]], [[0, 0]], "^support_index and point_index must be matching non-empty 1-D"),
    ([], [], "^support_index and point_index must be matching non-empty 1-D"),
    ([0, 1], [0], "^support_index and point_index must be matching non-empty 1-D"),
], ids=["support-negative", "support-past-end", "point-negative",
        "point-past-end", "point-past-own-support", "support-fractional",
        "point-fractional", "point-fractional-in-range", "2-d", "empty", "unequal"])
def test_table_rejects_index_off_its_supports(support_index, point_index, message):
    """The constructor is what keeps every test on a point of its own support.

    Support 0 has two points and support 1 one point, so point 1 exists only
    on support 0.  A fractional index is refused, not truncated onto a point.
    """
    supports = (bt_support(2, CONV), bt_support(0, CONV))
    assert [len(s) for s in supports] == [2, 1]
    with pytest.raises(ValueError, match=message):
        PValueTable(supports, support_index, point_index)


@pytest.mark.parametrize("c1, c2", [
    ([], []),
    ([1, 2], [3]),
    ([[1, 2]], [[3, 4]]),
    (1, 2),
], ids=["empty", "unequal", "2-d", "scalar"])
def test_pvalue_table_rejects_malformed_count_columns(c1, c2):
    """Its own message for empty columns (numpy's concatenate error before),
    and no broadcasting: a short c2 once made the tests (1, 3), (2, 3)."""
    with pytest.raises(ValueError, match="matching non-empty 1-D columns"):
        pvalue_table(c1, c2)


@pytest.mark.parametrize("n1, n2, name", [
    ([5, 5, 5], [5, 5, 5], "n1"),
    ([[5, 5]], [[5, 5]], "n1"),
    ([5], [5, 5], "n1"),
    ([5, 5], [5], "n2"),
    (5, [[5, 5]], "n2"),
], ids=["long", "2-d", "length-1", "short-n2", "scalar-and-2-d"])
def test_pvalue_table_refuses_trial_totals_of_another_shape(n1, n2, name):
    """A trial-total column holds one value per test; numpy's broadcast
    errors once surfaced instead, and a length-1 column was shared."""
    with pytest.raises(ValueError, match=rf"^column {name} must hold one value "
                                         r"or one entry per test$"):
        pvalue_table([1, 2], [2, 3], n1, n2)


def test_pvalue_table_shares_scalar_trial_totals():
    """A 0-d n1 or n2 is every test's, as a full column would be."""
    for shared, full in zip(pvalue_table([1, 2], [2, 3], 5, np.int64(6)),
                            pvalue_table([1, 2], [2, 3], [5, 5], [6, 6])):
        assert shared.p.tolist() == full.p.tolist()
        assert shared.support_index.tolist() == full.support_index.tolist()


def test_a_margin_of_2_to_the_60_outcomes_is_refused_before_any_buffer():
    """`_spans` refuses a margin no float64 buffer holds with the
    MemoryError its batch's build would raise, without allocating it."""
    with pytest.raises(MemoryError) as error:
        pvalue_table([0], [2**61])
    assert str(error.value) == (f"margin ({2**61},): out of memory building its "
                                f"batch's {2**61 + 1} outcomes")


@pytest.mark.parametrize("columns, name", [
    (([2.7], [1.0]), "c1"),
    (([2.0], [1.2]), "c2"),
    (([2.0], [1.0], [3.5], [4.0]), "n1"),
    (([2.0], [1.0], [3.0], [np.nan]), "n2"),
    (([1e30], [1]), "c1"),
    (([1], [2**70]), "c2"),
], ids=["c1", "c2", "n1", "n2-nan", "c1-float-past-int64", "c2-int-past-int64"])
def test_fractional_counts_are_rejected_not_truncated(columns, name):
    """Both int64 casts of count columns refuse a value that is not an
    int64 integer, instead of truncating or wrapping it."""
    with pytest.raises(ValueError, match=rf"column {name} must hold integers"):
        pvalue_table(*columns)
    with pytest.raises(ValueError, match=rf"column {name} must hold integers"):
        CountTable(("a",), *columns)
    for from_float, from_int in zip(pvalue_table([2.0], [1.0]),
                                    pvalue_table([2], [1])):
        assert from_float.p[0] == from_int.p[0]


@pytest.mark.parametrize("big", [[2**63], np.array([2**64 - 1], dtype=np.uint64)],
                         ids=["list-2**63", "uint64-max"])
def test_unsigned_counts_past_int64_are_rejected_not_wrapped(big):
    """numpy reads the list [2**63] as uint64, and a cast to int64 once
    wrapped it (and a uint64 2**64 - 1) to a negative count: the filters
    dropped such a row and pvalue_table called the table impossible."""
    message = r"column {} must hold integers below 2\*\*63"
    with pytest.raises(ValueError, match=message.format("c1")):
        count_column("c1", big)
    for keep in (filter_hiv, filter_methylation):
        with pytest.raises(ValueError, match=message.format("c1")):
            keep(CountTable(("a",), big, [1]))
    with pytest.raises(ValueError, match=message.format("c2")):
        pvalue_table([1], big)
    with pytest.raises(ValueError, match=message.format("n1")):
        pvalue_table([1], [1], big, [5])
    below = np.array([2**63 - 1], dtype=np.uint64)
    assert count_column("c1", below).tolist() == [2**63 - 1]


def test_the_registry_holds_only_integers_and_nothing_keys_on_support_ids():
    """Each registered margin is an integer id into a chunk of flat columns,
    not a record of support objects or array views, and no code in the
    package tells supports apart by `id()`."""
    pvalue_table([1, 2, 3], [4, 0, 2], [9, 5, 6], [7, 3, 8])
    pvalue_table([1, 2, 3], [4, 0, 2])
    assert pvalue._margins and all(type(v) is int for v in pvalue._margins.values())
    src = Path(pvalue.__file__).parent
    assert not [path.name for path in src.glob("*.py") if re.search(r"\bid\(", path.read_text())]


def test_a_table_made_before_a_reset_keeps_its_columns(empty_registry):
    """Streaming 10^5 distinct small Fisher margins, 1,000 per call, never
    leaves more than `_CAP` outcomes registered, and the registry resets on
    the way; a table made before the reset keeps its chunks, its p-values,
    its supports and its step-up results."""
    conv, mid = pvalue_table([3, 0, 7, 2], [5, 2, 1, 2], [20, 9, 30, 9], [20, 9, 31, 9])
    before = conv.p.copy(), mid.p.copy(), run_procedures(conv, mid, (0.05, 0.3))
    first = pvalue._chunks[0]
    rng = np.random.default_rng(61)
    n = rng.integers(0, 61, size=(200_000, 2))
    t = rng.integers(0, n.sum(axis=1) + 1)
    margins = np.array(list(dict.fromkeys(zip(*n.T.tolist(), t.tolist())))[:100_000])
    assert len(margins) == 100_000
    live = pvalue._live
    for rows in np.split(margins, 100):
        pvalue._register(rows)
        stored = pvalue._stored()
        assert stored <= pvalue._CAP
        points = sum(flat.points.size for chunk in pvalue._chunks for flat in chunk.flats)
        assert points <= 2 * stored
    assert_registry_consistent()
    assert pvalue._live > live and not any(chunk is first for chunk in pvalue._chunks)
    assert np.array_equal(conv.p, before[0]) and np.array_equal(mid.p, before[1])
    again = run_procedures(conv, mid, (0.05, 0.3))
    assert all(result.m == 4 for result in again.results(conv, mid)[0].values())
    assert_same_runs(again, before[2])
    assert [s.points.tobytes() for s in conv.supports] == [
        fet_support(*margin, CONV).points.tobytes()
        for margin in ((9, 9, 2), (9, 9, 4), (20, 20, 8), (30, 31, 8))]


def test_a_fresh_build_on_a_filled_registry_spans_its_margins_once(monkeypatch, empty_registry):
    """`_register` hands the spans it measured for its `_CAP` test on to
    `_build`: one `_spans` call per fresh build on a non-empty registry,
    for the fresh margins only."""
    pvalue_table([1, 2], [3, 4])   # totals 4 and 6
    calls, spans = [], pvalue._spans
    monkeypatch.setattr(pvalue, "_spans", lambda margins: (
        calls.append(margins.tolist()) or spans(margins)))
    pvalue_table([5, 6, 1], [7, 8, 3])   # totals 12 and 14 are fresh
    assert calls == [[[12], [14]]]
    pvalue_table([2, 0], [1, 9], [4, 9], [3, 9])
    assert calls == [[[12], [14]], [[4, 3, 3], [9, 9, 9]]]
    assert_registry_consistent()


@pytest.mark.parametrize("read_first", ["before", "after"])
def test_tables_made_before_and_after_a_merge_share_every_support(empty_registry, read_first):
    """The registry makes each margin's supports once, into lists that its
    chunks share, so a table made before its chunk merges and a table made
    after hand out the same objects, both flavors, whichever reads first.
    A table made before a reset keeps its own."""
    early = pvalue_table([3], [4])            # total 7, one chunk of level 0
    pvalue_table([1], [1])                    # total 2, merged with it into level 1
    assert [chunk.level for chunk in pvalue._chunks] == [1]
    late = pvalue_table([2], [5])
    tables = (early, late) if read_first == "before" else (late, early)
    made = [table.supports[0] for table in tables[0]]
    assert all(table.supports[0] is support for table, support in zip(tables[1], made))
    assert_registry_consistent()
    pvalue._reset()
    assert all(table.supports[0] is support for table, support in zip(tables[0], made))
    assert not any(table.supports[0] is support
                   for table, support in zip(pvalue_table([2], [5]), made))


@pytest.mark.parametrize("margin", [(None, None), (7, 30)], ids=["bt", "fet"])
def test_a_run_of_one_margin_builds_shares_supports_across_its_merges(empty_registry, margin):
    """Sixteen one-margin calls merge their chunks to level 4; each table's
    supports, read as soon as it is made (even calls) or only after every
    merge (odd ones), are the objects a table of all sixteen made last
    hands out, both flavors."""
    n1, n2 = margin
    tables, made = [], {}
    for t in range(16):
        tables.append(pvalue_table([0], [t], n1, n2))
        if t % 2 == 0:
            made[t] = [table.supports[0] for table in tables[t]]
    assert max(chunk.level for chunk in pvalue._chunks) >= 3
    made.update((t, [table.supports[0] for table in tables[t]]) for t in range(1, 16, 2))
    last = pvalue_table(np.zeros(16, dtype=np.int64), np.arange(16), n1, n2)
    for f, table in enumerate(last):
        assert all(table.supports[j] is made[t][f] for t, j in enumerate(table.support_index))
    assert_registry_consistent()


def assert_same_runs(got, want):
    """Every array of two `run_procedures` results is equal bit for bit."""
    for x, y in zip(got, want, strict=True):
        assert x.tobytes() == y.tobytes()


@PROPERTY
@given(rows=INSTANCES, alphas=st.lists(ALPHAS, min_size=1, max_size=3))
def test_registry_tables_match_tables_rebuilt_from_their_supports(rows, alphas):
    """A registry-backed table and the same table rebuilt from its supports
    (made on request) give equal p-values and identical `run_procedures`
    arrays, for one replication and a stack of three, and the same
    `build_max_cdf` bytes."""
    for reps in (1, 3):
        tables = tables_of(rows * reps)
        rebuilt = [PValueTable(t.supports, t.support_index, t.point_index) for t in tables]
        for table, copy in zip(tables, rebuilt):
            assert table.p.tobytes() == copy.p.tobytes()
        assert_same_runs(run_procedures(*rebuilt, alphas, reps),
                         run_procedures(*tables, alphas, reps))
    for table in tables_of(rows):
        max_cdf = build_max_cdf(table)
        copy = build_max_cdf(PValueTable(table.supports, table.support_index, table.point_index))
        assert max_cdf.grid.tobytes() == copy.grid.tobytes()
        assert max_cdf.values.tobytes() == copy.values.tobytes()
