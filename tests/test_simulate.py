"""Monte Carlo engine: generators, determinism, and table plumbing.

The statistical targets (published rejection rates) live in
test_acceptance.py; everything here is cheap enough for every run.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import chi2 as chi2_dist

from grouphom import _batch, classical, simulate, variance
from grouphom.data import ProbVector
from grouphom.decision import run_global_test
from grouphom.errors import (
    InvalidB,
    InvalidReps,
    OutOfRange,
    SampleTooSmall,
    UnknownTable,
    UnsupportedDimension,
)
from grouphom.simulate import (
    TABLE_IDS,
    SettingSpec,
    estimate_rejection_rate,
    generate_replicate,
    null_z_scores,
    pi_library,
    reproduce_table,
)
from grouphom.data import load_dataset, write_dataset_csv


class TestPiLibrary:
    @pytest.mark.parametrize("d", [5, 10])
    def test_vectors_are_distributions(self, d):
        lib = pi_library(d)
        assert lib.vectors.shape == (5, d)
        assert np.allclose(lib.vectors.sum(axis=1), 1.0)
        assert np.all(lib.vectors > 0)

    @pytest.mark.parametrize("d", [5, 10])
    def test_distances_match_published_tags(self, d):
        # tags are squared distances to the equiprobable vector, printed
        # to three decimals
        lib = pi_library(d)
        for i in range(5):
            dist = float(np.sum((lib.vectors[i] - lib.vectors[0]) ** 2))
            assert dist == pytest.approx(lib.tags[i], abs=1e-3)

    def test_first_vector_is_equiprobable(self):
        for d in (5, 10):
            assert np.allclose(pi_library(d).vectors[0], 1.0 / d)

    def test_vector_accessor(self):
        v = pi_library(5).vector(2)
        assert isinstance(v, ProbVector)
        assert v.probs[0] == pytest.approx(0.1)
        for i in (0, 6, -1, "1", 1.0, True):
            # "1" raised a bare TypeError, 1.0 an IndexError
            with pytest.raises(OutOfRange, match="library index"):
                pi_library(5).vector(i)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            pi_library(7)
        # 5.0 returned PiLibrary(d=5.0)
        for d in (5.0, "5", True):
            with pytest.raises(OutOfRange, match="^d must be an integer >= 2"):
                pi_library(d)
        assert pi_library(np.int64(5)).d == 5


class TestSettingSpec:
    def test_valid(self):
        SettingSpec(1, 20, 100, 5, 10)
        SettingSpec(3, 5, 10, 5, 5, pi0=2)
        SettingSpec(4, 10, 10, 5, 5, pi0=4)

    def test_pi0_required_for_alternatives(self):
        with pytest.raises(OutOfRange):
            SettingSpec(3, 5, 10, 5, 5)
        with pytest.raises(OutOfRange):
            SettingSpec(4, 5, 10, 5, 5, pi0=3)

    def test_pi0_forbidden_for_null_settings(self):
        with pytest.raises(OutOfRange):
            SettingSpec(1, 5, 10, 5, 5, pi0=2)

    def test_library_settings_need_known_d(self):
        with pytest.raises(UnsupportedDimension):
            SettingSpec(2, 7, 10, 5, 5)
        SettingSpec(1, 7, 10, 5, 5)  # uniform works for any d

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(setting=0, d=5, k=10, n1=5, n2=5),
            dict(setting=1, d=1, k=10, n1=5, n2=5),
            dict(setting=1, d=5, k=0, n1=5, n2=5),
            dict(setting=1, d=5, k=10, n1=0, n2=5),
            # the block draw's float64 counts summed to 2**54 per group
            dict(setting=1, d=2, k=2, n1=2**54 + 1, n2=2**54 + 1),
        ],
    )
    def test_range_checks(self, kwargs):
        with pytest.raises(OutOfRange):
            SettingSpec(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, [1]])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # None would draw fresh entropy for every replicate, -1 failed
        # deep inside numpy mid-run
        with pytest.raises(OutOfRange, match="seed must be a non-negative integer"):
            SettingSpec(1, 5, 10, 5, 5, master_seed=seed)
        with pytest.raises(OutOfRange, match="seed must be a non-negative integer"):
            reproduce_table("tab2", reps=2, seed=seed, k_values=[20],
                            size_pairs=[(5, 10)])

    def test_numpy_and_large_seeds_accepted(self):
        spec = SettingSpec(1, 5, 10, 5, 5, master_seed=np.uint64(2**64 - 1))
        ds, _ = generate_replicate(spec, 1)
        big = SettingSpec(1, 5, 10, 5, 5, master_seed=2**64 - 1)
        assert ds == generate_replicate(big, 1)[0]

    @pytest.mark.parametrize("name", ["setting", "d", "k", "n1", "n2", "pi0"])
    @pytest.mark.parametrize("bad", [0.5, 1.0, True, "3", None])
    def test_integer_fields_reject_other_types(self, name, bad):
        # 5.5 or 20.0 failed later in the engine with a bare TypeError;
        # setting=1.0 and pi0=2.0 ran
        kwargs = dict(setting=3, d=5, k=20, n1=5, n2=10, pi0=2)
        kwargs[name] = float(kwargs[name]) if bad == 1.0 else bad
        with pytest.raises(OutOfRange, match=name):
            SettingSpec(**kwargs)

    def test_numpy_integer_fields_accepted(self):
        spec = SettingSpec(*map(np.int64, (3, 5, 20, 5, 10)), pi0=np.int16(4))
        ds, _ = generate_replicate(spec, 0)
        assert ds == generate_replicate(SettingSpec(3, 5, 20, 5, 10, pi0=4), 0)[0]


def sample_multinomial(n, pi, rng):
    """One multinomial draw by the engine's conditional-binomial method."""
    cond = simulate._conditional_probs(pi.probs[None, :])
    return simulate._conditional_binomial(rng, n, cond, 1)[0]


class TestSampling:
    def test_sample_multinomial_totals(self):
        rng = np.random.default_rng(0)
        lib = pi_library(5)
        for n in (1, 7, 100):
            v = sample_multinomial(n, lib.vector(3), rng)
            assert v.sum() == n
            assert v.shape == (5,)

    def test_sample_multinomial_goodness_of_fit(self):
        # one large draw exercises the whole conditional-binomial chain;
        # Pearson statistic should look chi-square(d - 1)
        rng = np.random.default_rng(20240818)
        piv = pi_library(5).vector(4)
        n = 1_000_000
        v = sample_multinomial(n, piv, rng)
        expected = n * piv.probs
        stat = float(np.sum((v - expected) ** 2 / expected))
        assert stat < chi2_dist.ppf(0.999, 4)

    def test_degenerate_probability_vector(self):
        rng = np.random.default_rng(1)
        v = sample_multinomial(50, ProbVector([0.0, 1.0, 0.0]), rng)
        assert v.tolist() == [0, 50, 0]

    def test_draws_bit_identical(self):
        # exact seeded counts from one generator, zero categories included
        rng = np.random.default_rng(2024)
        draws = [
            (37, pi_library(5).vector(5), [2, 3, 4, 7, 21]),
            (1000, pi_library(10).vector(3),
             [19, 7, 22, 31, 95, 90, 140, 194, 195, 207]),
            (25, ProbVector([0.3, 0.7, 0.0, 0.0]), [7, 18, 0, 0]),
            (12, ProbVector([0.5, 0.0, 0.5, 0.0]), [8, 0, 4, 0]),
        ]
        for n, pi, expected in draws:
            assert sample_multinomial(n, pi, rng).tolist() == expected


class TestGenerateReplicate:
    @pytest.mark.parametrize("index", [-1, 1.5, 1.0, True, "1", None])
    def test_index_must_be_a_non_negative_integer(self, index):
        spec = SettingSpec(1, 5, 10, 5, 5)
        with pytest.raises(OutOfRange, match="replicate index must be a "
                                             "non-negative integer"):
            generate_replicate(spec, index)

    def test_reproducible(self):
        spec = SettingSpec(2, 5, 25, 8, 12, master_seed=99)
        a, fa = generate_replicate(spec, 4)
        b, fb = generate_replicate(spec, 4)
        assert a == b
        assert np.array_equal(fa, fb)
        c, _ = generate_replicate(spec, 5)
        assert a != c

    def test_sizes_and_shape(self):
        spec = SettingSpec(1, 10, 30, 5, 9, master_seed=1)
        ds, flags = generate_replicate(spec, 0)
        assert ds.k == 30 and ds.d == 10
        assert ds.sizes(1).tolist() == [5] * 30
        assert ds.sizes(2).tolist() == [9] * 30
        assert flags.shape == (30,) and flags.dtype == bool

    @pytest.mark.parametrize("setting,expect_all_null", [(1, True), (2, True)])
    def test_null_settings_flag_everything_null(self, setting, expect_all_null):
        spec = SettingSpec(setting, 5, 50, 6, 6, master_seed=3)
        _, flags = generate_replicate(spec, 1)
        assert flags.all() == expect_all_null

    @pytest.mark.parametrize(
        "setting,pi0,expected",
        [(3, 2, 0.8), (4, 4, 0.8), (5, None, 0.2)],
    )
    def test_mixture_fractions(self, setting, pi0, expected):
        spec = SettingSpec(setting, 5, 500, 5, 5, pi0=pi0, master_seed=17)
        fractions = []
        for r in range(20):
            _, flags = generate_replicate(spec, r)
            fractions.append(flags.mean())
        observed = float(np.mean(fractions))
        se = math.sqrt(expected * (1 - expected) / (500 * 20))
        assert observed == pytest.approx(expected, abs=5 * se)

    def test_round_trips_through_csv(self, tmp_path):
        spec = SettingSpec(3, 10, 12, 7, 9, pi0=4, master_seed=5)
        ds, _ = generate_replicate(spec, 2)
        path = tmp_path / "rep.csv"
        write_dataset_csv(ds, path)
        assert load_dataset(path) == ds

    def test_negative_index(self):
        with pytest.raises(OutOfRange):
            generate_replicate(SettingSpec(1, 5, 5, 5, 5), -1)

    def test_setting_one_picks_are_shared_and_read_only(self):
        # setting 1 draws no picks: every replicate gets the same arrays
        spec = SettingSpec(1, 5, 7, 5, 10)
        first = simulate._setting_picks(spec, None)
        for a, b in zip(first, simulate._setting_picks(spec, None)):
            assert a is b
            assert not a.flags.writeable
        picks, rows1, rows2 = first
        assert picks.tolist() == rows1.tolist() == rows2.tolist() == [0] * 7
        # the caller's flags are its own
        _, mine = generate_replicate(spec, 0)
        assert mine.tolist() == [True] * 7
        mine[:] = False
        assert generate_replicate(spec, 0)[1].all()

    def test_counts_bit_identical(self):
        # exact seeded counts, so that no change shifts the replicate stream
        spec = SettingSpec(3, 5, 6, 5, 10, pi0=4, master_seed=7)
        ds, flags = generate_replicate(spec, 2)
        assert ds.c1.tolist() == [
            [0, 1, 0, 3, 1], [1, 0, 0, 1, 3], [0, 0, 1, 3, 1],
            [2, 1, 1, 0, 1], [1, 1, 1, 2, 0], [1, 0, 1, 0, 3],
        ]
        assert ds.c2.tolist() == [
            [1, 0, 3, 4, 2], [1, 0, 1, 4, 4], [0, 0, 1, 4, 5],
            [1, 2, 3, 4, 0], [0, 1, 2, 3, 4], [0, 1, 2, 1, 6],
        ]
        assert flags.tolist() == [False, False, True, True, False, True]
        assert list(ds.ids) == [f"g00{i}" for i in range(1, 7)]

    @pytest.mark.parametrize("r", [0, 2**32 - 1, 2**32, 2**32 + 5, 2**64 + 1])
    def test_matches_seed_sequence_reference(self, r):
        # numpy reads an index from 2**32 as two or more 32-bit words; the
        # sizes (200, 300) are drawn by BTPE, so through the block draw's
        # per-replicate fallback
        for spec in (SettingSpec(3, 5, 9, 5, 10, pi0=2, master_seed=2**64 - 1),
                     SettingSpec(1, 5, 9, 200, 300, master_seed=2**64 - 1),
                     SettingSpec(5, 10, 9, 20, 30, master_seed=2**64 - 1)):
            ds, _ = generate_replicate(spec, r)
            c1, c2 = _reference_counts(spec, r)
            assert ds.c1.tolist() == c1.tolist(), spec
            assert ds.c2.tolist() == c2.tolist(), spec

    def test_drawn_by_the_block_draw_alone(self, monkeypatch):
        # the one draw entry: a separate generator per replicate is not used
        spec = SettingSpec(4, 10, 30, 20, 30, pi0=2, master_seed=11)
        expected = [generate_replicate(spec, r) for r in (0, 2**40)]

        def no_generator(*args):
            raise AssertionError("generate_replicate built its own generator")

        monkeypatch.setattr(simulate, "_replicate_rng", no_generator)
        for r, (ds, flags) in zip((0, 2**40), expected):
            again, again_flags = generate_replicate(spec, r)
            assert again == ds
            assert again_flags.tolist() == flags.tolist()

    # Replicate 2 of SettingSpec(setting, d, 6, 5, 10, pi0, master_seed=7):
    # sample-1 and sample-2 counts (groups separated by ';') and null flags.
    GOLDEN = [
        (1, 5, None,
         "2,2,1,0,0;0,1,1,1,2;2,2,0,0,1;0,1,0,2,2;1,0,0,3,1;0,1,1,1,2",
         "4,1,0,2,3;1,1,2,4,2;3,2,2,2,1;0,3,3,2,2;3,2,3,2,0;2,1,1,3,3",
         "111111"),
        (2, 5, None,
         "0,0,0,2,3;0,0,0,0,5;0,0,1,3,1;2,1,1,0,1;0,0,0,2,3;1,0,1,0,3",
         "1,1,2,2,4;1,0,0,1,8;0,0,1,4,5;1,2,3,4,0;0,2,1,1,6;0,1,2,1,6",
         "111111"),
        (4, 5, 2,
         "0,1,0,3,1;1,0,0,1,3;0,0,1,3,1;2,1,1,0,1;1,1,1,2,0;1,0,1,0,3",
         "4,2,3,0,1;1,0,1,3,5;0,0,1,4,5;1,2,3,4,0;3,3,2,1,1;0,1,2,1,6",
         "001101"),
        (4, 5, 4,
         "0,1,0,3,1;1,0,0,1,3;0,0,1,3,1;2,1,1,0,1;1,1,1,2,0;1,0,1,0,3",
         "5,2,1,2,0;1,0,1,4,4;0,0,1,4,5;1,2,3,4,0;4,2,3,0,1;0,1,2,1,6",
         "001101"),
        (5, 5, None,
         "1,1,0,0,3;0,0,0,2,3;1,0,1,0,3;1,0,2,2,0;0,0,0,1,4;0,0,2,1,2",
         "0,1,3,5,1;2,3,2,1,2;0,2,1,0,7;1,3,2,2,2;0,1,2,3,4;0,1,2,6,1",
         "000000"),
        (1, 10, None,
         "1,1,1,0,0,0,0,1,1,0;0,0,0,0,2,1,1,0,0,1;1,1,0,0,0,1,1,0,0,1;"
         "0,0,0,1,1,1,1,1,0,0;0,0,0,0,1,0,0,1,2,1;0,0,0,2,0,0,0,1,1,1",
         "3,1,0,3,0,1,1,0,0,1;1,0,2,1,0,1,3,2,0,0;0,1,1,1,0,1,1,2,1,2;"
         "1,1,0,0,0,3,0,2,1,2;0,2,0,1,1,2,1,1,0,2;1,2,2,0,0,2,1,0,0,2",
         "111111"),
        (2, 10, None,
         "0,0,0,0,0,0,1,2,1,1;0,0,0,0,0,0,0,1,1,3;0,0,0,1,0,0,0,1,0,3;"
         "1,1,0,0,0,0,1,2,0,0;0,0,0,0,0,0,0,1,2,2;0,0,0,0,0,0,1,0,3,1",
         "0,0,0,0,0,0,0,3,1,6;0,0,0,0,0,0,1,2,1,6;0,0,1,0,0,1,2,1,2,3;"
         "1,0,3,0,2,1,0,0,1,2;0,0,0,0,0,1,4,0,1,4;0,0,0,0,0,0,2,3,2,3",
         "111111"),
        (3, 10, 2,
         "0,0,0,1,1,1,1,1,0,0;0,0,0,0,1,0,0,1,2,1;0,0,0,1,0,0,0,1,2,1;"
         "1,1,0,0,0,0,1,2,0,0;0,0,0,1,1,1,0,0,2,0;0,0,0,0,0,0,1,0,1,3",
         "0,0,1,1,0,1,1,2,2,2;0,0,0,0,0,2,0,2,2,4;0,0,0,0,0,1,2,2,4,1;"
         "1,2,2,0,0,2,1,0,1,1;0,0,2,0,2,1,0,0,1,4;0,0,0,0,0,1,6,0,2,1",
         "001101"),
        (4, 10, 4,
         "0,0,0,1,1,1,1,1,0,0;0,0,0,0,1,0,0,1,2,1;0,0,0,1,0,0,0,1,2,1;"
         "1,1,0,0,0,0,1,2,0,0;0,0,0,1,1,1,0,0,2,0;0,0,0,0,0,0,1,0,1,3",
         "1,2,3,2,0,0,1,1,0,0;0,0,0,0,0,0,5,0,3,2;0,0,0,0,0,1,1,6,1,1;"
         "1,2,2,0,0,2,0,1,0,2;3,1,5,1,0,0,0,0,0,0;0,0,0,0,1,1,2,2,3,1",
         "001101"),
        (5, 10, None,
         "0,0,0,0,0,0,1,3,1,0;0,0,0,0,0,0,0,1,0,4;0,0,0,0,0,0,1,0,2,2;"
         "0,0,1,1,0,1,1,0,0,1;0,0,0,0,0,0,0,1,2,2;0,0,0,0,0,0,1,3,0,1",
         "0,1,0,0,1,3,4,0,0,1;0,1,1,0,1,1,1,2,2,1;0,0,0,0,2,0,1,1,2,4;"
         "0,0,1,1,2,0,1,0,2,3;1,1,0,0,2,1,0,2,1,2;0,2,0,1,1,0,0,1,1,4",
         "000000"),
    ]

    @pytest.mark.parametrize("setting,d,pi0,counts1,counts2,flags", GOLDEN)
    def test_counts_bit_identical_every_setting(
        self, setting, d, pi0, counts1, counts2, flags
    ):
        def parse(text):
            return [[int(c) for c in g.split(",")] for g in text.split(";")]

        spec = SettingSpec(setting, d, 6, 5, 10, pi0=pi0, master_seed=7)
        ds, null_flags = generate_replicate(spec, 2)
        assert ds.c1.tolist() == parse(counts1)
        assert ds.c2.tolist() == parse(counts2)
        assert null_flags.tolist() == [f == "1" for f in flags]


def _seed_sequence_rng(spec, *spawn_key):
    """A generator on the stream the determinism contract names, built
    from numpy's SeedSequence."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(spec.master_seed, spawn_key=spawn_key)))


def _reference_counts(spec, r):
    """Replicate ``r``'s counts as the determinism contract states them:
    from the SeedSequence stream, the mixture picks, then one binomial
    call over the groups per category, with array arguments."""
    rng = _seed_sequence_rng(spec, r)
    k, d = spec.k, spec.d
    lib = (np.full((1, d), 1.0 / d) if spec.setting == 1
           else pi_library(d).vectors)
    if spec.setting == 1:
        rows1 = rows2 = np.zeros(k, dtype=np.int64)
    elif spec.setting == 2:
        rows1 = rows2 = rng.integers(0, 5, size=k)
    elif spec.setting == 3:
        raw = rng.integers(0, 5, size=k)
        rows1, rows2 = raw % 4, np.where(raw < 4, raw, spec.pi0 - 1)
    elif spec.setting == 4:
        raw = rng.integers(0, 10, size=k)
        lib = np.vstack([lib, lib[spec.pi0 - 1][::-1]])
        rows1 = (raw // 2) % 4
        rows2 = np.where(raw < 8, raw // 2, np.where(raw == 8, spec.pi0 - 1, 5))
    else:
        rows1, rows2 = rng.integers(0, 5, size=k), rng.integers(0, 5, size=k)
    out = []
    for n, rows in ((spec.n1, rows1), (spec.n2, rows2)):
        p = lib[rows]
        counts = np.empty((k, d), dtype=np.int64)
        remaining = np.full(k, n, dtype=np.int64)
        rest = np.ones(k)
        for j in range(d - 1):
            q = np.divide(p[:, j], rest, out=np.zeros(k), where=rest > 0)
            counts[:, j] = rng.binomial(remaining, np.clip(q, 0.0, 1.0))
            remaining -= counts[:, j]
            rest = rest - p[:, j]
        counts[:, -1] = remaining
        out.append(counts)
    return out


_SETTINGS = ((1, None), (2, None), (3, 2), (3, 4), (4, 2), (4, 4), (5, None))
_DRAW_REPLICATE = simulate._draw_replicate


def _setting_probabilities():
    """Every conditional probability the settings draw with (settings 1-5
    at d = 5 and 10, setting 1 also at d = 2 and 20), and the edge
    values 0, 0.5, 1 - 2**-53 and 1."""
    values = {0.0, 0.5, 1 - 2.0**-53, 1.0}
    for setting, pi0 in _SETTINGS:
        for d in (5, 10):
            values.update(np.ravel(simulate._setting_probs(setting, d, pi0)))
    for d in (2, 20):
        values.update(np.ravel(simulate._setting_probs(1, d, None)))
    return sorted(float(v) for v in values)


def _draw_blocks(spec, blen, first=0):
    """The block draw of replicates ``first..first + blen - 1`` and the
    same replicates drawn one by one by ``_draw_replicate``, each on its
    own stream."""
    keys = variance._stream_keys(spec.master_seed,
                                 np.arange(first, first + blen, dtype=np.uint64))
    block = simulate._draw_block(spec, keys)
    bitgen, rng = variance._stream_rng()
    one_by_one = []
    for key in keys:
        variance._start_stream(bitgen, key)
        one_by_one.append(_DRAW_REPLICATE(spec, rng)[:3])
    return block, one_by_one


def _assert_block_draw_exact(spec, blen, first=0):
    (c1, c2, picks), one_by_one = _draw_blocks(spec, blen, first)
    assert c1.dtype == c2.dtype == np.float64
    for i, (a, b, p) in enumerate(one_by_one):
        assert c1[i].tolist() == a.tolist(), (spec, i)
        assert c2[i].tolist() == b.tolist(), (spec, i)
        assert picks[i].tolist() == p.tolist(), (spec, i)


@pytest.fixture
def replicate_draws(monkeypatch):
    """Counts the replicates the block draw leaves to ``_draw_replicate``."""
    calls = []

    def counting(spec, rng):
        calls.append(spec)
        return _DRAW_REPLICATE(spec, rng)

    monkeypatch.setattr(simulate, "_draw_replicate", counting)
    return calls


@pytest.fixture
def fresh_tables():
    """Clears the block draw's cached tables before and after a test that
    patches what they are built from."""
    simulate._block_tables.cache_clear()
    yield
    simulate._block_tables.cache_clear()


_LOOKUP_SETTINGS = [(1, None, d) for d in (5, 10, 20)] + [
    (setting, pi0, d) for setting, pi0 in _SETTINGS[1:] for d in (5, 10)]


class TestBlockDraw:
    def test_inverse_binomial_matches_numpy(self):
        # n = 0..60, 20 draws each, on two copies of one stream: the search
        # reads one double per draw with n > 0 and p > 0, as numpy's
        # inversion does, and gives numpy's value
        n = np.tile(np.arange(61), 20)
        for i, p in enumerate(_setting_probabilities()):
            key = variance._stream_keys(2024, i)[0]
            (bit_a, rng_a), (bit_b, rng_b) = (variance._stream_rng(),
                                              variance._stream_rng())
            variance._start_stream(bit_a, key)
            variance._start_stream(bit_b, key)
            expected = rng_b.binomial(n, p)
            tables = simulate._inversion_tables(np.array([[p]]), 60)
            active = (n != 0) & (p != 0)
            u = rng_a.random(np.count_nonzero(active))
            x, unsure = simulate._inverse_binomial(
                tables, 0, np.zeros(len(u), dtype=np.int64), n[active], u)
            assert not unsure.any(), p
            drawn = np.zeros_like(n)
            drawn[active] = x
            assert drawn.tolist() == expected.tolist(), p
            assert rng_a.random() == rng_b.random(), p

    @pytest.mark.parametrize("setting, pi0, d", _LOOKUP_SETTINGS)
    def test_lookup_matches_search(self, setting, pi0, d):
        # the lookup gives the search's draws and flags, n = 1..30, on
        # random doubles, on both sides of every bin edge and near every
        # cumulative probability
        tables, lookup = simulate._block_tables(setting, d, pi0, 30)
        cum, bins = tables[1], lookup.shape[-1]
        edges = np.arange(1, bins) / bins
        edges = np.concatenate([[0.0, np.nextafter(0, 1)], edges,
                                np.nextafter(edges, 0), np.nextafter(edges, 1)])
        rng = np.random.default_rng(100 * setting + d)
        cond = simulate._setting_probs(setting, d, pi0)
        for j, col in zip(*np.nonzero(cond)):
            for n in range(1, 31):
                c = cum[j, col, n][np.isfinite(cum[j, col, n])]
                u = np.concatenate([edges, rng.random(256),
                                    c - 2.0**-42, c + 2.0**-42])
                u = u[(u >= 0) & (u < 1)]
                at = (np.full(len(u), col), np.full(len(u), n), u)
                x, unsure = simulate._inverse_binomial(tables, j, *at, lookup)
                x0, unsure0 = simulate._inverse_binomial(tables, j, *at)
                assert x.tolist() == x0.tolist(), (j, col, n)
                assert unsure.tolist() == unsure0.tolist(), (j, col, n)
                assert (lookup[j, col, n] >= 0).mean() > 0.9, (j, col, n)

    def test_lookup_leaves_restarts_to_search(self, monkeypatch, fresh_tables):
        # with the bound forced down to 1, numpy restarts on a draw of 2 or
        # more: the lookup leaves those doubles to the search, which flags them
        tables = simulate._inversion_tables

        def bound_one(cond, n_max):
            flip, cum = tables(cond, n_max)
            cum[..., 2:] = np.inf
            return flip, cum

        monkeypatch.setattr(simulate, "_inversion_tables", bound_one)
        tables, lookup = simulate._block_tables(1, 5, None, 10)
        u = (np.arange(1024) + 0.5) / 1024
        for n in range(2, 11):
            at = (np.zeros(len(u), dtype=np.int64), np.full(len(u), n), u)
            x, unsure = simulate._inverse_binomial(tables, 0, *at, lookup)
            x0, unsure0 = simulate._inverse_binomial(tables, 0, *at)
            assert x.tolist() == x0.tolist() and unsure.tolist() == unsure0.tolist()
            assert unsure[u > tables[1][0, 0, n, 1]].all(), n

    @pytest.mark.parametrize("blen", [1, 16, 1024])
    @pytest.mark.parametrize("index", range(len(_SETTINGS)))
    def test_matches_draw_replicate(self, index, blen, replicate_draws):
        # every setting on the level and power size grids at both d; a
        # full-size block, whose reference draw is slow, on one (d, sizes)
        # of each setting, together covering both d and every size
        setting, pi0 = _SETTINGS[index]
        sizes = sorted(set(simulate._SIZES_LEVEL) | set(simulate._SIZES_POWER))
        cells = [(d, n) for d in (5, 10) for n in sizes]
        if blen == 1024:
            cells = [((5, 10)[index % 2], sizes[index % len(sizes)])]
        for j, (d, (n1, n2)) in enumerate(cells):
            spec = SettingSpec(setting, d, 3, n1, n2, pi0=pi0,
                               master_seed=simulate._cell_seed(15, j))
            _assert_block_draw_exact(spec, blen, first=j * blen)
        assert not replicate_draws

    @pytest.mark.parametrize("d", [2, 20])
    def test_setting_one_dimensions(self, d, replicate_draws):
        for n1, n2 in ((5, 10), (30, 30)):
            _assert_block_draw_exact(SettingSpec(1, d, 20, n1, n2, master_seed=9), 64)
        assert not replicate_draws

    def test_slices(self, monkeypatch, replicate_draws):
        # a block draws its doubles in slices of whole replicates
        spec = SettingSpec(4, 10, 5, 20, 30, pi0=2, master_seed=3)
        monkeypatch.setattr(simulate, "_BOOTSTRAP_DRAWS", 3 * 2 * 5 * 9 + 1)
        _assert_block_draw_exact(spec, 10)
        assert not replicate_draws

    def test_doubles_near_a_boundary_unsettled(self):
        # on either side of a cumulative probability the rounding of
        # numpy's walk decides, so the search must not
        tables = simulate._inversion_tables(np.array([[0.2]]), 10)
        cum = tables[1][0, 0, 10]
        edges = cum[np.isfinite(cum)]
        u = np.concatenate([edges - 2.0**-42, edges + 2.0**-42,
                            (edges[:-1] + edges[1:]) / 2])
        x, unsure = simulate._inverse_binomial(
            tables, 0, np.zeros(len(u), dtype=np.int64), np.full(len(u), 10), u)
        assert unsure[: 2 * len(edges)].all()
        assert not unsure[2 * len(edges):].any()
        assert x[2 * len(edges):].tolist() == list(range(1, len(edges)))

    def test_unsettled_draws_redrawn(self, monkeypatch, replicate_draws,
                                     fresh_tables):
        # a double near a cumulative probability is left to numpy
        monkeypatch.setattr(simulate, "_TIE_MARGIN", 1.0)
        spec = SettingSpec(3, 5, 20, 5, 10, pi0=2, master_seed=4)
        _assert_block_draw_exact(spec, 40)
        assert len(replicate_draws) == 40

    def test_restart_redrawn(self, monkeypatch, replicate_draws, fresh_tables):
        # with the bound forced down to 1, a draw of 2 or more is one that
        # numpy restarts: its replicate is redrawn, the others are not
        tables = simulate._inversion_tables

        def bound_one(cond, n_max):
            flip, cum = tables(cond, n_max)
            cum[..., 2:] = np.inf
            return flip, cum

        monkeypatch.setattr(simulate, "_inversion_tables", bound_one)
        spec = SettingSpec(1, 5, 1, 2, 2, master_seed=5)
        _assert_block_draw_exact(spec, 100)
        assert 0 < len(replicate_draws) < 100

    @pytest.mark.parametrize("n1,n2", [(200, 150), (2**15, 2**15)])
    def test_btpe_cells_draw_one_by_one(self, n1, n2, replicate_draws):
        # where numpy draws by BTPE, not inversion, every replicate goes
        # through _draw_replicate, and no table sized by n is built
        spec = SettingSpec(1, 5, 4, n1, n2, master_seed=6)
        cond = simulate._setting_probs(1, 5, None)
        assert simulate._inversion_tables(cond, max(n1, n2)) is None
        _assert_block_draw_exact(spec, 16)
        assert len(replicate_draws) == 16


def _numerator(a, b, n1, n2):
    # T * n1 (n1 - 1) n2 (n2 - 1) in integers, from the U-statistic's terms
    return (
        a * (a - 1) * n2 * (n2 - 1) + b * (b - 1) * n1 * (n1 - 1)
        - 2 * a * b * (n1 - 1) * (n2 - 1)
    ).sum(axis=-1)


def _statistic(a, b, n1, n2):
    return _batch.tu_group(a / n1, b / n2, float(n1), float(n2))


def _minp_rejections(spec, reps, B, alpha, statistic):
    """Min-p decisions rebuilt from each replicate's dataset and its salt-2
    bootstrap stream, counting T* > T through ``statistic``."""
    n1, n2 = spec.n1, spec.n2
    rejections = 0
    for r in range(reps):
        ds, _ = generate_replicate(spec, r)
        rng = _seed_sequence_rng(spec, r, 2)
        phat = (ds.c1 + ds.c2) / (n1 + n2)
        b1 = rng.multinomial(n1, phat, size=(B, spec.k))
        b2 = rng.multinomial(n2, phat, size=(B, spec.k))
        above = statistic(b1, b2, n1, n2) > statistic(ds.c1, ds.c2, n1, n2)
        rejections += above.mean(axis=0).min() <= alpha / spec.k
    return rejections


def _test7_z(spec, reps, B):
    """test7 z-scores rebuilt from each replicate's dataset and its salt-1
    bootstrap stream, with the statistic written from the U-statistic's
    terms."""
    n1, n2, k = spec.n1, spec.n2, spec.k
    scale = n1 * (n1 - 1) * n2 * (n2 - 1) * math.sqrt(k)
    z = []
    for r in range(reps):
        ds, _ = generate_replicate(spec, r)
        rng = _seed_sequence_rng(spec, r, 1)
        phat = (ds.c1 + ds.c2) / (n1 + n2)
        b1 = rng.multinomial(n1, phat, size=(B, k))
        b2 = rng.multinomial(n2, phat, size=(B, k))
        null = _numerator(b1, b2, n1, n2).sum(axis=-1) / scale
        observed = _numerator(ds.c1, ds.c2, n1, n2).sum() / scale
        z.append(observed / math.sqrt(np.var(null, ddof=1)))
    return np.array(z)


def _block_results(task):
    """``_run_block``'s output with each statistic as its bytes, so that
    NaN and signed zeros compare bit for bit."""
    return {t: (rej, degen, stat.tobytes())
            for t, (rej, degen, stat) in simulate._run_block(task).items()}


class TestChunks:
    """``_run_block`` draws and scores a block in chunks of ``max(1,
    _CHUNK_GROUPS // k)`` replicates; nothing may depend on the chunk
    size."""

    @pytest.mark.parametrize("setting, pi0", [
        (1, None), (2, None), (3, 2), (4, 4), (5, None)])
    def test_results_do_not_depend_on_the_chunk_size(self, setting, pi0,
                                                     monkeypatch):
        # every test id the setting allows (all 13 in the null settings),
        # on a block that starts at replicate 3
        spec = SettingSpec(setting, 5, 6, 5, 10, pi0=pi0,
                           master_seed=simulate._cell_seed(22, setting))
        tests = tuple(t for t in simulate._TESTS
                      if setting in (1, 2) or t not in ("wkprime", "vkprime"))
        moments = {t: simulate._oracle_moments(spec, t, {})
                   for t in ("wkprime", "vkprime") if t in tests}
        task = simulate._CellTask(spec, tests, 3, 23, 0.3, 20, 30, moments, 1)
        whole = _block_results(task)
        assert simulate._CHUNK_GROUPS // spec.k >= 20  # one chunk by default
        assert len(whole) == len(tests)
        for rows in (1, 7):
            monkeypatch.setattr(simulate, "_CHUNK_GROUPS", rows * spec.k)
            assert _block_results(task) == whole, rows

    def test_redrawn_replicates_in_later_chunks(self, monkeypatch,
                                                replicate_draws, fresh_tables):
        # with the bound forced down to 1, numpy restarts on a draw of 2 or
        # more, and the block leaves such replicates to _draw_replicate:
        # more of them than fit in the first chunk of 7, so some are in
        # later chunks, and each must land on its own replicate
        spec = SettingSpec(1, 5, 1, 4, 4, master_seed=5)
        task = simulate._CellTask(spec, ("test1", "test3", "chi2", "vk"), 2,
                                  22, 0.3, 20, 30, {}, 1)
        whole = _block_results(task)
        assert not replicate_draws
        tables = simulate._inversion_tables

        def bound_one(cond, n_max):
            flip, cum = tables(cond, n_max)
            cum[..., 2:] = np.inf
            return flip, cum

        simulate._block_tables.cache_clear()
        monkeypatch.setattr(simulate, "_inversion_tables", bound_one)
        monkeypatch.setattr(simulate, "_CHUNK_GROUPS", 7 * spec.k)
        assert _block_results(task) == whole
        assert 7 < len(replicate_draws) < 20

    def test_replicate_counts_are_c_ordered_int64(self):
        # the engine's counts are views of category-major planes; a
        # replicate's dataset holds its own C-ordered copy
        spec = SettingSpec(4, 10, 30, 20, 30, pi0=2, master_seed=7)
        ds, _ = generate_replicate(spec, 5)
        for c in (ds.c1, ds.c2):
            assert c.dtype == np.int64 and c.shape == (30, 10)
            assert c.flags.c_contiguous and not c.flags.writeable

    def test_classical_tests_skip_the_statistic(self, monkeypatch):
        # tu_r is computed when a test first reads it; chi2, wk, vk,
        # wkprime and vkprime never do
        spec = SettingSpec(2, 5, 20, 5, 10, master_seed=3)
        tests = ("chi2", "wk", "vk", "wkprime", "vkprime")
        moments = {t: simulate._oracle_moments(spec, t, {}) for t in tests[3:]}
        task = simulate._CellTask(spec, tests, 0, 40, 0.3, 20, 30, moments, 1)
        expected = _block_results(task)

        def no_statistic(*args, **kwargs):
            raise AssertionError("the statistic was computed")

        monkeypatch.setattr(_batch, "tu_group", no_statistic)
        assert _block_results(task) == expected


class TestRejectionRateEngine:
    SPEC = SettingSpec(1, 5, 20, 10, 10, master_seed=31)

    @pytest.mark.parametrize("setting, d, pi0", [
        *((s, d, pi0) for d in (5, 10)
          for s, pi0 in ((1, None), (2, None), (3, 2), (4, 4), (5, None))),
        (1, 2, None),
    ])
    def test_block_draws_match_seed_sequence(self, setting, d, pi0,
                                             monkeypatch):
        # a block derives its replicates' keys at once and sets one
        # generator to each; every replicate must be the one its own
        # SeedSequence stream gives
        spec = SettingSpec(setting, d, 13, 4, 9, pi0=pi0,
                           master_seed=simulate._cell_seed(5, 3))
        stacks = []
        stack = simulate._Stack

        def recording(c1, c2, *args, **kwargs):
            stacks.append((c1.copy(), c2.copy()))
            return stack(c1, c2, *args, **kwargs)

        monkeypatch.setattr(simulate, "_Stack", recording)
        task = simulate._CellTask(spec, ("test2",), 37, 43, 0.05, 200, 1000,
                                  {}, 1)
        simulate._run_block(task)
        (c1, c2), = stacks
        for i, r in enumerate(range(37, 43)):
            expected1, expected2 = _reference_counts(spec, r)
            assert c1[i].tolist() == expected1.tolist(), r
            assert c2[i].tolist() == expected2.tolist(), r

    def test_matches_library_decision_path(self):
        # the vectorized engine must agree replicate-by-replicate with
        # the plain library route: generate, test, count; every test that
        # reads only the replicate stream is covered
        reps = 40
        estimators = tuple(f"test{i}" for i in range(1, 7))
        res = estimate_rejection_rate(
            self.SPEC,
            estimators + ("chi2", "wk", "vk", "wkprime", "vkprime"),
            reps=reps,
        )
        uniform = ProbVector(np.full(5, 0.2))
        mom_w = classical.chi_square_moments_oracle(uniform, 10, 10)
        mom_v = classical.lrt_moments_oracle(uniform, 10, 10)
        z95 = ndtri(0.95)
        counts = dict.fromkeys(res, 0)
        for r in range(reps):
            ds, _ = generate_replicate(self.SPEC, r)
            for test in estimators:
                counts[test] += run_global_test(ds, test).reject
            _, p = classical.chi_square_pooled(ds)
            counts["chi2"] += p <= 0.05
            counts["wk"] += classical.wk_statistic(ds) >= z95
            counts["vk"] += classical.vk_statistic(ds) >= z95
            counts["wkprime"] += classical.wk_prime(ds, mom_w) >= z95
            counts["vkprime"] += classical.vk_prime(ds, mom_v) >= z95
        assert 0 < sum(counts.values()) < len(counts) * reps
        for test, result in res.items():
            assert result.rejections == counts[test], test
            assert result.reps == reps
            assert result.rate == pytest.approx(counts[test] / reps)

    def test_se_formula(self):
        res = estimate_rejection_rate(self.SPEC, ("test2",), reps=60)
        r = res["test2"]
        assert r.se == pytest.approx(
            math.sqrt(r.rate * (1 - r.rate) / r.reps)
        )

    def test_worker_count_invariance(self):
        kwargs = dict(reps=64, bootstrap_B=40, minp_B=40)
        one = estimate_rejection_rate(
            self.SPEC, ("test1", "test7", "minp"), workers=1, **kwargs
        )
        three = estimate_rejection_rate(
            self.SPEC, ("test1", "test7", "minp"), workers=3, **kwargs
        )
        for test in one:
            assert one[test].rejections == three[test].rejections, test

    def test_minp_decides_ties_exactly(self):
        # samples of 3 and 4 make ties common, and alpha / k = 0.05 falls
        # between p-values that a floating-point comparison moves
        spec = SettingSpec(1, 5, 10, 3, 4, master_seed=2024)
        res = estimate_rejection_rate(
            spec, ("minp",), reps=60, alpha=0.5, minp_B=50
        )
        exact = _minp_rejections(spec, 60, 50, 0.5, _numerator)
        assert res["minp"].rejections == exact
        rounded = _minp_rejections(spec, 60, 50, 0.5, _statistic)
        assert rounded != exact  # the cell does tell the two apart

    def test_test7_matches_reference(self):
        spec = SettingSpec(3, 5, 20, 5, 10, pi0=4, master_seed=12)
        expected = _test7_z(spec, 30, 200)
        z = null_z_scores(spec, "test7", reps=30)
        np.testing.assert_allclose(z, expected, rtol=1e-9)
        res = estimate_rejection_rate(spec, ("test7",), reps=30)
        assert res["test7"].rejections == np.sum(expected >= ndtri(0.95))
        assert res["test7"].degenerate == 0

    def test_minp_large_totals_compare_floats(self):
        # from n1 n2 = 2**30 the integer numerator could wrap in int64
        spec = SettingSpec(1, 5, 4, 2**15, 2**15, master_seed=6)
        res = estimate_rejection_rate(
            spec, ("minp",), reps=20, alpha=0.6, minp_B=20
        )
        expected = _minp_rejections(spec, 20, 20, 0.6, _statistic)
        assert res["minp"].rejections == expected

    def test_oracle_standardized_tests_demand_null_setting(self):
        spec = SettingSpec(3, 5, 10, 5, 10, pi0=2)
        with pytest.raises(OutOfRange):
            estimate_rejection_rate(spec, ("wkprime",), reps=5)

    def test_precondition_checked_before_sampling(self):
        spec = SettingSpec(1, 5, 10, 3, 30)
        with pytest.raises(SampleTooSmall):
            estimate_rejection_rate(spec, ("test1",), reps=5)
        spec1 = SettingSpec(1, 5, 10, 1, 30)
        with pytest.raises(SampleTooSmall):
            estimate_rejection_rate(spec1, ("test2",), reps=5)

    def test_unknown_test_id(self):
        # a list raised a bare TypeError (unhashable)
        for test in ("test9", ["test1"]):
            with pytest.raises(OutOfRange, match="unknown test id"):
                estimate_rejection_rate(self.SPEC, (test,), reps=5)
            with pytest.raises(OutOfRange, match="unknown test id"):
                null_z_scores(self.SPEC, test, reps=5)

    def test_repeated_test_id(self):
        # a repeated id would count its rejections twice
        with pytest.raises(OutOfRange, match="'test1'"):
            estimate_rejection_rate(self.SPEC, ("test1", "test2", "test1"), reps=5)

    @pytest.mark.parametrize(
        "test,kwargs",
        [("test7", dict(bootstrap_B=0)), ("test7", dict(bootstrap_B=1)),
         ("minp", dict(minp_B=0)), ("minp", dict(minp_B=1)),
         ("test7", dict(bootstrap_B=200.0)), ("minp", dict(minp_B=2.5))],
    )
    def test_bootstrap_size_checked_before_sampling(self, test, kwargs, monkeypatch):
        def no_sampling(*args, **kw):
            raise AssertionError("sampled before the bootstrap size was checked")

        monkeypatch.setattr(simulate, "_replicate_rng", no_sampling)
        monkeypatch.setattr(simulate, "_draw_replicate", no_sampling)
        monkeypatch.setattr(simulate, "_draw_block", no_sampling)
        monkeypatch.setattr(variance, "_stream_keys", no_sampling)
        monkeypatch.setattr(variance, "ThreadPoolExecutor", no_sampling)
        monkeypatch.setattr(variance, "_available_cpus", lambda: 4)
        with pytest.raises(InvalidB):
            estimate_rejection_rate(self.SPEC, ("test1", test), reps=5, **kwargs)

    @pytest.mark.parametrize("alpha", [1.5, 0.0, "0.05", None, True])
    def test_bad_alpha(self, alpha):
        # a string or None raised a bare TypeError
        with pytest.raises(OutOfRange, match="alpha"):
            estimate_rejection_rate(self.SPEC, ("test1",), reps=5, alpha=alpha)
        with pytest.raises(OutOfRange, match="alpha"):
            reproduce_table("tab2", reps=5, alpha=alpha, k_values=[20])

    def test_zero_reps(self):
        with pytest.raises(InvalidReps):
            estimate_rejection_rate(self.SPEC, ("test1",), reps=0)

    @pytest.mark.parametrize("reps", [True, 2.5, 5.0, "5"])
    def test_reps_must_be_an_integer(self, reps):
        # reps=True returned MCResult(reps=True); 2.5 raised a bare TypeError
        with pytest.raises(InvalidReps, match="reps must be an integer >= 1"):
            estimate_rejection_rate(self.SPEC, ("test1",), reps=reps)
        with pytest.raises(InvalidReps, match="reps must be an integer >= 1"):
            null_z_scores(self.SPEC, "test1", reps=reps)
        with pytest.raises(InvalidReps, match="reps must be an integer >= 1"):
            reproduce_table("tab2", reps=reps, k_values=[20],
                            size_pairs=[(5, 10)])

    def test_numpy_reps_accepted(self):
        res = estimate_rejection_rate(self.SPEC, ("test1",), reps=np.int64(7))
        assert res["test1"].reps == 7 and type(res["test1"].reps) is int

    def test_degenerate_replicates_counted(self):
        # n1 = n2 = 2 with d = 5 produces many zero-variance replicates
        spec = SettingSpec(1, 5, 3, 2, 2, master_seed=8)
        res = estimate_rejection_rate(spec, ("test5",), reps=200)
        assert res["test5"].degenerate > 0

    def test_null_z_scores_standardized(self):
        spec = SettingSpec(1, 5, 200, 30, 30, master_seed=77)
        z = null_z_scores(spec, "test1", reps=300)
        assert z.shape == (300,)
        assert np.all(np.isfinite(z))
        assert abs(np.mean(z)) < 0.2
        assert 0.7 < np.var(z) < 1.3

    # float.hex of null_z_scores(SettingSpec(1, d, 30, 5, 10,
    # master_seed=17), test, reps=3, workers=1): at d = 10 and 20 numpy
    # sums the categories in eight running sums, so these pin that order
    Z_GOLDEN = {
        (10, "test1"): ["0x1.61cb362c356edp+0", "-0x1.59b7a9b2fe4e6p-1",
                        "0x1.e6715d70f7c15p-2"],
        (10, "test2"): ["0x1.63347f0254eb2p+0", "-0x1.4a596de419b26p-1",
                        "0x1.fec3b300b5d05p-2"],
        (10, "test3"): ["0x1.586e592fde480p+0", "-0x1.50960927f136ep-1",
                        "0x1.eeeed7c4664a6p-2"],
        (20, "test1"): ["-0x1.c9d590b331f2fp-2", "-0x1.eb417e5f7053bp+0",
                        "0x1.ef22988eb5472p-2"],
        (20, "test2"): ["-0x1.a586a1c2abc81p-2", "-0x1.b0513526c82a5p+0",
                        "0x1.0794c97aa3257p-1"],
        (20, "test3"): ["-0x1.a8dd047532560p-2", "-0x1.d737fd37f5080p+0",
                        "0x1.065f48883088cp-1"],
    }

    @pytest.mark.parametrize("d, test", sorted(Z_GOLDEN))
    def test_null_z_scores_golden(self, d, test):
        spec = SettingSpec(1, d, 30, 5, 10, master_seed=17)
        z = null_z_scores(spec, test, reps=3, workers=1)
        assert [float(v).hex() for v in z] == self.Z_GOLDEN[(d, test)]

    def test_null_z_scores_only_for_variance_tests(self):
        with pytest.raises(OutOfRange):
            null_z_scores(self.SPEC, "wk", reps=10)


class TestOracleStandardization:
    def test_wkprime_centered_and_scaled(self):
        # with exact per-vector moments the standardized aggregate should
        # be close to mean 0, variance 1 across replicates; verify via
        # the library route on a handful of replicates
        spec = SettingSpec(2, 5, 100, 5, 10, master_seed=55)
        lib = pi_library(5)
        moments = {
            i: classical.chi_square_moments_oracle(lib.vector(i + 1), 5, 10)
            for i in range(5)
        }
        values = []
        for r in range(60):
            ds, _ = generate_replicate(spec, r)
            # recover each group's library vector by likelihood: not
            # observable, so standardize with the mixture-average moments
            mean = float(np.mean([m.mean for m in moments.values()]))
            var = float(np.mean([m.variance for m in moments.values()]))
            values.append(
                classical.wk_prime(ds, classical.MomentPair(mean, var))
            )
        assert abs(np.mean(values)) < 0.5

    def test_engine_wkprime_agrees_with_manual_standardization(self):
        # setting 1: single known vector, so the engine's moment indexing
        # reduces to a constant; rebuild the rejection decision by hand
        spec = SettingSpec(1, 5, 30, 5, 10, master_seed=41)
        res = estimate_rejection_rate(spec, ("wkprime", "vkprime"), reps=25)
        piv = ProbVector(np.full(5, 0.2))
        mom_w = classical.chi_square_moments_oracle(piv, 5, 10)
        mom_v = classical.lrt_moments_oracle(piv, 5, 10)
        z95 = ndtri(0.95)
        count_w = count_v = 0
        for r in range(25):
            ds, _ = generate_replicate(spec, r)
            count_w += classical.wk_prime(ds, mom_w) >= z95
            count_v += classical.vk_prime(ds, mom_v) >= z95
        assert res["wkprime"].rejections == count_w
        assert res["vkprime"].rejections == count_v


class TestReproduceTable:
    def test_table_ids_registered(self):
        assert set(TABLE_IDS) == {
            "tab2", "tab3", "tab4", "tab5", "tab6",
            "rev1", "rev2", "rev3",
            "tab8", "tab88", "trv1", "trv2",
            "power1", "power2", "power3", "powerCM",
        }

    def test_unknown_table(self):
        # a list raised a bare TypeError (unhashable)
        for table_id in ("tab99", ["tab2"]):
            with pytest.raises(UnknownTable):
                reproduce_table(table_id, reps=2)

    def test_exact_moments_once_per_call(self, monkeypatch):
        # oracle moments depend on neither k nor the cell seed: one
        # computation serves every k row of a call, and none the next call
        calls = []
        oracle = classical.lrt_moments_oracle

        def counting(pi, n1, n2):
            calls.append((n1, n2))
            return oracle(pi, n1, n2)

        monkeypatch.setattr(classical, "lrt_moments_oracle", counting)
        for _ in range(2):
            res = reproduce_table("trv2", reps=5, size_pairs=[(5, 10)],
                                  d_values=[5], workers=1)
            assert len(res.rows) == len(simulate._K_LEVEL)
        assert calls == [(5, 10)] * 2

    def test_progress_reports_each_cell_before_it_runs(self, monkeypatch):
        events = []
        run_cell = simulate._run_cell

        def recording(cell, run):
            events.append(("run", cell.spec.k, cell.spec.n1, cell.spec.n2))
            return run_cell(cell, run)

        monkeypatch.setattr(simulate, "_run_cell", recording)
        res = reproduce_table("tab2", reps=4, k_values=[50, 20],
                              size_pairs=[(10, 10), (5, 10)],
                              progress=events.append)
        grid = [(50, 10, 10), (50, 5, 10), (20, 10, 10), (20, 5, 10)]
        assert [(r["k"], r["n1"], r["n2"]) for r in res.rows] == grid
        assert events == [
            event
            for i, (k, n1, n2) in enumerate(grid)
            for event in (f"tab2: cell {i + 1} (setting 1, d=5, k={k}, "
                          f"sizes=({n1},{n2}))", ("run", k, n1, n2))
        ]

    def test_level_table_layout(self, tmp_path):
        res = reproduce_table(
            "tab2", reps=5, seed=3, outdir=tmp_path,
            k_values=[20], size_pairs=[(5, 10), (10, 10)],
        )
        assert res.columns[:3] == ("k", "n1", "n2")
        assert "test1" in res.columns and "se_test3" in res.columns
        assert len(res.rows) == 2
        for row in res.rows:
            for t in ("test1", "test2", "test3"):
                assert 0.0 <= row[t] <= 1.0
        # artifacts
        lines = (tmp_path / "tab2.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(res.columns)
        assert len(lines) == 3
        sidecar = json.loads((tmp_path / "tab2.json").read_text())
        assert sidecar["table"] == "tab2"
        assert sidecar["seed"] == 3
        assert sidecar["reps"] == 5
        assert sidecar["k_values"] == [20]
        assert "generated_utc" in sidecar

    def test_git_described_once_per_process(self, tmp_path, monkeypatch):
        # the sidecar records the revision of the code the process imported
        calls = []
        run = subprocess.run

        def counting(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        simulate._git_describe.cache_clear()
        monkeypatch.setattr(subprocess, "run", counting)
        try:
            for _ in range(2):
                reproduce_table("tab2", reps=5, outdir=tmp_path,
                                k_values=[20], size_pairs=[(5, 10)])
        finally:
            simulate._git_describe.cache_clear()
        assert len(calls) == 1

    def test_numpy_integer_arguments_written_as_integers(self, tmp_path):
        # the sidecar write raised TypeError on numpy integers, after the run
        args = dict(reps=np.int64(5), seed=np.uint64(3),
                    k_values=[np.int64(20)], size_pairs=[(np.int16(5), 10)])
        res = reproduce_table("tab2", outdir=tmp_path, **args)
        sidecar = json.loads((tmp_path / "tab2.json").read_text())
        assert (sidecar["reps"], sidecar["seed"]) == (5, 3)
        assert sidecar["k_values"] == [20]
        assert sidecar["size_pairs"] == [[5, 10]]
        assert res.rows == reproduce_table("tab2", reps=5, seed=3, k_values=[20],
                                           size_pairs=[(5, 10)]).rows

    def test_sidecar_records_the_alpha_the_run_used(self, tmp_path):
        # json.dump(default=int) wrote a float32 alpha as 0
        res = reproduce_table("tab2", reps=5, alpha=np.float32(0.25),
                              outdir=tmp_path, k_values=[20], size_pairs=[(5, 10)])
        sidecar = json.loads((tmp_path / "tab2.json").read_text())
        assert sidecar["alpha"] == float(np.float32(0.25))
        assert res.rows == reproduce_table("tab2", reps=5, alpha=0.25, k_values=[20],
                                           size_pairs=[(5, 10)]).rows

    def test_csv_file_bytes(self, tmp_path):
        reproduce_table("tab2", reps=40, seed=3, outdir=tmp_path,
                        k_values=[20], size_pairs=[(5, 10), (10, 10)])
        reproduce_table("power1", reps=40, seed=3, outdir=tmp_path,
                        k_values=[20], size_pairs=[(5, 5)], d_values=[5])
        assert (tmp_path / "tab2.csv").read_bytes() == (
            b"k,n1,n2,test1,test2,test3,se_test1,se_test2,se_test3\n"
            b"20,5,10,0.075,0.075,0.075,0.0416458,0.0416458,0.0416458\n"
            b"20,10,10,0.025,0.025,0.025,0.0246855,0.0246855,0.0246855\n"
        )
        assert (tmp_path / "power1.csv").read_bytes() == (
            b"d,k,n1,n2,pi2_test1,pi2_test2,pi2_test3,pi2_chi2,pi4_test1,"
            b"pi4_test2,pi4_test3,pi4_chi2,se_pi2_test1,se_pi2_test2,"
            b"se_pi2_test3,se_pi2_chi2,se_pi4_test1,se_pi4_test2,se_pi4_test3,"
            b"se_pi4_chi2\n"
            b"5,20,5,5,0.125,0.125,0.1,0.05,0.025,0.075,0.05,0.1,0.0522913,"
            b"0.0522913,0.0474342,0.0344601,0.0246855,0.0416458,0.0344601,"
            b"0.0474342\n"
        )

    def test_by_dimension_layout(self):
        res = reproduce_table(
            "tab8", reps=4, k_values=[20], size_pairs=[(10, 10)],
            d_values=[5, 10],
        )
        assert res.columns == ("k", "n1", "n2", "d5", "d10", "se_d5", "se_d10")
        assert len(res.rows) == 1

    def test_power_table_layout(self):
        res = reproduce_table(
            "power1", reps=4, k_values=[20], size_pairs=[(5, 5)],
            d_values=[5],
        )
        row = res.rows[0]
        for col in ("pi2_test1", "pi4_chi2", "se_pi2_test3"):
            assert col in res.columns and col in row

    def test_minp_table_layout(self):
        res = reproduce_table(
            "powerCM", reps=3, k_values=[20], size_pairs=[(5, 5)],
            d_values=[5],
        )
        assert set(res.columns) >= {
            "d5_s31", "d5_s32", "d5_s41", "d5_s42", "d5_s5",
        }

    def test_grid_restriction_validated(self):
        with pytest.raises(OutOfRange):
            reproduce_table("tab2", reps=2, k_values=[33])
        # a repeated value would run one cell twice, as two rows
        for kwargs in (dict(k_values=[20, 20]), dict(d_values=[5, 5]),
                       dict(size_pairs=[(5, 10), (5, 10)])):
            with pytest.raises(OutOfRange, match="repeats"):
                reproduce_table("tab8", reps=2, **kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(size_pairs=[(5, 10), (1, 2)]),
         r"outside the table grid: sizes=\[\(1, 2\)\]$"),
        (dict(k_values=[20], d_values=[5, 7]),
         r"outside the table grid: d=\[7\]$"),
        (dict(k_values=[50, 33, 20, 50]),
         r"outside the table grid: k=\[33\]$"),
        (dict(k_values=[50, 20, 50]), r"repeats a value: k=\[50, 20, 50\]$"),
        # these raised a bare TypeError
        (dict(k_values=[[20]]), r"^k must be a non-negative integer, got \[20\]$"),
        (dict(size_pairs=[5]), r"^a size pair must be \(n1, n2\), got 5$"),
        (dict(size_pairs=[([5], 10)]), r"^n1 must be a non-negative integer"),
        (dict(d_values=[5.0]), r"^d must be a non-negative integer, got 5.0$"),
    ])
    def test_restriction_error_names_the_axis(self, kwargs, message):
        with pytest.raises(OutOfRange, match=message):
            reproduce_table("tab8", reps=2, **kwargs)

    def test_restricted_grid_reproduces_table_cells(self):
        # each cell is seeded from its place in the full grid, whatever
        # part of the grid is run and in whatever order
        kwargs = dict(reps=400, seed=0)
        prefix = reproduce_table("tab2", k_values=[20, 50], **kwargs).rows
        alone = reproduce_table("tab2", k_values=[50], size_pairs=[(5, 10)],
                                **kwargs).rows
        swapped = reproduce_table("tab2", k_values=[50, 20], **kwargs).rows
        assert alone == prefix[4:5]
        assert swapped == prefix[4:] + prefix[:4]
        by_d = reproduce_table("tab8", reps=40, k_values=[20],
                               size_pairs=[(10, 10)], d_values=[10, 5]).rows
        full = reproduce_table("tab8", reps=40, k_values=[20],
                               size_pairs=[(5, 10), (10, 10)]).rows
        assert by_d[0]["d5"] == full[1]["d5"]
        assert by_d[0]["d10"] == full[1]["d10"]

    def test_deterministic_given_seed(self):
        kwargs = dict(reps=6, k_values=[20], size_pairs=[(5, 10)])
        a = reproduce_table("tab2", seed=9, **kwargs)
        b = reproduce_table("tab2", seed=9, **kwargs)
        assert a.rows == b.rows

    def test_table_seed_reaches_the_cells(self):
        # each cell's master seed is derived from the table seed, so
        # distinct table seeds must produce distinct cell streams
        from grouphom.simulate import _cell_seed

        seeds_a = {_cell_seed(9, i) for i in range(10)}
        seeds_b = {_cell_seed(10, i) for i in range(10)}
        assert len(seeds_a) == 10
        assert not (seeds_a & seeds_b)


_KNN = ("k", "n1", "n2")
_T13 = ("test1", "test2", "test3")
_T47 = ("test4", "test5", "test6", "test7")
_BY_D = ("d5", "d10", "d20")
_PI = tuple(f"pi{p}_{t}" for p in (2, 4) for t in _T13 + ("chi2",))
_POWER3 = tuple(f"d{d}_{t}" for d in (5, 10) for t in _T13 + ("chi2",))
_MINP = tuple(f"d{d}_{v}" for d in (5, 10)
              for v in ("s31", "s32", "s41", "s42", "s5"))


class TestTableGrids:
    """Every table's full reference grid: its columns, its row count and a
    SHA-256 of its cells, each as ``(row index, spec, tests, {column:
    test})``.  Each cell's seed comes from its spec's place in this grid,
    so the digest pins the cell seeds too."""

    # table: (row keys, value columns, rows, digest of the cells)
    GOLDEN = {
        "tab2": (_KNN, _T13, 24,
                 "0245eac8a95d201e181ecf78e1cea5f743e3c06d8388117c631cf926389089ec"),
        "tab3": (_KNN, _T13, 24,
                 "8d751160efc9ed380ffe9e35984b622ce95e28759d7832a53881cf64a5acec52"),
        "tab4": (_KNN, _T13, 24,
                 "b3cab20d21b2e5eb4e2a8e0388560ea96e54b24b8ca4c64d2a5edf4e747079d6"),
        "tab5": (_KNN, _T13, 24,
                 "add1f659d3ebc195f9631f2e0aad3781fa5a3130f387d4f71973efdc62439345"),
        "tab6": (_KNN, _T13, 24,
                 "a361fe26695b652a94191708770dd9f089179e76c9bac93d530c5aba1c1ff3c0"),
        "rev1": (_KNN, _T47, 24,
                 "131dd8ff19e95554b6f46265e60f158f7757dcc94a84b6beb755fabf7538806e"),
        "rev2": (_KNN, _T47, 24,
                 "63e7e82cf112b6ce01a9f54d0db12fe98e0909c0b651695ad6efe55cc6ea35d4"),
        "rev3": (_KNN, _T47, 24,
                 "5866ecaad3097204930f5ff40fba6b41bf373d9b69f2cd51a711d2dc21413367"),
        "tab8": (_KNN, _BY_D, 24,
                 "d8beb12bccd5dfe97b7f35e0ffd4a0ccb81aea301605f621657e0046d5eb52e4"),
        "tab88": (_KNN, _BY_D, 24,
                 "1f8f133d81453e74bf4b04ba9a214623ceaadbb128d690a1cb7c549fe5589a16"),
        "trv1": (_KNN, _BY_D, 24,
                 "5705e684b26cdadd15e6cbe76a80a1dff7c4a10775743906a340a6eccd933ec6"),
        "trv2": (_KNN, _BY_D, 24,
                 "57167e5ac68428458e165e7f12f7987d28b08701f7d430e864e3d3aea64f7325"),
        "power1": (("d",) + _KNN, _PI, 30,
                 "969eda2be935a5b05952d596fee66729e581259db0ad1df0323a8f01abe48b92"),
        "power2": (("d",) + _KNN, _PI, 30,
                 "679de449cf87937ab50799d09741baa0799a4e277f9494482a14f9d405282fe9"),
        "power3": (_KNN, _POWER3, 15,
                 "91b7471da8d3c51fc50e6725da5484029bed6ff0fd8ab85bd2f0ee00d0c29313"),
        "powerCM": (_KNN, _MINP, 15,
                 "95e419d2ee4a7f1af9679554db239b582cbc552feedc508c49c7d823e0b44962"),
    }

    @pytest.mark.parametrize("table_id", TABLE_IDS)
    def test_full_grid(self, table_id):
        head, values, n_rows, digest = self.GOLDEN[table_id]
        table = simulate._TABLES[table_id]
        columns, rows, cells = simulate._table_cells(
            table, table.k_values, table.sizes, table.d_values)
        assert tuple(columns) == head + values + tuple(f"se_{c}" for c in values)
        assert len(rows) == n_rows
        assert all(tuple(row) == head for row in rows)
        index = {id(row): i for i, row in enumerate(rows)}
        cells = repr([(index[id(row)], spec, tests, columns_to_tests)
                      for row, spec, tests, columns_to_tests in cells])
        assert hashlib.sha256(cells.encode()).hexdigest() == digest


class _PoolCounter:
    """Stands in for ``multiprocessing`` inside ``grouphom.simulate`` and
    records the size and initializer of each worker pool started, and the
    threads alive when it would fork.  Inline pools run their blocks in
    this process, start none and never run the initializer."""

    def __init__(self, inline):
        self.sizes = []
        self.threads_at_fork = []
        self.initializers = []
        self.inline = inline

    def get_context(self, method):
        assert method == "fork"
        return self

    def Pool(self, processes, initializer=None):
        self.sizes.append(processes)
        self.threads_at_fork.append(threading.active_count())
        self.initializers.append(initializer)
        if self.inline:
            return _InlinePool()
        return multiprocessing.get_context("fork").Pool(
            processes, initializer=initializer)


class _InlinePool:
    def map(self, fn, items):
        return [fn(item) for item in items]

    def imap(self, fn, items, chunksize=1):
        return map(fn, items)

    def terminate(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.terminate()


@pytest.fixture
def pools(monkeypatch):
    def install(inline=False):
        counter = _PoolCounter(inline)
        monkeypatch.setattr(simulate, "multiprocessing", counter)
        return counter

    return install


class TestWorkerPools:
    # tab2 at seed 11, k = 20, 1100 replicates (two blocks per cell):
    # rejections of tests 1-3 per size pair
    GOLDEN_TAB2 = {(5, 10): (70, 74, 68), (10, 10): (61, 63, 59)}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_table_rows_golden_one_pool(self, pools, workers):
        counter = pools()
        res = reproduce_table(
            "tab2", reps=1100, seed=11, workers=workers, k_values=[20],
            size_pairs=[(5, 10), (10, 10)],
        )
        assert counter.sizes == ([] if workers == 1 else [2])
        for row in res.rows:
            expected = self.GOLDEN_TAB2[(row["n1"], row["n2"])]
            for test, count in zip(("test1", "test2", "test3"), expected):
                rate = count / 1100
                assert row[test] == rate
                assert row[f"se_{test}"] == math.sqrt(rate * (1 - rate) / 1100)

    def test_single_block_table_starts_no_pool(self, pools):
        counter = pools()
        kwargs = dict(reps=40, seed=5, k_values=[20, 50],
                      size_pairs=[(5, 10), (10, 10)])
        res = reproduce_table("tab2", workers=2, **kwargs)
        assert counter.sizes == []
        assert res.rows == reproduce_table("tab2", workers=1, **kwargs).rows

    def test_pool_sized_to_blocks(self, pools):
        counter = pools(inline=True)
        kwargs = dict(reps=1025, seed=5, k_values=[20], size_pairs=[(5, 10)])
        res = reproduce_table("tab2", workers=8, **kwargs)
        spec = SettingSpec(1, 5, 20, 5, 10, master_seed=3)
        cell = estimate_rejection_rate(spec, ("test2",), reps=1025, workers=8)
        assert counter.sizes == [2, 2]
        assert res.rows == reproduce_table("tab2", workers=1, **kwargs).rows
        one = estimate_rejection_rate(spec, ("test2",), reps=1025, workers=1)
        assert cell["test2"].rejections == one["test2"].rejections

    @pytest.mark.parametrize("value", ["two", "0", "1.5", ""])
    def test_worker_variable_checked(self, monkeypatch, pools, value):
        counter = pools(inline=True)
        monkeypatch.setenv("MH_WORKERS", value)
        spec = SettingSpec(1, 5, 10, 5, 10)
        with pytest.raises(OutOfRange, match="MH_WORKERS"):
            estimate_rejection_rate(spec, ("test2",), reps=5)
        with pytest.raises(OutOfRange, match="MH_WORKERS"):
            reproduce_table("tab2", reps=5, k_values=[20])
        with pytest.raises(OutOfRange, match="workers"):
            estimate_rejection_rate(spec, ("test2",), reps=5, workers=value)
        assert counter.sizes == []

    @pytest.mark.parametrize("value", [2.7, 2.0, True, False])
    def test_worker_count_must_be_an_integer(self, pools, value):
        counter = pools(inline=True)
        spec = SettingSpec(1, 5, 10, 5, 10)
        with pytest.raises(OutOfRange, match="workers"):
            estimate_rejection_rate(spec, ("test2",), reps=5, workers=value)
        with pytest.raises(OutOfRange, match="workers"):
            reproduce_table("tab2", reps=5, k_values=[20], workers=value)
        assert counter.sizes == []

    @pytest.mark.parametrize("bad", [
        dict(alpha=1.5), dict(reps=0), dict(tests=("test2", "nope")),
        dict(tests=("minp",), minp_B=1), dict(spec="x"), dict(spec=None),
    ])
    def test_bad_arguments_raise_before_any_pool(self, pools, bad):
        # reproduce_table forked its pool before the cells' checks ran; a
        # spec that is not a SettingSpec raised a bare AttributeError
        counter = pools()
        kwargs = {"reps": 2000, "alpha": 0.05, **bad}
        spec = kwargs.pop("spec", SettingSpec(1, 5, 20, 5, 10))
        tests = kwargs.pop("tests", ("test2",))
        error = (InvalidReps if "reps" in bad else InvalidB if "minp_B" in bad
                 else OutOfRange)
        with pytest.raises(error):
            estimate_rejection_rate(spec, tests, workers=2, **kwargs)
        if "spec" in bad:
            with pytest.raises(error, match="SettingSpec"):
                null_z_scores(spec, reps=kwargs["reps"], workers=2)
        elif "tests" not in bad:
            with pytest.raises(error):
                reproduce_table("tab2", workers=2, k_values=[20],
                                size_pairs=[(5, 10)], **kwargs)
        assert counter.sizes == []

    def test_every_cell_checked_before_any_runs(self, pools, monkeypatch):
        counter = pools()
        ran = []
        monkeypatch.setattr(simulate, "_run_block", ran.append)
        cells = [(SettingSpec(1, 5, 20, 5, 10), ("test2",)),
                 (SettingSpec(1, 5, 20, 3, 10), ("test1",))]
        with pytest.raises(SampleTooSmall):
            simulate._run_cells(cells, 2000, 0.05, 2, 200, 1000)
        assert counter.sizes == [] and ran == []

    def test_numpy_and_decimal_worker_counts_accepted(self, monkeypatch, pools):
        counter = pools(inline=True)
        monkeypatch.setattr(simulate, "_block_size", lambda spec: 3)
        spec = SettingSpec(1, 5, 10, 5, 10)
        one = estimate_rejection_rate(spec, ("test2",), reps=6, workers=1)
        two = estimate_rejection_rate(spec, ("test2",), reps=6,
                                      workers=np.int64(2))
        monkeypatch.setenv("MH_WORKERS", "2")
        env = estimate_rejection_rate(spec, ("test2",), reps=6)
        assert counter.sizes == [2, 2]
        for res in (two, env):
            assert res["test2"].rejections == one["test2"].rejections


def _one_two_three_blocks(*ks):
    """A ``_block_size`` that splits 30 replicates of the cells of ``ks``
    into 1, 2, 3, 1, 2, 3 ... blocks."""
    sizes = {k: 30 // (1 + i % 3) for i, k in enumerate(ks)}
    return lambda spec: sizes[spec.k]


class TestBlockStream:
    """A pool runs every cell's blocks as one stream; each cell is
    reduced from its own blocks, in cell order, to the one-process bits."""

    TABLE = dict(reps=30, seed=13, k_values=[20, 50, 100],
                 size_pairs=[(5, 10), (10, 10)])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_equals_one_process(self, pools, monkeypatch, workers):
        monkeypatch.setattr(simulate, "_block_size",
                            _one_two_three_blocks(20, 50, 100, 2, 3, 4))
        counter = pools()
        one = reproduce_table("tab2", workers=1, **self.TABLE)
        assert reproduce_table("tab2", workers=workers, **self.TABLE).rows == one.rows
        spec = SettingSpec(1, 5, 4, 2, 2, master_seed=8)
        z = null_z_scores(spec, "test2", reps=30, workers=workers)
        assert z.tobytes() == null_z_scores(spec, "test2", reps=30, workers=1).tobytes()
        # n1 = n2 = 2: every cell has zero-variance replicates
        cells = [(SettingSpec(1, 5, k, 2, 2, master_seed=8), ("test2", "test5"))
                 for k in (2, 3, 4)]
        pooled, serial = (simulate._run_cells(cells, 30, 0.05, w, 200, 1000)
                          for w in (workers, 1))
        for (res, stats), (res1, stats1) in zip(pooled, serial):
            for t in ("test2", "test5"):
                assert res[t].degenerate == res1[t].degenerate > 0
                assert res[t].rejections == res1[t].rejections
                assert stats[t].tobytes() == stats1[t].tobytes()
        assert counter.sizes == [workers] * 3
        assert counter.initializers == [simulate._keep_heap] * 3

    def test_each_block_runs_once(self, pools, monkeypatch):
        counter = pools(inline=True)
        monkeypatch.setattr(simulate, "_block_size",
                            _one_two_three_blocks(20, 50, 100))
        ran = []
        run_block = simulate._run_block

        def recording(task):
            ran.append((task.spec.k, task.start, task.stop, task.processes))
            return run_block(task)

        monkeypatch.setattr(simulate, "_run_block", recording)
        kwargs = {**self.TABLE, "size_pairs": [(5, 10)]}
        res = reproduce_table("tab2", workers=3, **kwargs)
        assert counter.sizes == [3]
        assert ran == [(20, 0, 30, 3), (50, 0, 15, 3), (50, 15, 30, 3),
                       (100, 0, 10, 3), (100, 10, 20, 3), (100, 20, 30, 3)]
        monkeypatch.setattr(simulate, "_run_block", run_block)
        assert res.rows == reproduce_table("tab2", workers=1, **kwargs).rows

    def test_progress_keeps_cell_order(self, pools, monkeypatch):
        counter = pools()
        monkeypatch.setattr(simulate, "_block_size",
                            _one_two_three_blocks(20, 50, 100))
        lines = []
        reproduce_table("tab2", workers=2, progress=lines.append, **self.TABLE)
        assert counter.sizes == [2]
        grid = [(k, n1, n2) for k in (20, 50, 100) for n1, n2 in ((5, 10), (10, 10))]
        assert lines == [f"tab2: cell {i + 1} (setting 1, d=5, k={k}, "
                         f"sizes=({n1},{n2}))"
                         for i, (k, n1, n2) in enumerate(grid)]

    def test_keep_heap_sets_both_thresholds(self, monkeypatch):
        calls = []

        class Mallopt:
            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        class Libc:
            mallopt = Mallopt()

        monkeypatch.setattr(simulate.ctypes, "CDLL", lambda name: Libc())
        simulate._keep_heap()
        assert calls == list(simulate._MALLOPT)
        # glibc's M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, the latter no
        # higher than glibc's own dynamic threshold goes on 64-bit hosts
        settings = dict(calls)
        assert sorted(settings) == [-3, -1]
        assert settings[-3] <= 32 << 20 <= settings[-1]
        assert Libc.mallopt.argtypes == (simulate.ctypes.c_int,) * 2
        assert Libc.mallopt.restype is simulate.ctypes.c_int

    def test_keep_heap_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(simulate.ctypes, "CDLL", lambda name: object())
        assert simulate._keep_heap() is None


def _bootstrap_statistics(spec, reps, B):
    """Each replicate's ``test7`` z-score and smallest ``minp`` p-value."""
    [(_, stats)] = simulate._run_cells(
        [(spec, ("test7", "minp"))], reps, 0.05, 1, B, B,
    )
    return stats["test7"], stats["minp"]


@pytest.fixture
def executors(monkeypatch):
    """On ``cpus`` CPUs, the list of every bootstrap thread pool's size."""
    executor = variance.ThreadPoolExecutor

    def install(cpus):
        sizes = []

        class Recording(executor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(variance, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(variance, "ThreadPoolExecutor", Recording)
        return sizes

    return install


class TestThreadedBootstraps:
    """The engine's ``test7`` and ``minp`` bootstraps draw their
    replicates on ``max(1, CPUs // processes)`` threads; every output
    must be bit-identical at any thread count."""

    @pytest.mark.parametrize("spec, B", [
        *((SettingSpec(1, 5, 50, 5, 10, master_seed=21), B)
          for B in (2, 7, 1000)),
        # 16384 // 50 = 327 rows a piece: B = 1000 is drawn as 3 * 327 + 19
        *((SettingSpec(3, 5, 50, 5, 10, pi0=4, master_seed=22), B)
          for B in (2, 7, 1000)),
        # 16384 // 3000 = 5 rows a piece: B = 7 is drawn as 5 + 2
        (SettingSpec(3, 5, 3000, 5, 10, pi0=2, master_seed=23), 7),
    ])
    @pytest.mark.parametrize("reps", [1, 2, 9])
    def test_bit_identical_at_any_thread_count(self, spec, B, reps,
                                               executors):
        sizes = executors(1)
        serial = _bootstrap_statistics(spec, reps, B)
        assert sizes == []
        for cpus in (2, 3):
            executors(cpus)
            z, p = _bootstrap_statistics(spec, reps, B)
            np.testing.assert_array_equal(z, serial[0])
            np.testing.assert_array_equal(p, serial[1])

    def test_slots_not_reused_early_under_contention(self, executors):
        # more threads than cores and a switch every microsecond: a
        # replicate whose buffers were refilled before the caller reduced
        # them would change the result
        spec = SettingSpec(3, 5, 30, 5, 10, pi0=4, master_seed=24)
        executors(1)
        serial = _bootstrap_statistics(spec, 40, 60)
        sizes = executors(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            z, p = _bootstrap_statistics(spec, 40, 60)
        finally:
            sys.setswitchinterval(interval)
        assert sizes == [8, 8]
        np.testing.assert_array_equal(z, serial[0])
        np.testing.assert_array_equal(p, serial[1])

    def test_golden(self, monkeypatch):
        # recorded when each replicate's bootstrap was drawn serially
        monkeypatch.setattr(variance, "_available_cpus", lambda: 3)
        spec = SettingSpec(3, 5, 50, 5, 10, pi0=2, master_seed=4242)
        z, p = _bootstrap_statistics(spec, 12, 1000)
        assert z[:3].tolist() == [
            0.1935332093684213, 0.14892309619055408, 0.553666936317501]
        assert p[:3].tolist() == [0.011, 0.011, 0.008]
        assert hashlib.sha256(z.tobytes() + p.tobytes()).hexdigest() == (
            "f7c7107c7ff6c12a07b3e30e09a2ba0b6dbb3937eb959ef645d4e0bda73ca3de"
        )

    @pytest.mark.parametrize("cpus, workers, reps, block, threads", [
        (2, 1, 6, 1024, [2]),  # in this process: one thread per CPU
        (3, 1, 2, 1024, [2]),  # no more threads than replicates
        (4, 1, 1, 1024, []),  # one replicate: the calling thread draws
        (1, 1, 6, 1024, []),
        (4, 3, 6, 6, [4]),  # one block runs in this process
        (2, 2, 6, 3, []),  # two processes on two CPUs: one thread each
        (8, 2, 6, 3, [3, 3]),
        (8, 3, 6, 3, [3, 3]),  # a pool of two: only two blocks
        (8, 4, 6, 2, [2, 2, 2]),
    ])
    def test_threads_per_process(self, cpus, workers, reps, block, threads,
                                 executors, pools, monkeypatch):
        counter = pools(inline=True)
        sizes = executors(cpus)
        monkeypatch.setattr(simulate, "_block_size", lambda spec: block)
        spec = SettingSpec(1, 5, 20, 5, 10, master_seed=4)
        estimate_rejection_rate(spec, ("test7",), reps=reps, workers=workers,
                                bootstrap_B=2)
        blocks = -(-reps // block)
        assert counter.sizes == ([min(workers, blocks)]
                                 if workers > 1 and blocks > 1 else [])
        assert sizes == threads

    @pytest.mark.parametrize("cpus, reps, block50, pool, threads", [
        # k = 20 runs two blocks on a pool of two, k = 50 one block on
        # it too, with 6 // 2 threads
        (6, 4, 1024, 2, [2, 2, 3]),
        # k = 20 runs four blocks on a pool of four, k = 50 two blocks on
        # two of its processes, with 12 // 4 threads each
        (12, 8, 4, 4, [2, 2, 2, 2, 3, 3]),
    ])
    def test_table_cells_share_the_pool_size(self, cpus, reps, block50, pool,
                                             threads, executors, pools,
                                             monkeypatch):
        counter = pools(inline=True)
        sizes = executors(cpus)
        monkeypatch.setattr(simulate, "_block_size",
                            lambda spec: 2 if spec.k == 20 else block50)
        reproduce_table("rev1", reps=reps, workers=8, k_values=[20, 50],
                        size_pairs=[(5, 10)])
        assert counter.sizes == [pool]
        assert sizes == threads

    @pytest.mark.parametrize("cpus, k, B, reps, drawn", [
        (2, 50, 1000, 6, (3, 2)),  # resample-cell's minp: one slot spare
        (16, 50, 1000, 12, (10, 10)),  # 10 replicates fit the byte cap
        (16, 750, 200, 8, (3, 3)),  # a rev3 cell: three, not eight
        (16, 200, 1000, 8, (2, 2)),  # a powerCM cell
        (16, 2700, 200, 4, (1, 1)),  # over the cap: the caller draws
    ])
    def test_slots_capped_by_bytes(self, cpus, k, B, reps, drawn, executors,
                                   monkeypatch):
        # d = 2 keeps the slots small; the cap counts count vectors
        calls = []
        draw_ahead = variance._draw_ahead

        def recording(draw, jobs, slots, threads):
            calls.append((len(slots), threads))
            return draw_ahead(draw, jobs, slots, threads)

        executors(cpus)
        monkeypatch.setattr(variance, "_draw_ahead", recording)
        spec = SettingSpec(1, 2, k, 5, 10, master_seed=8)
        estimate_rejection_rate(spec, ("minp",), reps=reps, minp_B=B)
        # one call per chunk of replicates (two for k = 2700: 3 and 1)
        assert calls == [drawn] * -(-reps // max(1, simulate._CHUNK_GROUPS // k))

    def test_no_thread_alive_when_the_pool_forks(self, executors, pools,
                                                 monkeypatch):
        # the table's pool forks before any block runs; the single-block
        # k = 20 cell then draws on 4 // 2 threads in a pooled process
        counter = pools(inline=True)
        sizes = executors(4)
        monkeypatch.setattr(simulate, "_block_size",
                            lambda spec: 2 if spec.k == 50 else 1024)
        before = threading.active_count()
        reproduce_table("rev1", reps=3, workers=2, k_values=[20, 50],
                        size_pairs=[(5, 10)])
        assert sizes[0] == 2
        assert counter.sizes == [2]
        assert counter.threads_at_fork == [before]
        assert threading.active_count() == before

    @pytest.mark.parametrize("test", ["test7", "minp"])
    def test_worker_exception_reaches_caller(self, test, monkeypatch):
        spec = SettingSpec(1, 5, 20, 5, 10, master_seed=9)
        ds, _ = generate_replicate(spec, 4)
        target = (ds.c1 + ds.c2) / 15
        draw = simulate._pooled_null_draw

        def failing(rng, n1, n2, phat, B, out):
            if threading.current_thread() is threading.main_thread():
                raise AssertionError("drawn on the calling thread")
            if np.array_equal(phat, target):
                raise FloatingPointError("worker failed")
            return draw(rng, n1, n2, phat, B, out=out)

        monkeypatch.setattr(variance, "_available_cpus", lambda: 3)
        monkeypatch.setattr(simulate, "_pooled_null_draw", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="worker failed"):
            estimate_rejection_rate(spec, (test,), reps=8, bootstrap_B=20,
                                    minp_B=20)
        assert threading.active_count() == before

    def test_reductions_run_on_the_calling_thread(self, executors,
                                                  monkeypatch):
        # from n1 n2 = 2**30 minp compares floats, through _batch.tu_group
        # as test7's reduction does; the benchmark's tracer wraps it
        idents = set()
        tu_group = _batch.tu_group

        def recording(*args):
            idents.add(threading.get_ident())
            return tu_group(*args)

        sizes = executors(3)
        monkeypatch.setattr(_batch, "tu_group", recording)
        spec = SettingSpec(1, 5, 4, 2**15, 2**15, master_seed=6)
        res = estimate_rejection_rate(spec, ("test7", "minp"), reps=6,
                                      alpha=0.6, bootstrap_B=20, minp_B=20)
        assert sizes == [3, 3]
        assert idents == {threading.get_ident()}
        expected = _minp_rejections(spec, 6, 20, 0.6, _statistic)
        assert res["minp"].rejections == expected
