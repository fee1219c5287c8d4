"""Synthetic hierarchical data, CSV round-trips, and the train/eval split."""

import os

import numpy as np
import pytest

from ecoc import datasets
from ecoc.datasets import (
    Dataset,
    load_attributes_csv,
    load_csv,
    save_attributes_csv,
    save_csv,
    split,
    synth_hierarchical,
)
from ecoc.spectral import similarity_from_class_means
from oracles import (
    attribute_table_nested,
    class_mean_similarity_masked,
    split_rows_per_class,
    synth_hierarchical_per_node,
)


class TestSynthHierarchical:
    def test_class_and_sample_counts(self):
        ds = synth_hierarchical(
            depth=2, branching=4, samples_per_class=10, class_sep=4.0,
            noise_sigma=1.0, p=8, seed=0,
        )
        assert ds.n == 16
        assert ds.samples == 160
        assert ds.features.shape == (160, 8)
        assert np.array_equal(ds.labels, np.repeat(np.arange(16), 10))

    def test_zero_noise_collapses_classes_to_centers(self):
        ds = synth_hierarchical(
            depth=2, branching=2, samples_per_class=5, class_sep=3.0,
            noise_sigma=0.0, p=4, seed=1,
        )
        for c in range(4):
            block = ds.features[ds.labels == c]
            assert np.array_equal(block, np.tile(block[0], (5, 1)))

    def test_depth_one_attribute_is_top_split(self):
        # single root node: class 0 descends from its first child
        ds = synth_hierarchical(
            depth=1, branching=2, samples_per_class=3, class_sep=2.0,
            noise_sigma=0.5, p=3, seed=0,
        )
        assert ds.attributes.shape == (2, 1)
        assert np.array_equal(ds.attributes[:, 0], [1, 0])
        assert ds.attribute_names == ("node-root",)

    def test_attribute_count_and_names(self):
        ds = synth_hierarchical(
            depth=2, branching=2, samples_per_class=2, class_sep=2.0,
            noise_sigma=0.5, p=4, seed=0,
        )
        # internal nodes: root plus its two children
        assert ds.attributes.shape == (4, 3)
        assert ds.attribute_names == ("node-root", "node-0", "node-1")
        assert np.array_equal(ds.attributes[:, 0], [1, 1, 0, 0])
        assert np.array_equal(ds.attributes[:, 1], [1, 0, 0, 0])
        assert np.array_equal(ds.attributes[:, 2], [0, 0, 1, 0])

    @pytest.mark.parametrize("depth, branching", [(1, 2), (2, 4), (3, 3), (5, 4)])
    def test_attribute_table_matches_nested_loop(self, depth, branching):
        ds = synth_hierarchical(
            depth=depth, branching=branching, samples_per_class=1, class_sep=2.0,
            noise_sigma=0.5, p=depth, seed=0,
        )
        table, names = attribute_table_nested(depth, branching)
        assert np.array_equal(ds.attributes, table)
        assert ds.attribute_names == tuple(names)

    def test_sibling_offsets_shrink_with_depth(self):
        """Top-level splits move class centers further apart than deeper
        splits: between-group center distances shrink by half per level."""
        ds = synth_hierarchical(
            depth=2, branching=2, samples_per_class=1, class_sep=4.0,
            noise_sigma=0.0, p=16, seed=3,
        )
        m = ds.features
        top = np.linalg.norm(m[:2].mean(0) - m[2:].mean(0))
        within_a = np.linalg.norm(m[0] - m[1])
        within_b = np.linalg.norm(m[2] - m[3])
        assert top > within_a
        assert top > within_b

    def test_deterministic(self):
        kw = dict(depth=2, branching=3, samples_per_class=4, class_sep=2.0,
                  noise_sigma=1.0, p=5, seed=7)
        a = synth_hierarchical(**kw)
        b = synth_hierarchical(**kw)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.attributes, b.attributes)

    def test_seed_changes_data(self):
        kw = dict(depth=1, branching=2, samples_per_class=4, class_sep=2.0,
                  noise_sigma=1.0, p=5)
        assert not np.array_equal(
            synth_hierarchical(**kw, seed=0).features,
            synth_hierarchical(**kw, seed=1).features,
        )

    def test_dimension_must_fit_depth(self):
        with pytest.raises(ValueError, match="p"):
            synth_hierarchical(
                depth=3, branching=2, samples_per_class=1, class_sep=1.0,
                noise_sigma=0.0, p=2,
            )

    def test_parameter_validation(self):
        good = dict(depth=1, branching=2, samples_per_class=1, class_sep=1.0,
                    noise_sigma=0.0, p=2)
        for bad in (
            dict(good, depth=0),
            dict(good, branching=1),
            dict(good, samples_per_class=0),
            dict(good, class_sep=-1.0),
            dict(good, noise_sigma=-0.5),
        ):
            with pytest.raises(ValueError):
                synth_hierarchical(**bad)
        for name in ("class_sep", "noise_sigma"):
            for value in (np.nan, np.inf, -1.0):
                with pytest.raises(ValueError,
                                   match=f"^{name} must be finite and >= 0, got {value}$"):
                    synth_hierarchical(**dict(good, **{name: value}))

    @pytest.mark.parametrize("depth, branching, samples, p, key", [
        (1, 2, (2**63 - 1) // 48, 3, None), (1, 2, (2**63 - 1) // 48 + 1, 3, "p"),
        (1, 2, 2**59, 3, "samples_per_class"), (2, 2, 1, 2**58, "p"), (70, 2, 1, 70, "depth"),
        (10**9, 2, 1, 10**9, "depth"), (64, np.int64(2), 1, 64, "depth"),
        (2, 2**64, 1, 2, "branching"),
    ])
    def test_feature_count_must_fit_an_array_index(self, monkeypatch, depth, branching,
                                                   samples, p, key):
        """branching**depth * samples_per_class * p float64 values past
        np.intp bytes are refused before any draw, also where the value
        count alone fits an index, at a depth whose class count would take
        long to compute, and for a numpy branching whose own power wraps to
        0; one sample fewer passes the check.  The error names the key whose
        factor carries the bytes past the limit, taken in the order
        branching, the other levels (depth), samples_per_class, p."""
        def no_rng(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        with pytest.raises(AssertionError if key is None else ValueError) as exc:
            synth_hierarchical(depth, branching, samples, 1.0, 0.0, p)
        if key is not None:
            assert exc.value.key == key
            assert str(exc.value).endswith(
                f"more than an array can hold ({2**63 - 1} bytes)")

    @pytest.mark.parametrize("depth, class_sep, noise_sigma, key", [
        (2, 1.0, 1e308, "noise_sigma"), (3, 1.7e308, 0.0, "class_sep"),
        (3, 1.7e308, 1e308, "class_sep"),
    ])
    def test_values_past_float64_are_refused_by_key(self, depth, class_sep, noise_sigma, key):
        """Centers that overflow are refused by ``class_sep``, before any
        noise; then features that overflow by ``noise_sigma``; with no numpy
        warning, which the suite would raise."""
        with pytest.raises(ValueError) as exc:
            synth_hierarchical(depth, 4, 4, class_sep, noise_sigma, 8, seed=0)
        value = class_sep if key == "class_sep" else noise_sigma
        noun = "class centers" if key == "class_sep" else "feature values"
        assert exc.value.key == key
        assert str(exc.value) == f"{key} gives {noun} past the float64 range, got {value}"

    def test_large_finite_values_pass(self):
        ds = synth_hierarchical(1, 4, 4, 1e308, 1.0, 8, seed=0)
        assert np.isfinite(ds.features).all() and np.abs(ds.features).max() > 1e307

    def test_top_split_is_linearly_visible(self):
        """With noise well below the top-level separation, a nearest-center
        rule on the first attribute's groups is perfect."""
        ds = synth_hierarchical(
            depth=2, branching=2, samples_per_class=25, class_sep=8.0,
            noise_sigma=0.25, p=16, seed=2,
        )
        side = ds.attributes[ds.labels, 0]
        m0 = ds.features[side == 0].mean(0)
        m1 = ds.features[side == 1].mean(0)
        d0 = np.linalg.norm(ds.features - m0, axis=1)
        d1 = np.linalg.norm(ds.features - m1, axis=1)
        assert np.array_equal((d1 < d0).astype(int), side)


class TestDatasetValidation:
    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            Dataset(np.zeros((2, 2)), np.array([0, 2]), 2)

    def test_non_finite_features(self):
        x = np.zeros((2, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Dataset(x, np.array([0, 1]), 2)

    def test_attribute_shape_checked(self):
        with pytest.raises(ValueError, match="attribute"):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), 2,
                    attributes=np.array([[1], [0], [1]]))

    def test_attribute_values_checked(self):
        with pytest.raises(ValueError, match="attribute"):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), 2,
                    attributes=np.array([[2], [0]]))

    def test_name_count_checked(self):
        with pytest.raises(ValueError, match="name"):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), 2,
                    attributes=np.array([[1], [0]]),
                    attribute_names=("a", "b"))


class TestDataCsv:
    def test_round_trip(self, tmp_path):
        ds = synth_hierarchical(
            depth=2, branching=2, samples_per_class=3, class_sep=2.0,
            noise_sigma=1.0, p=4, seed=0,
        )
        path = os.path.join(tmp_path, "data.csv")
        save_csv(ds, path)
        back = load_csv(path)
        assert back.n == ds.n
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.features, ds.features)

    def test_layout_label_first(self, tmp_path):
        ds = Dataset(np.array([[1.5, -2.0]]), np.array([3]), 4)
        path = os.path.join(tmp_path, "data.csv")
        save_csv(ds, path)
        assert open(path).read() == "3,1.5,-2.0\n"

    def test_explicit_class_count(self, tmp_path):
        path = os.path.join(tmp_path, "data.csv")
        with open(path, "w") as fh:
            fh.write("0,1.0\n1,2.0\n")
        assert load_csv(path).n == 2
        assert load_csv(path, n=5).n == 5
        with pytest.raises(ValueError, match="label"):
            load_csv(path, n=1)

    def test_ragged_row_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "data.csv")
        with open(path, "w") as fh:
            fh.write("0,1.0,2.0\n1,3.0\n")
        with pytest.raises(ValueError, match="2"):
            load_csv(path)

    def test_non_numeric_rejected_with_line_number(self, tmp_path):
        path = os.path.join(tmp_path, "data.csv")
        with open(path, "w") as fh:
            fh.write("0,1.0\n0,oops\n")
        with pytest.raises(ValueError, match=":2"):
            load_csv(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_rejected_with_line_number(self, tmp_path, token):
        path = os.path.join(tmp_path, "data.csv")
        with open(path, "w") as fh:
            fh.write(f"0,1.0\n1,2.0\n1,{token}\n")
        with pytest.raises(ValueError, match=r"data\.csv:3: non-finite feature value"):
            load_csv(path)

    def test_negative_label_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "data.csv")
        with open(path, "w") as fh:
            fh.write("-1,1.0\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(path)

    def test_labels_take_every_int_spelling(self, tmp_path):
        """Padding, signs, underscores, leading zeros and non-ASCII digits,
        as ``int()`` reads them."""
        spellings = [" 3", "+1\t", "0_2", "007", "\u0663", "\u20035\u2003", "-0"]
        path = os.path.join(tmp_path, "data.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{label},1.5\n" for label in spellings)
        assert load_csv(path, n=8).labels.tolist() == [int(t) for t in spellings]

    @pytest.mark.parametrize("text, line, message", [
        ("0,1.0\n1\n2.0,1.0\n", 2, "need a label and at least one feature"),
        ("0,1.0\n2.0,1.0\n1\n", 2, "label must be an integer"),
        ("0,1.0\n1,1.0\n5\x00,1.0\n", 3, "label must be an integer"),
        ("0,1.0\n1__0,1.0\n", 2, "label must be an integer"),
        ("0,1.0\n,1.0\n", 2, "label must be an integer"),
        ("0,1.0\n9223372036854775808,1.0\nx,1.0\n", 2, "label does not fit in int64"),
        ("0,1.0\n-9223372036854775809,1.0\n", 2, "label does not fit in int64"),
    ])
    def test_first_bad_label_line_is_named(self, tmp_path, text, line, message):
        path = os.path.join(tmp_path, "data.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_empty_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "data.csv")
        open(path, "w").close()
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)


class TestAttributesCsv:
    def test_round_trip(self, tmp_path):
        ds = synth_hierarchical(
            depth=2, branching=2, samples_per_class=2, class_sep=2.0,
            noise_sigma=0.5, p=4, seed=0,
        )
        path = os.path.join(tmp_path, "attrs.csv")
        save_attributes_csv(ds, path)
        names, table = load_attributes_csv(path)
        assert names == ds.attribute_names
        assert np.array_equal(table, ds.attributes)

    def test_format(self, tmp_path):
        ds = Dataset(
            np.zeros((2, 2)), np.array([0, 1]), 2,
            attributes=np.array([[1, 0], [0, 1]]),
            attribute_names=("left", "right"),
        )
        path = os.path.join(tmp_path, "attrs.csv")
        save_attributes_csv(ds, path)
        assert open(path).read() == "left,right\n1,0\n0,1\n"

    def test_bad_cell_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "attrs.csv")
        with open(path, "w") as fh:
            fh.write("a\n1\n2\n")
        with pytest.raises(ValueError, match=":3"):
            load_attributes_csv(path)

    def test_missing_attributes_rejected(self, tmp_path):
        ds = Dataset(np.zeros((2, 2)), np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="attribute"):
            save_attributes_csv(ds, os.path.join(tmp_path, "attrs.csv"))


class TestSplit:
    def make(self, spc: int = 10) -> Dataset:
        return synth_hierarchical(
            depth=1, branching=2, samples_per_class=spc, class_sep=2.0,
            noise_sigma=1.0, p=3, seed=0,
        )

    def test_stratified_counts(self):
        tr, ev = split(self.make(), 0.8, seed=0)
        assert tr.samples == 16 and ev.samples == 4
        for c in range(2):
            assert (tr.labels == c).sum() == 8
            assert (ev.labels == c).sum() == 2

    def test_half_split(self):
        tr, ev = split(self.make(), 0.5, seed=0)
        assert tr.samples == ev.samples == 10

    def test_partition_no_overlap(self):
        ds = self.make()
        tr, ev = split(ds, 0.7, seed=1)
        combined = np.concatenate([tr.features, ev.features])
        assert tr.samples + ev.samples == ds.samples
        # every original row appears exactly once
        orig = sorted(map(tuple, ds.features))
        assert sorted(map(tuple, combined)) == orig

    def test_deterministic_and_seed_sensitive(self):
        ds = self.make()
        a_tr, _ = split(ds, 0.8, seed=3)
        b_tr, _ = split(ds, 0.8, seed=3)
        c_tr, _ = split(ds, 0.8, seed=4)
        assert np.array_equal(a_tr.features, b_tr.features)
        assert not np.array_equal(a_tr.features, c_tr.features)

    def test_both_sides_nonempty_even_when_rounding_hits_edge(self):
        # 2 samples per class at 0.9 would round to 2/0; clipped to 1/1
        tr, ev = split(self.make(spc=2), 0.9, seed=0)
        for c in range(2):
            assert (tr.labels == c).sum() == 1
            assert (ev.labels == c).sum() == 1

    def test_fraction_validated(self):
        ds = self.make()
        for f in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="fraction"):
                split(ds, f, seed=0)

    def test_single_sample_class_rejected(self):
        ds = Dataset(np.zeros((3, 2)), np.array([0, 0, 1]), 2)
        with pytest.raises(ValueError, match=">= 2"):
            split(ds, 0.5, seed=0)

    def test_missing_class_found_before_allocating_bounds(self):
        """Labels 0, 0, 10**15 would need petabytes of class bounds; the gap
        at class 1 is reported first."""
        ds = Dataset(np.zeros((3, 2)), np.array([0, 0, 10**15]), 10**15 + 1)
        with pytest.raises(ValueError, match=r"^class 1 has 0 sample\(s\);"):
            split(ds, 0.5, seed=0)

    def test_attributes_carried(self):
        ds = self.make()
        tr, ev = split(ds, 0.8, seed=0)
        assert np.array_equal(tr.attributes, ds.attributes)
        assert ev.attribute_names == ds.attribute_names


def synth_matching_oracle(*args, seed: int) -> Dataset:
    """synth_hierarchical(*args), asserted byte-equal to the per-node walk."""
    ds = synth_hierarchical(*args, seed=seed)
    features, labels, table, names = synth_hierarchical_per_node(*args, seed)
    assert ds.features.tobytes() == features.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()
    assert ds.attributes.tobytes() == table.tobytes()
    assert ds.attribute_names == tuple(names)
    return ds


def assert_matches_per_class_oracles(ds: Dataset, fractions=(0.1, 0.5, 0.8), seed: int = 0):
    """split and the class-mean graph give the per-class loops' bytes on ds."""
    if np.bincount(ds.labels, minlength=ds.n).min() >= 2:
        for fraction in fractions:
            tr, ev = split(ds, fraction, seed=seed)
            tr_rows, ev_rows = split_rows_per_class(ds.labels, ds.n, fraction, seed)
            for side, rows in ((tr, tr_rows), (ev, ev_rows)):
                assert side.features.tobytes() == ds.features[rows].tobytes()
                assert side.labels.tobytes() == ds.labels[rows].tobytes()
    weights = class_mean_similarity_masked(ds.features, ds.labels, ds.n)
    if (weights.sum(axis=1) > 0).all():  # otherwise not a valid graph
        graph = similarity_from_class_means(ds.features, ds.labels, ds.n)
        assert graph.weights.tobytes() == weights.tobytes()


class TestPerClassOracles:
    """The whole-array generator, split and class means reproduce the
    per-node and per-class loops byte for byte: same streams, same sums."""

    @pytest.mark.parametrize("branching", [2, 3, 4])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_grid(self, depth, branching):
        for spc in range(1, 6):
            for seed, p in ((0, depth), (7, depth + 3)):
                ds = synth_matching_oracle(depth, branching, spc, 4.0, 1.0, p, seed=seed)
                assert_matches_per_class_oracles(ds, seed=seed)

    @pytest.mark.parametrize("seed", [4, 7])
    def test_wide_shape(self, seed):
        ds = synth_matching_oracle(5, 4, 2, 4.0, 1.0, 32, seed=seed)
        assert_matches_per_class_oracles(ds, seed=seed)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_shuffled_label_order(self, seed):
        """Rows as a CSV may hold them: classes interleaved, unsorted."""
        ds = synth_hierarchical(3, 3, 5, 4.0, 1.0, 6, seed=seed)
        rows = np.random.default_rng(seed + 100).permutation(ds.samples)
        shuffled = Dataset(ds.features[rows], ds.labels[rows], ds.n)
        assert_matches_per_class_oracles(shuffled, seed=seed)

    def test_uneven_class_sizes(self):
        rng = np.random.default_rng(5)
        labels = rng.permutation(np.repeat(np.arange(6), [2, 7, 3, 11, 2, 5]))
        ds = Dataset(rng.standard_normal((labels.size, 4)), labels, 6)
        assert_matches_per_class_oracles(ds, fractions=(0.1, 0.3, 0.5, 0.8, 0.9), seed=2)


REAL_DEFAULT_RNG = np.random.default_rng


class PlantedNormals:
    """Generator stub: standard normals come from one fixed stream of rows
    of p values, with the listed rows scaled to norm ~1e-14; any draw shape
    takes the next values of that stream in order."""

    def __init__(self, seed: int, p: int, planted: tuple[int, ...]):
        values = REAL_DEFAULT_RNG(seed).standard_normal((64, p))
        values[list(planted)] *= 1e-14
        self._values = values.ravel()
        self.consumed = 0

    def standard_normal(self, size):
        count = int(np.prod(size))
        out = self._values[self.consumed : self.consumed + count]
        self.consumed += count
        return out.reshape(size)


class TestGeneratorStream:
    @pytest.mark.parametrize("planted", [(1,), (3, 4), (1, 4, 5, 16), (13,)])
    def test_degenerate_direction_redrawn_as_the_tree_walk_does(self, monkeypatch, planted):
        """A near-zero direction is replaced by the next p values, which moves
        every later direction and the noise up one row.  Rows 1 and 13 end a
        level; 3 and 4 sit mid-level and are redrawn twice in a row."""
        stubs = []
        monkeypatch.setattr(
            datasets.np.random, "default_rng",
            lambda seed: stubs.append(PlantedNormals(seed, 4, planted)) or stubs[-1],
        )
        args = (3, 2, 2, 3.0, 0.5, 4)
        ds = synth_hierarchical(*args, seed=1)
        features, _, _, _ = synth_hierarchical_per_node(*args, seed=1)
        assert ds.features.tobytes() == features.tobytes()
        # 14 tree nodes, one extra row per planted one, 16 noise rows
        assert [stub.consumed for stub in stubs] == [(14 + len(planted) + 16) * 4] * 2

    def test_one_normal_draw_per_tree_level_and_one_for_the_noise(self, monkeypatch):
        real = np.random.default_rng
        shapes = []

        class Counting:
            def __init__(self, seed):
                self._rng = real(seed)

            def standard_normal(self, size):
                shapes.append(size)
                return self._rng.standard_normal(size)

        monkeypatch.setattr(datasets.np.random, "default_rng", Counting)
        synth_hierarchical(4, 3, 2, 4.0, 1.0, 5, seed=0)
        assert shapes == [(3, 5), (9, 5), (27, 5), (81, 5), (162, 5)]

    def test_under_two_samples_names_the_first_such_class(self):
        # class 1 has one sample, class 4 none
        ds = Dataset(np.zeros((7, 2)), np.array([0, 3, 1, 2, 3, 2, 0]), 5)
        with pytest.raises(ValueError) as got:
            split(ds, 0.5, seed=0)
        with pytest.raises(ValueError) as want:
            split_rows_per_class(ds.labels, ds.n, 0.5, 0)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "class 1 has 1 sample(s); need >= 2 to appear in both splits"
