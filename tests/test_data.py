import dataclasses
import json
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from stormlens import cli, data, numerics
from stormlens.errors import InputError, SchemaError, StormlensError
from stormlens.features import FEATURE_NAMES, feature_index

FINITE = st.floats(allow_nan=False, allow_infinity=False)


EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)


def make_samples(keys, value=1.0):
    """A record of N-labeled rows at the (ar_id, hour) ``keys``, given in key
    order; every feature of a row is ``value``, a number or one per row."""
    n = len(keys)
    return data.Samples(
        ar_ids=tuple(ar for ar, _ in keys),
        timestamps=tuple(EPOCH + timedelta(hours=h) for _, h in keys),
        features=np.zeros((n, 12)) + np.reshape(value, (-1, 1)),
        labels=np.zeros(n, dtype=np.int8),
    )


def record_fields(samples):
    """The fields of a record, features as bit patterns, for comparisons."""
    return (samples.ar_ids, samples.timestamps, samples.labels.tolist(),
            samples.features.view(np.uint64).tolist())


def windowize_oracle(samples, window_length):
    """``data.windowize`` as a per-AR loop: group the rows by AR, stack each
    AR's features and slice its windows one by one. The record is sorted
    with unique keys, so grouping in row order needs no sort or check."""
    T = window_length
    groups = {}
    for i, ar in enumerate(samples.ar_ids):
        groups.setdefault(ar, []).append(i)
    values, labels, ar_ids, end_times = [], [], [], []
    dropped = 0
    for ar, rows in groups.items():
        if len(rows) < T:
            dropped += len(rows)
            continue
        dropped += T - 1
        feats = np.stack([samples.features[i] for i in rows])
        for end in range(T - 1, len(rows)):
            values.append(feats[end - T + 1 : end + 1])
            labels.append(int(samples.labels[rows[end]]))
            ar_ids.append(ar)
            end_times.append(samples.timestamps[rows[end]])
    if not values:
        raise InputError(f"windowing with T={T} left no windows: each of the "
                         f"{len(groups)} ARs has fewer than {T} samples")
    return data.SequenceSet(np.stack(values), np.asarray(labels, dtype=np.int8),
                            tuple(ar_ids), tuple(end_times), dropped)


def write_fixture(path, rows):
    header = ",".join(("ar_id", "timestamp") + FEATURE_NAMES + ("label",))
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def fixture_row(ar="AR1", ts="2024-01-01T00:00:00+00:00", label="P", base=1.0):
    feats = ",".join(str(base + j) for j in range(12))
    return f"{ar},{ts},{feats},{label}"


class TestSamples:
    def test_starts_mark_each_ar(self):
        samples = make_samples([("A", 0), ("A", 1), ("B", 0), ("C", 5), ("C", 6), ("C", 7)])
        assert len(samples) == 6
        assert samples.starts.tolist() == [0, 2, 3, 6]
        assert make_samples([]).starts.tolist() == [0]

    def test_non_increasing_timestamps_rejected(self):
        with pytest.raises(InputError, match="strictly increasing"):
            make_samples([("A", 0), ("A", 0)])

    @pytest.mark.parametrize("keys", [[("A", 1), ("A", 0)], [("B", 0), ("A", 1)]])
    def test_rows_out_of_key_order_rejected(self, keys):
        with pytest.raises(InputError, match=r"order at \(A, 2024-01-01T0"):
            make_samples(keys)


class TestLoadCsv:
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(
        st.tuples(
            # commas, quotes and inner spaces need quoting; load_csv strips
            # an ar_id, so ids with edge whitespace do not round-trip
            st.text("ABCXYZabc0189_-.:,\" ", min_size=1, max_size=8)
            .filter(lambda ar: ar == ar.strip()),
            st.datetimes(datetime(1970, 1, 1), datetime(2100, 1, 1),
                         timezones=st.just(timezone.utc)),
            st.lists(FINITE, min_size=12, max_size=12),
            st.sampled_from(data.LABELS),
        ),
        max_size=12, unique_by=lambda row: (row[0], row[1]),
    ))
    @example([("AR,1", datetime(2024, 1, 1, tzinfo=timezone.utc), [0.0] * 12, "P"),
              ('say "hi"', datetime(2024, 1, 1, tzinfo=timezone.utc), [1.0] * 12, "N")])
    def test_write_then_load_round_trip(self, tmp_path, rows):
        rows = sorted(rows, key=lambda row: (row[0], row[1]))
        original = data.Samples(
            ar_ids=tuple(row[0] for row in rows),
            timestamps=tuple(row[1] for row in rows),
            features=np.array([row[2] for row in rows]).reshape(-1, 12),
            labels=np.array([row[3] == "P" for row in rows], dtype=np.int8),
        )
        f = tmp_path / "round_trip.csv"
        data.write_csv(f, original)
        loaded = data.load_csv(f)
        assert len(loaded) == len(original)
        assert record_fields(loaded) == record_fields(original)
        # the same rows listed backwards load into the same sorted record
        header, *lines = f.read_text(encoding="utf-8").splitlines()
        f.write_text("\n".join([header, *reversed(lines)]) + "\n", encoding="utf-8")
        assert record_fields(data.load_csv(f)) == record_fields(original)

    def test_minimal_round_trip(self, tmp_path):
        f = tmp_path / "d.csv"
        write_fixture(
            f,
            [
                fixture_row(ts="2024-01-01T02:00:00+00:00", label="N", base=3.0),
                fixture_row(ts="2024-01-01T00:00:00+00:00", label="P", base=1.0),
                fixture_row(ts="2024-01-01T01:00:00+00:00", label="P", base=2.0),
            ],
        )
        samples = data.load_csv(f)
        assert len(samples) == 3
        times = list(samples.timestamps)
        assert times == sorted(times)
        assert samples.labels[0] == 1 and samples.features[0, 0] == 1.0

    def test_round_trip_field_identical(self, tmp_path):
        plant = data.PlantSpec()
        original = data.synth_generate(3, 4, 7, plant)
        f = tmp_path / "rt.csv"
        data.write_csv(f, original)
        again = data.load_csv(f)
        assert len(again) == len(original)
        assert again.ar_ids == original.ar_ids
        assert again.timestamps == original.timestamps
        assert np.array_equal(again.labels, original.labels)
        assert np.array_equal(again.features, original.features)

    def test_byte_order_mark_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        data.write_csv(plain, data.synth_generate(3, 4, 7, data.PlantSpec()))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = data.load_csv(plain), data.load_csv(marked)
        assert len(got) == len(want) == 12
        assert (got.ar_ids, got.timestamps) == (want.ar_ids, want.timestamps)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.features, want.features)

    def test_missing_column_named(self, tmp_path):
        f = tmp_path / "d.csv"
        cols = [c for c in ("ar_id", "timestamp") + FEATURE_NAMES + ("label",) if c != "MEANALP"]
        f.write_text(",".join(cols) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="MEANALP"):
            data.load_csv(f)

    def test_bad_label_cites_allowed_set(self, tmp_path):
        f = tmp_path / "d.csv"
        write_fixture(f, [fixture_row(label="X")])
        with pytest.raises(InputError, match=r"P, N"):
            data.load_csv(f)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        f = tmp_path / "d.csv"
        bad = fixture_row().replace("1.0,", "abc,", 1)
        write_fixture(f, [fixture_row(ts="2024-01-01T01:00:00Z"), bad])
        with pytest.raises(SchemaError, match="line 3"):
            data.load_csv(f)

    @staticmethod
    def row_with_cells(cells: dict[str, str]) -> str:
        feats = [cells.get(name, str(1.0 + j)) for j, name in enumerate(FEATURE_NAMES)]
        return f"AR1,2024-01-01T00:00:00+00:00,{','.join(feats)},P"

    def test_first_non_numeric_column_named(self, tmp_path):
        f = tmp_path / "d.csv"
        write_fixture(f, [self.row_with_cells({"MEANGBZ": "y", "TOTPOT": " x "})])
        with pytest.raises(SchemaError, match=r"line 2: non-numeric value 'x' in column TOTPOT$"):
            data.load_csv(f)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        f = tmp_path / "d.csv"
        write_fixture(f, [self.row_with_cells({"USFLUX": cell})])
        with pytest.raises(SchemaError, match="line 2: non-finite feature value"):
            data.load_csv(f)

    def test_cells_with_spaces_parse(self, tmp_path):
        f = tmp_path / "d.csv"
        write_fixture(f, [self.row_with_cells({"TOTUSJZ": " 2.5 ", "MEANGBZ": "\t-3e2"})])
        feats = data.load_csv(f).features[0]
        assert feats[0] == 2.5 and feats[11] == -300.0 and feats.dtype == np.float64

    def test_duplicate_key_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_fixture(f, [fixture_row(), fixture_row()])
        with pytest.raises(InputError, match="duplicate"):
            data.load_csv(f)

    def test_duplicate_reported_at_the_earliest_repeating_line(self, tmp_path):
        f = tmp_path / "d.csv"
        t0, t1 = "2024-01-01T00:00:00+00:00", "2024-01-01T01:00:00+00:00"
        rows = [fixture_row("B", t1), fixture_row("A", t0), "", fixture_row("B", t0),
                fixture_row("A", t0), fixture_row("B", t1), fixture_row("A", t0)]
        write_fixture(f, rows)
        with pytest.raises(InputError, match=r"^line 6: duplicate \(ar_id, timestamp\) = "
                                             r"\(A, 2024-01-01T00:00:00\+00:00\)$"):
            data.load_csv(f)

    def test_unknown_column_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        header = ",".join(("ar_id", "timestamp") + FEATURE_NAMES + ("label", "bogus"))
        f.write_text(header + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="bogus"):
            data.load_csv(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="no_such"):
            data.load_csv(tmp_path / "no_such.csv")

    @pytest.mark.parametrize("ts", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
    def test_timestamp_out_of_range_in_utc_rejected(self, tmp_path, ts):
        f = tmp_path / "d.csv"
        write_fixture(f, [fixture_row(), fixture_row(ts=ts)])
        with pytest.raises(SchemaError) as err:
            data.load_csv(f)
        assert str(err.value) == f"line 3: timestamp '{ts}' is out of range in UTC"

    @pytest.mark.parametrize("char", ["\x01", "\ufffe"])
    def test_ar_id_that_xml_cannot_hold_rejected(self, tmp_path, char):
        f = tmp_path / "d.csv"
        write_fixture(f, [fixture_row(), fixture_row(ar=f"AR{char}2")])
        with pytest.raises(SchemaError) as err:
            data.load_csv(f)
        assert str(err.value) == (f"line 3: ar_id {'AR' + char + '2'!r} holds the character "
                                  f"U+{ord(char):04X}, which XML cannot hold")

    def test_ar_id_that_xml_holds_escaped_accepted(self, tmp_path):
        ids = ["A<&>1", "A\t1", "A\ufffd1", "A\U00010000"]
        f = tmp_path / "d.csv"
        write_fixture(f, [fixture_row(ar=ar) for ar in ids])
        assert list(data.load_csv(f).ar_ids) == sorted(ids)

    def test_loaded_record_holds_under_three_feature_arrays(self, tmp_path):
        f = tmp_path / "desk.csv"
        data.write_csv(f, data.synth_generate(500, 14, 42, data.PlantSpec()))
        tracemalloc.start()
        try:
            samples = data.load_csv(f)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(samples) == 7000
        # the features, the labels and one id and one datetime per row come
        # to 2.5 times the features
        assert held < 3 * samples.features.nbytes

    def test_load_peaks_under_five_feature_arrays(self, tmp_path):
        f = tmp_path / "desk.csv"
        data.write_csv(f, data.synth_generate(500, 14, 42, data.PlantSpec()))
        tracemalloc.start()
        try:
            samples = data.load_csv(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a set of every (ar_id, timestamp) key took it to six
        assert peak < 5 * samples.features.nbytes

    def test_write_streams_one_row_at_a_time(self, tmp_path):
        samples = data.synth_generate(500, 14, 42, data.PlantSpec())
        tracemalloc.start()
        try:
            data.write_csv(tmp_path / "d.csv", samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < samples.features.nbytes

    def test_zulu_timestamps_accepted(self, tmp_path):
        f = tmp_path / "d.csv"
        write_fixture(f, [fixture_row(ts="2024-01-01T00:00:00Z")])
        (timestamp,) = data.load_csv(f).timestamps
        assert timestamp.tzinfo is not None


class TestWindowize:
    def test_counts_per_ar(self):
        samples = make_samples([("A", h) for h in range(5)])
        out = data.windowize(samples, 3)
        assert len(out) == 3
        assert out.end_times[0] == samples.timestamps[2]

    def test_degenerate_window_length_one(self):
        samples = make_samples([("A", h) for h in range(3)], value=[0.0, 1.0, 2.0])
        out = data.windowize(samples, 1)
        assert len(out) == 3
        assert out.values.shape == (3, 1, 12)
        assert np.all(out.values[1, 0] == 1.0)

    def test_two_ars_hand_enumerated(self):
        # AR lengths 4 and 2 with T=3: only the first AR yields windows,
        # ending at its 3rd and 4th samples
        samples = make_samples([("A", h) for h in range(4)] + [("B", h) for h in range(2)])
        out = data.windowize(samples, 3)
        assert len(out) == 2
        assert set(out.ar_ids) == {"A"}
        assert out.n_dropped == 4  # 2 first of AR A + both of AR B

    def test_windows_never_span_ars_and_strictly_increasing(self):
        plant = data.PlantSpec()
        samples = data.synth_generate(6, 7, 11, plant)
        out = data.windowize(samples, 4)
        ids = set(out.ar_ids)
        assert ids <= set(samples.ar_ids)
        # labels of final samples match
        by_key = dict(zip(zip(samples.ar_ids, samples.timestamps), samples.labels.tolist()))
        for i in range(len(out)):
            expected = by_key[(out.ar_ids[i], out.end_times[i])]
            assert out.labels[i] == expected

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(lengths=st.lists(st.integers(0, 15), min_size=1, max_size=6),
           window_length=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    @example(lengths=[0], window_length=1, seed=0)
    def test_equals_the_per_ar_loop(self, lengths, window_length, seed):
        rng = np.random.default_rng(seed)
        keys = [(f"AR{a:02d}", h) for a, n in enumerate(lengths)
                for h in np.cumsum(rng.integers(1, 4, size=n)).tolist()]
        samples = dataclasses.replace(
            make_samples(keys), features=rng.normal(size=(len(keys), 12)),
            labels=rng.integers(0, 2, size=len(keys)).astype(np.int8))
        try:
            want = windowize_oracle(samples, window_length)
        except InputError as exc:
            with pytest.raises(InputError) as err:
                data.windowize(samples, window_length)
            assert str(err.value) == str(exc)
            return
        got = data.windowize(samples, window_length)
        assert got.values.dtype == want.values.dtype
        assert np.array_equal(got.values, want.values)
        assert got.labels.dtype == np.int8 and np.array_equal(got.labels, want.labels)
        assert got.ar_ids == want.ar_ids and got.end_times == want.end_times
        assert got.n_dropped == want.n_dropped

    def test_windows_are_copied_once(self):
        samples = data.synth_generate(40, 14, 12, data.PlantSpec())
        tracemalloc.start()
        try:
            out = data.windowize(samples, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.values.dtype == np.float64
        assert peak < 2 * out.values.nbytes


class TestSplit:
    def test_counts_and_disjointness(self):
        samples = make_samples([(f"AR{i}", h) for i in range(10) for h in range(3)])
        train, test = data.split(samples, 0.8, 42)
        train_ars = set(train.ar_ids)
        test_ars = set(test.ar_ids)
        assert len(train_ars) == 8 and len(test_ars) == 2
        assert not (train_ars & test_ars)

    def test_deterministic(self):
        samples = make_samples([(f"AR{i}", h) for i in range(7) for h in range(2)])
        a = data.split(samples, 0.6, 9)
        b = data.split(samples, 0.6, 9)
        assert a[0].ar_ids == b[0].ar_ids

    def test_half_split_even_ars(self):
        samples = make_samples([(f"AR{i}", h) for i in range(4) for h in range(2)])
        train, test = data.split(samples, 0.5, 1)
        assert len(set(train.ar_ids)) == 2
        assert len(set(test.ar_ids)) == 2

    def test_single_ar_rejected(self):
        samples = make_samples([("A", h) for h in range(4)])
        with pytest.raises(InputError):
            data.split(samples, 0.5, 0)


class TestNormStats:
    def test_train_columns_standardized_test_finite(self):
        plant = data.PlantSpec()
        samples = data.synth_generate(20, 8, 3, plant)
        train, test = data.split(samples, 0.75, 3)
        stats = data.NormStats.fit(train.features)
        Z = stats.apply(train.features.copy())
        assert np.abs(Z.mean(axis=0)).max() < 1e-10
        assert np.abs(Z.std(axis=0) - 1.0).max() < 1e-10
        Zt = stats.apply(test.features.copy())
        assert np.all(np.isfinite(Zt))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_windows_normalised_as_arrays_match_per_sample_reference(self, tmp_path, seed):
        # the CLI windows the raw splits and z-scores the window arrays; the
        # reference z-scores every sample's 12 values first, then windows
        path = tmp_path / "data.csv"
        data.write_csv(path, data.synth_generate(16, 9, seed, data.PlantSpec(trend_window=4)))
        cfg = cli.RunConfig(data=str(path), out=str(tmp_path), window=4, seed=seed)
        _, stats, train_w, test_w = cli._prepare_windows(cfg, cli._run_record(cfg))
        train_s, test_s = data.split(data.load_csv(path), cfg.train_fraction, seed)
        for got, part in ((train_w, train_s), (test_w, test_s)):
            features = part.features.copy()
            for row in features:
                stats.apply(row)
            want = data.windowize(dataclasses.replace(part, features=features), 4)
            assert got.values.shape == want.values.shape
            assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))

    def test_apply_z_scores_a_float64_array_in_place(self):
        X = np.random.default_rng(6).normal(size=(2000, 10, 12)) * 50.0 + 3.0
        stats = data.NormStats.fit(X.reshape(-1, 12))
        want = (X - stats.mean) / stats.std
        tracemalloc.start()
        try:
            Z = stats.apply(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Z is X
        assert np.array_equal(Z, want)
        # numpy's fixed-size ufunc buffers, ~67 kB; X is 1.92 MB
        assert peak < X.nbytes // 16

    def test_apply_overflow_is_an_input_error(self):
        stats = data.NormStats(np.zeros(12), np.full(12, 1e-300), np.zeros(12, dtype=bool))
        with pytest.raises(InputError, match="overflow"):
            stats.apply(np.full((2, 12), 1e10))
        assert np.array_equal(stats.apply(np.zeros((0, 12))), np.zeros((0, 12)))

    def test_round_trips_through_dict(self):
        plant = data.PlantSpec()
        samples = data.synth_generate(4, 5, 0, plant)
        stats = data.NormStats.fit(samples.features)
        again = data.NormStats.from_dict(stats.to_dict())
        assert np.array_equal(stats.mean, again.mean)
        assert np.array_equal(stats.std, again.std)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        mean=st.lists(FINITE, min_size=12, max_size=12),
        std=st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                     min_size=12, max_size=12),
        constant=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    def test_dict_round_trip_is_bit_exact(self, mean, std, constant):
        stats = data.NormStats(np.array(mean), np.array(std), np.array(constant))
        for doc in (stats.to_dict(), json.loads(json.dumps(stats.to_dict()))):
            again = data.NormStats.from_dict(doc)
            assert np.array_equal(again.mean.view(np.uint64), stats.mean.view(np.uint64))
            assert np.array_equal(again.std.view(np.uint64), stats.std.view(np.uint64))
            assert again.constant.dtype == bool
            assert np.array_equal(again.constant, stats.constant)

    def test_fit_keeps_zscore_bits_on_varying_columns(self):
        X = np.random.default_rng(9).normal(size=(30, 12)) * 1e3 + 7.0
        stats = data.NormStats.fit(X)
        mean = X.mean(axis=0)
        assert np.array_equal(stats.mean, mean)
        assert np.array_equal(stats.std, np.sqrt(((X - mean) ** 2).mean(axis=0)))
        assert not stats.constant.any()

    def test_fit_equal_values_constant_despite_rounding(self):
        # fourteen 7.3s have a computed std of ~8.9e-16, not 0; a std that
        # small would map 7.4 to ~1e14 and 7.3 itself to about -1
        X = np.random.default_rng(10).normal(size=(14, 12))
        X[:, 11] = 7.3
        assert X[:, 11].std() > 0.0
        stats = data.NormStats.fit(X)
        assert stats.constant[11] and not stats.constant[:11].any()
        assert stats.mean[11] == 7.3 and stats.std[11] == 1.0
        assert np.all(stats.apply(X)[:, 11] == 0.0)
        assert stats.apply(np.full(12, 7.4))[11] == pytest.approx(0.1)

    @pytest.mark.parametrize("column", [[1e308, -1e308, 0.0], [1e308, 1e308, 1.0]])
    def test_fit_overflow_names_the_feature(self, column):
        X = np.ones((3, 12))
        X[:, 2] = column
        with pytest.raises(InputError, match=f"^feature {FEATURE_NAMES[2]}: mean or standard "
                                             "deviation overflows"):
            data.NormStats.fit(X)
        X[:, 2] = 1e308  # a constant column keeps its value as its mean
        assert data.NormStats.fit(X).mean[2] == 1e308

    def test_fit_rejects_empty_or_flat_input(self):
        for rows in (np.zeros((0, 12)), np.zeros(12)):
            with pytest.raises(InputError, match="nonempty"):
                data.NormStats.fit(rows)


class TestWriteJson:
    def test_sorted_two_space_indent_final_newline_arrays_as_lists(self, tmp_path):
        path = tmp_path / "doc.json"
        data.write_json(path, {"b": np.array([[1.5, 2.0]]), "a": np.array([True, False]),
                               "c": np.float64(0.1)})
        want = {"a": [True, False], "b": [[1.5, 2.0]], "c": 0.1}
        assert path.read_text(encoding="utf-8") == json.dumps(want, indent=2) + "\n"
        assert data.dumps_json(want) == json.dumps(want, indent=2) + "\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), np.array([1.0, -np.inf])])
    def test_non_finite_value_raises_naming_the_file_and_leaves_no_file(self, tmp_path, value):
        path = tmp_path / "doc.json"
        with pytest.raises(StormlensError) as exc:
            data.write_json(path, {"ok": 1.0, "bad": [value]})
        assert not isinstance(exc.value, InputError)  # the CLI exits 1
        assert str(exc.value).startswith(f"{path}: ")
        assert not path.exists()


class TestOpenArtifact:
    def test_makes_the_directory_and_writes_utf8_with_newlines(self, tmp_path):
        path = tmp_path / "new" / "deeper" / "x.txt"
        with data.open_artifact(path) as fh:
            fh.write("é\nb\r\n")
        assert path.read_bytes() == "é\nb\r\n".encode("utf-8")

    def test_bare_name_opens_in_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with data.open_artifact("x.txt") as fh:
            fh.write("a\n")
        assert (tmp_path / "x.txt").read_bytes() == b"a\n"

    def test_json_that_cannot_be_written_makes_no_directory(self, tmp_path):
        with pytest.raises(StormlensError):
            data.write_json(tmp_path / "new" / "doc.json", {"bad": float("nan")})
        assert list(tmp_path.iterdir()) == []


class TestSynth:
    def test_planted_correlation_hit(self):
        plant = data.PlantSpec(dominant="TOTPOT", correlate="SAVNCPP", rho=0.95)
        samples = data.synth_generate(400, 14, 42, plant)  # n = 5600
        X = samples.features
        r = numerics.pearson(X[:, feature_index("TOTPOT")], X[:, feature_index("SAVNCPP")])
        assert 0.90 <= r <= 1.00

    def test_zero_rho_uncorrelated(self):
        plant = data.PlantSpec(rho=0.0)
        samples = data.synth_generate(400, 14, 7, plant)
        X = samples.features
        r = numerics.pearson(X[:, feature_index("TOTPOT")], X[:, feature_index("SAVNCPP")])
        assert abs(r) < 0.05

    def test_deterministic(self):
        plant = data.PlantSpec()
        a = data.synth_generate(5, 6, 12, plant)
        b = data.synth_generate(5, 6, 12, plant)
        assert a.ar_ids == b.ar_ids and a.timestamps == b.timestamps
        assert np.array_equal(a.labels, b.labels) and np.array_equal(a.features, b.features)

    def test_class_balance(self):
        samples, _ = _balanced()
        frac = int(samples.labels.sum()) / len(samples)
        assert 0.3 <= frac <= 0.7

    def test_labels_recoverable_by_threshold_sweep(self):
        samples, plant = _balanced()
        v = samples.features[:, feature_index(plant.dominant)]
        y = samples.labels.astype(int)
        best = 0.0
        for th in np.quantile(v, np.linspace(0.01, 0.99, 99)):
            up = ((v > th).astype(int) == y).mean()
            down = ((v <= th).astype(int) == y).mean()
            best = max(best, up, down)
        assert best >= 0.8

    def test_ids_from_ten_thousand_ars_listed_in_sorted_order(self, tmp_path):
        samples = data.synth_generate(10_001, 1, 0, data.PlantSpec())
        order = ("AR1000", "AR10000", "AR10001", "AR1001")
        assert samples.ar_ids[999:1003] == order
        assert samples.timestamps[1000] == EPOCH + timedelta(hours=9999)
        f = tmp_path / "d.csv"
        data.write_csv(f, samples)
        lines = f.read_text(encoding="utf-8").splitlines()
        assert tuple(line.split(",")[0] for line in lines[1000:1004]) == order

    def test_invalid_plants_rejected(self):
        with pytest.raises(InputError):
            data.PlantSpec(dominant="NOPE").validate()
        with pytest.raises(InputError):
            data.PlantSpec(rho=1.5).validate()
        with pytest.raises(InputError):
            data.PlantSpec(label_noise=0.5).validate()
        with pytest.raises(InputError):
            data.PlantSpec(dominant="TOTPOT", correlate="TOTPOT").validate()


def _balanced():
    plant = data.PlantSpec(rho=0.9, label_noise=0.01)
    return data.synth_generate(300, 12, 5, plant), plant
