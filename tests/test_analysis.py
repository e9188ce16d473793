import numpy as np
import pytest

from stormlens import analysis, data, numerics, shapley
from stormlens.errors import InputError
from stormlens.features import FEATURE_NAMES, feature_index


def rows_with_linked_pair(n=100, seed=0):
    """Random feature rows where SAVNCPP = 2 * TOTPOT exactly."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 12))
    X[:, feature_index("SAVNCPP")] = 2.0 * X[:, feature_index("TOTPOT")]
    return X


class TestCorrelationMatrix:
    def test_perfect_linear_relation(self):
        m = analysis.correlation_matrix(rows_with_linked_pair())
        i, j = feature_index("TOTPOT"), feature_index("SAVNCPP")
        assert m.values[i, j] == pytest.approx(1.0, abs=1e-12)

    def test_planted_pair_recovered(self):
        plant = data.PlantSpec(rho=0.95)
        samples = data.synth_generate(400, 14, 42, plant)
        m = analysis.correlation_matrix(samples.features)
        i, j = feature_index("TOTPOT"), feature_index("SAVNCPP")
        assert 0.90 <= m.values[i, j] <= 1.00

    def test_symmetry_and_unit_diagonal(self):
        m = analysis.correlation_matrix(rows_with_linked_pair(seed=1))
        assert np.abs(m.values - m.values.T).max() <= 1e-12
        assert np.allclose(np.diag(m.values), 1.0)

    def test_constant_feature_flagged_with_zero_cells(self):
        X = rows_with_linked_pair(seed=2)
        X[:, 5] = 7.0
        m = analysis.correlation_matrix(X)
        assert m.constant[5]
        assert np.all(m.values[5, :] == 0.0) and np.all(m.values[:, 5] == 0.0)
        assert not m.constant[0] and not m.constant[1]

    def test_equal_values_flagged_constant_despite_rounding(self):
        # fourteen 7.3s have a computed std of ~8.9e-16, not 0
        X = rows_with_linked_pair(n=14, seed=8)
        X[:, 11] = 7.3
        assert X[:, 11].std() > 0.0
        m = analysis.correlation_matrix(X)
        assert m.constant[11] and not m.constant[:11].any()
        assert np.all(m.values[11, :] == 0.0) and np.all(m.values[:, 11] == 0.0)

    def test_csv_export_round_trip(self):
        m = analysis.correlation_matrix(rows_with_linked_pair(seed=3))
        text = m.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "," + ",".join(FEATURE_NAMES)
        parsed = np.array([[float(c) for c in ln.split(",")[1:]] for ln in lines[1:]])
        assert np.array_equal(parsed, m.values)

    def test_too_few_samples_rejected(self):
        with pytest.raises(InputError):
            analysis.correlation_matrix(np.zeros((1, 12)))

    def test_wrong_feature_count_rejected(self):
        with pytest.raises(InputError, match=r"expected \(n, 12\) matrix"):
            analysis.correlation_matrix(np.ones((5, 11)))


class TestStrongestCorrelate:
    def _matrix(self, row):
        d = len(FEATURE_NAMES)
        M = np.eye(d)
        M[0, 1:] = row
        M[1:, 0] = row
        return analysis.CorrMatrix(values=M, constant=np.zeros(d, dtype=bool))

    def test_argmax_excluding_self(self):
        row = np.zeros(11)
        row[1] = 0.9  # catalog index 2
        row[0] = 0.2
        row[3] = -0.5
        choice = analysis.strongest_correlate(FEATURE_NAMES[0], self._matrix(row))
        assert choice.name == FEATURE_NAMES[2]
        assert choice.positive

    def test_tie_breaks_to_earlier_catalog_feature(self):
        row = np.zeros(11)
        row[2] = 0.8
        row[6] = 0.8
        choice = analysis.strongest_correlate(FEATURE_NAMES[0], self._matrix(row))
        assert choice.name == FEATURE_NAMES[3]

    def test_all_negative_flags_no_positive(self):
        row = -np.linspace(0.1, 0.9, 11)
        choice = analysis.strongest_correlate(FEATURE_NAMES[0], self._matrix(row))
        assert choice.name == FEATURE_NAMES[1]  # least negative
        assert not choice.positive

    def test_unknown_feature_rejected(self):
        with pytest.raises(InputError):
            analysis.strongest_correlate("NOPE", self._matrix(np.zeros(11)))

    def test_choice_matches_row_maximum(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 12))
        m = analysis.correlation_matrix(X)
        for name in FEATURE_NAMES:
            i = feature_index(name)
            choice = analysis.strongest_correlate(name, m)
            j = feature_index(choice.name)
            off = [m.values[i, k] for k in range(12) if k != i]
            assert m.values[i, j] == max(off)


def _exp(phi, sid=""):
    phi = np.asarray(phi, dtype=np.float64)
    return shapley.ShapExplanation(sample_id=sid, method="exact", base=0.0,
                                   fx=float(phi.sum()), phi=phi)


class TestDependenceData:
    def test_hand_built_points(self):
        X = rows_with_linked_pair(seed=5)
        m = analysis.correlation_matrix(X)
        dom = feature_index("TOTPOT")
        cor = feature_index("SAVNCPP")
        windows = np.zeros((3, 2, 12))
        windows[:, -1, :] = X[:3]
        phis = []
        for k in range(3):
            phi = np.zeros(12)
            phi[dom] = 0.1 * (k + 1)
            phis.append(_exp(phi, sid=str(k)))
        dep = analysis.dependence_data("TOTPOT", phis, windows, m)
        assert dep.correlate == "SAVNCPP"
        assert np.array_equal(dep.x, X[:3, dom])
        assert np.allclose(dep.shap, [0.1, 0.2, 0.3])
        assert np.array_equal(dep.color, X[:3, cor])

    def test_dummy_feature_points_on_zero_line(self):
        X = rows_with_linked_pair(seed=6)
        m = analysis.correlation_matrix(X)
        windows = np.zeros((4, 2, 12))
        windows[:, -1, :] = X[:4]
        exps = [_exp(np.zeros(12)) for _ in range(4)]
        dep = analysis.dependence_data("MEANALP", exps, windows, m)
        assert np.all(dep.shap == 0.0)
        assert len(dep.x) == 4

    def test_misaligned_lengths_rejected(self):
        X = rows_with_linked_pair(seed=7)
        m = analysis.correlation_matrix(X)
        with pytest.raises(InputError):
            analysis.dependence_data("TOTPOT", [_exp(np.zeros(12))], np.zeros((2, 2, 12)), m)

    def test_planted_pipeline_positive_rank_correlation(self, desk_pipeline):
        net, train_w, test_w, _, samples = desk_pipeline
        bg = shapley.sample_background(train_w.values, 25, 42)
        exps = shapley.explain_set(net, test_w.values, bg, method="gradient",
                                   seed=42, n_steps=8)
        m = analysis.correlation_matrix(samples.features)
        dep = analysis.dependence_data("TOTPOT", exps, test_w.values, m)
        # Spearman rank correlation between feature value and attribution
        def ranks(v):
            r = np.empty(len(v))
            r[np.argsort(v)] = np.arange(len(v))
            return r
        rho = numerics.pearson(ranks(dep.x), ranks(dep.shap))
        assert rho > 0.5
        assert dep.correlate == "SAVNCPP"
