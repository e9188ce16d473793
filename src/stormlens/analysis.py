"""Feature-interaction analysis: correlation matrix, strongest-correlate
selection, and dependence-plot data assembly."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics
from .errors import InputError
from .features import FEATURE_NAMES, feature_index


@dataclass
class CorrMatrix:
    """Symmetric Pearson matrix over the feature catalog.

    Constant features are flagged; their cells (and diagonal) are 0 so the
    matrix stays complete and renderable.
    """

    values: np.ndarray  # (d, d), symmetric, unit diagonal for non-constant
    constant: np.ndarray  # (d,) bool

    def to_csv(self) -> str:
        lines = ["," + ",".join(FEATURE_NAMES)]
        for i, name in enumerate(FEATURE_NAMES):
            cells = [repr(float(v)) for v in self.values[i]]
            lines.append(name + "," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {"names": list(FEATURE_NAMES), "values": self.values, "constant": self.constant}


def correlation_matrix(rows: np.ndarray) -> CorrMatrix:
    """Pairwise Pearson correlation over raw feature columns (n, d)."""
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(FEATURE_NAMES):
        raise InputError(f"expected (n, {len(FEATURE_NAMES)}) matrix, got shape {X.shape}")
    if X.shape[0] < 2:
        raise InputError("need at least 2 samples for a correlation matrix")
    d = X.shape[1]
    constant = numerics.constant_columns(X)
    M = np.zeros((d, d))
    for i in range(d):
        M[i, i] = 0.0 if constant[i] else 1.0
        for j in range(i + 1, d):
            r = numerics.pearson(X[:, i], X[:, j])
            M[i, j] = r
            M[j, i] = r
    return CorrMatrix(values=M, constant=constant)


class CorrelateChoice(NamedTuple):
    name: str
    positive: bool  # False flags "no positive correlate in the row"


def strongest_correlate(feature: str, matrix: CorrMatrix) -> CorrelateChoice:
    """Most positively correlated partner of a feature (self excluded).

    Ties break toward the earlier catalog feature. If every off-diagonal
    entry is <= 0 the least negative one is returned with positive=False.
    """
    if feature not in FEATURE_NAMES:
        raise InputError(f"unknown feature {feature!r}")
    i = FEATURE_NAMES.index(feature)
    row = matrix.values[i].copy()
    row[i] = -np.inf
    best_j = int(np.argmax(row))  # the first of tied maxima
    return CorrelateChoice(name=FEATURE_NAMES[best_j], positive=bool(row[best_j] > 0.0))


@dataclass
class DependenceData:
    """Point cloud for one feature's dependence plot.

    x: the feature's normalized final-step value per explained window;
    shap: that feature's attribution; color: the correlate's normalized
    final-step value.
    """

    feature: str
    correlate: str
    correlate_positive: bool
    x: np.ndarray
    shap: np.ndarray
    color: np.ndarray

    def to_dict(self) -> dict:
        return {
            "feature": self.feature,
            "correlate": self.correlate,
            "correlate_positive": self.correlate_positive,
            "points": [
                {"x": float(a), "shap": float(b), "color": float(c)}
                for a, b, c in zip(self.x, self.shap, self.color)
            ],
        }


def dependence_data(
    feature: str,
    explanations: list,
    windows: np.ndarray,
    matrix: CorrMatrix,
) -> DependenceData:
    """Assemble dependence-plot points for a feature.

    ``windows`` are the explained (normalized) test windows, one per
    explanation; the final time step provides the x and color values.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.shape[0] != len(explanations):
        raise InputError(
            f"{len(explanations)} explanations but {windows.shape[0]} windows"
        )
    i = feature_index(feature)
    choice = strongest_correlate(feature, matrix)
    j = feature_index(choice.name)
    phi = np.array([e.phi[i] for e in explanations])
    return DependenceData(
        feature=feature,
        correlate=choice.name,
        correlate_positive=choice.positive,
        x=windows[:, -1, i],
        shap=phi,
        color=windows[:, -1, j],
    )
