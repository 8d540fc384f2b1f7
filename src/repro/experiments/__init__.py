"""The paper's evaluation (Section V) on synthetic stand-in datasets.

:mod:`repro.experiments.datasets` builds the twelve Table I stand-ins and
:mod:`repro.experiments.replay` replays Table I, Fig. 3(c) and Figs. 7-13
as rows of one table (``python -m repro.experiments.replay``).
"""

from repro.experiments.datasets import (
    DATASETS,
    DatasetSpec,
    dataset_names,
    load_dataset,
    dataset_table,
)

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "dataset_names",
    "load_dataset",
    "dataset_table",
]
