"""Per-figure sweeps: the series behind Figs. 6-10 of the paper.

Every function returns the rows the corresponding figure plots (one row
per bar) and can print them as a table.  Figs. 6, 7 and 8 share the same
sweep — varying the partition count ``m`` with w fixed, and varying the
window size ``w`` with m fixed, on both datasets — and therefore share
memoized runs; they differ only in the reported metric.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.experiments.config import (
    M_VALUES,
    THETA_VALUES,
    W_VALUES,
    ExperimentConfig,
)
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.metrics.report import format_table

ALGORITHMS = ("AG", "SC", "DS")


def _sweep_rows(
    metric: str,
    datasets: Sequence[str] = ("rwData", "nbData"),
    algorithms: Sequence[str] = ALGORITHMS,
    m_values: Sequence[int] = M_VALUES,
    w_values: Sequence[int] = W_VALUES,
    n_windows: int = 8,
) -> list[dict[str, object]]:
    """The shared Fig. 6/7/8 grid: vary m (w fixed), vary w (m fixed)."""
    rows: list[dict[str, object]] = []
    for dataset in datasets:
        for m in m_values:
            for algorithm in algorithms:
                result = run_experiment(
                    ExperimentConfig(
                        dataset=dataset, algorithm=algorithm, m=m, n_windows=n_windows
                    )
                )
                rows.append(result.row(panel=f"vary-m ({dataset})", varied="m"))
        for w in w_values:
            for algorithm in algorithms:
                result = run_experiment(
                    ExperimentConfig(
                        dataset=dataset, algorithm=algorithm, w=w, n_windows=n_windows
                    )
                )
                rows.append(result.row(panel=f"vary-w ({dataset})", varied="w"))
    for row in rows:
        row["value"] = row[metric]
        row["metric"] = metric
    return rows


def fig06_replication(**kwargs) -> list[dict[str, object]]:
    """Fig. 6: average replication, varying m and w, both datasets."""
    return _sweep_rows("replication", **kwargs)


def fig07_load_balance(**kwargs) -> list[dict[str, object]]:
    """Fig. 7: load balance (Gini), varying m and w, both datasets."""
    return _sweep_rows("gini", **kwargs)


def fig08_max_load(**kwargs) -> list[dict[str, object]]:
    """Fig. 8: maximal processing load, varying m and w, both datasets."""
    return _sweep_rows("max_load", **kwargs)


def fig09_repartitions(
    datasets: Sequence[str] = ("rwData", "nbData"),
    algorithms: Sequence[str] = ALGORITHMS,
    theta_values: Sequence[float] = THETA_VALUES,
    n_windows: int = 8,
) -> list[dict[str, object]]:
    """Fig. 9: repartition rate (% of windows) for θ = 0.2 and 0.6."""
    rows = []
    for dataset in datasets:
        for theta in theta_values:
            for algorithm in algorithms:
                result = run_experiment(
                    ExperimentConfig(
                        dataset=dataset,
                        algorithm=algorithm,
                        theta=theta,
                        n_windows=n_windows,
                    )
                )
                row = result.row(panel=f"vary-theta ({dataset})", varied="theta")
                row["value"] = row["repartition_rate"]
                row["metric"] = "repartition_rate"
                rows.append(row)
    return rows


def fig10_ideal_execution(
    algorithms: Sequence[str] = ALGORITHMS,
    m_values: Sequence[int] = M_VALUES,
    n_windows: int = 6,
) -> list[dict[str, object]]:
    """Fig. 10: replication / Gini / max load on the ideal stream, vary m."""
    rows = []
    for m in m_values:
        for algorithm in algorithms:
            result = run_experiment(
                ExperimentConfig(
                    dataset="idealData", algorithm=algorithm, m=m, n_windows=n_windows
                )
            )
            for metric in ("replication", "gini", "max_load"):
                row = result.row(panel=f"ideal {metric}", varied="m")
                row["value"] = row[metric]
                row["metric"] = metric
                rows.append(row)
    return rows


def print_figure(rows: Iterable[dict[str, object]], title: str) -> str:
    """Render figure rows as the text table benches print."""
    columns = ("panel", "algorithm", "m", "w", "theta", "metric", "value")
    table = f"{title}\n{format_table(list(rows), columns)}"
    print(table)
    return table
