"""Spark edge-list utilities.

The canonical distributed representation of a graph here is a DataFrame with
two int columns ``src < dst``, one row per undirected edge, no duplicates,
no self-loops. The distributed MCE job (``repro.dist``) consumes this form.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.localgraph import LocalGraph


def edges_df(spark: SparkSession, edges: np.ndarray) -> DataFrame:
    """Create a canonical edge DataFrame from an (m, 2) numpy array."""
    pdf = pd.DataFrame({"src": edges[:, 0].astype("int64"), "dst": edges[:, 1].astype("int64")})
    return canonicalize(spark.createDataFrame(pdf))


def canonicalize(df: DataFrame) -> DataFrame:
    """Drop self-loops, orient each edge src < dst, and deduplicate."""
    lo = F.least(F.col("src"), F.col("dst")).alias("src")
    hi = F.greatest(F.col("src"), F.col("dst")).alias("dst")
    return (
        df.where(F.col("src") != F.col("dst"))
        .select(lo, hi)
        .distinct()
    )


def to_local(edges: DataFrame) -> LocalGraph:
    """Collect a (small) edge DataFrame into a LocalGraph for the kernels."""
    pdf = edges.toPandas()
    return LocalGraph.from_edges(zip(pdf["src"].tolist(), pdf["dst"].tolist()))
