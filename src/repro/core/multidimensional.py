"""Watermarking multi-dimensional (tabular) datasets — Section IV-C.

A token does not have to be a single column: the paper watermarks the
Adult dataset with the composite token ``[Age, WorkClass]``. For such
datasets, *removing* an appearance of a token is as easy as in the
single-dimensional case (drop one matching row), but *adding* one is more
involved: the new row must also carry values for every attribute that is
not part of the token. The paper's pragmatic answer — copy the non-token
attributes from a randomly chosen existing row with the same token value —
is implemented here as the default :class:`CopyRowSynthesizer`; callers
with domain knowledge can plug in their own synthesizer to avoid semantic
inconsistencies (the concern the paper raises).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Protocol, Sequence, Tuple

from repro.core.config import GenerationConfig
from repro.core.generator import WatermarkGenerator, WatermarkResult
from repro.core.histogram import TokenHistogram
from repro.core.tokens import compose_token
from repro.core.transform import histogram_deltas
from repro.datasets.tabular import TabularDataset
from repro.exceptions import GenerationError
from repro.utils.rng import RngLike, ensure_rng

Row = Dict[str, object]


class RowSynthesizer(Protocol):
    """Strategy for materialising a new row carrying a given token value."""

    def synthesize(
        self,
        dataset: TabularDataset,
        token_columns: Sequence[str],
        token_values: Tuple[str, ...],
        rng,
    ) -> Row:
        """Return a full row whose token columns equal ``token_values``."""


class CopyRowSynthesizer:
    """Default synthesizer: clone a random existing row with the same token.

    This is the naive approach described in the paper. It guarantees the
    token columns are correct and the remaining attributes come from a
    real row, at the cost of possibly duplicating rare attribute
    combinations.
    """

    def synthesize(
        self,
        dataset: TabularDataset,
        token_columns: Sequence[str],
        token_values: Tuple[str, ...],
        rng,
    ) -> Row:
        """A copy of a random existing row whose token columns equal ``token_values``.

        Raises :class:`~repro.exceptions.GenerationError` when no row
        carries that token value.
        """
        matches = dataset.rows_matching(dict(zip(token_columns, token_values)))
        if not matches:
            raise GenerationError(
                f"cannot synthesize a row for unseen token value {token_values!r}"
            )
        template = matches[int(rng.integers(0, len(matches)))]
        return dict(template)


@dataclass(frozen=True)
class TabularWatermarkResult:
    """Result of watermarking a tabular dataset on a (composite) token.

    Wraps the core :class:`WatermarkResult` (which operates on the token
    histogram) together with the edited tabular dataset.
    """

    core: WatermarkResult
    watermarked_dataset: TabularDataset
    token_columns: Tuple[str, ...]

    @property
    def pair_count(self) -> int:
        """Number of watermarked pairs."""
        return self.core.pair_count

    @property
    def similarity_percent(self) -> float:
        """Histogram similarity between original and watermarked data."""
        return self.core.similarity_percent


class TabularWatermarker:
    """Watermark a :class:`TabularDataset` using one or more token columns.

    Parameters
    ----------
    token_columns:
        The attribute(s) whose combination forms the token, e.g.
        ``["Age"]`` or ``["Age", "WorkClass"]``.
    config:
        Core generation configuration.
    synthesizer:
        Strategy used to build rows for added token appearances; defaults
        to :class:`CopyRowSynthesizer`.
    """

    def __init__(
        self,
        token_columns: Sequence[str],
        config: Optional[GenerationConfig] = None,
        *,
        synthesizer: Optional[RowSynthesizer] = None,
        rng: RngLike = None,
    ) -> None:
        if not token_columns:
            raise GenerationError("token_columns must name at least one attribute")
        self.token_columns = tuple(token_columns)
        self.config = config or GenerationConfig()
        self.synthesizer: RowSynthesizer = synthesizer or CopyRowSynthesizer()
        self._rng_source = rng

    # ------------------------------------------------------------------ #

    def tokenize(self, dataset: TabularDataset) -> List[str]:
        """Project every row onto its (composite) token string."""
        missing = [column for column in self.token_columns if column not in dataset.columns]
        if missing:
            raise GenerationError(
                f"token columns {missing!r} are not present in the dataset "
                f"(columns: {list(dataset.columns)!r})"
            )
        return [
            compose_token(tuple(str(row[column]) for column in self.token_columns))
            for row in dataset
        ]

    def watermark(self, dataset: TabularDataset) -> TabularWatermarkResult:
        """Generate a watermark and apply the row edits to ``dataset``."""
        rng = ensure_rng(self._rng_source)
        tokens = self.tokenize(dataset)
        generator = WatermarkGenerator(self.config, rng=self._rng_source)
        core = generator.generate(TokenHistogram.from_tokens(tokens))

        deltas = histogram_deltas(core.original_histogram, core.watermarked_histogram)
        edited = self._apply_row_deltas(dataset, tokens, deltas, rng)
        return TabularWatermarkResult(
            core=core,
            watermarked_dataset=edited,
            token_columns=self.token_columns,
        )

    # ------------------------------------------------------------------ #

    def _apply_row_deltas(
        self,
        dataset: TabularDataset,
        tokens: Sequence[str],
        deltas: Mapping[str, int],
        rng,
    ) -> TabularDataset:
        """Apply token-count deltas by deleting and synthesising rows."""
        from repro.core.tokens import decompose_token

        rows = list(dataset.rows)
        removal_indices: set = set()
        for token, delta in deltas.items():
            if delta >= 0:
                continue
            positions = [index for index, value in enumerate(tokens) if value == token]
            if len(positions) < -delta:
                raise GenerationError(
                    f"cannot remove {-delta} rows for token {token!r}: only "
                    f"{len(positions)} rows carry it"
                )
            chosen = rng.choice(len(positions), size=-delta, replace=False)
            removal_indices.update(positions[i] for i in chosen)

        kept = [row for index, row in enumerate(rows) if index not in removal_indices]

        additions: List[Row] = []
        for token, delta in deltas.items():
            if delta <= 0:
                continue
            token_values = decompose_token(token)
            for _ in range(delta):
                additions.append(
                    self.synthesizer.synthesize(dataset, self.token_columns, token_values, rng)
                )

        # Insert the new rows at random positions so row order reveals nothing.
        for row in additions:
            position = int(rng.integers(0, len(kept) + 1))
            kept.insert(position, row)
        return TabularDataset(columns=dataset.columns, rows=kept)


def watermark_table(
    dataset: TabularDataset,
    token_columns: Sequence[str],
    *,
    budget_percent: float = 2.0,
    modulus_cap: int = 131,
    strategy: str = "optimal",
    rng: RngLike = None,
) -> TabularWatermarkResult:
    """One-shot helper mirroring :func:`repro.core.generator.generate_watermark`."""
    config = GenerationConfig(
        budget_percent=budget_percent, modulus_cap=modulus_cap, strategy=strategy
    )
    return TabularWatermarker(token_columns, config, rng=rng).watermark(dataset)


__all__ = [
    "Row",
    "RowSynthesizer",
    "CopyRowSynthesizer",
    "TabularWatermarkResult",
    "TabularWatermarker",
    "watermark_table",
]
