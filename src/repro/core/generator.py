"""Watermark generation — Algorithm I (``WM_Generate``).

The generator wires together every stage of the FreqyWM pipeline:

1. **Histogram generation** — build the descending-frequency histogram of
   the original dataset.
2. **Eligible tokens** — sample the secret ``R``, derive per-pair moduli
   ``s_ij`` and collect the pairs whose boundaries tolerate the change.
3. **Optimal selection** — pick the watermarked pairs ``L_wm`` with the
   chosen strategy (MWM + knapsack, greedy, or random) under budget ``b``.
4. **Frequency modification** — plan and apply the ceil/floor adjustments
   that zero each pair's difference modulo ``s_ij``.
5. **Data transformation** — add/remove token instances at random
   positions so the edited dataset realises the watermarked histogram.

The result bundles the watermarked dataset (histogram and, when a raw
token sequence was supplied, the edited sequence), the secret list
``L_sc`` and per-stage diagnostics used by the evaluation harness. A run
is timed by its own spans (``docs/observability.md``): one
``core.generate`` span over ``core.histogram``, ``core.eligibility``,
``core.mwm``, ``core.knapsack``, ``core.modification`` and
``core.transform``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import GenerationConfig
from repro.core.eligibility import (
    EligiblePair,
    EligibilityContext,
    PairScanPlan,
    generate_eligible_pairs,
)
from repro.core.hashing import generate_secret
from repro.core.histogram import TokenHistogram
from repro.core.matching import SelectionResult, select_pairs
from repro.core.modification import (
    PairAdjustment,
    apply_adjustments,
    total_cost,
    verify_alignment,
)
from repro.core.secrets import WatermarkSecret
from repro.core.similarity import ranking_preserved, similarity_percent
from repro.core.tokens import CodedTokens, TokenValue
from repro.core.transform import transform_dataset
from repro.exceptions import GenerationError
from repro.obs.trace import span as trace_span
from repro.utils.rng import RngLike, derive_rng, ensure_rng


@dataclass(frozen=True)
class WatermarkResult:
    """Everything produced by one watermark generation run.

    Attributes
    ----------
    original_histogram / watermarked_histogram:
        Token histograms before and after embedding.
    watermarked_tokens:
        The edited token sequence, or ``None`` when generation was run
        directly on a histogram (histogram-only mode).
    secret:
        The owner's secret list ``L_sc`` (pairs, ``R``, ``z``).
    selection:
        Full pair-selection diagnostics (strategy, eligible/matched/selected
        counts, final similarity).
    adjustments:
        The per-pair frequency adjustments that were applied.
    eligible_pairs:
        The eligible list ``L_e`` (useful for analysis; not secret-critical
        but derived from the secret, so treat with the same care).
    """

    original_histogram: TokenHistogram
    watermarked_histogram: TokenHistogram
    watermarked_tokens: Optional[List[str]]
    secret: WatermarkSecret
    selection: SelectionResult
    adjustments: Tuple[PairAdjustment, ...]
    eligible_pairs: Tuple[EligiblePair, ...]

    @property
    def pair_count(self) -> int:
        """Number of watermarked pairs (the paper's main size metric)."""
        return len(self.selection.selected)

    @property
    def similarity_percent(self) -> float:
        """Similarity between original and watermarked histograms (cosine, %)."""
        return similarity_percent(
            self.original_histogram.as_dict(), self.watermarked_histogram.as_dict()
        )

    @property
    def distortion_percent(self) -> float:
        """Distortion introduced by the watermark, in percent."""
        return 100.0 - self.similarity_percent

    @property
    def total_changes(self) -> int:
        """Total number of token appearances added plus removed."""
        return total_cost(self.adjustments)

    def summary(self) -> Dict[str, object]:
        """Flat summary used by the CLI, examples and benchmarks."""
        return {
            "strategy": self.selection.strategy,
            "distinct_tokens": len(self.original_histogram),
            "eligible_pairs": len(self.eligible_pairs),
            "matched_pairs": self.selection.matched_count,
            "selected_pairs": self.pair_count,
            "similarity_percent": self.similarity_percent,
            "distortion_percent": self.distortion_percent,
            "total_changes": self.total_changes,
        }

    # ------------------------------------------------------------------ #
    # Lean pickling
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> Dict[str, object]:
        """Pickle exactly the dataclass fields — the lean-payload contract.

        Embedding results cross the sharded-pool process boundary (one
        per dataset). The heavy lifting is done by the nested objects —
        histograms serialise through their own lean ``__getstate__``
        (token order + count vector, no derived arrays) and the secret
        drops its memoised fingerprint. Today this matches default
        pickling byte for byte; it exists to *pin* the contract, so a
        future memoised attribute set via ``object.__setattr__`` (the
        ``WatermarkSecret._fingerprint`` pattern) is excluded
        automatically instead of silently bloating every worker payload.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)


class _BatchScratch:
    """Shared derivation state of one batch embedding run.

    Holds the per-vocabulary
    :class:`~repro.core.eligibility.PairScanPlan` store per distinct
    ``(R, z)`` (shared when many datasets are watermarked under one owner
    secret) and the :class:`~repro.core.eligibility.EligibilityContext`
    per distinct histogram object (shared when many candidate secrets are
    tried against one dataset). Both are value-transparent — they only
    skip recomputation — so batched outputs stay bit-identical to the
    sequential path.
    """

    #: Most-recent (R, z) plan stores kept alive. Shared-secret batches
    #: only ever populate one; batches that sample a fresh secret per
    #: dataset (the secure default) would otherwise grow the scratch by
    #: O(candidate pairs) per dataset — each retired secret's scan plans
    #: can never hit again, so they are dropped.
    MAX_SECRETS = 4
    #: Most-recent histogram eligibility contexts kept alive. Only a
    #: repeated histogram *object* (the candidate-secrets mode) can ever
    #: hit, so a batch of distinct datasets must not pin every histogram
    #: it has already embedded.
    MAX_CONTEXTS = 8

    __slots__ = ("contexts", "plans")

    def __init__(self) -> None:
        # Keyed by id(histogram); the histogram itself is kept in the
        # value so the id cannot be recycled while the entry lives.
        self.contexts: "OrderedDict[int, Tuple[TokenHistogram, EligibilityContext]]" = (
            OrderedDict()
        )
        # Per-(R, z) vectorized scan plans, keyed inside by the
        # candidate-token vocabulary (see PairScanPlan).
        self.plans: "OrderedDict[Tuple[int, int], Dict[Tuple[str, ...], PairScanPlan]]" = (
            OrderedDict()
        )

    def plan_store(
        self, secret_value: int, modulus_cap: int
    ) -> Dict[Tuple[str, ...], PairScanPlan]:
        key = (secret_value, modulus_cap)
        store = self.plans.get(key)
        if store is None:
            store = {}
            self.plans[key] = store
        else:
            self.plans.move_to_end(key)
        return store

    def trim(self) -> None:
        """Drop all but the most recently *used* derivation state.

        Every accessor moves its key to the end (true LRU), so a shared
        secret that keeps hitting — even interleaved with freshly
        sampled ones — stays resident, while retired sampled secrets and
        the contexts of histograms that will never repeat are evicted
        first.
        """
        while len(self.plans) > self.MAX_SECRETS:
            self.plans.popitem(last=False)
        while len(self.contexts) > self.MAX_CONTEXTS:
            self.contexts.popitem(last=False)

    def context_for(
        self, histogram: TokenHistogram, config: GenerationConfig
    ) -> EligibilityContext:
        key = id(histogram)
        entry = self.contexts.get(key)
        if entry is None:
            context = EligibilityContext.build(
                histogram,
                max_candidates=config.max_candidates,
                excluded_tokens=config.excluded_tokens,
            )
            self.contexts[key] = (histogram, context)
            return context
        self.contexts.move_to_end(key)
        return entry[1]


class WatermarkGenerator:
    """Reusable ``WM_Generate`` engine configured once, applied many times.

    Parameters
    ----------
    config:
        The generation parameters (budget, modulus cap, strategy, ...).
    rng:
        Seed or generator controlling every random choice (secret sampling
        in reproducible mode, the random heuristic, insertion positions).
        ``None`` uses the OS CSPRNG for the secret — the secure default.
    """

    def __init__(self, config: Optional[GenerationConfig] = None, *, rng: RngLike = None) -> None:
        self.config = config or GenerationConfig()
        self._rng_source = rng

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def generate(
        self,
        data: Union[Sequence[TokenValue], TokenHistogram],
        *,
        secret_value: Optional[int] = None,
    ) -> WatermarkResult:
        """Embed a watermark into ``data``.

        ``data`` may be a raw sequence of token occurrences (the normal
        case) or an already-built :class:`TokenHistogram` (histogram-only
        mode, used when the caller keeps the raw data elsewhere). An
        explicit ``secret_value`` overrides secret sampling, which the
        multi-watermarking and test code rely on.
        """
        return self._generate_one(data, secret_value, _BatchScratch())

    def generate_many(
        self,
        datasets: Sequence[Union[Sequence[TokenValue], TokenHistogram]],
        *,
        secret_values: Optional[Sequence[Optional[int]]] = None,
    ) -> List[WatermarkResult]:
        """Embed watermarks into many datasets, amortising shared work.

        Semantically this is exactly the sequential loop
        ``[self.generate(data, secret_value=sv) for data, sv in ...]`` —
        outputs are bit-identical, including every RNG-derived tie-break,
        because the same code runs per dataset in the same order. What
        the batch amortises is *derivation*, never decisions:

        * each candidate vocabulary's pair moduli become a scan plan
          cached per ``(R, z)`` across the whole batch, so datasets
          embedded under one owner secret re-derive nothing when their
          candidate vocabulary repeats; a new vocabulary is derived in
          one bulk pass that hashes each token's inner digest
          ``H(R || tk_j)`` once (one hash per pair instead of two);
        * the histogram-side eligibility precomputation is cached per
          histogram object, so trying many candidate secrets against one
          dataset pays it once.

        Parameters
        ----------
        datasets:
            Raw token sequences and/or pre-built histograms, mixed
            freely. Passing the *same histogram object* several times is
            the many-candidate-secrets mode.
        secret_values:
            Optional per-dataset explicit secrets (``None`` entries fall
            back to sampling, exactly like :meth:`generate`). Must match
            ``datasets`` in length when given. A single shared secret is
            what enables cross-dataset modulus reuse.

        Returns
        -------
        list of :class:`WatermarkResult`, one per dataset, in input order.
        """
        if secret_values is not None and len(secret_values) != len(datasets):
            raise GenerationError(
                f"secret_values has {len(secret_values)} entries for "
                f"{len(datasets)} datasets"
            )
        scratch = _BatchScratch()
        results: List[WatermarkResult] = []
        for index, data in enumerate(datasets):
            secret_value = secret_values[index] if secret_values is not None else None
            results.append(self._generate_one(data, secret_value, scratch))
            # Bound the scratch: a batch that samples a fresh secret per
            # dataset retires each derivation set immediately, and
            # keeping them all would grow memory with the batch size.
            scratch.trim()
        return results

    # ------------------------------------------------------------------ #
    # Pipeline internals
    # ------------------------------------------------------------------ #

    def _generate_one(
        self,
        data: Union[Sequence[TokenValue], TokenHistogram],
        secret_value: Optional[int],
        scratch: _BatchScratch,
    ) -> WatermarkResult:
        """One ``WM_Generate`` run, drawing shared derivations from ``scratch``.

        A token sequence is read once: wrapped in a
        :class:`~repro.core.tokens.CodedTokens`, it is coded inside the
        ``core.histogram`` stage (by ``TokenHistogram.from_tokens``), and
        ``core.transform`` edits through the same codes. Histogram-only
        input has neither stage span.
        """
        with trace_span("core.generate"):
            tokens: Optional[CodedTokens] = None
            if isinstance(data, TokenHistogram):
                histogram = data
            else:
                tokens = CodedTokens(data)
                with trace_span("core.histogram"):
                    histogram = TokenHistogram.from_tokens(tokens)

            if len(histogram) < 2:
                raise GenerationError(
                    "watermarking needs at least two distinct tokens; the dataset "
                    "has a single token value"
                )

            rng = ensure_rng(self._rng_source)
            if secret_value is None:
                secret_value = generate_secret(self.config.secret_bits, rng=self._rng_source)

            with trace_span("core.eligibility") as stage:
                context = scratch.context_for(histogram, self.config)
                eligible = generate_eligible_pairs(
                    histogram,
                    secret_value,
                    self.config.modulus_cap,
                    max_candidates=self.config.max_candidates,
                    excluded_tokens=self.config.excluded_tokens,
                    require_modification=self.config.require_modification,
                    context=context,
                    plan_store=scratch.plan_store(secret_value, self.config.modulus_cap),
                )
                if stage.recording:
                    candidates = len(context.candidate_indices)
                    stage.set_attribute("scanned", candidates * (candidates - 1) // 2)
                    stage.set_attribute("eligible", len(eligible))

            selection = select_pairs(
                histogram,
                eligible,
                self.config.budget_percent,
                strategy=self.config.strategy,
                metric=self.config.metric,
                rng=derive_rng(self._rng_source, "selection") if self._rng_source is not None else rng,
                max_pairs=self.config.max_pairs,
            )

            with trace_span("core.modification"):
                adjustments = selection.adjustments
                watermarked_histogram = apply_adjustments(histogram, adjustments)
                if not verify_alignment(histogram, adjustments):
                    raise GenerationError("internal error: adjusted pairs are not aligned")
                if not ranking_preserved(
                    histogram.as_dict(), watermarked_histogram.as_dict()
                ):
                    raise GenerationError("internal error: ranking constraint violated")

            watermarked_tokens: Optional[List[str]] = None
            if tokens is not None:
                with trace_span("core.transform"):
                    watermarked_tokens = transform_dataset(
                        tokens,
                        histogram,
                        watermarked_histogram,
                        rng=derive_rng(self._rng_source, "transform") if self._rng_source is not None else rng,
                    )

            secret = WatermarkSecret.build(
                [item.pair for item in selection.selected],
                secret_value,
                self.config.modulus_cap,
                strategy=selection.strategy,
                budget_percent=self.config.budget_percent,
                metric=self.config.metric,
                original_size=histogram.total_count(),
                distinct_tokens=len(histogram),
            )

            return WatermarkResult(
                original_histogram=histogram,
                watermarked_histogram=watermarked_histogram,
                watermarked_tokens=watermarked_tokens,
                secret=secret,
                selection=selection,
                adjustments=adjustments,
                eligible_pairs=tuple(eligible),
            )


def generate_watermark(
    data: Union[Sequence[TokenValue], TokenHistogram],
    *,
    budget_percent: float = 2.0,
    modulus_cap: int = 131,
    strategy: str = "optimal",
    metric: str = "cosine",
    rng: RngLike = None,
    secret_value: Optional[int] = None,
    max_candidates: Optional[int] = None,
    excluded_tokens: Sequence[str] = (),
    require_modification: bool = False,
) -> WatermarkResult:
    """Functional one-shot wrapper around :class:`WatermarkGenerator`.

    This is the primary public entry point mirroring the paper's
    ``WM_Generate(D_o, b) -> (D_w, L_sc)`` signature, with the remaining
    parameters exposed as keywords.
    """
    config = GenerationConfig(
        budget_percent=budget_percent,
        modulus_cap=modulus_cap,
        strategy=strategy,
        metric=metric,
        max_candidates=max_candidates,
        excluded_tokens=tuple(excluded_tokens),
        require_modification=require_modification,
    )
    return WatermarkGenerator(config, rng=rng).generate(data, secret_value=secret_value)


__all__ = ["WatermarkResult", "WatermarkGenerator", "generate_watermark"]
