"""Eligible-pair generation (the paper's ``Eligible`` step).

A pair of tokens ``(tk_i, tk_j)`` is *eligible* for watermarking when the
frequency nudges required to make their difference a multiple of the
pair's modulus ``s_ij`` cannot break the ranking constraint. Concretely,
with boundaries ``u``/``l`` computed on the original histogram, the paper
requires::

    min(u_i, l_i, u_j, l_j) >= ceil(s_ij / 2)    and    s_ij >= 2

because the frequency-modification rule never moves either token by more
than ``ceil(s_ij / 2)`` appearances in either direction.

The number of candidate pairs is quadratic in the number of distinct
tokens (|D^hist| choose 2 — e.g. ~21.6 M pairs for the Taxi dataset's
6 573 tokens), so this module also offers a *candidate cap*: the
evaluation-scale datasets in the paper all fit the exhaustive scan, but
callers can bound the scan to the pairs formed by the ``max_candidates``
most promising tokens to keep generation latency predictable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import MAX_MODULUS_CAP
from repro.core.hashing import upper_triangle_rows
from repro.core.histogram import TokenHistogram
from repro.core.tokens import TokenPair
from repro.exceptions import EligibilityError


@dataclass(frozen=True)
class EligiblePair:
    """A token pair that may be watermarked, with its precomputed values.

    Attributes
    ----------
    pair:
        The token pair with the higher-frequency member first.
    modulus:
        The pair modulus ``s_ij`` derived from the secret.
    remainder:
        ``(f_i - f_j) mod s_ij`` on the original histogram — the quantity
        the watermark will drive to zero.
    frequency_difference:
        ``f_i - f_j`` on the original histogram (non-negative).
    """

    pair: TokenPair
    modulus: int
    remainder: int
    frequency_difference: int

    @property
    def cost(self) -> int:
        """Total number of appearance changes needed to watermark the pair.

        If the remainder ``r`` is at most half the modulus the difference is
        *reduced* by ``r`` (cost ``r`` split across the two tokens);
        otherwise the difference is *increased* to the next multiple, which
        costs ``s_ij - r`` changes. This is exactly the magnitude the
        frequency-modification stage will apply.
        """
        if self.remainder == 0:
            return 0
        if self.remainder <= self.modulus // 2:
            return self.remainder
        return self.modulus - self.remainder


def _boundary_allows(modulus: int, slack_i: int, slack_j: int) -> bool:
    """The boundary rule ``min(u_i, l_i, u_j, l_j) >= ceil(s_ij / 2)``.

    ``slack`` is each token's binding boundary ``min(u, l)`` (with the
    top-ranked token's unbounded upper collapsing to its lower), so the
    rule reduces to both slacks covering ``ceil(s_ij / 2)``.
    """
    if modulus < 2:
        return False
    needed = (modulus + 1) // 2
    return slack_i >= needed and slack_j >= needed


def _candidate_token_mask(
    histogram: TokenHistogram, max_candidates: Optional[int]
) -> "np.ndarray":
    """Boolean mask (rank order) of the tokens admitted to the pair scan.

    With ``max_candidates`` set, tokens are ranked by boundary slack
    (stable sort, so descending-frequency order breaks ties) and only the
    top ``max_candidates`` are kept — the single implementation behind
    both :func:`iter_candidate_pairs` and :func:`generate_eligible_pairs`.
    """
    slack = histogram.arrays().slack()
    keep = np.ones(slack.size, dtype=bool)
    if max_candidates is not None and max_candidates < slack.size:
        ranking = np.argsort(-slack, kind="stable")
        keep = np.zeros(slack.size, dtype=bool)
        keep[ranking[:max_candidates]] = True
    return keep


def iter_candidate_pairs(
    histogram: TokenHistogram,
    *,
    max_candidates: Optional[int] = None,
) -> Iterator[Tuple[str, str]]:
    """Yield candidate ``(higher-frequency token, lower-frequency token)`` pairs.

    Candidates are enumerated over the descending-frequency order so the
    first element of each yielded tuple always has frequency greater than
    or equal to the second. When ``max_candidates`` is given only the
    tokens with the largest boundary slack take part, which keeps the scan
    sub-quadratic for very wide histograms.
    """
    keep = _candidate_token_mask(histogram, max_candidates)
    tokens: Sequence[str] = [
        token for token, kept in zip(histogram.tokens, keep) if kept
    ]
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens)):
            yield tokens[i], tokens[j]


@dataclass(frozen=True)
class EligibilityContext:
    """Secret-independent precomputation of one histogram's pair scan.

    Everything the eligibility scan reads about the *histogram* — the
    descending token order, counts, boundary slacks and the candidate
    index set after the slack / ``max_candidates`` / ``excluded_tokens``
    filters — depends only on the histogram and the generation knobs,
    never on the secret ``R``. Batch embedding over many candidate
    secrets for one dataset therefore builds this once
    (:meth:`build`) and re-runs only the secret-dependent part
    (moduli and remainders) per secret.

    Instances are plain captured state; reusing a context with a
    histogram it was not built from produces garbage, so only
    :func:`generate_eligible_pairs` and the batch generator pass them
    around.
    """

    tokens: Tuple[str, ...]
    counts: Tuple[int, ...]
    slack: Tuple[int, ...]
    candidate_indices: Tuple[int, ...]

    @classmethod
    def build(
        cls,
        histogram: TokenHistogram,
        *,
        max_candidates: Optional[int] = None,
        excluded_tokens: Optional[Sequence[str]] = None,
    ) -> "EligibilityContext":
        """Capture the histogram-side scan state for the given knobs."""
        arrays = histogram.arrays()
        slack = arrays.slack()
        keep = _candidate_token_mask(histogram, max_candidates)
        # Boundary pre-filter: every valid modulus needs ceil(s_ij / 2) >= 1
        # slack on both tokens, so tokens whose binding boundary is zero (an
        # equal-frequency neighbour on the tight side) can never take part in
        # an eligible pair — drop them before the quadratic scan instead of
        # hashing their pairs. On flat histograms this removes almost all
        # candidates; on the paper's power-law data it is a no-op.
        keep &= slack >= 1
        tokens_all = histogram.tokens
        if excluded_tokens:
            excluded = set(excluded_tokens)
            for index in np.nonzero(keep)[0]:
                if tokens_all[int(index)] in excluded:
                    keep[index] = False
        return cls(
            tokens=tuple(tokens_all),
            counts=tuple(arrays.counts.tolist()),
            slack=tuple(slack.tolist()),
            candidate_indices=tuple(int(i) for i in np.nonzero(keep)[0]),
        )


def pair_scan(
    counts: np.ndarray,
    slack: np.ndarray,
    *,
    first_index: np.ndarray,
    second_index: np.ndarray,
    need: np.ndarray,
    safe_moduli: np.ndarray,
    valid: np.ndarray,
    require_modification: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eligibility scan over a :class:`PairScanPlan`'s candidate pairs.

    ``counts``/``slack`` are per-candidate arrays; the remaining operands
    are the plan's pair arrays. A pair survives when its modulus is usable
    and both members carry at least ``ceil(modulus / 2)`` slack;
    ``require_modification`` additionally drops already-aligned pairs.
    Returns ``(survivors, remainder, difference)`` — survivor positions
    into the plan's pair arrays plus the gathered remainder/difference
    values.
    """
    first = counts[first_index]
    second = counts[second_index]
    keep = valid & (slack[first_index] >= need) & (slack[second_index] >= need)
    difference = first - second
    remainder = difference % safe_moduli
    if require_modification:
        keep = keep & (remainder != 0)
    survivors = np.nonzero(keep)[0]
    return survivors, remainder[survivors], difference[survivors]


#: Largest candidate-pair count the vectorized scan materialises index
#: arrays for; wider histograms fall back to the streaming loop, which
#: allocates only for survivors (values are identical either way).
VECTOR_SCAN_MAX_PAIRS = 2_000_000

#: Total pairs a plan store may retain across its cached vocabularies
#: (~160 MB of plan arrays at worst). One shared owner secret applied to
#: a stream of *different* vocabularies would otherwise accumulate one
#: unreusable plan per dataset for the whole batch; past the budget the
#: oldest plans are evicted, so a repeating vocabulary stays hot while a
#: never-repeating stream runs in bounded memory.
PLAN_STORE_PAIR_BUDGET = 4_000_000


@dataclass(frozen=True)
class PairScanPlan:
    """Vectorized scan state for one ``(secret, cap, candidate vocabulary)``.

    The pair enumeration order and every modulus depend only on the
    candidate token list and the secret — not on the frequencies — so a
    batch embedding run that revisits the same vocabulary (snapshots or
    per-buyer copies of one corpus) reuses this plan and runs each
    dataset's eligibility scan as a handful of NumPy operations instead
    of a quadratic Python loop. :meth:`scan` produces exactly the list
    the reference loop produces: pairs are enumerated in the same
    row-major ``(i, j > i)`` order and every value comes from the same
    integer arithmetic.
    """

    candidate_tokens: Tuple[str, ...]
    #: Each candidate token's position in ``sorted(candidate_tokens)``.
    rank: "np.ndarray"
    first_index: "np.ndarray"
    second_index: "np.ndarray"
    moduli: "np.ndarray"
    #: ``ceil(s_ij / 2)`` per pair — the slack both members must cover.
    need: "np.ndarray"
    safe_moduli: "np.ndarray"
    valid: "np.ndarray"

    @classmethod
    def build(
        cls, candidate_tokens: Sequence[str], secret: int, modulus_cap: int
    ) -> "PairScanPlan":
        """Derive every candidate pair's modulus once, in one bulk pass."""
        size = len(candidate_tokens)
        first_index, second_index = np.triu_indices(size, k=1)
        moduli = np.fromiter(
            chain.from_iterable(upper_triangle_rows(candidate_tokens, secret, modulus_cap)),
            np.int64,
            count=first_index.size,
        )
        valid = moduli >= 2
        rank = np.empty(size, np.int64)
        rank[sorted(range(size), key=candidate_tokens.__getitem__)] = np.arange(size)
        return cls(
            candidate_tokens=tuple(candidate_tokens),
            rank=rank,
            first_index=first_index,
            second_index=second_index,
            moduli=moduli,
            need=(moduli + 1) // 2,
            safe_moduli=np.where(valid, moduli, 1),
            valid=valid,
        )

    def scan(
        self,
        counts: "np.ndarray",
        slack: "np.ndarray",
        *,
        require_modification: bool = False,
    ) -> List[EligiblePair]:
        """One dataset's eligibility scan over the cached pair plan.

        ``counts`` / ``slack`` are the candidate tokens' frequencies and
        binding boundaries (aligned with :attr:`candidate_tokens`); the
        arithmetic is one :func:`pair_scan` over the plan arrays. The
        survivors' :attr:`EligiblePair.cost` is computed as an array, and
        one ``np.lexsort`` by cost, then the first and the second token's
        :attr:`rank`, gives the ``(cost, pair)`` order the loop sorts into.
        """
        survivors, remainder, difference = pair_scan(
            counts,
            slack,
            first_index=self.first_index,
            second_index=self.second_index,
            need=self.need,
            safe_moduli=self.safe_moduli,
            valid=self.valid,
            require_modification=require_modification,
        )
        moduli = self.moduli[survivors]
        cost = np.where(remainder <= moduli // 2, remainder, moduli - remainder)
        first = self.first_index[survivors]
        second = self.second_index[survivors]
        order = np.lexsort((self.rank[second], self.rank[first], cost))
        tokens = self.candidate_tokens
        return [
            EligiblePair(
                pair=TokenPair(tokens[i], tokens[j]),
                modulus=modulus,
                remainder=remainder_ij,
                frequency_difference=difference_ij,
            )
            for i, j, modulus, remainder_ij, difference_ij in zip(
                first[order].tolist(),
                second[order].tolist(),
                moduli[order].tolist(),
                remainder[order].tolist(),
                difference[order].tolist(),
            )
        ]


def generate_eligible_pairs(
    histogram: TokenHistogram,
    secret: int,
    modulus_cap: int,
    *,
    max_candidates: Optional[int] = None,
    excluded_tokens: Optional[Sequence[str]] = None,
    require_modification: bool = False,
    context: Optional[EligibilityContext] = None,
    plan_store: Optional[Dict[Tuple[str, ...], PairScanPlan]] = None,
) -> List[EligiblePair]:
    """Compute the eligible pair list ``L_e`` for a histogram.

    Parameters
    ----------
    histogram:
        The original dataset's token histogram.
    secret:
        The high-entropy secret ``R``.
    modulus_cap:
        The modulus cap ``z``, in ``[2,``
        :data:`~repro.core.config.MAX_MODULUS_CAP` ``]``.
    max_candidates:
        Optional cap on the number of tokens considered (see module doc).
    excluded_tokens:
        Tokens the owner wants to shield from any frequency change (the
        paper's footnote 3); pairs touching them are never eligible.
    require_modification:
        Hardening extension beyond the paper: when True, pairs whose
        frequency difference is *already* a multiple of ``s_ij`` are not
        eligible. Such "free" pairs maximise the paper's objective but
        embed no evidence — they verify on the unwatermarked original as
        well — so owners who need the watermark to discriminate versions
        (dispute arbitration, provenance chains, per-buyer tracing) should
        enable this.
    context:
        A prebuilt :class:`EligibilityContext` for this histogram and
        these knobs, skipping the histogram-side precomputation. Batch
        embedding reuses one context across many candidate secrets.
    plan_store:
        Candidate-vocabulary -> :class:`PairScanPlan` map for this
        ``(secret, modulus_cap)``. Up to :data:`VECTOR_SCAN_MAX_PAIRS`
        candidate pairs, the scan runs vectorized over the vocabulary's
        plan, built on first use and reused when the candidate token
        list repeats across a batch. Without a store, or past that
        size, the scan loops over the same rows of moduli
        (:func:`~repro.core.hashing.upper_triangle_rows`); results are
        identical.

    Returns
    -------
    list of :class:`EligiblePair`, ordered by (remainder cost, pair) so the
    output is deterministic for a given histogram and secret.
    """
    if not 2 <= modulus_cap <= MAX_MODULUS_CAP:
        raise EligibilityError(
            f"modulus cap z must be in [2, 2**63 - 1], got {modulus_cap}"
        )
    if len(histogram) < 2:
        return []
    if context is None:
        context = EligibilityContext.build(
            histogram,
            max_candidates=max_candidates,
            excluded_tokens=excluded_tokens,
        )
    candidate_indices = context.candidate_indices
    tokens = context.tokens
    counts_list = context.counts
    slack_list = context.slack
    pair_count = len(candidate_indices) * (len(candidate_indices) - 1) // 2
    if plan_store is not None and pair_count <= VECTOR_SCAN_MAX_PAIRS:
        candidate_tokens = tuple(tokens[i] for i in candidate_indices)
        plan = plan_store.get(candidate_tokens)
        if plan is None:
            plan = PairScanPlan.build(candidate_tokens, secret, modulus_cap)
            plan_store[candidate_tokens] = plan
            # Bound the store by retained pairs. Hits below re-insert
            # their key, so dict order is least-recently-used-first and
            # eviction drops the coldest plan.
            while (
                len(plan_store) > 1
                and sum(len(entry.moduli) for entry in plan_store.values())
                > PLAN_STORE_PAIR_BUDGET
            ):
                plan_store.pop(next(iter(plan_store)))
        else:
            # Move-to-end so a repeating vocabulary survives eviction.
            plan_store[candidate_tokens] = plan_store.pop(candidate_tokens)
        counts = np.fromiter(
            (counts_list[i] for i in candidate_indices),
            dtype=np.int64,
            count=len(candidate_indices),
        )
        slack = np.fromiter(
            (slack_list[i] for i in candidate_indices),
            dtype=np.int64,
            count=len(candidate_indices),
        )
        return plan.scan(counts, slack, require_modification=require_modification)
    rows = upper_triangle_rows(
        [tokens[i] for i in candidate_indices], secret, modulus_cap
    )
    eligible: List[EligiblePair] = []
    for position, (i, row) in enumerate(zip(candidate_indices, rows)):
        token_i = tokens[i]
        slack_i = slack_list[i]
        frequency_i = counts_list[i]
        for j, modulus in zip(candidate_indices[position + 1 :], row):
            token_j = tokens[j]
            if not _boundary_allows(modulus, slack_i, slack_list[j]):
                continue
            difference = frequency_i - counts_list[j]
            remainder = difference % modulus
            if require_modification and remainder == 0:
                continue
            eligible.append(
                EligiblePair(
                    pair=TokenPair(token_i, token_j),
                    modulus=modulus,
                    remainder=remainder,
                    frequency_difference=difference,
                )
            )
    eligible.sort(key=lambda item: (item.cost, item.pair))
    return eligible


def eligible_pair_index(pairs: Sequence[EligiblePair]) -> Dict[TokenPair, EligiblePair]:
    """Index eligible pairs by their token pair for O(1) lookups."""
    return {item.pair: item for item in pairs}


__all__ = [
    "EligiblePair",
    "EligibilityContext",
    "PairScanPlan",
    "PLAN_STORE_PAIR_BUDGET",
    "VECTOR_SCAN_MAX_PAIRS",
    "iter_candidate_pairs",
    "generate_eligible_pairs",
    "eligible_pair_index",
]
