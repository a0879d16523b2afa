"""Typed request/response wire format of the watermarking service.

Eight verbs share the JSON-lines transport, discriminated by the
optional ``op`` field:

* **detect** (the default when ``op`` is absent) — *is this dataset
  watermarked with that secret?* The dataset travels either as a raw
  token list (``tokens``) or — far more compactly — as its frequency
  histogram (``counts``); the secret travels either inline (``secret``,
  the JSON payload of :meth:`~repro.core.secrets.WatermarkSecret.to_dict`)
  or as a fingerprint reference (``secret_fingerprint``) to a secret
  registered with the service ahead of time, so the secret material
  crosses the wire once, not per request.
* **embed** (``op: "embed"``) — *watermark this dataset for me*: the
  service runs ``WM_Generate`` and answers with the watermarked
  histogram (or edited token sequence) plus the freshly produced secret
  list, which the owner must store.
* **register** (``op: "register"``) — *vault this buyer's watermark*:
  the secret enters the service's multi-tenant registry (the in-memory
  :class:`~repro.dispute.registry.WatermarkRegistry`, or the persistent
  :class:`~repro.dispute.vault.SecretVault` under ``serve --vault``).
* **revoke** (``op: "revoke"``) — withdraw a buyer's watermark from the
  vault, appending an entry to the hash-chained ledger.
* **attribute** (``op: "attribute"``) — *whose watermark does this
  leaked copy carry?* The service runs the index-backed registry lookup
  and answers with the matching buyers, strongest first.
* **stats** (``op: "stats"``) — the answering service's stats groups.
* **task** (``op: "task"``) / **result** (``op: "result"``) — the
  distributed-scheduler leg: a :class:`~repro.exec.remote.RemoteScheduler`
  ships one fingerprinted :class:`~repro.exec.scheduler.TaskSpec` per
  ``task`` line to a ``freqywm worker`` process, which answers with one
  ``result`` line. A ``task`` line whose ``function`` is
  ``"__heartbeat__"`` is a liveness probe: workers answer it
  immediately, even while a real task is running.

Task payloads and results never ride inside the JSON: a line whose
``frames`` field lists byte counts is followed by exactly those
**length-prefixed binary frames** on the same stream — pickle-protocol-5
metadata plus out-of-band buffers. Pickle on the wire assumes a
*trusted* transport, as between a local scheduler and its forked
workers, which speak these same verbs (see ``docs/scheduler.md``).
``task`` lines may carry ``blob_refs`` (SHA-256 digests of shared
values); a worker missing
a digest asks for it once with a ``blob-request`` line and the client
answers with a ``blob`` line + frames, so a 200-task sweep ships a
shared secret once per worker rather than once per task.

On the transport, each request and each response is **one JSON object per
line** (JSON-lines). Responses carry the request's ``id`` so they may be
delivered out of order; detect responses' ``cache_hit`` tells whether
the detector came from the service's cache, and their ``batch_size`` is
always ``1`` (it stays on the wire for protocol-5 peers).

Every message class declares each field once with :func:`_wire` — its
JSON kind, when it is written, and its wire key — and one codec
(:class:`_Message`) derives ``to_dict`` / ``from_dict`` from those
declarations for all sixteen classes. Decoding checks every field's JSON
type, so a malformed line of any verb fails with a
:class:`~repro.exceptions.ServiceError` naming the offending field.

A dataset's ``counts`` travel as two arrays, ``{"tokens": [...],
"counts": [...]}``, and are checked once, when the line is decoded
(:func:`~repro.core.histogram.checked_arrays`): the request then holds a
:class:`~repro.core.histogram.TokenCounts` that no later layer checks
again.

Every line :func:`encode_line` produces also carries the protocol
version as ``v`` (an absent ``v`` means version 1, the pre-registry
wire). The compatibility rule: a peer accepts any line whose version is
*at most* its own :data:`PROTOCOL_VERSION` — decoders ignore unknown
fields — and rejects higher versions with the error envelope rather
than guessing at semantics it does not know. Fields were only ever
added, with one exception: version 5 replaced the token→count object
form of ``counts`` with the two arrays, and a ``counts`` object of the
old form is refused at any ``v``.
The field-by-field schema per verb is documented in ``docs/service.md``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.detector import DetectionResult, SuspectData
from repro.core.generator import WatermarkResult
from repro.core.histogram import TokenCounts, TokenHistogram, checked_arrays, checked_counts
from repro.core.secrets import WatermarkSecret
from repro.exceptions import ConfigurationError, HistogramError, ServiceError
from repro.obs.trace import span as trace_span

#: Version of the wire protocol this module speaks. Version 1 is the
#: pre-registry wire (detect/embed, no ``v`` field); version 2 added the
#: ``register``/``revoke``/``attribute`` verbs and the ``v`` field
#: itself; version 3 added the scheduler's ``task``/``result`` verbs.
#: Version 4 adds the data plane: length-prefixed binary frames after a
#: line (the ``frames`` field lists their sizes), the ``blob`` /
#: ``blob-request`` verbs, and ``blob_refs`` on task lines. Version 5
#: sends ``counts`` as two arrays, ``{"tokens": [...], "counts": [...]}``,
#: instead of a token→count object, which is no longer read. Peers
#: accept lines with ``v`` at most their own version (absent means 1)
#: and reject higher ones — see the module docstring.
PROTOCOL_VERSION = 5

#: ``function`` value marking a task request as a liveness probe.
HEARTBEAT_FUNCTION = "__heartbeat__"

#: Upper bound on any single binary frame a line may announce; a
#: corrupt length must never talk a peer into an unbounded allocation.
MAX_FRAME_BYTES = 1 << 31

#: Line-length cap of every stream transport (``serve --socket`` and
#: both worker listeners). Request lines carry whole histograms and
#: token lists — a detect line whose ``counts`` hold 6,000 tokens is
#: ~95 KB — so asyncio's 64 KiB default would sever the connection on
#: ordinary requests. Binary frames are read by size, not by line.
MAX_LINE_BYTES = 1 << 27

#: Keys accepted in a request's ``config`` object (DetectionConfig kwargs).
_CONFIG_KEYS = frozenset(
    {
        "pair_threshold",
        "pair_threshold_fraction",
        "min_accepted_pairs",
        "min_accepted_fraction",
        "symmetric_tolerance",
    }
)

#: Keys accepted in an embed request's ``config`` object
#: (GenerationConfig kwargs).
_GENERATION_CONFIG_KEYS = frozenset(
    {
        "budget_percent",
        "modulus_cap",
        "strategy",
        "metric",
        "secret_bits",
        "max_candidates",
        "excluded_tokens",
        "require_modification",
        "max_pairs",
    }
)


# --------------------------------------------------------------------- #
# Field kinds: the JSON type of a field and its attribute <-> JSON map
# --------------------------------------------------------------------- #


def _same(value: Any) -> Any:
    """Identity: the attribute already is its JSON form."""
    return value


class _Kind(NamedTuple):
    """The JSON type of one field.

    ``decode`` maps a JSON value to the attribute value, raising
    ``TypeError`` / ``ValueError`` when the value has the wrong shape;
    ``expects`` completes the resulting error ("must be ..."). The
    counts kind raises :class:`~repro.exceptions.HistogramError` instead,
    naming what broke ("has malformed counts: ...");
    ``encode`` maps the attribute back to its JSON form.
    """

    expects: str
    decode: Callable[[Any], Any]
    encode: Callable[[Any], Any] = _same


def _exactly(json_type: type) -> Callable[[Any], Any]:
    """A decoder admitting one exact JSON type (so ``true`` is no integer)."""

    def decode(value: Any) -> Any:
        if type(value) is not json_type:
            raise TypeError(type(value).__name__)
        return value

    return decode


_text = _exactly(str)
_object = _exactly(dict)
_list = _exactly(list)


def _name(value: Any) -> str:
    """A non-empty string."""
    if type(value) is not str or not value:
        raise ValueError(value)
    return value


def _natural(value: Any) -> int:
    """A non-negative integer."""
    if type(value) is not int or value < 0:
        raise ValueError(value)
    return value


def _number(value: Any) -> float:
    """An integer or float JSON number, as a float."""
    if type(value) is not float and type(value) is not int:
        raise TypeError(type(value).__name__)
    return float(value)


_STR_ONLY = frozenset({str})
_COUNTS_KEYS = frozenset({"tokens", "counts"})


def _counts(value: Any) -> TokenCounts:
    """A ``{"tokens": [...], "counts": [...]}`` object, checked once.

    :func:`~repro.core.histogram.checked_arrays` runs the only check a
    counts field gets; the :class:`~repro.core.histogram.TokenCounts` it
    returns passes every later ``checked_counts`` unchanged. Strict: a
    float count would be silently truncated downstream and the verdict
    computed on an altered histogram. Raises
    :class:`~repro.exceptions.HistogramError` naming what broke.
    """
    if type(value) is not dict or value.keys() != _COUNTS_KEYS:
        raise HistogramError('expected an object of exactly "tokens" and "counts"')
    tokens, counts = value["tokens"], value["counts"]
    if type(tokens) is not list or type(counts) is not list:
        raise HistogramError('"tokens" and "counts" must be lists')
    return checked_arrays(tokens, counts)


def _count_arrays(counts: Mapping[str, int]) -> Dict[str, List[Any]]:
    """Invert :func:`_counts`: the tokens and their counts, in insertion order."""
    return {"tokens": list(counts), "counts": list(counts.values())}


def _strings(value: Any) -> Tuple[str, ...]:
    """A list of strings, as a tuple."""
    if type(value) is not list or not _STR_ONLY.issuperset(map(type, value)):
        raise ValueError(value)
    return tuple(value)


def _digests(value: Any) -> Tuple[str, ...]:
    """A list of non-empty strings, as a tuple."""
    return tuple(map(_name, _list(value)))


def _frame_sizes(value: Any) -> Tuple[int, ...]:
    """A list of frame byte counts, each at most :data:`MAX_FRAME_BYTES`."""
    sizes = tuple(map(_natural, _list(value)))
    if sizes and max(sizes) > MAX_FRAME_BYTES:
        raise ValueError(sizes)
    return sizes


def _trace(value: Any) -> Tuple[str, str]:
    """A ``[trace_id, parent_span_id]`` pair of non-empty strings."""
    if type(value) is not list or len(value) != 2:
        raise ValueError(value)
    return (_name(value[0]), _name(value[1]))


def _spans(value: Any) -> Tuple[Dict[str, object], ...]:
    """A list of span objects, as a tuple."""
    return tuple(map(_object, _list(value)))


def _matches(value: Any) -> Tuple[Tuple[str, float], ...]:
    """``{"buyer_id", "accepted_fraction"}`` objects, as ``(buyer, fraction)`` pairs."""
    return tuple(
        (_text(match.get("buyer_id")), _number(match.get("accepted_fraction")))
        for match in map(_object, _list(value))
    )


def _match_objects(matches: Tuple[Tuple[str, float], ...]) -> List[Dict[str, object]]:
    """Invert :func:`_matches`."""
    return [
        {"buyer_id": buyer_id, "accepted_fraction": fraction}
        for buyer_id, fraction in matches
    ]


def _decimal(value: Any) -> int:
    """An integer sent as a decimal string.

    ``R`` may exceed what non-Python JSON consumers keep exact, which
    is why it travels as a string (mirroring ``WatermarkSecret.to_dict``).
    """
    return int(_text(value))


TEXT = _Kind("a string", _text)
NAME = _Kind("a non-empty string", _name)
INTEGER = _Kind("an integer", _exactly(int))
COUNT = _Kind("a non-negative integer", _natural)
FLAG = _Kind("a boolean", _exactly(bool))
NUMBER = _Kind("a number", _number)
OBJECT = _Kind("an object", _object)
COUNTS = _Kind('a {"tokens": [...], "counts": [...]} object', _counts, _count_arrays)
STRINGS = _Kind("a list of strings", _strings, list)
DIGESTS = _Kind("a list of digests", _digests, list)
FRAMES = _Kind("a list of frame byte counts", _frame_sizes, list)
TRACE = _Kind("a [trace_id, parent_span_id] pair of strings", _trace, list)
SPANS = _Kind("a list of span objects", _spans, list)
MATCHES = _Kind(
    "a list of {buyer_id, accepted_fraction} objects", _matches, _match_objects
)
DECIMAL = _Kind("a decimal string", _decimal, str)


# --------------------------------------------------------------------- #
# Write rules: when a field appears on the wire
# --------------------------------------------------------------------- #

#: A write rule sees the message and the field's value.
_Rule = Callable[[Any, Any], bool]


def _always(message: Any, value: Any) -> bool:
    """Written on every line."""
    return True


def _if_set(message: Any, value: Any) -> bool:
    """Written when the value is not ``None``."""
    return value is not None


def _if_nonempty(message: Any, value: Any) -> bool:
    """Written when the value is truthy (non-empty, non-zero, true)."""
    return bool(value)


def _on_success(message: Any, value: Any) -> bool:
    """Written only on a success response."""
    return message.ok


def _on_failure(message: Any, value: Any) -> bool:
    """Written only on a failure response."""
    return not message.ok


def _both(first: _Rule, second: _Rule) -> _Rule:
    """Written when both rules agree."""
    return lambda message, value: first(message, value) and second(message, value)


def _with_frames(message: Any, value: Any) -> bool:
    """Written alongside a non-empty ``frames`` announcement."""
    return bool(message.frames)


def _wire(
    kind: _Kind, when: _Rule = _always, *, key: Optional[str] = None, **default: Any
) -> Any:
    """Declare one message field: its JSON kind, write rule and wire key.

    ``default`` / ``default_factory`` pass through to
    :func:`dataclasses.field`. A field without a default is required on
    the wire; a field defaulting to ``None`` also accepts JSON ``null``.
    The wire key defaults to the attribute name.
    """
    return dataclasses.field(metadata={"wire": (key, kind, when)}, **default)


class _Spec(NamedTuple):
    """One declared field, resolved for the codec loops."""

    name: str
    key: str
    kind: _Kind
    when: _Rule
    required: bool
    nullable: bool


@functools.lru_cache(maxsize=None)
def _specs(message_type: type) -> Tuple[_Spec, ...]:
    """The declared fields of a message class, in declaration order."""
    specs = []
    for item in dataclasses.fields(message_type):
        key, kind, when = item.metadata["wire"]
        specs.append(
            _Spec(
                name=item.name,
                key=key or item.name,
                kind=kind,
                when=when,
                required=item.default is dataclasses.MISSING
                and item.default_factory is dataclasses.MISSING,
                nullable=item.default is None,
            )
        )
    return tuple(specs)


_ABSENT = object()


def _label(message_type: type, request_id: object) -> str:
    """``"<Class> '<id>'"`` for error messages (the class alone without an id)."""
    if type(request_id) is str and request_id:
        return f"{message_type.__name__} {request_id!r}"
    return message_type.__name__


@dataclass(frozen=True)
class _Message:
    """The codec every wire message shares.

    Subclasses are frozen dataclasses declaring every field with
    :func:`_wire`. ``OP`` is the ``op`` value a message is written with;
    detect messages leave it ``None``, since an absent ``op`` means
    detect.
    """

    OP: ClassVar[Optional[str]] = None

    request_id: str = _wire(NAME, key="id")

    def __post_init__(self) -> None:
        if not self.request_id:
            raise ServiceError(
                f"{type(self).__name__} id must be a non-empty string"
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable payload: each field written by its rule.

        Nested containers are shared with the message, not copied.
        """
        payload: Dict[str, object] = {} if self.OP is None else {"op": self.OP}
        for spec in _specs(type(self)):
            value = getattr(self, spec.name)
            if spec.when(self, value):
                payload[spec.key] = spec.kind.encode(value)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> Any:
        """Rebuild a message from :meth:`to_dict` output, checking each field.

        Unknown keys are ignored (the compatibility rule); a missing
        required field or a value of the wrong JSON type raises
        :class:`~repro.exceptions.ServiceError` naming the field, and
        counts that fail their check raise it as ``malformed counts``.
        """
        if type(payload) is not dict:
            raise ServiceError(f"{cls.__name__} payload must be a JSON object")
        values: Dict[str, Any] = {}
        for spec in _specs(cls):
            value = payload.get(spec.key, _ABSENT)
            if value is _ABSENT:
                if spec.required:
                    raise ServiceError(
                        f"{_label(cls, payload.get('id'))} is missing field {spec.key!r}"
                    )
            elif value is None and spec.nullable:
                values[spec.name] = None
            else:
                try:
                    values[spec.name] = spec.kind.decode(value)
                except (TypeError, ValueError, ArithmeticError):
                    raise ServiceError(
                        f"{_label(cls, payload.get('id'))} field {spec.key!r} must be "
                        f"{spec.kind.expects}"
                    ) from None
                except HistogramError as exc:
                    raise ServiceError(
                        f"{_label(cls, payload.get('id'))} has malformed {spec.key}: {exc}"
                    ) from None
        return cls(**values)


class _Reply(_Message):
    """A response: an ``ok`` flag plus an ``error`` written on failure."""

    @classmethod
    def failure(cls, request_id: str, message: str) -> Any:
        """A failure response carrying only the error message."""
        return cls(request_id=request_id, ok=False, error=message)


# --------------------------------------------------------------------- #
# Dataset-carrying requests (detect / embed / attribute)
# --------------------------------------------------------------------- #


def _check_dataset(message: Any, config_keys: frozenset) -> None:
    """Exactly one of ``tokens`` / ``counts``, and only known config keys."""
    label = _label(type(message), message.request_id)
    if (message.tokens is None) == (message.counts is None):
        raise ServiceError(f"{label} must carry exactly one of tokens/counts")
    if message.config is not None:
        unknown = set(message.config) - config_keys
        if unknown:
            raise ServiceError(f"{label} has unknown config keys: {sorted(unknown)}")


def _checked(message: Any) -> TokenCounts:
    """The request's ``counts``, through :func:`~repro.core.histogram.checked_counts`.

    Counts decoded from a line were checked there and pass through; a
    mapping given in Python is checked now, and a malformed one fails as
    a ``malformed counts`` :class:`~repro.exceptions.ServiceError`.
    """
    try:
        return checked_counts(message.counts)
    except HistogramError as exc:
        raise ServiceError(
            f"{_label(type(message), message.request_id)} has malformed counts: {exc}"
        ) from exc


class _Screening:
    """Mixin for requests screening a dataset under detection thresholds."""

    def suspect(self) -> SuspectData:
        """The suspected dataset as detector input.

        ``counts`` come back checked but not sorted into a histogram:
        detection reads them only at the secret's tokens, and
        attribution only at the leaked copy's own tokens.
        """
        if self.counts is None:
            return list(self.tokens or ())
        return _checked(self)

    def detection_config(self) -> Optional[DetectionConfig]:
        """The per-request threshold overrides, decoded — None when absent."""
        if self.config is None:
            return None
        try:
            return DetectionConfig(**self.config)  # type: ignore[arg-type]
        except (ConfigurationError, TypeError) as exc:
            raise ServiceError(
                f"{_label(type(self), self.request_id)} has a malformed config: {exc}"
            ) from exc


@dataclass(frozen=True)
class DetectRequest(_Screening, _Message):
    """One detection request on the service wire.

    Attributes
    ----------
    request_id:
        Caller-chosen correlation id echoed back on the response.
    tokens:
        The suspected dataset as a raw token sequence. Mutually
        exclusive with ``counts``.
    counts:
        The suspected dataset as a token→frequency mapping (compact
        form), sent as two arrays in the mapping's order. A decoded
        line's counts are checked once, at decode, and read only at the
        secret's tokens; counts must be positive (zeros are dropped,
        repeated tokens sum) and fit ``int64``.
    secret:
        Inline secret payload (:meth:`WatermarkSecret.to_dict` shape).
        Mutually exclusive with ``secret_fingerprint``.
    secret_fingerprint:
        Reference to a secret previously registered with the service
        (:meth:`repro.service.service.DetectionService.register_secret`).
    config:
        Optional detection-threshold overrides
        (:class:`~repro.core.config.DetectionConfig` keyword arguments).
    """

    tokens: Optional[Tuple[str, ...]] = _wire(STRINGS, _if_set, default=None)
    counts: Optional[Mapping[str, int]] = _wire(COUNTS, _if_set, default=None)
    secret: Optional[Dict[str, object]] = _wire(OBJECT, _if_set, default=None)
    secret_fingerprint: Optional[str] = _wire(TEXT, _if_set, default=None)
    config: Optional[Dict[str, object]] = _wire(OBJECT, _if_set, default=None)

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_dataset(self, _CONFIG_KEYS)
        if (self.secret is None) == (self.secret_fingerprint is None):
            raise ServiceError(
                f"request {self.request_id!r} must carry exactly one of "
                "secret/secret_fingerprint"
            )

    def inline_secret(self) -> Optional[WatermarkSecret]:
        """The inline secret, decoded — None for fingerprint references."""
        if self.secret is None:
            return None
        try:
            return WatermarkSecret.from_dict(self.secret)
        except ConfigurationError as exc:
            raise ServiceError(
                f"request {self.request_id!r} has a malformed secret: {exc}"
            ) from exc


@dataclass(frozen=True)
class DetectResponse(_Reply):
    """One verdict (or failure) on the service wire.

    ``ok`` distinguishes verdicts from failures: a failure carries only
    ``error``; a verdict mirrors the
    :class:`~repro.core.detector.DetectionResult` counters and annotates
    how the request was executed — ``cache_hit`` tells whether the
    detector came from the LRU cache. ``batch_size`` is the number of
    suspects in the ``detect_many`` pass that answered the request: the
    service answers each detect alone, so it is always ``1``, and the
    field stays so that no protocol-5 peer loses it.
    """

    ok: bool = _wire(FLAG)
    accepted: Optional[bool] = _wire(FLAG, _on_success, default=None)
    accepted_pairs: Optional[int] = _wire(INTEGER, _on_success, default=None)
    required_pairs: Optional[int] = _wire(INTEGER, _on_success, default=None)
    total_pairs: Optional[int] = _wire(INTEGER, _on_success, default=None)
    batch_size: int = _wire(INTEGER, _on_success, default=0)
    cache_hit: bool = _wire(FLAG, _on_success, default=False)
    error: Optional[str] = _wire(TEXT, _on_failure, default=None)
    extra: Dict[str, object] = _wire(OBJECT, _if_nonempty, default_factory=dict)

    @classmethod
    def from_result(
        cls,
        request_id: str,
        result: DetectionResult,
        *,
        batch_size: int,
        cache_hit: bool,
    ) -> "DetectResponse":
        """Wrap a detection result into a wire response."""
        return cls(
            request_id=request_id,
            ok=True,
            accepted=result.accepted,
            accepted_pairs=result.accepted_pairs,
            required_pairs=result.required_pairs,
            total_pairs=result.total_pairs,
            batch_size=batch_size,
            cache_hit=cache_hit,
        )

    @property
    def accepted_fraction(self) -> float:
        """Fraction of stored pairs that verified (0 for failures)."""
        if not self.ok or not self.total_pairs:
            return 0.0
        return (self.accepted_pairs or 0) / self.total_pairs


@dataclass(frozen=True)
class EmbedRequest(_Message):
    """One embedding (generation) request on the service wire.

    Attributes
    ----------
    request_id:
        Caller-chosen correlation id echoed back on the response.
    tokens:
        The dataset to watermark as a raw token sequence. Mutually
        exclusive with ``counts``; required when ``return_tokens``.
    counts:
        The dataset as a token→frequency mapping, sent as two arrays
        like a detect request's (histogram-only embedding: the caller
        applies the frequency changes itself).
    config:
        Optional generation-parameter overrides
        (:class:`~repro.core.config.GenerationConfig` keyword arguments).
    seed:
        Optional integer seed for reproducible embedding. ``None`` (the
        secure default) samples the secret from the OS CSPRNG.
    secret_value:
        Optional explicit secret ``R``, sent as a decimal string. Each
        embed request runs independently on the service (no
        cross-request derivation sharing); for fleet-scale embedding
        under one owner secret use the batch engine
        (:func:`repro.core.batch.embed_many`), which does amortise the
        moduli derivations across the batch.
    return_tokens:
        When True (``tokens`` input only), the response carries the
        edited token sequence, not just the watermarked histogram.
    """

    OP = "embed"

    tokens: Optional[Tuple[str, ...]] = _wire(STRINGS, _if_set, default=None)
    counts: Optional[Mapping[str, int]] = _wire(COUNTS, _if_set, default=None)
    config: Optional[Dict[str, object]] = _wire(OBJECT, _if_set, default=None)
    seed: Optional[int] = _wire(INTEGER, _if_set, default=None)
    secret_value: Optional[int] = _wire(DECIMAL, _if_set, default=None)
    return_tokens: bool = _wire(FLAG, _if_nonempty, default=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_dataset(self, _GENERATION_CONFIG_KEYS)
        if self.return_tokens and self.tokens is None:
            raise ServiceError(
                f"embed request {self.request_id!r} asks for tokens back but "
                "sent only counts"
            )

    def data(self) -> Union[List[str], TokenHistogram]:
        """The dataset as generator input."""
        if self.counts is None:
            return list(self.tokens or ())
        return TokenHistogram.from_counts(_checked(self))

    def generation_config(self) -> GenerationConfig:
        """The generation parameters, decoded (defaults when absent).

        :class:`~repro.core.config.GenerationConfig` checks each field's
        type, so a mistyped one fails as ``malformed config``.
        """
        if self.config is None:
            return GenerationConfig()
        try:
            return GenerationConfig(**self.config)  # type: ignore[arg-type]
        except (ConfigurationError, TypeError) as exc:
            raise ServiceError(
                f"embed request {self.request_id!r} has a malformed config: {exc}"
            ) from exc


@dataclass(frozen=True)
class EmbedResponse(_Reply):
    """One embedding outcome (or failure) on the service wire.

    A success carries the watermarked histogram (``counts``), optionally
    the edited token sequence, the freshly produced secret list payload
    — which the owner must store; it never enters any registry — and the
    generation summary counters.
    """

    OP = "embed"

    ok: bool = _wire(FLAG)
    counts: Mapping[str, int] = _wire(COUNTS, _on_success, default_factory=dict)
    tokens: Optional[Tuple[str, ...]] = _wire(
        STRINGS, _both(_on_success, _if_set), default=None
    )
    secret: Dict[str, object] = _wire(OBJECT, _on_success, default_factory=dict)
    selected_pairs: Optional[int] = _wire(INTEGER, _on_success, default=None)
    similarity_percent: Optional[float] = _wire(NUMBER, _on_success, default=None)
    total_changes: Optional[int] = _wire(INTEGER, _on_success, default=None)
    error: Optional[str] = _wire(TEXT, _on_failure, default=None)

    @classmethod
    def from_result(
        cls,
        request_id: str,
        result: WatermarkResult,
        *,
        include_tokens: bool = False,
    ) -> "EmbedResponse":
        """Wrap a generation result into a wire response."""
        return cls(
            request_id=request_id,
            ok=True,
            counts=result.watermarked_histogram.as_dict(),
            tokens=tuple(result.watermarked_tokens)
            if include_tokens and result.watermarked_tokens is not None
            else None,
            secret=result.secret.to_dict(),
            selected_pairs=result.pair_count,
            similarity_percent=result.similarity_percent,
            total_changes=result.total_changes,
        )

    def watermark_secret(self) -> WatermarkSecret:
        """The produced secret list, decoded (raises for failures)."""
        if not self.ok or not self.secret:
            raise ServiceError(
                f"embed response {self.request_id!r} carries no secret"
            )
        return WatermarkSecret.from_dict(self.secret)


# --------------------------------------------------------------------- #
# Vault verbs (register / revoke / attribute)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RegisterRequest(_Message):
    """One vault registration on the service wire (``op: "register"``).

    Attributes
    ----------
    request_id:
        Caller-chosen correlation id echoed back on the response.
    buyer_id:
        The buyer the watermark was issued to (vault key).
    secret:
        The secret payload (:meth:`WatermarkSecret.to_dict` shape) to
        vault. Unlike detect's fingerprint references, registration
        necessarily carries the material once — that is the transfer
        that makes later fingerprint-free attribution possible.
    metadata:
        Free-form provenance recorded on the chained ledger entry.
    """

    OP = "register"

    buyer_id: str = _wire(NAME)
    secret: Dict[str, object] = _wire(OBJECT)
    metadata: Dict[str, object] = _wire(OBJECT, _if_nonempty, default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.buyer_id:
            raise ServiceError(
                f"register request {self.request_id!r} needs a non-empty buyer_id"
            )

    def watermark_secret(self) -> WatermarkSecret:
        """The secret to vault, decoded."""
        try:
            return WatermarkSecret.from_dict(self.secret)
        except ConfigurationError as exc:
            raise ServiceError(
                f"register request {self.request_id!r} has a malformed secret: {exc}"
            ) from exc


@dataclass(frozen=True)
class _VaultChange(_Reply):
    """The body shared by the register and revoke outcomes."""

    ok: bool = _wire(FLAG)
    buyer_id: Optional[str] = _wire(TEXT, _on_success, default=None)
    fingerprint: Optional[str] = _wire(TEXT, _on_success, default=None)
    vault_size: Optional[int] = _wire(INTEGER, _on_success, default=None)
    error: Optional[str] = _wire(TEXT, _on_failure, default=None)


class RegisterResponse(_VaultChange):
    """One registration outcome (or failure) on the service wire."""

    OP = "register"


@dataclass(frozen=True)
class RevokeRequest(_Message):
    """One vault revocation on the service wire (``op: "revoke"``)."""

    OP = "revoke"

    buyer_id: str = _wire(NAME)
    metadata: Dict[str, object] = _wire(OBJECT, _if_nonempty, default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.buyer_id:
            raise ServiceError(
                f"revoke request {self.request_id!r} needs a non-empty buyer_id"
            )


class RevokeResponse(_VaultChange):
    """One revocation outcome (or failure) on the service wire."""

    OP = "revoke"


@dataclass(frozen=True)
class AttributeRequest(_Screening, _Message):
    """One leak-attribution request on the service wire (``op: "attribute"``).

    The leaked copy travels like a detect request's dataset — ``tokens``
    or (far more compactly) ``counts`` — but no secret accompanies it:
    the whole point is asking the vault *whose* watermark it carries.
    ``config`` optionally overrides the attribution thresholds
    (:class:`~repro.core.config.DetectionConfig` keyword arguments; the
    service default is the registry's ``pair_threshold=1``).
    """

    OP = "attribute"

    tokens: Optional[Tuple[str, ...]] = _wire(STRINGS, _if_set, default=None)
    counts: Optional[Mapping[str, int]] = _wire(COUNTS, _if_set, default=None)
    config: Optional[Dict[str, object]] = _wire(OBJECT, _if_set, default=None)

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_dataset(self, _CONFIG_KEYS)


@dataclass(frozen=True)
class AttributeResponse(_Reply):
    """One attribution outcome (or failure) on the service wire.

    ``matches`` lists the buyers whose watermark verified on the leaked
    copy, strongest (highest accepted-pair fraction) first. ``mode`` /
    ``candidates`` / ``active_secrets`` mirror the registry's
    :class:`~repro.dispute.registry.AttributionStats` so wire clients can
    observe how much the candidate index pruned.
    """

    OP = "attribute"

    ok: bool = _wire(FLAG)
    matches: Tuple[Tuple[str, float], ...] = _wire(MATCHES, _on_success, default=())
    mode: Optional[str] = _wire(TEXT, _on_success, default=None)
    candidates: Optional[int] = _wire(INTEGER, _on_success, default=None)
    active_secrets: Optional[int] = _wire(INTEGER, _on_success, default=None)
    error: Optional[str] = _wire(TEXT, _on_failure, default=None)


# --------------------------------------------------------------------- #
# Scheduler verbs (task / result / blob-request / blob)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TaskRequest(_Message):
    """One scheduler task on the service wire (``op: "task"``).

    The executable part travels as *names* — a registered task
    ``function`` and optional ``initializer`` — while the data parts
    (payload, initializer arguments) follow the line as binary frames
    (pickle protocol 5, see :mod:`repro.exec.blobs`). Pickle on the
    wire is a deliberate trusted-transport trade-off (documented in
    ``docs/scheduler.md``): a local scheduler's forked workers receive
    the very same pickles over a socketpair.

    Attributes
    ----------
    request_id:
        Caller-chosen correlation id echoed back on the result line.
    function:
        Registered task-function name, or :data:`HEARTBEAT_FUNCTION`
        for a liveness probe (all other fields then stay empty).
    initializer:
        Optional registered initializer name for worker-local state.
    init_key:
        Cache key for the initializer product (required with
        ``initializer``).
    fingerprint:
        The task's stable identifier, echoed on the result so lost or
        failed work stays attributable.
    blob_refs:
        SHA-256 digests of blobs this task references. The worker
        fetches any digest it has not cached via ``blob-request``
        before running the task.
    frames:
        Byte sizes of the binary frames following this line.
    payload_frames:
        How many leading entries of ``frames`` belong to the payload
        (metadata frame + out-of-band buffers).
    init_frames:
        How many entries after the payload's belong to the
        initializer arguments (0 = none).
    trace:
        Optional ``(trace_id, parent_span_id)`` telemetry context.
        A worker receiving it records a span for the task and ships
        the span back on the result line.
    """

    OP = "task"

    function: str = _wire(NAME)
    initializer: Optional[str] = _wire(TEXT, _if_set, default=None)
    init_key: str = _wire(TEXT, _if_nonempty, default="")
    fingerprint: str = _wire(TEXT, _if_nonempty, default="")
    blob_refs: Tuple[str, ...] = _wire(DIGESTS, _if_nonempty, default=())
    frames: Tuple[int, ...] = _wire(FRAMES, _if_nonempty, default=())
    payload_frames: int = _wire(COUNT, _with_frames, default=0)
    init_frames: int = _wire(COUNT, _with_frames, default=0)
    trace: Optional[Tuple[str, str]] = _wire(TRACE, _if_set, default=None)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.function:
            raise ServiceError(
                f"task request {self.request_id!r} needs a function name"
            )
        if self.initializer is not None and not self.init_key:
            raise ServiceError(
                f"task request {self.request_id!r} names an initializer "
                "but no init_key"
            )

    @property
    def is_heartbeat(self) -> bool:
        """Whether this request is a liveness probe, not a task."""
        return self.function == HEARTBEAT_FUNCTION


@dataclass(frozen=True)
class TaskResult(_Reply):
    """One scheduler task outcome on the service wire (``op: "result"``).

    A success announces binary ``frames`` after the line holding the
    return value's pickle-protocol-5 serialisation (a heartbeat ack
    carries none). A failure carries the exception's type name and
    message so the client can re-raise a typed error without unpickling
    arbitrary exception objects.

    ``spans`` carries the telemetry spans the worker recorded for this
    task when the request asked for a trace (plain JSON objects, no
    pickling) — the client ingests them into its own tracer so one
    stitched tree spans both processes.
    """

    OP = "result"

    ok: bool = _wire(FLAG)
    error: Optional[str] = _wire(TEXT, _on_failure, default=None)
    error_type: Optional[str] = _wire(
        TEXT, _both(_on_failure, _if_set), default=None
    )
    fingerprint: str = _wire(TEXT, _if_nonempty, default="")
    frames: Tuple[int, ...] = _wire(FRAMES, _if_nonempty, default=())
    spans: Tuple[Dict[str, object], ...] = _wire(SPANS, _if_nonempty, default=())


@dataclass(frozen=True)
class BlobRequest(_Message):
    """A worker asking for a blob it does not hold (``op: "blob-request"``).

    Sent worker→client while a task naming unknown ``blob_refs`` is
    pending; ``request_id`` is the *task's* id so the client can relate
    the fetch to the in-flight task. Each worker asks for a given digest
    at most once per connection — the answer lands in its bounded store.
    """

    OP = "blob-request"

    digest: str = _wire(NAME)


@dataclass(frozen=True)
class BlobResponse(_Message):
    """A blob delivery answering a :class:`BlobRequest` (``op: "blob"``).

    On success the line's ``frames`` announce the blob's binary frames
    (pickle metadata first, then each out-of-band buffer) following on
    the stream. On failure — typically the client evicted the digest —
    ``ok`` is false and ``error``/``error_type`` carry a typed error
    (:class:`~repro.exceptions.BlobNotFoundError`) so the worker can
    fail the dependent task in a way the scheduler retries inline.
    """

    OP = "blob"

    digest: str = _wire(NAME)
    ok: bool = _wire(FLAG, default=True)
    frames: Tuple[int, ...] = _wire(FRAMES, _on_success, default=())
    error: Optional[str] = _wire(TEXT, _on_failure, default=None)
    error_type: Optional[str] = _wire(
        TEXT, _both(_on_failure, _if_set), default=None
    )


# --------------------------------------------------------------------- #
# Telemetry verb (stats)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StatsRequest(_Message):
    """A telemetry snapshot request (``op: "stats"``).

    Asks the service for its stats groups (each object it holds,
    reported by that object's ``as_dict()``) in both exposition forms.
    Carries no arguments beyond the correlation id; the verb is an
    *additive* v4 extension (older peers answer with an unknown-op
    error envelope, which clients surface as a typed failure).
    """

    OP = "stats"


@dataclass(frozen=True)
class StatsResponse(_Reply):
    """The answering service's stats groups for a :class:`StatsRequest`.

    ``metrics`` is ``{"views": {group: {field: value}}}``: one group per
    object the service holds (``service``, ``detector_cache``, then
    ``vault`` once one exists), each that object's ``as_dict()``. ``prometheus`` is the same groups rendered
    by :func:`repro.obs.metrics.render_prometheus`, ready to serve to a
    scraper.
    """

    OP = "stats"

    ok: bool = _wire(FLAG, default=True)
    metrics: Dict[str, object] = _wire(OBJECT, _on_success, default_factory=dict)
    prometheus: str = _wire(TEXT, _on_success, default="")
    error: Optional[str] = _wire(TEXT, _on_failure, default=None)
    error_type: Optional[str] = _wire(
        TEXT, _both(_on_failure, _if_set), default=None
    )


# --------------------------------------------------------------------- #
# Lines
# --------------------------------------------------------------------- #

#: Any verb's request / response, as produced by the line decoders. The
#: blob verbs appear in both unions: ``blob-request`` flows worker→client
#: (decoded with the responses) and ``blob`` flows client→worker (decoded
#: with the requests).
WireRequest = Union[
    DetectRequest,
    EmbedRequest,
    RegisterRequest,
    RevokeRequest,
    AttributeRequest,
    TaskRequest,
    StatsRequest,
    BlobRequest,
    BlobResponse,
]
WireResponse = Union[
    DetectResponse,
    EmbedResponse,
    RegisterResponse,
    RevokeResponse,
    AttributeResponse,
    TaskResult,
    StatsResponse,
    BlobRequest,
    BlobResponse,
]

_REQUEST_TYPES: Dict[str, type] = {
    "detect": DetectRequest,
    **{
        message_type.OP: message_type
        for message_type in (
            EmbedRequest,
            RegisterRequest,
            RevokeRequest,
            AttributeRequest,
            TaskRequest,
            StatsRequest,
            BlobResponse,
            BlobRequest,
        )
    },
}

_RESPONSE_TYPES: Dict[str, type] = {
    "detect": DetectResponse,
    **{
        message_type.OP: message_type
        for message_type in (
            EmbedResponse,
            RegisterResponse,
            RevokeResponse,
            AttributeResponse,
            TaskResult,
            StatsResponse,
            BlobResponse,
            BlobRequest,
        )
    },
}

#: The reply answering each request verb, for failure envelopes.
_REPLY_TYPES: Dict[str, type] = {
    "detect": DetectResponse,
    "embed": EmbedResponse,
    "register": RegisterResponse,
    "revoke": RevokeResponse,
    "attribute": AttributeResponse,
    "stats": StatsResponse,
    "task": TaskResult,
}


def _check_protocol(payload: Dict[str, object]) -> None:
    """Enforce the compatibility rule on a decoded payload's ``v`` field.

    An absent ``v`` means protocol version 1 (the pre-registry wire);
    any integer up to :data:`PROTOCOL_VERSION` is accepted; anything
    newer (or malformed) is rejected so a peer never silently
    misinterprets semantics it does not implement.
    """
    version = payload.get("v", 1)
    if isinstance(version, bool) or not isinstance(version, int) or version < 1:
        raise ServiceError(f"protocol version must be a positive integer, got {version!r}")
    if version > PROTOCOL_VERSION:
        raise ServiceError(
            f"line speaks protocol version {version}, but this peer only "
            f"understands versions up to {PROTOCOL_VERSION}"
        )


def _parse(line: str, side: str) -> Tuple[Dict[str, object], object]:
    """A line's version-checked JSON object and its ``op`` (default detect)."""
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ServiceError(f"{side} line is not valid JSON: {exc}") from exc
    if type(payload) is not dict:
        raise ServiceError(f"{side} line must be a JSON object")
    _check_protocol(payload)
    return payload, payload.get("op", "detect")


def encode_line(message: Any) -> str:
    """Encode a request/response as one JSON line (no trailing newline).

    The line carries the sender's :data:`PROTOCOL_VERSION` as ``v`` next
    to the message payload, so peers can apply the compatibility rule
    before interpreting any verb-specific field.
    """
    with trace_span("service.encode"):
        payload = message.to_dict()
        payload["v"] = PROTOCOL_VERSION
        return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def decode_request(line: str) -> WireRequest:
    """Decode one JSON line into a validated request (any verb).

    The ``op`` field discriminates (absent means ``"detect"``); the
    ``v`` field is checked against :data:`PROTOCOL_VERSION` first.
    Every malformed line raises :class:`~repro.exceptions.ServiceError`.
    """
    with trace_span("service.decode"):
        payload, operation = _parse(line, "request")
        request_type = _REQUEST_TYPES.get(operation) if type(operation) is str else None
        if request_type is None:
            raise ServiceError(f"unknown request op {operation!r}")
        return request_type.from_dict(payload)


def decode_response(line: str) -> WireResponse:
    """Decode one JSON line into a response (any verb, op-discriminated).

    A line with an unknown ``op`` decodes as a detect response, so a
    client still sees the ``id`` / ``ok`` / ``error`` of a newer verb.
    """
    payload, operation = _parse(line, "response")
    response_type = _RESPONSE_TYPES.get(operation) if type(operation) is str else None
    return (response_type or DetectResponse).from_dict(payload)


def announced_frames(payload: Dict[str, object]) -> Tuple[int, ...]:
    """The binary frame sizes a parsed line announces (``()`` for none).

    Raises :class:`~repro.exceptions.ServiceError` for an invalid
    announcement — the same check the codec applies to ``frames``.
    """
    value = payload.get("frames")
    if value is None:
        return ()
    try:
        return _frame_sizes(value)
    except (TypeError, ValueError):
        raise ServiceError(f"'frames' must be {FRAMES.expects}") from None


def failure_for_line(
    line: str, error: Exception, reply_type: Optional[type] = None
) -> WireResponse:
    """A failure answering an undecodable line, with its id when it has one.

    ``reply_type`` fixes the response class (a worker answers every
    line with a :class:`TaskResult`); by default the line's ``op`` picks
    the reply of that verb, and a detect response answers anything else.
    """
    request_id, operation = "?", "detect"
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError):
        payload = None
    if type(payload) is dict:
        if type(payload.get("id")) is str and payload["id"]:
            request_id = payload["id"]
        operation = payload.get("op", "detect")
    if reply_type is None:
        reply_type = (
            _REPLY_TYPES.get(operation, DetectResponse)
            if type(operation) is str
            else DetectResponse
        )
    return reply_type.failure(request_id, str(error))


__all__ = [
    "HEARTBEAT_FUNCTION",
    "MAX_FRAME_BYTES",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "AttributeRequest",
    "AttributeResponse",
    "BlobRequest",
    "BlobResponse",
    "DetectRequest",
    "DetectResponse",
    "EmbedRequest",
    "EmbedResponse",
    "RegisterRequest",
    "RegisterResponse",
    "RevokeRequest",
    "RevokeResponse",
    "StatsRequest",
    "StatsResponse",
    "TaskRequest",
    "TaskResult",
    "WireRequest",
    "WireResponse",
    "announced_frames",
    "decode_request",
    "decode_response",
    "encode_line",
    "failure_for_line",
]
