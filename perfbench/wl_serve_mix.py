"""``serve-mix``: closed loop of pipelined request bursts against ``freqywm serve``.

One client (this process) drives one Unix-socket connection: the main
thread writes a burst of 100 request lines back to back and a reader
thread collects the answers; the next burst starts when the last answer
of this one has arrived (``freqywm client`` pipelines its files the same
way). The server is one ``freqywm serve --socket S --vault V --secret ...``
subprocess with the default ``ServiceConfig``. Every burst holds, in a
fixed order, 96 fingerprint-referenced ``detect`` (suspects sent as
``counts`` of about 1,000 tokens, half watermarked copies, half
unrelated draws), 3 ``attribute`` against a vault pre-filled with 2,000
buyers and 1 ``register`` of a new buyer. Detects go to 16 owner secrets,
twice the detector cache's default capacity of 8, drawn with a Zipf skew
so the cache both hits and misses. One op is one burst, first byte sent
to last answer received.

Why a closed loop: an open loop at a fixed 40 requests/s (latency from
each request's scheduled send time) was built first. Its per-run detect
p50 moved between 7.8 and 17.2 ms across ten seeds (IQR 46% of the
median), because at that load a request's latency is mostly thread
hand-offs (event loop, executor, client reader) whose delay follows the
host's CPU steal. A burst's time is CPU work in the server and moves
with host speed only. Why these sizes: a ``register`` makes the next
``attribute`` rebuild the vault's candidate index in Python (about
130 ms at 5,000 buyers) while detects wait behind it; with 7% attribute
and 3% register that rebuild dominated the mix.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from pathlib import Path

import numpy as np

import common
import hostspeed
import inputs

OWNERS = 16
OWNER_SIZE = 1_000_000
BUYERS = 2000
BUYER_PAIRS = 20
VERBS = ("detect", "attribute", "register")
#: Each burst: 96 detect, 3 attribute and 1 register request.
BURST = 100
ATTRIBUTE_SLOTS = (20, 50, 80)
REGISTER_SLOT = 35
#: Distinct burst layouts; burst b uses layout b % LAYOUTS with its own
#: new buyer for the register.
LAYOUTS = 8
UNRELATED = 2
SETUPS = 3
ATTRIBUTE_THRESHOLD = 1  # the vault's default attribution threshold t


class _Inputs:
    """Everything the run sends, with the answer each request must get."""

    def __init__(self, seed: int, tmp: Path) -> None:
        from repro.core.generator import WatermarkGenerator
        from repro.core.histogram import TokenHistogram
        from repro.core.secrets import WatermarkSecret

        self.secret_files, self.fingerprints, self.suspects = [], [], []
        owner_secrets = []
        universe = []
        for owner in range(OWNERS):
            names = inputs.token_names(f"own{owner:02d}")
            universe.extend(names)
            rng = inputs.rng_for(seed, 10, owner)
            counts = inputs.power_law_counts(rng, 1.0, OWNER_SIZE, names)
            result = WatermarkGenerator().generate(
                TokenHistogram.from_counts(counts), secret_value=inputs.secret_value(rng)
            )
            path = tmp / f"owner{owner:02d}.json"
            result.secret.save(path)
            self.secret_files.append(str(path))
            self.fingerprints.append(result.secret.fingerprint())
            owner_secrets.append(result.secret)
            copies = [result.watermarked_histogram.as_dict()]
            copies += [inputs.power_law_counts(rng, 1.0, OWNER_SIZE, names) for _ in range(UNRELATED)]
            self.suspects.append(copies)

        # Vault buyers: the owners plus random-pair secrets over the owners' tokens.
        rng = inputs.rng_for(seed, 11)
        self.buyers = [(f"owner-{k:02d}", secret) for k, secret in enumerate(owner_secrets)]
        for index in range(BUYERS - OWNERS):
            owner = int(rng.integers(OWNERS))
            picks = rng.choice(inputs.N_TOKENS, size=2 * BUYER_PAIRS, replace=False)
            pairs = [(f"own{owner:02d}-{picks[2 * i]:04d}", f"own{owner:02d}-{picks[2 * i + 1]:04d}") for i in range(BUYER_PAIRS)]
            self.buyers.append((f"buyer-{index:05d}", WatermarkSecret.build(pairs, inputs.secret_value(rng), 131)))

        # Burst layouts, fixed before set-up. The verbs sit at the same
        # slots in every burst (the register before the second attribute,
        # which then pays the index rebuild), so a burst costs the same
        # work whatever the seed; the seed picks owners and suspects.
        rng = inputs.rng_for(seed, 12)
        self.layouts = []  # per layout: [(verb, owner, variant) | ("register",)]
        for _ in range(LAYOUTS):
            layout = []
            for slot in range(BURST):
                if slot == REGISTER_SLOT:
                    layout.append(("register",))
                    continue
                verb = "attribute" if slot in ATTRIBUTE_SLOTS else "detect"
                owner = int(inputs.zipf_choice(rng, OWNERS, 1)[0]) if verb == "detect" else int(rng.integers(OWNERS))
                variant = 0 if rng.random() < 0.5 else 1 + int(rng.integers(UNRELATED))
                layout.append((verb, owner, variant))
            self.layouts.append(layout)
        self.new_buyers = inputs.rng_for(seed, 13)
        self.new_names = inputs.token_names("new")
        self._answers(owner_secrets, universe)

    def new_buyer(self, burst: int):
        """The buyer id and secret the register of burst ``burst`` adds
        (tokens no suspect contains, so attribution answers never change)."""
        from repro.core.secrets import WatermarkSecret

        picks = self.new_buyers.choice(inputs.N_TOKENS, size=2 * BUYER_PAIRS, replace=False)
        pairs = [(self.new_names[picks[2 * i]], self.new_names[picks[2 * i + 1]]) for i in range(BUYER_PAIRS)]
        return f"new-{burst:05d}", WatermarkSecret.build(pairs, inputs.secret_value(self.new_buyers), 131)

    def _answers(self, owner_secrets, universe) -> None:
        """Expected verdicts and match sets, by the paper's acceptance rule.

        Buyers registered during the run use tokens no suspect contains,
        so they never change an attribution answer.
        """
        owner_moduli = [
            [common.pair_modulus(p.first, p.second, s.secret, s.modulus_cap) for p in s.pairs]
            for s in owner_secrets
        ]
        owner_pairs = [[(p.first, p.second) for p in s.pairs] for s in owner_secrets]
        self.detect_answer = {
            (owner, variant): common.expected_accepted(counts, owner_pairs[owner], owner_moduli[owner], 0)
            for owner, copies in enumerate(self.suspects)
            for variant, counts in enumerate(copies)
        }
        position = {token: index for index, token in enumerate(universe)}
        synthetic = self.buyers[OWNERS:]
        first = np.array([[position[p.first] for p in s.pairs] for _b, s in synthetic])
        second = np.array([[position[p.second] for p in s.pairs] for _b, s in synthetic])
        moduli = np.array([[common.pair_modulus(p.first, p.second, s.secret, s.modulus_cap) for p in s.pairs] for _b, s in synthetic])
        safe = np.where(moduli >= 2, moduli, 1)
        required = -(-BUYER_PAIRS // 2)
        self.attribute_answer = {}
        for owner, copies in enumerate(self.suspects):
            for variant, counts in enumerate(copies):
                vector = np.zeros(len(universe), dtype=np.int64)
                for token, count in counts.items():
                    vector[position[token]] = count
                f1, f2 = vector[first], vector[second]
                accepted = (f1 > 0) & (f2 > 0) & (moduli >= 2) & ((f1 - f2) % safe <= ATTRIBUTE_THRESHOLD)
                matched = {synthetic[row][0] for row in np.flatnonzero(accepted.sum(axis=1) >= required)}
                matched |= {
                    f"owner-{k:02d}"
                    for k in range(OWNERS)
                    if common.expected_accepted(counts, owner_pairs[k], owner_moduli[k], ATTRIBUTE_THRESHOLD)
                }
                self.attribute_answer[(owner, variant)] = matched


def _prefill(vault_dir: Path, buyers) -> None:
    from repro.dispute.vault import SecretVault

    vault = SecretVault(vault_dir)
    for buyer_id, secret in buyers:
        vault.register(buyer_id, secret)


class _Connection:
    """One Unix-socket connection speaking the service's JSON lines."""

    def __init__(self, path: str, proc, timeout: float = 60.0) -> None:
        deadline = common.now() + timeout
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                sock.close()
                if proc.poll() is not None or common.now() > deadline:
                    raise RuntimeError(f"server did not start listening on {path}")
                time.sleep(0.002)
        self.sock = sock
        self.reader = sock.makefile("rb")

    def send(self, line: str) -> None:
        self.sock.sendall(line.encode("utf-8") + b"\n")

    def receive(self) -> bytes:
        return self.reader.readline()

    def close(self) -> None:
        # Shut down first: it wakes a reader thread blocked in receive(),
        # which otherwise holds the file's lock that close() needs.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.reader.close()
        self.sock.close()


def run(seed: int, seconds: float, trace: bool) -> None:
    from repro.service.wire import (
        AttributeRequest, DetectRequest, RegisterRequest, StatsRequest, decode_response, encode_line,
    )

    host = common.HostContext()
    tmp = common.scratch_dir()
    prepare_start = common.now()
    data = _Inputs(seed, tmp)
    vault_dir = tmp / "vault"
    _prefill(vault_dir, data.buyers)
    sock_path = str(tmp / "svc.sock")
    argv = ["serve", "--socket", sock_path, "--vault", str(vault_dir)]
    for path in data.secret_files:
        argv += ["--secret", path]

    def detect_request(request_id, owner, variant):
        return DetectRequest(request_id=request_id, counts=data.suspects[owner][variant],
                             secret_fingerprint=data.fingerprints[owner])

    # Detect and attribute lines are encoded before set-up, each encode
    # timed; a burst's register line is encoded between bursts.
    layouts, encode_s = [], []
    for layout in data.layouts:
        lines = []
        for slot, item in enumerate(layout):
            request_id = f"{item[0][0]}{slot}"
            if item[0] == "register":
                lines.append((request_id, None))
                continue
            if item[0] == "detect":
                request = detect_request(request_id, item[1], item[2])
            else:
                request = AttributeRequest(request_id=request_id, counts=data.suspects[item[1]][item[2]])
            start = common.now()
            lines.append((request_id, encode_line(request)))
            encode_s.append(common.now() - start)
        layouts.append(lines)
    prepare_s = common.now() - prepare_start

    probe = hostspeed.Probe("serve-mix")
    probe.measure()
    children = common.Children()
    setup_spans, span_files = [], []
    try:
        for attempt in range(SETUPS):
            span_file = tmp / f"server{attempt}.spans" if trace else None
            span_files.append(span_file)
            mark = probe.start()
            proc = children.spawn_cli(argv, tmp / f"server{attempt}.log", span_file)
            conn = _Connection(sock_path, proc)
            conn.send(encode_line(detect_request(f"warm{attempt}", 0, 0)))
            warm = decode_response(conn.receive().decode("utf-8"))
            setup_spans.append(probe.stop(mark))
            probe.measure()
            if not (warm.ok and warm.accepted == data.detect_answer[(0, 0)]):
                raise RuntimeError(f"warm-up detect failed: {warm}")
            if attempt < SETUPS - 1:
                conn.close()
                children.stop(proc)

        answers: "queue.Queue" = queue.Queue()

        def read_responses() -> None:
            while True:
                raw = conn.receive()
                if not raw:
                    return
                arrived = common.now()
                answers.put((arrived, decode_response(raw.decode("utf-8")), common.now() - arrived))

        threading.Thread(target=read_responses, daemon=True).start()
        bursts, attempted, failed = [], 0, 0  # an Interval per burst, None if it failed
        verb_ms = {verb: [] for verb in VERBS}
        client, hits, decodes, sizes = {}, [], [], []
        phase_start = common.now()
        while common.now() - phase_start < seconds:
            burst = len(bursts)
            layout = data.layouts[burst % LAYOUTS]
            buyer_id, secret = data.new_buyer(burst)
            lines = [
                (rid, line if line is not None else encode_line(
                    RegisterRequest(request_id=rid, buyer_id=buyer_id, secret=secret.to_dict())))
                for rid, line in layouts[burst % LAYOUTS]
            ]
            sent = {}
            mark = probe.start()
            for rid, line in lines:
                sent[rid] = common.now()
                conn.send(line)
            got = {}
            try:
                for _ in lines:
                    arrived, response, decode = answers.get(timeout=60.0)
                    got[response.request_id] = (arrived, response, decode)
            except queue.Empty:
                pass
            interval = probe.stop(mark, max((entry[0] for entry in got.values()), default=None))
            burst_ok = len(got) == len(lines)
            for slot, (rid, line) in enumerate(lines):
                item = layout[slot]
                entry = got.get(rid)
                ok = entry is not None and entry[1].ok
                if ok and item[0] == "detect":
                    ok = entry[1].accepted == data.detect_answer[(item[1], item[2])]
                    client[f"{burst}:{rid}"] = {"latency": entry[0] - sent[rid], "decode": entry[2]}
                    hits.append(entry[1].cache_hit)
                elif ok and item[0] == "attribute":
                    matched = {buyer for buyer, _score in entry[1].matches}
                    ok = matched == data.attribute_answer[(item[1], item[2])]
                elif ok:
                    ok = entry[1].vault_size == BUYERS + burst + 1
                attempted += 1
                if ok:
                    verb_ms[item[0]].append((entry[0] - sent[rid]) * 1e3)
                    decodes.append(entry[2])
                    sizes.append(len(line) + 1)
                else:
                    failed += 1
                    burst_ok = False
            bursts.append(interval if burst_ok else None)
            probe.tick()
        conn.send(encode_line(StatsRequest(request_id="stats")))
        try:
            stats = answers.get(timeout=30.0)[1]
        except queue.Empty:
            stats = None
        server_rss = common.vmhwm_mb(proc.pid)
        conn.close()
        children.stop(proc)
    finally:
        children.close()

    views = (stats.metrics or {}).get("views", {}) if stats is not None and stats.ok else {}
    service_view = views.get("service", {}) if isinstance(views.get("service"), dict) else {}
    burst_ms = [probe.scale(burst) * 1e3 if burst else float("inf") for burst in bursts]
    setups = [probe.scale(span, hostspeed.SETUP) for span in setup_spans]
    metrics = {
        "setup_s": (common.median(setups), "s"),
        "peak_rss_mb": (server_rss, "MiB"),
        "op_p50_ms": (common.op_p50(burst_ms), "ms"),
        "ops_per_s": (common.rate(attempted - failed, [v / 1e3 for v in burst_ms]), "1/s"),
    }
    detail = {
        "workload": "serve-mix",
        "inputs_s": prepare_s,
        "setup_s_samples": setups,
        "setup_s_raw": [end - start for start, end, _ in setup_spans],
        "burst_ms": common.summary(burst_ms),
        "burst_wall_ms_raw": common.summary([(b[1] - b[0]) * 1e3 for b in bursts if b]),
        "stolen_s": sum(b[2] for b in bursts if b),
        "probe": probe.summary(bursts),
        "within_burst_latency_ms": {verb: common.summary(values) for verb, values in verb_ms.items()},
        "cache_hit_rate": sum(hits) / len(hits) if hits else 0.0,
        "server_stats": service_view,
        "host": host.finish(),
    }
    if trace:
        import layers
        import tracing

        spans = [span for path in span_files for span in tracing.load(path)]
        extras = {
            "service.client_encode_us": common.median(encode_s) * 1e6,
            "service.client_decode_us": common.median(decodes) * 1e6 if decodes else 0.0,
            "service.request_bytes": common.median(sizes) if sizes else 0.0,
            "service.mean_batch_size": float(service_view.get("mean_batch_size", 0.0)),
            "service.failures": float(service_view.get("failures", 0)),
            "core.cache_hit_rate": detail["cache_hit_rate"],
        }
        detail["end_to_end"] = {name: value for name, (value, _unit) in metrics.items()}
        metrics = probe.scale_times(layers.compute(spans, phase_start, extras, client))
    common.emit(failed == 0, attempted, failed, metrics, detail)
