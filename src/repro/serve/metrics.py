"""Per-link serving metrics: counters, latency histograms, energy accounts.

Two kinds of observability live here:

* **operational** — request/word counters, queue depth, shed and
  deadline-missed counts, a windowed words/s meter, and a log-bucketed
  latency histogram reporting p50/p95/p99;
* **physical** — :class:`EnergyAccount`, which books link words and
  accumulates the *exact* sufficient statistics of the bit stream they put
  on the lines (integer transition Gram matrix, integer ones counts, the
  boundary sample between batches) and prices them with
  :class:`~repro.core.fastpower.CompiledPowerModel`. Because every
  accumulated quantity is an integer exactly representable in float64,
  the account's reported power is *bit-identical* to an offline
  ``CompiledPowerModel(BitStatistics.from_stream(stream), cap).power()``
  over the concatenation of all batches — the live coded-vs-uncoded
  savings a server reports are the paper's numbers, not an estimate.

All classes are thread-safe: the engine updates them from worker threads
while the control plane snapshots them from the event loop.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import constants
from repro.core.assignment import SignedPermutation
from repro.core.fastpower import CompiledPowerModel
from repro.stats.switching import BitStatistics
from repro.tsv.capmodel import LinearCapacitanceModel


#: Bucket boundaries shared by every latency histogram (seconds, 1 us ..
#: ~100 s, 8 per decade).  Module-level so fleet-level merges of
#: histograms recorded in different processes line up bucket for bucket.
_BUCKET_BOUNDS = np.logspace(-6.0, 2.0, 65)


def _percentile_from_counts(
    q: float, total: int, counts: np.ndarray, maximum: float
) -> float:
    """Percentile from one consistent (total, counts, max) snapshot."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in 0..100, got {q}")
    if total == 0:
        return 0.0
    bounds = _BUCKET_BOUNDS
    rank = q / 100.0 * total
    cumulative = 0
    for index, bucket in enumerate(counts):
        if bucket == 0:
            continue
        if cumulative + bucket >= rank:
            lo = bounds[index - 1] if index > 0 else 0.0
            hi = bounds[index] if index < len(bounds) else maximum
            fraction = (rank - cumulative) / bucket
            estimate = lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
            # The true maximum is known exactly; never estimate past it.
            return float(min(estimate, maximum))
        cumulative += bucket
    return maximum


def _summary_from_counts(
    total: int, latency_sum: float, counts: np.ndarray, maximum: float
) -> Dict[str, float]:
    mean = latency_sum / total if total else 0.0
    return {
        "count": float(total),
        "mean_s": mean,
        "p50_s": _percentile_from_counts(50.0, total, counts, maximum),
        "p95_s": _percentile_from_counts(95.0, total, counts, maximum),
        "p99_s": _percentile_from_counts(99.0, total, counts, maximum),
        "max_s": maximum,
    }


def merge_latency_states(
    states: Sequence[Mapping[str, object]],
) -> Dict[str, float]:
    """Fold per-link histogram snapshots into one fleet-level summary.

    The fold is **commutative and order-invariant**: bucket counts and
    totals are integer sums, the maximum is a max, and the mean comes
    from :func:`math.fsum` over the per-histogram sums — fsum returns the
    correctly-rounded true sum, so any permutation of ``states`` (links
    arriving from workers in any order) produces the bit-identical
    summary.  That is what keeps the merge ``@deterministic`` under
    ``lint --exact`` even though workers answer stats races apart.
    """
    n_buckets = len(_BUCKET_BOUNDS) + 1
    counts = np.zeros(n_buckets, dtype=np.int64)
    total = 0
    maximum = 0.0
    sums: List[float] = []
    for state in states:
        if not isinstance(state, Mapping):
            raise ValueError(
                f"histogram state must be a mapping, "
                f"got {type(state).__name__}"
            )
        raw = state.get("counts")
        if raw is None:
            raise ValueError("histogram state is missing 'counts'")
        part = np.asarray(raw, dtype=np.int64)
        if part.shape != (n_buckets,):
            raise ValueError(
                f"histogram state needs {n_buckets} bucket counts, "
                f"got shape {part.shape}"
            )
        if (part < 0).any():
            raise ValueError("histogram bucket counts must be >= 0")
        counts += part
        total += int(state.get("total", int(part.sum())))
        maximum = max(maximum, float(state.get("max_s", 0.0)))
        sums.append(float(state.get("sum_s", 0.0)))
    return _summary_from_counts(total, math.fsum(sums), counts, maximum)


class LatencyHistogram:
    """Log-bucketed latency histogram with percentile estimation.

    Buckets span 1 us .. ~100 s with 8 buckets per decade; percentiles
    interpolate linearly inside the bucket, which is accurate to ~15 %
    everywhere — plenty for p50/p95/p99 serving dashboards.
    """

    def __init__(self) -> None:
        self._bounds = _BUCKET_BOUNDS.tolist()  # seconds; a list to bisect
        self._counts = np.zeros(len(self._bounds) + 1, dtype=np.int64)
        self._total = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        index = bisect.bisect_right(self._bounds, seconds)
        with self._lock:
            self._counts[index] += 1
            self._total += 1
            self._sum += float(seconds)
            if seconds > self._max:
                self._max = float(seconds)

    @property
    def count(self) -> int:
        with self._lock:
            return self._total

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile latency in seconds (0..100)."""
        with self._lock:
            total = self._total
            counts = self._counts.copy()
            maximum = self._max
        return _percentile_from_counts(q, total, counts, maximum)

    def summary(self) -> Dict[str, float]:
        # One snapshot for everything, so p50 <= p95 <= p99 <= max even
        # while recorders are racing this reader.
        with self._lock:
            total, latency_sum = self._total, self._sum
            counts = self._counts.copy()
            maximum = self._max
        return _summary_from_counts(total, latency_sum, counts, maximum)

    def state_dict(self) -> Dict[str, object]:
        """Mergeable snapshot (see :func:`merge_latency_states`)."""
        with self._lock:
            return {
                "counts": [int(c) for c in self._counts],
                "total": int(self._total),
                "sum_s": float(self._sum),
                "max_s": float(self._max),
            }


class RateMeter:
    """Windowed event rate (words per second over the trailing window)."""

    def __init__(self, span_s: float = 10.0) -> None:
        self.span_s = float(span_s)
        self._events: List[tuple] = []  # (monotonic time, count)
        self._total = 0
        self._lock = threading.Lock()

    def add(self, count: int, now: Optional[float] = None) -> None:
        now = time.monotonic() if now is None else now
        with self._lock:
            self._events.append((now, int(count)))
            self._total += int(count)
            self._prune(now)

    def _prune(self, now: float) -> None:
        cutoff = now - self.span_s
        drop = 0
        for stamp, _ in self._events:
            if stamp >= cutoff:
                break
            drop += 1
        if drop:
            del self._events[:drop]

    @property
    def total(self) -> int:
        with self._lock:
            return self._total

    def rate(self, now: Optional[float] = None) -> float:
        now = time.monotonic() if now is None else now
        with self._lock:
            self._prune(now)
            if not self._events:
                return 0.0
            span = now - self._events[0][0]
            count = sum(c for _, c in self._events)
        if span <= 0.0:
            return 0.0
        return count / span


class LinkMetrics:
    """Operational counters and gauges of one served link."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.batches = 0
        self.batched_requests = 0
        self.words_encoded = 0
        self.words_decoded = 0
        self.shed = 0
        self.deadline_missed = 0
        self.errors = 0
        self.queue_depth = 0
        self.max_queue_depth = 0
        self.max_batch_words = 0
        self.latency = LatencyHistogram()
        self.throughput = RateMeter()
        self.created_at = time.monotonic()

    def note_submitted(self, queue_depth: int) -> None:
        with self._lock:
            self.requests += 1
            self.queue_depth = queue_depth
            if queue_depth > self.max_queue_depth:
                self.max_queue_depth = queue_depth

    def note_queue_depth(self, queue_depth: int) -> None:
        with self._lock:
            self.queue_depth = queue_depth

    def note_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def note_deadline_missed(self) -> None:
        with self._lock:
            self.deadline_missed += 1

    def note_error(self) -> None:
        with self._lock:
            self.errors += 1

    def note_batch(self, op: str, n_requests: int, n_words: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += n_requests
            if n_words > self.max_batch_words:
                self.max_batch_words = n_words
            if op == "encode":
                self.words_encoded += n_words
            else:
                self.words_decoded += n_words
        self.throughput.add(n_words)

    def snapshot(self, include_histogram: bool = False) -> Dict[str, object]:
        """Counter/gauge snapshot; ``include_histogram`` adds the raw
        latency bucket state so a fleet front can merge per-link
        histograms with :func:`merge_latency_states`."""
        with self._lock:
            uptime = time.monotonic() - self.created_at
            batches = self.batches
            data = {
                "requests": self.requests,
                "batches": batches,
                "words_encoded": self.words_encoded,
                "words_decoded": self.words_decoded,
                "shed": self.shed,
                "deadline_missed": self.deadline_missed,
                "errors": self.errors,
                "queue_depth": self.queue_depth,
                "max_queue_depth": self.max_queue_depth,
                "max_batch_words": self.max_batch_words,
                "mean_batch_requests": (
                    self.batched_requests / batches if batches else 0.0
                ),
                "uptime_s": uptime,
            }
        data["words_per_s"] = self.throughput.rate()
        data["latency"] = self.latency.summary()
        if include_histogram:
            data["latency_state"] = self.latency.state_dict()
        return data


#: Widest word whose account tallies histograms instead of SGEMMs: its
#: (3**9 + 1) / 2 transition bins are 38 KiB of int32, where 16-bit words
#: would need 86 MiB.  Every link of a 3x3 array fits.
_HISTOGRAM_MAX_WIDTH = 9

#: Words the int32 bins take before they are folded into the int64
#: tallies; no bin counts more than the words booked into the bins.
_BIN_LIMIT = int(np.iinfo(np.int32).max)

#: Words per float32 Gram/ones slab of the wider words.  Partial sums
#: inside one SGEMM or SGEMV are integers bounded by the slab length, far
#: inside float32's exact-integer range (2**24).  Small slabs keep the
#: temporaries in cache: one slab per 25k-word batch took twice as long.
_GRAM_SLAB_ROWS = 1 << 12


@functools.lru_cache(maxsize=None)
def _digit_table(base: int, count: int) -> np.ndarray:
    """``(base**count, count)`` int64 digits of ``0 .. base**count - 1``,
    least significant first; built on first use, read-only."""
    table = np.arange(base ** count)[:, None] // base ** np.arange(count)
    table %= base
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _ternary_codes(width: int) -> np.ndarray:
    """``T[w] = sum_i 3**i b_i(w)`` of every ``width``-bit word.

    ``T[v] - T[u] = sum_i 3**i db_i`` is the balanced-ternary number whose
    digits are the transition ``u -> v``, so ``|T[v] - T[u]|``, in
    ``0 .. (3**width - 1) // 2``, names the transition up to its sign.
    """
    codes = _digit_table(2, width) @ 3 ** np.arange(width)
    codes.flags.writeable = False
    return codes


def _word_bits(word: int, width: int) -> np.ndarray:
    """``(width,)`` int64 bits of one unsigned word, LSB first."""
    return (word >> np.arange(width)) & 1


def _fold_histograms(
    transitions: np.ndarray, values: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Word-bit Gram ``sum_k h[k] d(k) d(k)^T`` and ones ``sum_v h[v] b(v)``.

    ``transitions[k]`` counts the steps ``d`` with ``|sum_i 3**i d_i| = k``;
    ``d`` and ``-d`` add the same ``d d^T``, so each is booked as the one
    whose base-3 code ``k + (3**width - 1) // 2`` has digits ``d_i + 1``.
    Each code splits into its ``low`` least significant digits and the
    rest, so a histogram is a (high, low) matrix ``H`` and only the digit
    tables of the halves are needed: the diagonal blocks weight a half's
    digits by its marginal counts, the cross block is ``D_hi^T H D_lo``.
    No code lies below ``(3**width - 1) // 2``, so ``H`` keeps only the
    rows from that code's high half on, about half of them.  Everything
    is int64 arithmetic, so the fold is exact.
    """
    low = width // 2
    high = width - low
    offset = len(transitions) - 1
    first = offset // 3 ** low
    ternary = np.zeros((3 ** high - first) * 3 ** low, dtype=np.int64)
    ternary[offset - first * 3 ** low:] = transitions
    ternary = ternary.reshape(-1, 3 ** low)
    d_low = _digit_table(3, low) - 1
    d_high = _digit_table(3, high)[first:] - 1
    gram = np.empty((width, width), dtype=np.int64)
    gram[:low, :low] = (d_low.T * ternary.sum(axis=0)) @ d_low
    gram[low:, low:] = (d_high.T * ternary.sum(axis=1)) @ d_high
    gram[low:, :low] = d_high.T @ (ternary @ d_low)
    gram[:low, low:] = gram[low:, :low].T
    binary = np.asarray(values, np.int64).reshape(2 ** high, 2 ** low)
    ones = np.concatenate([binary.sum(axis=0) @ _digit_table(2, low),
                           binary.sum(axis=1) @ _digit_table(2, high)])
    return gram, ones


def _word_levels(words: np.ndarray, width: int) -> np.ndarray:
    """``(len(words), width)`` float32 bits of unsigned words, LSB first."""
    little = np.ascontiguousarray(words, "<i8").view(np.uint8)
    return np.unpackbits(little.reshape(len(words), 8), axis=1, count=width,
                         bitorder="little").astype(np.float32)


def _slab_moments(
    words: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Word-bit Gram of the deltas and ones counts of one batch, by slabs.

    Slab by slab (plus the next slab's first word, for the delta across),
    the word-bit levels feed both tallies through BLAS: the Gram of their
    deltas as an SGEMM, the ones counts as an SGEMV.  Every operand is an
    integer (levels 0/1, deltas 0/±1), so each partial sum is an integer
    bounded by the slab length, and the products are bit-equal to the
    int64 ones in any order.
    """
    gram = np.zeros((width, width), dtype=np.int64)
    ones = np.zeros(width, dtype=np.int64)
    unit = np.ones(min(len(words), _GRAM_SLAB_ROWS), dtype=np.float32)
    for lo in range(0, len(words), _GRAM_SLAB_ROWS):
        levels = _word_levels(words[lo:lo + _GRAM_SLAB_ROWS + 1], width)
        deltas = levels[1:] - levels[:-1]
        body = levels[:_GRAM_SLAB_ROWS]
        gram += (deltas.T @ deltas).astype(np.int64)  # repro: noqa[REP304] integer-valued float32 sums stay < 2**24, exact in any order
        ones += (unit[:len(body)] @ body).astype(np.int64)  # repro: noqa[REP304] integer-valued float32 sums stay < 2**24, exact in any order
    return gram, ones


def _state_array(
    state: Mapping[str, object], key: str, shape: Tuple[int, ...]
) -> np.ndarray:
    """``state[key]`` as an int64 array of ``shape``, else ValueError:
    one error family, so LinkSession.restore's rollback catches it."""
    try:
        array = np.asarray(state.get(key), dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"account state {key!r} must hold integers: {exc}"
        ) from None
    if array.shape != shape:
        raise ValueError(
            f"account state {key!r} must have shape {shape}, "
            f"got {array.shape}"
        )
    return array


class EnergyAccount:
    """Exact online energy accounting of one physical bit stream.

    The stream is ``width``-bit words routed onto the lines by
    ``assignment``; lines past the word width carry zero bits. Accumulates,
    across arbitrarily-sized word batches, the integer line-domain moments
    that :meth:`BitStatistics.from_stream` would compute on the whole
    routed bit stream — the transition Gram matrix ``sum_t db_t db_t^T``,
    the ones count ``sum_t b_t`` and the sample count — keeping the last
    word of the previous batch so inter-batch transitions are counted
    too. All entries stay exactly representable in float64 (they are
    bounded by the sample count), so :meth:`normalized_power` reproduces
    the offline

    ``CompiledPowerModel(BitStatistics.from_stream(stream), cap).power()``

    bit for bit.

    Words are tallied in the word-bit domain and mapped onto the lines
    when the account is read.  Words of up to ``_HISTOGRAM_MAX_WIDTH``
    bits go into two integer histograms, one over the transition vectors
    up to sign and one over the ``2**width`` word values, which hold
    everything the Gram and the ones counts need; wider words go through
    slabbed SGEMMs per batch.
    """

    def __init__(
        self,
        n_lines: int,
        capacitance: Union[np.ndarray, LinearCapacitanceModel],
        width: Optional[int] = None,
        assignment: Optional[SignedPermutation] = None,
    ) -> None:
        self.n_lines = int(n_lines)
        self.width = self.n_lines if width is None else int(width)
        if not 1 <= self.width <= self.n_lines:
            raise ValueError(
                f"width must be in 1..{self.n_lines}, got {self.width} "
                f"(only {self.n_lines} lines)"
            )
        assignment = assignment or SignedPermutation.identity(self.n_lines)
        if assignment.n_bits != self.n_lines:
            raise ValueError(
                f"assignment covers {assignment.n_bits} lines, "
                f"not {self.n_lines}"
            )
        self._capacitance = capacitance
        # Line j carries bit order[j], negated where flip[j]: its deltas
        # change sign and its ones are the zeros of its bit.
        self._order = np.asarray(assignment.bit_of_line, dtype=np.intp)
        self._flip = np.asarray(assignment.inverted, np.uint8)[self._order]
        signs = 1 - 2 * self._flip.astype(np.int64)
        self._signs = np.outer(signs, signs)
        # Line-domain moments of a restored snapshot; rebound, never
        # updated in place.
        self._gram = np.zeros((n_lines, n_lines), dtype=np.int64)
        self._ones = np.zeros(n_lines, dtype=np.int64)
        self._n_samples = 0
        # Word-bit moments of the words booked since: ``_booked`` words,
        # the last one ``_last_word``.  The Gram and ones hold wide
        # batches, their boundary steps and folded bins; the int32 bins
        # hold ``_binned`` words and are allocated on first use.
        self._word_gram = np.zeros((self.width, self.width), dtype=np.int64)
        self._word_ones = np.zeros(self.width, dtype=np.int64)
        self._booked = 0
        self._last_word: Optional[int] = None
        self._transitions: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None
        self._binned = 0
        self._lock = threading.Lock()

    def update(self, words: np.ndarray) -> None:
        """Account one ``(batch,)`` batch of unsigned ``width``-bit words."""
        words = np.asarray(words)
        if words.ndim != 1 or words.dtype.kind not in "iu":
            raise ValueError(f"expected 1-D integer words, got {words.dtype}"
                             f" of shape {words.shape}")
        n, width = len(words), self.width
        if n == 0:
            return
        if words.min() < 0 or words.max() >= 1 << width:
            raise ValueError(f"words outside unsigned range for width {width}")
        words = words.astype(np.intp, copy=False)
        if width > _HISTOGRAM_MAX_WIDTH:
            gram, ones = _slab_moments(words, width)
            with self._lock:
                if self._last_word is not None:
                    # The transition across the batch boundary.
                    step = (_word_bits(int(words[0]), width)
                            - _word_bits(self._last_word, width))
                    gram += np.outer(step, step)
                self._word_gram += gram
                self._word_ones += ones
                self._booked += n
                self._n_samples += n
                self._last_word = int(words[-1])
            return
        # One gather, one diff and two bincounts: the histograms of the
        # transitions, up to sign, and of the word values.
        table = _ternary_codes(width)
        codes = table[words]
        steps = codes[1:] - codes[:-1]
        np.abs(steps, out=steps)
        transitions = np.bincount(steps, minlength=(3 ** width + 1) // 2)
        values = np.bincount(words, minlength=1 << width)
        with self._lock:
            if self._last_word is not None:
                transitions[abs(codes[0] - table[self._last_word])] += 1
            self._bin_locked(transitions, values, n, width)
            self._booked += n
            self._n_samples += n
            self._last_word = int(words[-1])

    def _bin_locked(
        self, transitions: np.ndarray, values: np.ndarray, n: int, width: int
    ) -> None:
        """Add one batch's histograms of ``n`` words to the bins."""
        if self._transitions is None or self._values is None:
            self._transitions = np.zeros((3 ** width + 1) // 2,
                                         dtype=np.int32)
            self._values = np.zeros(1 << width, dtype=np.int32)
        if self._binned + n <= _BIN_LIMIT:
            self._transitions += transitions
            self._values += values
            self._binned += n
            return
        # The int32 bins could overflow: fold them and the batch.
        gram, ones = _fold_histograms(self._transitions + transitions,
                                      self._values + values, width)
        self._word_gram += gram
        self._word_ones += ones
        self._transitions.fill(0)
        self._values.fill(0)
        self._binned = 0

    def _moments(self) -> Tuple[np.ndarray, np.ndarray, int, Optional[int]]:
        """Line-domain Gram and ones counts, sample count and last word of
        everything booked: copied under the lock, folded outside it."""
        with self._lock:
            base_gram, base_ones = self._gram, self._ones
            gram, ones = self._word_gram.copy(), self._word_ones.copy()
            binned = None
            if self._binned and self._transitions is not None \
                    and self._values is not None:
                binned = self._transitions.copy(), self._values.copy()
            booked, n_samples = self._booked, self._n_samples
            last_word = self._last_word
        if binned is not None:
            folded = _fold_histograms(*binned, self.width)
            gram += folded[0]
            ones += folded[1]
        # Onto the lines; padded bits stay 0, so they never switch.
        padded = np.zeros((self.n_lines, self.n_lines), dtype=np.int64)
        padded[:self.width, :self.width] = gram
        line_gram = padded[np.ix_(self._order, self._order)] * self._signs
        counts = np.zeros(self.n_lines, dtype=np.int64)
        counts[:self.width] = ones
        counts = counts[self._order]
        line_ones = np.where(self._flip == 1, booked - counts, counts)
        return (base_gram + line_gram, base_ones + line_ones, n_samples,
                last_word)

    def _line_sample(self, word: int) -> np.ndarray:
        """The ``(n_lines,)`` bits one word puts on the lines."""
        bits = np.zeros(self.n_lines, dtype=np.uint8)
        bits[:self.width] = _word_bits(word, self.width)
        return bits[self._order] ^ self._flip

    def state_dict(self) -> Dict[str, object]:
        """JSON-able snapshot of the exact accumulated stream moments.

        Every entry is a plain int (the Gram matrix, ones counts, sample
        count and boundary sample are integers by construction), so the
        snapshot survives JSON and the checkpoint store losslessly and a
        :meth:`load_state_dict` restore continues the accounting
        bit-identically.
        """
        gram, ones, n_samples, last_word = self._moments()
        return {
            "n_lines": self.n_lines,
            "gram": [[int(x) for x in row] for row in gram],
            "ones": [int(x) for x in ones],
            "n_samples": int(n_samples),
            "last": (
                None if last_word is None
                else [int(x) for x in self._line_sample(last_word)]
            ),
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot (exact inverse)."""
        if not isinstance(state, Mapping):
            raise ValueError(
                f"account state must be a mapping, got {type(state).__name__}"
            )
        n = self.n_lines
        if state.get("n_lines") != n:
            raise ValueError(
                f"account state is for {state.get('n_lines')!r} lines, "
                f"account has {n}"
            )
        gram = _state_array(state, "gram", (n, n))
        ones = _state_array(state, "ones", (n,))
        n_samples = state.get("n_samples")
        if not isinstance(n_samples, int) or isinstance(n_samples, bool) \
                or n_samples < 0:
            raise ValueError(
                f"account state 'n_samples' must be an int >= 0, "
                f"got {n_samples!r}"
            )
        if (ones < 0).any() or (ones > n_samples).any():
            raise ValueError(
                "account state 'ones' counts must be in 0..n_samples"
            )
        last_word: Optional[int] = None
        if state.get("last") is not None:
            last = _state_array(state, "last", (n,))
            if not np.isin(last, (0, 1)).all():
                raise ValueError(
                    f"account state 'last' must be {n} bits (0/1)"
                )
            # Back to the word it puts on the lines: line j holds bit
            # order[j], and a padded line only ever its inversion level.
            bits = last ^ self._flip
            live = self._order < self.width
            if bits[~live].any():
                raise ValueError(
                    "account state 'last' is not a sample this account's "
                    "routing puts on the lines"
                )
            last_word = int((bits[live] << self._order[live]).sum())
        if (last_word is None) != (n_samples == 0):
            raise ValueError(
                "account state 'last' must be present exactly when "
                "n_samples > 0"
            )
        with self._lock:
            self._gram = gram.copy()
            self._ones = ones.copy()
            self._n_samples = n_samples
            self._word_gram.fill(0)
            self._word_ones.fill(0)
            self._booked = 0
            self._last_word = last_word
            if self._transitions is not None and self._values is not None:
                self._transitions.fill(0)
                self._values.fill(0)
            self._binned = 0

    @property
    def n_samples(self) -> int:
        with self._lock:
            return self._n_samples

    def _snapshot(self) -> Tuple[Optional[BitStatistics], int]:
        """The stream's statistics and sample count, from one read."""
        gram, ones, n_samples, _ = self._moments()
        transitions = n_samples - 1
        if transitions < 1:
            return None, n_samples
        coupling = gram / float(transitions)
        return BitStatistics(
            self_switching=np.diag(coupling).copy(),
            coupling=coupling,
            probabilities=ones / float(n_samples),
            n_samples=n_samples,
        ), n_samples

    def statistics(self) -> Optional[BitStatistics]:
        """The accumulated stream's :class:`BitStatistics`, or ``None``.

        Identical (to the last ulp) to ``BitStatistics.from_stream`` over
        the concatenated batches; ``None`` before two samples exist.
        """
        return self._snapshot()[0]

    def _power(self, stats: Optional[BitStatistics]) -> Optional[float]:
        if stats is None:
            return None
        return CompiledPowerModel(stats, self._capacitance).power()

    def normalized_power(self) -> Optional[float]:
        """Normalized link power ``P_n`` [F] of the accumulated stream."""
        return self._power(self.statistics())

    def report(
        self,
        vdd: float = constants.V_DD,
        frequency: float = constants.F_CLOCK,
    ) -> Dict[str, object]:
        # One read of the account, so the count and the power describe
        # the same stream even while another thread books batches.
        stats, n_samples = self._snapshot()
        power = self._power(stats)
        return {
            "n_samples": n_samples,
            "normalized_power_farad": power,
            "power_mw": (
                None if power is None
                else 1.0e3 * power * vdd * vdd * frequency / 2.0
            ),
        }


#: Shape/unit signatures for the deep-lint flow pass (see
#: ``docs/static_analysis.md``). ``T`` = batch words, ``N`` = lines.
REPRO_SIGNATURES = {
    "LatencyHistogram.record": {"seconds": "scalar second"},
    "LatencyHistogram.percentile": {
        "q": "scalar dimensionless",
        "return": "scalar second",
    },
    "RateMeter": {"span_s": "scalar second"},
    "RateMeter.add": {"count": "scalar dimensionless",
                      "now": "scalar second"},
    "RateMeter.rate": {"now": "scalar second",
                       "return": "scalar hertz"},
    "EnergyAccount": {
        "n_lines": "scalar dimensionless",
        "capacitance": "(N, N) farad spice | LinearCapacitanceModel",
        "width": "scalar dimensionless",
        "assignment": "SignedPermutation",
    },
    "EnergyAccount.update": {"words": "(T,) dimensionless"},
    "EnergyAccount.statistics": {"return": "BitStatistics"},
    "EnergyAccount.normalized_power": {"return": "scalar farad"},
    "EnergyAccount.n_lines": "scalar dimensionless",
    "EnergyAccount.width": "scalar dimensionless",
    "EnergyAccount.n_samples": "scalar dimensionless",
    # Concurrency discipline (see the REP2xx section of the docs): these
    # classes are updated from worker threads and snapshotted from the
    # event loop, so every mutable field is guarded by its owner's lock.
    "@threads": [
        "LatencyHistogram.record",
        "RateMeter.add",
        "LinkMetrics.note_batch",
        "EnergyAccount.update",
    ],
    "@guards": [
        "LatencyHistogram._counts guarded_by _lock",
        "LatencyHistogram._total guarded_by _lock",
        "LatencyHistogram._sum guarded_by _lock",
        "LatencyHistogram._max guarded_by _lock",
        "RateMeter._events guarded_by _lock",
        "RateMeter._total guarded_by _lock",
        "LinkMetrics.requests guarded_by _lock",
        "LinkMetrics.batches guarded_by _lock",
        "LinkMetrics.batched_requests guarded_by _lock",
        "LinkMetrics.words_encoded guarded_by _lock",
        "LinkMetrics.words_decoded guarded_by _lock",
        "LinkMetrics.shed guarded_by _lock",
        "LinkMetrics.deadline_missed guarded_by _lock",
        "LinkMetrics.errors guarded_by _lock",
        "LinkMetrics.queue_depth guarded_by _lock",
        "LinkMetrics.max_queue_depth guarded_by _lock",
        "LinkMetrics.max_batch_words guarded_by _lock",
        "EnergyAccount._gram guarded_by _lock",
        "EnergyAccount._ones guarded_by _lock",
        "EnergyAccount._n_samples guarded_by _lock",
        "EnergyAccount._word_gram guarded_by _lock",
        "EnergyAccount._word_ones guarded_by _lock",
        "EnergyAccount._booked guarded_by _lock",
        "EnergyAccount._last_word guarded_by _lock",
        "EnergyAccount._transitions guarded_by _lock",
        "EnergyAccount._values guarded_by _lock",
        "EnergyAccount._binned guarded_by _lock",
    ],
    # Exactness discipline (REP3xx): the energy tallies are the paper's
    # integer statistic — float contamination would break the bit-exact
    # online-vs-offline agreement the serve layer guarantees — and the
    # derived statistics/report must be reproducible for a given stream.
    "@exact": [
        "EnergyAccount._gram",
        "EnergyAccount._ones",
        "EnergyAccount._n_samples",
        "EnergyAccount._word_gram",
        "EnergyAccount._word_ones",
        "EnergyAccount._booked",
        "EnergyAccount._transitions",
        "EnergyAccount._values",
        "EnergyAccount._binned",
    ],
    "@deterministic": [
        "EnergyAccount.statistics",
        "EnergyAccount.report",
        # Fleet-level fold: integer bucket/total sums, max of maxima and
        # math.fsum (the correctly rounded true sum) make the merge a
        # commutative monoid — any merge order yields the same bits.
        "merge_latency_states",
        "EnergyAccount.state_dict",
    ],
}
