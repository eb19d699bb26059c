"""Categorical-sequence substrate.

This subpackage provides the data representations shared by every
detector and generator in the library:

* :class:`~repro.sequences.alphabet.Alphabet` — bidirectional mapping
  between categorical symbols (syscall names, audit-event labels, ...)
  and dense integer codes;
* :mod:`~repro.sequences.windows` — sliding fixed-length windows, the
  basic event analyzed by all four detectors in the paper;
* :class:`~repro.sequences.ngram_store.NgramStore` — exact n-gram
  occurrence counts over one or more window lengths, answered by
  batched lookups;
* :mod:`~repro.sequences.foreign` — foreignness, rarity, and
  minimal-foreign-sequence (MFS) analysis, the anomaly vocabulary of
  Tan & Maxion.
"""

from repro.sequences.alphabet import Alphabet
from repro.sequences.foreign import (
    ForeignSequenceAnalyzer,
    is_foreign,
    is_minimal_foreign,
    is_rare,
    minimal_foreign_sequences,
)
from repro.sequences.ngram_store import NgramStore
from repro.sequences.stats import (
    FrequencySpectrum,
    conditional_entropy,
    frequency_spectrum,
    ngram_space_saturation,
    symbol_distribution,
)
from repro.sequences.windows import iter_windows, window_count, windows_array

__all__ = [
    "Alphabet",
    "ForeignSequenceAnalyzer",
    "FrequencySpectrum",
    "NgramStore",
    "conditional_entropy",
    "frequency_spectrum",
    "is_foreign",
    "is_minimal_foreign",
    "is_rare",
    "iter_windows",
    "minimal_foreign_sequences",
    "ngram_space_saturation",
    "symbol_distribution",
    "window_count",
    "windows_array",
]
