"""FastText-style embeddings and classifier, implemented in numpy.

The paper uses FastText both as the embedding model of the retrieval stage
("we opt to train a FastText model on our historical incidents", Section
4.2.1) and as a supervised classification baseline (Table 2).  This module
re-implements the two algorithmic pieces it needs:

* :class:`FastTextEmbedder` — unsupervised skip-gram with negative sampling
  over word + hashed-subword vectors, trained with vectorized minibatch SGD
  (word2vec, Mikolov et al. 2013; fastText, Bojanowski et al. 2017);
  documents embed as the IDF-weighted mean of their token vectors.
* :class:`FastTextClassifier` — the supervised variant: an averaged
  bag-of-words/subwords representation fed into a softmax layer.

Both are deterministic given their seeds and run offline on a laptop-scale
corpus in seconds.  The embedder trains in vectorized minibatch steps of
~120 context pairs that read the parameters as they were at the start of
the step and apply the summed gradients at its end, instead of one
Python-level update per pair: the same objective and hyper-parameters,
about 10x faster, but not bit-identical to a per-pair SGD loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .text import tokenize
from .vocab import Vocabulary

#: Center-token occurrences per minibatch step of :meth:`FastTextEmbedder.fit`
#: (~120 context pairs).  Big enough to amortise numpy's per-call overhead,
#: small enough that a step's temporaries stay under 0.5 MB each and that its
#: shared parameter snapshot stays close to per-pair SGD.
_BATCH_CENTERS = 16

#: Trained context pairs between learning-rate refreshes (the rate decays
#: linearly in steps of this many pairs).
_LR_REFRESH_PAIRS = 10_000


@dataclass
class FastTextConfig:
    """Hyper-parameters of the FastText embedder."""

    dim: int = 64
    window: int = 4
    negative: int = 5
    epochs: int = 2
    learning_rate: float = 0.05
    min_count: int = 2
    buckets: int = 20000
    seed: int = 13
    #: Cap on context pairs per epoch; keeps training time bounded on large corpora.
    max_pairs_per_epoch: int = 400_000
    #: Norm given to document embeddings.  FastText document vectors are not
    #: unit vectors in practice; the paper's 1/(1+distance) similarity term
    #: assumes distances well above 1 between unrelated incidents, so document
    #: embeddings are normalised and then rescaled to this norm.
    document_norm: float = 6.0


class FastTextEmbedder:
    """Unsupervised subword skip-gram embedder."""

    def __init__(self, config: Optional[FastTextConfig] = None) -> None:
        self.config = config or FastTextConfig()
        self.vocab = Vocabulary(
            min_count=self.config.min_count, buckets=self.config.buckets
        )
        self._input: Optional[np.ndarray] = None   # word+subword vectors
        self._output: Optional[np.ndarray] = None  # context word vectors
        self._idf: Dict[str, float] = {}
        self._default_idf = 1.0
        self._trained = False
        #: Context pairs the last :meth:`fit` trained on, summed over epochs.
        self.trained_pairs = 0
        #: Token -> embedding memo; embeddings are frozen after fit, so token
        #: vectors can be reused across every embed/embed_many call.
        self._token_vectors: Dict[str, np.ndarray] = {}

    def _fit_idf(self, documents: Sequence[str]) -> None:
        """Fit inverse-document-frequency weights for document averaging.

        Rare, discriminative tokens (exception names, component identifiers)
        should dominate a document's embedding, while ubiquitous boilerplate
        ("error", "probe", machine names) should not.  This is the domain
        adaptation a FastText model trained on incident text provides over a
        generic pre-trained embedding.
        """
        document_frequency: Dict[str, int] = {}
        total = 0
        for document in documents:
            total += 1
            for token in set(tokenize(document)):
                document_frequency[token] = document_frequency.get(token, 0) + 1
        self._idf = {
            token: float(np.log((1 + total) / (1 + frequency)) + 1.0)
            for token, frequency in document_frequency.items()
        }
        self._default_idf = float(np.log(1 + total) + 1.0)

    # ------------------------------------------------------------------ train
    def fit(self, documents: Sequence[str]) -> "FastTextEmbedder":
        """Train on a corpus of documents.

        Skip-gram with negative sampling over word + subword rows, trained
        in minibatches of ``_BATCH_CENTERS`` center-token occurrences.  Each
        example is one center occurrence with its in-vocabulary context
        words within ``window`` tokens; every (center, context) pair draws
        ``negative`` samples from the unigram^0.75 table.  Within a step,
        each occurrence's hidden vector follows its own pairs in order (see
        :meth:`_step`), but all pairs read the output vectors and the other
        occurrences' rows as they were at the start of the step, and the
        gradients land once at its end.  That keeps the objective and
        hyper-parameters of per-pair SGD, but the vectors are not
        bit-identical to a per-pair loop.  The learning rate decays
        linearly with the trained pairs (refreshed every
        ``_LR_REFRESH_PAIRS``) to a floor of 5%, and ``max_pairs_per_epoch``
        caps the context pairs each epoch trains on.  Deterministic given
        ``config.seed``, across processes too.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.vocab.fit(documents)
        n_rows = self.vocab.num_vectors
        n_words = max(1, self.vocab.num_words)
        self._input = (rng.random((n_rows, cfg.dim), dtype=np.float64) - 0.5) / np.sqrt(cfg.dim)
        self._output = np.zeros((n_words, cfg.dim), dtype=np.float64)
        self._fit_idf(documents)
        self.trained_pairs = 0

        docs, row_starts, rows, word_ids = self._encode_corpus(documents)
        centers, contexts = self._training_examples(docs, word_ids)
        if centers.size:
            self._train(rng, centers, contexts, row_starts, rows)
        self._token_vectors.clear()
        self._trained = True
        return self

    def _encode_corpus(
        self, documents: Sequence[str]
    ) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
        """Encode documents as token-type ids; look each type up once.

        Returns ``(docs, row_starts, rows, word_ids)``: ``docs[i]`` holds the
        type ids of document ``i``'s tokens, type ``t``'s embedding rows are
        ``rows[row_starts[t]:row_starts[t + 1]]`` and ``word_ids[t]`` is its
        word id, or -1 when the type is out of vocabulary.
        """
        type_of: Dict[str, int] = {}
        docs = [
            np.array(
                [type_of.setdefault(token, len(type_of)) for token in tokenize(document)],
                dtype=np.int64,
            )
            for document in documents
        ]
        type_rows = [self.vocab.indices(token) for token in type_of]
        word_ids = np.array(
            [self.vocab.word_id(token) if token in self.vocab else -1 for token in type_of],
            dtype=np.int64,
        )
        row_starts = np.zeros(len(type_rows) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in type_rows], out=row_starts[1:])
        rows = np.array([row for r in type_rows for row in r], dtype=np.int64)
        return docs, row_starts, rows, word_ids

    def _training_examples(
        self, docs: List[np.ndarray], word_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(center types, context word ids)``, one row per center occurrence.

        ``contexts`` is ``(examples, 2 * window)``, padded with -1 where the
        window runs off the document or the context token is out of
        vocabulary.  Occurrences with no in-vocabulary context are dropped.
        (Every token type has embedding rows: a token of one character
        still has the n-gram ``<c>``.)
        """
        window = self.config.window
        centers: List[np.ndarray] = []
        contexts: List[np.ndarray] = []
        for doc in docs:
            if doc.size == 0:
                continue
            padded = np.full(doc.size + 2 * window, -1, dtype=np.int64)
            padded[window : window + doc.size] = word_ids[doc]
            spans = np.lib.stride_tricks.sliding_window_view(padded, 2 * window + 1)
            contexts.append(np.delete(spans, window, axis=1))
            centers.append(doc)
        if not centers:
            return np.zeros(0, dtype=np.int64), np.zeros((0, 2 * window), dtype=np.int64)
        center_types = np.concatenate(centers)
        context_ids = np.concatenate(contexts)
        keep = (context_ids >= 0).any(axis=1)
        return center_types[keep], context_ids[keep]

    def _train(
        self,
        rng: np.random.Generator,
        centers: np.ndarray,
        contexts: np.ndarray,
        row_starts: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        """Run every epoch of minibatch steps over the training examples."""
        cfg = self.config
        negative_table = self._negative_table()
        example_pairs = (contexts >= 0).sum(axis=1)
        lr = cfg.learning_rate
        for epoch in range(cfg.epochs):
            order = rng.permutation(centers.shape[0])
            done = np.cumsum(example_pairs[order])
            order = order[done <= cfg.max_pairs_per_epoch]
            epoch_pairs = int(done[order.shape[0] - 1]) if order.size else 0
            trained = 0
            refresh_at = 0
            for start in range(0, order.shape[0], _BATCH_CENTERS):
                if trained >= refresh_at:
                    # Linear learning-rate decay, refreshed every _LR_REFRESH_PAIRS.
                    progress = (epoch + trained / epoch_pairs) / cfg.epochs
                    lr = cfg.learning_rate * max(0.05, 1.0 - progress)
                    refresh_at += _LR_REFRESH_PAIRS
                batch = order[start : start + _BATCH_CENTERS]
                trained += self._step(
                    centers[batch], contexts[batch], row_starts, rows,
                    negative_table, rng, lr,
                )
            self.trained_pairs += trained

    def _step(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        row_starts: np.ndarray,
        rows: np.ndarray,
        negative_table: np.ndarray,
        rng: np.random.Generator,
        lr: float,
    ) -> int:
        """One minibatch step over center occurrences; returns its pair count.

        Each distinct center type's hidden vector (the mean of its rows) is
        computed once and copied per occurrence.  The context slots are then
        visited in order: one ``einsum`` scores a slot's (center, context)
        pairs against their target and negative samples, and each
        occurrence's hidden vector moves by the gradient its rows will
        receive, so a center's later pairs see its earlier ones as under
        per-pair SGD.  Output vectors are read from the snapshot taken at
        the start of the step; both matrices receive their accumulated
        gradients once, at the end.
        """
        assert self._input is not None and self._output is not None
        negative = self.config.negative
        types, type_of_center = np.unique(centers, return_inverse=True)
        starts = row_starts[types]
        counts = row_starts[types + 1] - starts
        segments = np.zeros(types.shape[0], dtype=np.int64)
        np.cumsum(counts[:-1], out=segments[1:])
        type_rows = rows[np.repeat(starts - segments, counts) + np.arange(counts.sum())]
        type_hidden = np.add.reduceat(self._input[type_rows], segments, axis=0)
        type_hidden /= counts[:, None]
        hidden = type_hidden[type_of_center]
        center_counts = counts[type_of_center][:, None]
        # Pairs in slot-major order, each with its target then its negatives.
        pair_slot, pair_center = np.nonzero((contexts >= 0).T)
        samples = np.empty((pair_slot.shape[0], 1 + negative), dtype=np.int64)
        samples[:, 0] = contexts[pair_center, pair_slot]
        samples[:, 1:] = negative_table[
            rng.integers(0, negative_table.shape[0], size=(pair_slot.shape[0], negative))
        ]
        hits_target = samples[:, 1:] == samples[:, :1]
        vectors = self._output[samples]
        coefficients = np.empty(samples.shape)
        pair_hidden = np.empty((samples.shape[0], hidden.shape[1]))
        bounds = np.searchsorted(pair_slot, np.arange(contexts.shape[1] + 1))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            slot_centers = pair_center[lo:hi]  # distinct within a slot
            pair_hidden[lo:hi] = hidden[slot_centers]
            scores = np.einsum("pd,pkd->pk", pair_hidden[lo:hi], vectors[lo:hi])
            # lr * (label - sigmoid(score)); a negative that hits the target is skipped.
            slot = coefficients[lo:hi]
            np.multiply(-0.5 * lr, 1.0 + np.tanh(0.5 * scores), out=slot)
            slot[:, 0] += lr
            slot[:, 1:][hits_target[lo:hi]] = 0.0
            gradient = np.einsum("pk,pkd->pd", slot, vectors[lo:hi])
            hidden[slot_centers] += gradient / center_counts[slot_centers]
        _scatter_add(self._output, samples, coefficients[:, :, None] * pair_hidden[:, None, :])
        hidden -= type_hidden[type_of_center]
        type_gradient = np.zeros_like(type_hidden)
        _scatter_add(type_gradient, type_of_center, hidden)
        _scatter_add(self._input, type_rows, np.repeat(type_gradient, counts, axis=0))
        return int(samples.shape[0])

    def _negative_table(self) -> np.ndarray:
        """Unigram^0.75 sampling table over word ids."""
        counts = np.array(
            [max(1, self.vocab.word_count(w)) for w in self.vocab.words()],
            dtype=np.float64,
        )
        if counts.size == 0:
            return np.array([0])
        weights = counts ** 0.75
        weights /= weights.sum()
        table_size = min(100_000, max(1000, 50 * counts.size))
        return np.random.default_rng(self.config.seed + 1).choice(
            counts.size, size=table_size, p=weights
        )

    # ------------------------------------------------------------------ embed
    @property
    def dim(self) -> int:
        """Dimensionality of the produced embeddings."""
        return self.config.dim

    def embed_token(self, token: str) -> np.ndarray:
        """Embedding of a single token (mean of its word + subword rows)."""
        self._require_trained()
        assert self._input is not None
        token = token.lower()
        cached = self._token_vectors.get(token)
        if cached is not None:
            return cached
        rows = self.vocab.indices(token)
        if not rows:
            vector = np.zeros(self.config.dim)
        else:
            vector = self._input[rows].mean(axis=0)
        self._token_vectors[token] = vector
        return vector

    def embed(self, text: str) -> np.ndarray:
        """Embedding of a document: L2-normalised IDF-weighted mean of tokens."""
        return self.embed_many([text])[0]

    def embed_many(self, texts: Iterable[str]) -> np.ndarray:
        """Embeddings for many documents, stacked row-wise (one matrix out).

        The scalar :meth:`embed` delegates here, so single and batch paths
        share one code path: per-document vectors are the IDF-weighted mean
        of memoised token vectors computed as a single vector–matrix product,
        rescaled to ``document_norm``.
        """
        self._require_trained()
        assert self._input is not None
        texts = list(texts)
        out = np.zeros((len(texts), self.config.dim))
        for row, text in enumerate(texts):
            tokens = tokenize(text)
            if not tokens:
                continue
            weights = np.array(
                [self._idf.get(token, self._default_idf) for token in tokens]
            )
            vectors = np.stack([self.embed_token(token) for token in tokens])
            weight_sum = float(weights.sum())
            mean = weights @ vectors
            if weight_sum > 0:
                mean = mean / weight_sum
            norm = np.linalg.norm(mean)
            if norm != 0:
                mean = mean * (self.config.document_norm / norm)
            out[row] = mean
        return out

    def _require_trained(self) -> None:
        if not self._trained:
            raise RuntimeError("FastTextEmbedder.fit must be called before embedding")


@dataclass
class FastTextClassifierConfig:
    """Hyper-parameters of the supervised FastText classifier."""

    dim: int = 48
    epochs: int = 12
    learning_rate: float = 0.25
    min_count: int = 1
    buckets: int = 20000
    seed: int = 17


class FastTextClassifier:
    """Supervised FastText: averaged bag-of-subwords + softmax."""

    def __init__(self, config: Optional[FastTextClassifierConfig] = None) -> None:
        self.config = config or FastTextClassifierConfig()
        self.vocab = Vocabulary(
            min_count=self.config.min_count, buckets=self.config.buckets
        )
        self._labels: List[str] = []
        self._label_to_id: Dict[str, int] = {}
        self._embeddings: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None

    @property
    def labels(self) -> List[str]:
        """Known class labels, in id order."""
        return list(self._labels)

    def fit(self, texts: Sequence[str], labels: Sequence[str]) -> "FastTextClassifier":
        """Train the classifier on (text, label) pairs."""
        if len(texts) != len(labels):
            raise ValueError("texts and labels must have equal length")
        if not texts:
            raise ValueError("cannot fit on an empty training set")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.vocab.fit(texts)
        self._labels = sorted(set(labels))
        self._label_to_id = {label: i for i, label in enumerate(self._labels)}
        n_rows = self.vocab.num_vectors
        self._embeddings = (rng.random((n_rows, cfg.dim)) - 0.5) / cfg.dim
        self._weights = np.zeros((len(self._labels), cfg.dim))

        encoded = [self._rows_for(text) for text in texts]
        label_ids = np.array([self._label_to_id[label] for label in labels])
        lr = cfg.learning_rate
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(texts))
            for index in order:
                rows = encoded[index]
                if not rows:
                    continue
                self._step(rows, int(label_ids[index]), lr)
            lr = cfg.learning_rate * max(0.05, 1.0 - (epoch + 1) / cfg.epochs)
        return self

    def _rows_for(self, text: str) -> List[int]:
        rows: List[int] = []
        for token in tokenize(text):
            rows.extend(self.vocab.indices(token))
        return rows

    def _step(self, rows: List[int], label_id: int, lr: float) -> None:
        assert self._embeddings is not None and self._weights is not None
        hidden = self._embeddings[rows].mean(axis=0)
        scores = self._weights @ hidden
        probabilities = _softmax(scores)
        probabilities[label_id] -= 1.0  # gradient of cross-entropy
        grad_hidden = self._weights.T @ probabilities
        self._weights -= lr * np.outer(probabilities, hidden)
        self._embeddings[rows] -= lr * grad_hidden / len(rows)

    def predict_proba(self, text: str) -> Dict[str, float]:
        """Class probabilities for a document."""
        if self._embeddings is None or self._weights is None:
            raise RuntimeError("FastTextClassifier.fit must be called before predicting")
        rows = self._rows_for(text)
        if not rows:
            uniform = 1.0 / max(1, len(self._labels))
            return {label: uniform for label in self._labels}
        hidden = self._embeddings[rows].mean(axis=0)
        probabilities = _softmax(self._weights @ hidden)
        return {label: float(probabilities[i]) for i, label in enumerate(self._labels)}

    def predict(self, text: str) -> str:
        """Most likely class label for a document."""
        probabilities = self.predict_proba(text)
        return max(probabilities.items(), key=lambda kv: kv[1])[0]

    def predict_many(self, texts: Sequence[str]) -> List[str]:
        """Predicted labels for many documents."""
        return [self.predict(text) for text in texts]


def _scatter_add(matrix: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``matrix[rows] += values``, with repeated rows accumulating in order.

    Same result as ``np.add.at(matrix, rows, values)``, but scattering
    through flat element indices takes numpy's 1-D ``ufunc.at`` fast path,
    several times faster than the row-wise form.
    """
    dim = matrix.shape[1]
    flat = (rows.reshape(-1, 1) * dim + np.arange(dim)).ravel()
    np.add.at(matrix.reshape(-1), flat, values.reshape(-1))


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return exp / exp.sum()
