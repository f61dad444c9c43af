"""Text-analysis kernels for large-scale training-data pipelines.

Token counting, quality scoring, language-ID (n-gram heuristic) and
document fingerprinting — each designed to run vectorized inside
``map_batches`` over the ``documents`` table. Regexes are compiled once at
module import (or in an actor's ``__init__``), mirroring the reference's
load-state-once pattern (model/MLModel.scala:30-35).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_WS = re.compile(r"\s+")
_PUNCT_CLASS = "[.,!?;:]"

# Tiny per-language stopword/char profiles for the n-gram heuristic.
# Public-knowledge word lists; enough signal for a deterministic heuristic.
_LANG_PROFILES: dict[str, set[str]] = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "was"},
    "fr": {"le", "la", "les", "de", "des", "et", "est", "une", "dans", "que"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "nicht", "mit", "zu"},
    "es": {"el", "la", "los", "de", "y", "es", "una", "en", "que", "por"},
}


def token_count_column(text: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Whitespace-token count per document, vectorized in Arrow.

    Definition (shared with the SQL oracle): number of ``\\s+``-separated
    tokens of the trimmed text; empty/blank text counts 0.
    """
    trimmed = pc.utf8_trim_whitespace(text)
    # split_pattern_regex returns list<string>; blank text -> [""]
    splits = pc.split_pattern_regex(trimmed, r"\s+")
    counts = pc.list_value_length(splits)
    is_blank = pc.equal(trimmed, pa.scalar(""))
    counts = pc.if_else(pc.fill_null(is_blank, True), pa.scalar(0, pa.int32()), counts)
    return pc.cast(counts, pa.int64())


def quality_metrics(table: pa.Table, text_col: str = "text") -> pa.Table:
    """Length / punctuation-ratio / token stats per document.

    The classic cheap quality filters for web/corpus curation:
    n_chars, n_tokens, punct_ratio (punctuation chars / chars),
    mean_token_len.
    """
    text = table.column(text_col)
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    n_tokens = token_count_column(text)
    no_punct = pc.replace_substring_regex(text, _PUNCT_CLASS, "")
    n_punct = pc.subtract(n_chars, pc.cast(pc.utf8_length(no_punct), pa.int64()))
    safe_chars = pc.max_element_wise(n_chars, pa.scalar(1, pa.int64()))
    safe_toks = pc.max_element_wise(n_tokens, pa.scalar(1, pa.int64()))
    punct_ratio = pc.divide(pc.cast(n_punct, pa.float64()), pc.cast(safe_chars, pa.float64()))
    # mean token length over the de-whitespaced text
    no_ws = pc.replace_substring_regex(text, r"\s+", "")
    mean_token_len = pc.divide(
        pc.cast(pc.utf8_length(no_ws), pa.float64()), pc.cast(safe_toks, pa.float64())
    )
    out = table
    for name, arr in [
        ("n_chars_m", n_chars),
        ("n_tokens", n_tokens),
        ("punct_ratio", punct_ratio),
        ("mean_token_len", mean_token_len),
    ]:
        out = out.append_column(name, arr)
    return out


class LangIdScorer:
    """Stopword-profile language-ID heuristic.

    State (profiles, compiled regex) built once per actor in ``__init__``;
    per-batch work is a vectorized pandas str split + set intersection.
    Emits ``lang_pred`` and ``lang_score`` (hit ratio of the winner).

    For plain task-based stages use ``score_lang_batch`` — this state is
    cheap to build (re.compile is process-cached), and per-pool actor
    spawn (~0.5 s) dominates small pipelines (round-2 bench regression).
    """

    def __init__(self):
        self.word_re = re.compile(r"[a-zA-Zàâçéèêëîïôûùüÿñæœäöüß]+")
        self.profiles = {k: frozenset(v) for k, v in _LANG_PROFILES.items()}

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        # fully vectorized: one findall pass, one explode, one isin per
        # language profile, bincount back to rows (no per-doc Python loop)
        texts = batch["text"].fillna("").str.lower().reset_index(drop=True)
        words = texts.str.findall(self.word_re)
        n_words = words.str.len().to_numpy(dtype=np.int64)
        ex = words.explode().dropna()
        pos = ex.index.to_numpy(dtype=np.int64)
        langs = list(self.profiles)
        hits = np.zeros((len(texts), len(langs)), dtype=np.int64)
        for j, lang in enumerate(langs):
            m = ex.isin(self.profiles[lang]).to_numpy()
            hits[:, j] = np.bincount(pos[m], minlength=len(texts))
        best_j = hits.argmax(axis=1)  # ties → first profile, like the
        best = hits[np.arange(len(texts)), best_j]  # sequential `>` scan
        preds = np.asarray(langs, dtype=object)[best_j]
        preds[best == 0] = "unknown"
        safe = np.maximum(n_words, 1)
        batch["lang_pred"] = preds
        batch["lang_score"] = best / safe
        return batch


_scorer_cache: dict = {}


def score_lang_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Task-based LangIdScorer: per-process cached scorer, no actor pool."""
    scorer = _scorer_cache.get("s")
    if scorer is None:
        scorer = _scorer_cache["s"] = LangIdScorer()
    return scorer(batch)


def top_terms(
    ds,
    *,
    text_col: str = "text",
    k: int = 50,
    pattern: str = "[a-z]+",
    num_partitions: int = 8,
):
    """Corpus-wide top-``k`` terms by frequency (vocabulary construction).

    Combiner-first: every batch pre-aggregates its own term counts (the
    shuffle sees ≤ |vocab| rows per block, never per-token rows), one
    keyed sum per term, then per-partition top-k partials and a tiny
    driver merge. Total order (count DESC, term ASC) makes the cut
    deterministic — shared with the SQL oracle.
    """
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from arlas_proc_ray.stages.keyed import keyed_partition_map

    def partial_counts(batch: pa.Table) -> pd.DataFrame:
        # Arrow lacks a findall kernel → pandas str.findall on the
        # already-lowered Arrow column (one conversion, C regex loop)
        text = pc.utf8_lower(batch.column(text_col))
        s = text.to_pandas().fillna("")
        words = s.str.findall(pattern).explode().dropna()
        vc = words.value_counts()
        return pd.DataFrame({"term": vc.index.to_numpy(object), "n": vc.to_numpy(np.int64)})

    partials = ds.map_batches(partial_counts, batch_format="pyarrow", batch_size=None)

    def topk_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        agg = pdf.groupby("term", as_index=False, sort=False)["n"].sum()
        return agg.sort_values(["n", "term"], ascending=[False, True]).head(k)

    per_part = keyed_partition_map(
        partials, keys=["term"], order_col="n", fn=topk_partition,
        num_partitions=num_partitions,
    )
    out = per_part.to_pandas()
    return (
        out.sort_values(["n", "term"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


def repetition_metrics(batch, *, text_col: str = "text", id_col: str = "doc_id"):
    """Gopher-style line-repetition quality signals per document.

    - ``frac_dup_lines``   = (n_lines − n_distinct_lines) / max(n_lines, 1)
    - ``frac_chars_dup_lines`` = chars in lines occurring >1× (all
      occurrences counted) / max(total line chars, 1)

    Lines are ``\\n``-split INCLUDING empties (shared definition with the
    SQL oracle). Vectorized: one split/explode + one (doc, line) groupby
    across the whole batch.
    """
    import pandas as pd

    texts = (
        batch[text_col].fillna("")
        if isinstance(batch, pd.DataFrame)
        else pd.Series(batch.column(text_col).to_pylist()).fillna("")
    )
    ids = (
        batch[id_col].to_numpy()
        if isinstance(batch, pd.DataFrame)
        else batch.column(id_col).to_numpy(zero_copy_only=False)
    )
    lines = texts.str.split("\n")
    n_lines = lines.str.len().to_numpy(np.int64)
    ex = lines.explode()
    pos = ex.index.to_numpy(np.int64)
    lens = ex.str.len().to_numpy(np.int64)
    df = pd.DataFrame({"doc": pos, "line": ex.to_numpy(object), "chars": lens})
    per_line = df.groupby(["doc", "line"], sort=False).agg(
        cnt=("chars", "size"), chars=("chars", "first")
    )
    n_distinct = per_line.groupby(level="doc").size()
    dup = per_line[per_line["cnt"] > 1]
    dup_chars = (dup["cnt"] * dup["chars"]).groupby(level="doc").sum()
    total_chars = df.groupby("doc")["chars"].sum()

    n = len(texts)
    nd = np.zeros(n, np.int64)
    nd[n_distinct.index.to_numpy(np.int64)] = n_distinct.to_numpy(np.int64)
    dc = np.zeros(n, np.int64)
    if len(dup_chars):
        dc[dup_chars.index.to_numpy(np.int64)] = dup_chars.to_numpy(np.int64)
    tc = np.zeros(n, np.int64)
    tc[total_chars.index.to_numpy(np.int64)] = total_chars.to_numpy(np.int64)

    return pd.DataFrame(
        {
            id_col: ids,
            "frac_dup_lines": (n_lines - nd) / np.maximum(n_lines, 1),
            "frac_chars_dup_lines": dc / np.maximum(tc, 1),
        }
    )


def redact(col, rules: list[tuple[str, str]]):
    """Regex redaction over an Arrow string column (RE2 — same engine as
    DuckDB's regexp_replace, so rules behave identically in the oracle).

    ``rules``: ordered (pattern, replacement) pairs applied in sequence —
    e.g. emails → ``<EMAIL>``, then digit runs → ``<NUM>``.
    """
    import pyarrow.compute as pc

    for pattern, repl in rules:
        col = pc.replace_substring_regex(col, pattern, repl)
    return col


_FP_B = np.uint64(0x100000001B3)  # odd → invertible mod 2^64
_FP_BINV = np.uint64(pow(0x100000001B3, -1, 1 << 64))


def _all_window_hashes(data: bytes, window: int) -> np.ndarray:
    """Karp-Rabin hash of every ``window``-byte window, fully vectorized.

    Arithmetic is mod 2^64 via natural uint64 overflow:
    H[j] = Σ_{i=0..w-1} d[j+i]·B^(w-1-i)
         = B^(w-1+j) · (prefix[j+w] − prefix[j]),  prefix[k] = Σ d[i]·B^(−i).
    """
    d = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    return _window_hashes_from_ints(d, window)


def _char_window_hashes(text: str, window: int) -> np.ndarray:
    """Karp-Rabin over UNICODE CODE POINTS, so each hash corresponds 1:1
    to a character ``window``-gram (the decontamination window unit) —
    byte windows would split multi-byte UTF-8 characters. Texts shorter
    than ``window`` characters yield NO windows (same contract as
    dedup/decontaminate.ngram_windows)."""
    t = text or ""
    if len(t) < window:
        return np.empty(0, dtype=np.uint64)
    d = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    return _window_hashes_from_ints(d, window)


def _window_hashes_from_ints(d: np.ndarray, window: int) -> np.ndarray:
    """Shared rolling-hash core over an int symbol array (uint64)."""
    n = len(d)
    w = min(window, n)
    with np.errstate(over="ignore"):
        pow_inv = np.empty(n + 1, dtype=np.uint64)
        pow_inv[0] = 1
        np.multiply.accumulate(
            np.full(n, _FP_BINV, dtype=np.uint64), out=pow_inv[1:]
        )
        prefix = np.zeros(n + 1, dtype=np.uint64)
        np.cumsum(d * pow_inv[:n], out=prefix[1:])
        n_win = n - w + 1
        pow_fwd = np.empty(w + n_win, dtype=np.uint64)
        pow_fwd[0] = 1
        np.multiply.accumulate(
            np.full(w + n_win - 1, _FP_B, dtype=np.uint64), out=pow_fwd[1:]
        )
        return pow_fwd[w - 1 : w - 1 + n_win] * (prefix[w : w + n_win] - prefix[:n_win])


def rolling_fingerprint(text_col, window: int = 64) -> np.ndarray:
    """Deterministic rolling-hash document fingerprint (winnowing-style).

    fingerprint = min over all ``window``-byte windows of the Karp-Rabin
    rolling hash (mod 2^64). Documents shorter than ``window`` hash whole;
    null/empty → 0. The per-document work is numpy-vectorized (no Python
    loop over bytes), so a 20 kB document costs a few array ops.
    """
    out = np.empty(len(text_col), dtype=np.uint64)
    for i, t in enumerate(text_col):
        if not t:
            out[i] = 0
            continue
        out[i] = _all_window_hashes(t.encode("utf-8", "ignore"), window).min()
    return out


# GPT-2-style pre-tokenizer pattern (the published openai/gpt-2 regex,
# rewritten with explicit Latin ranges because RE2 — used by BOTH Arrow and
# DuckDB — handles \p classes differently than Python re; with one engine
# on both sides the counts agree exactly).
BPE_ISH_PATTERN = (
    r"'(?:s|t|re|ve|m|ll|d)"
    r"| ?[A-Za-zÀ-ɏ]+"
    r"| ?[0-9]+"
    r"| ?[^\sA-Za-z0-9À-ɏ]+"
    r"|\s+"
)


def regex_token_count(text: pa.ChunkedArray | pa.Array) -> pa.Array:
    """BPE-ish token count: non-overlapping matches of the GPT-2-style
    pre-tokenizer regex, fully vectorized in Arrow (RE2); null text → 0.

    Complements the whitespace ``token_count_column`` — the two bracket a
    corpus' token budget (whitespace undercounts punctuation-heavy text,
    the pre-tokenizer count tracks BPE vocab consumption closely).
    """
    counts = pc.count_substring_regex(text, BPE_ISH_PATTERN)
    return pc.cast(pc.fill_null(counts, 0), pa.int64())


def bm25_scores(
    ds,
    query_terms: list[str],
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k1: float = 1.2,
    b: float = 0.75,
    pattern: str = "[a-z0-9]+",
    round_dp: int = 6,
):
    """Okapi BM25 score of every document against a fixed query-term set.

    Two passes, no shuffle of the corpus:

    1. stats pass — per-batch partials (doc count, token count, per-term
       doc frequency), reduced to ONE tiny row on the driver;
    2. score pass — idf/avgdl broadcast as constants into a stateless
       vectorized ``map_batches`` (findall → explode → bincount per term,
       the LangIdScorer pattern — no per-doc Python loop).

    idf = ln((N − df + 0.5)/(df + 0.5) + 1) (the standard "plus one"
    variant, non-negative). Returns (id, bm25) for documents with at
    least one query-term hit; scores rounded to ``round_dp`` (the sum
    over terms is order-sensitive in the 1e-16s — same discipline as the
    cosine queries).
    """
    import re as _re

    terms = list(query_terms)
    rex = _re.compile(pattern)

    def stats_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        texts = pdf[text_col].fillna("").str.lower().reset_index(drop=True)
        words = texts.str.findall(rex)
        ex = words.explode().dropna()
        out = {"n_docs": [len(pdf)], "n_tokens": [int(words.str.len().sum())]}
        for t in terms:
            pos = ex.index.to_numpy(np.int64)[(ex == t).to_numpy()]
            out[f"df_{t}"] = [int(len(np.unique(pos)))]
        return pd.DataFrame(out)

    stats = (
        ds.select_columns([text_col])
        .map_batches(stats_partial, batch_format="pandas", batch_size=None)
        .to_pandas()
        .sum()
    )
    n = float(stats["n_docs"])
    avgdl = float(stats["n_tokens"]) * 1.0 / n
    idf = {
        t: float(np.log((n - float(stats[f"df_{t}"]) + 0.5)
                        / (float(stats[f"df_{t}"]) + 0.5) + 1.0))
        for t in terms
    }

    def score(pdf: pd.DataFrame) -> pd.DataFrame:
        texts = pdf[text_col].fillna("").str.lower().reset_index(drop=True)
        words = texts.str.findall(rex)
        dl = words.str.len().to_numpy(np.float64)
        ex = words.explode().dropna()
        pos = ex.index.to_numpy(np.int64)
        s = np.zeros(len(pdf), dtype=np.float64)
        denom_dl = k1 * ((1.0 - b) + b * dl / avgdl)
        for t in terms:
            tf = np.bincount(pos[(ex == t).to_numpy()], minlength=len(pdf)
                             ).astype(np.float64)
            s += idf[t] * (tf * (k1 + 1.0)) / (tf + denom_dl)
        keep = s > 0
        return pd.DataFrame(
            {
                id_col: pdf[id_col].to_numpy()[keep],
                "bm25": np.round(s[keep], round_dp),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pandas"
    , batch_size=None)


def inverted_postings(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    pattern: str = "[a-z0-9]+",
    num_partitions: int = 8,
):
    """Inverted-index construction: the top-``k`` postings (by tf desc,
    then id asc) for EVERY term of the corpus.

    Per-batch tokenize → per-(doc, term) tf (docs are whole rows, so tf
    is complete within the batch — no combiner needed beyond the explode
    itself), ONE keyed exchange on the term, then a vectorized per-term
    head-k inside each partition. Posting rows, never raw tokens, ride
    the shuffle.
    """
    import re as _re

    from arlas_proc_ray.stages.keyed import keyed_partition_map

    rex = _re.compile(pattern)

    def doc_term_tf(pdf: pd.DataFrame) -> pd.DataFrame:
        texts = pdf[text_col].fillna("").str.lower().reset_index(drop=True)
        words = texts.str.findall(rex)
        ex = words.explode().dropna()
        pos = ex.index.to_numpy(np.int64)
        ids = pdf[id_col].to_numpy()[pos]
        out = pd.DataFrame({id_col: ids, "term": ex.to_numpy(object)})
        return out.groupby([id_col, "term"], as_index=False, sort=False).agg(
            tf=("term", "size")
        )

    postings = ds.select_columns([id_col, text_col]).map_batches(
        doc_term_tf, batch_format="pandas"
    , batch_size=None)

    def topk(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pdf.sort_values(["term", "tf", id_col],
                            ascending=[True, False, True], kind="mergesort")
            .groupby("term", sort=False)
            .head(k)
        )
        out = out.reset_index(drop=True)
        out["rank"] = out.groupby("term", sort=False).cumcount() + 1
        return out[["term", id_col, "tf", "rank"]]

    return keyed_partition_map(
        postings, keys=["term"], order_col="tf", fn=topk,
        num_partitions=num_partitions,
    )


def document_frequency_stop_terms(
    ds,
    *,
    text_col: str = "text",
    max_df_frac: float = 0.5,
    num_partitions: int = 8,
):
    """Terms whose document frequency exceeds ``max_df_frac`` of the corpus.

    Tokenization is reassembly-compatible: non-empty runs between single
    spaces, case-sensitive (what ``df_term_filter`` removes must re-join
    into the surviving text byte-exactly).

    Combiner-first: each batch counts its own DISTINCT (doc, term) pairs —
    exact globally because one document's row lives in exactly one batch —
    so the shuffle carries ≤ |batch vocab| partial rows per block, never
    per-token rows. The high-DF tail is tiny by construction (a term in
    >50% of a 10¹⁰-doc corpus is a stopword), so the result is always
    driver-safe.

    Returns a pandas DataFrame (term, df_n), df_n > max_df_frac · n_docs.
    """
    import pandas as pd
    import pyarrow as pa

    from arlas_proc_ray.stages.keyed import keyed_partition_map

    n_docs = ds.count()

    def partial_df(batch: pa.Table) -> pd.DataFrame:
        s = batch.column(text_col).to_pandas().fillna("")
        toks = s.str.split(" ").explode()
        frame = pd.DataFrame(
            {"d": toks.index.to_numpy(), "term": toks.to_numpy(object)}
        )
        frame = frame[(frame["term"] != "") & frame["term"].notna()]
        frame = frame.drop_duplicates()
        vc = frame["term"].value_counts()
        return pd.DataFrame(
            {"term": vc.index.to_numpy(object), "df_n": vc.to_numpy(np.int64)}
        )

    partials = ds.map_batches(partial_df, batch_format="pyarrow", batch_size=None)
    cut = max_df_frac * n_docs

    def finalize(pdf: pd.DataFrame) -> pd.DataFrame:
        agg = pdf.groupby("term", as_index=False, sort=False)["df_n"].sum()
        return agg[agg["df_n"] > cut]

    out = keyed_partition_map(
        partials, keys=["term"], order_col="df_n", fn=finalize,
        num_partitions=num_partitions,
    ).to_pandas()
    return out.sort_values(["df_n", "term"], ascending=[False, True]).reset_index(
        drop=True
    )


def df_term_filter(
    ds,
    *,
    text_col: str = "text",
    max_df_frac: float = 0.5,
    target: str | None = None,
    num_partitions: int = 8,
):
    """Remove too-common terms (DF > ``max_df_frac``) from every document,
    preserving the order and spelling of the surviving tokens.

    Two passes: (1) the combiner-first DF count above, (2) the tiny
    stop-term set is broadcast (``ray.put`` once; one object-store fetch
    per worker) and each batch is rewritten with pure Arrow kernels —
    split → flatten → ``is_in`` mask → offset-rebuilt list → ``binary_join``
    — no per-row Python. Consecutive spaces collapse (tokens are the unit,
    not whitespace), matching the SQL oracle's
    ``array_to_string(list_filter(...))`` semantics.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray

    stop = document_frequency_stop_terms(
        ds,
        text_col=text_col,
        max_df_frac=max_df_frac,
        num_partitions=num_partitions,
    )
    stop_ref = ray.put(pa.array(stop["term"].to_numpy(object), type=pa.string()))
    out_col = target or text_col

    def rewrite(batch: pa.Table) -> pa.Table:
        stopset = ray.get(stop_ref)
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = pc.split_pattern(pc.coalesce(col, pa.scalar("")), " ")
        flat = pc.list_flatten(toks)
        keep = pc.and_(
            pc.not_equal(flat, pa.scalar("")),
            pc.invert(pc.is_in(flat, value_set=stopset)),
        )
        keep_np = keep.to_numpy(zero_copy_only=False)
        offsets = toks.offsets.to_numpy()
        cum = np.concatenate([[0], np.cumsum(keep_np)])
        new_offsets = pa.array(cum[offsets], type=pa.int32())
        new_list = pa.ListArray.from_arrays(new_offsets, flat.filter(keep))
        joined = pc.binary_join(new_list, pa.scalar(" "))
        if out_col in batch.column_names:
            return batch.set_column(
                batch.column_names.index(out_col), out_col, joined
            )
        return batch.append_column(out_col, joined)

    return ds.map_batches(rewrite, batch_format="pyarrow", batch_size=None)


def extract_json_int_field(
    col: pa.ChunkedArray | pa.Array, field: str
) -> pa.Array | pa.ChunkedArray:
    """Vectorized integer-field extraction from FLAT JSON text columns.

    The metadata-extraction fast path for schemaless side-columns (the
    events fixture's ``props``): one RE2 ``extract_regex`` over the
    whole column, no per-row json.loads. Only correct for flat objects
    whose field value is a bare integer — nested/quoted cases need a
    real parser (use a map_batches with stdlib json for those). Missing
    field → null.
    """
    import re as _re

    pat = '"' + _re.escape(field) + r'"\s*:\s*(?P<v>-?\d+)'
    st = pc.extract_regex(col, pat)  # struct array, one field per NAMED group
    if isinstance(st, pa.ChunkedArray):
        vals = pa.chunked_array(
            [c.field("v") for c in st.chunks] or [pa.array([], pa.string())]
        )
    else:
        vals = st.field("v")
    # a non-matching row's struct child materializes as '' — null it out
    vals = pc.if_else(
        pc.equal(pc.fill_null(vals, ""), pa.scalar("")),
        pa.scalar(None, pa.string()),
        vals,
    )
    return pc.cast(vals, pa.int64())


def bigram_collocations(
    ds,
    *,
    text_col: str = "text",
    min_frac_denom: int = 5000,
    num_partitions: int = 8,
) -> "pd.DataFrame":
    """Corpus collocations: adjacent word-pair counts with association
    LIFT = p(ab) / (p(a)·p(b)) — the PMI family's exact-arithmetic
    member (lift = e^PMI; monotone in it, but computable as ONE division
    of exact integer products, so a SQL oracle matches bit-for-bit where
    a float log would drift).

    Tokenization is a plain single-space split (shared byte-exact with
    the oracle's ``string_split(text, ' ')``). A bigram is emitted when
    its count clears the relative floor ``n_ab · min_frac_denom >
    total_bigrams`` (integer comparison — scale-free and deterministic).

    Scale shape: per-block combiner (one split/explode + one grouped
    shift across the whole batch — unigram AND bigram partials leave the
    block pre-aggregated), one keyed sum exchange, then a
    vocabulary-sized driver merge for the totals + per-word joins — the
    same bounded-vocabulary collection contract as :func:`top_terms`
    (open-ended vocabularies belong to the Misra-Gries path,
    stages/sketch.py:heavy_hitters_topk).
    """
    import pandas as pd

    from arlas_proc_ray.stages.keyed import keyed_partition_map

    def partial_counts(batch: pa.Table) -> pd.DataFrame:
        from arlas_proc_ray.stages.keyed import byte_exact_group_cols

        s = batch.column(text_col).to_pandas().fillna("")
        toks = s.str.split(" ").explode()
        toks = toks[toks.notna()]
        # byte-exact token counting (NUL-safe, see keyed.py rationale)
        uni = byte_exact_group_cols(
            pd.DataFrame({"w": toks}), ["w"]
        )["w"].value_counts()
        nxt = toks.groupby(level=0).shift(-1)
        m = nxt.notna()
        bi = (
            byte_exact_group_cols(
                pd.DataFrame({"w1": toks[m], "w2": nxt[m]}), ["w1", "w2"]
            )
            .groupby(["w1", "w2"], sort=False)
            .size()
        )
        return pd.DataFrame(
            {
                "kind": ["u"] * len(uni) + ["b"] * len(bi),
                "w1": list(uni.index) + [a for a, _ in bi.index],
                "w2": [""] * len(uni) + [b for _, b in bi.index],
                "n": np.concatenate(
                    [uni.to_numpy(np.int64), bi.to_numpy(np.int64)]
                ),
            }
        )

    partials = ds.map_batches(
        partial_counts, batch_format="pyarrow", batch_size=None
    )

    def sum_counts(pdf: pd.DataFrame) -> pd.DataFrame:
        return (
            pdf.groupby(["kind", "w1", "w2"], sort=False, as_index=False)["n"]
            .sum()
        )

    counts = keyed_partition_map(
        partials, keys=["kind", "w1", "w2"], order_col="n", fn=sum_counts,
        num_partitions=num_partitions,
    ).to_pandas()
    if counts.empty:
        return pd.DataFrame(columns=["w1", "w2", "n_ab", "lift"])
    uni = counts[counts["kind"] == "u"].set_index("w1")["n"]
    bi = counts[counts["kind"] == "b"]
    n_uni = int(uni.sum())
    n_bi = int(bi["n"].sum())
    bi = bi[bi["n"].to_numpy(np.int64) * min_frac_denom > n_bi]
    # exact big-int products (may exceed int64), rounded to double only at
    # the single final division — identical to CAST(HUGEINT AS DOUBLE)
    lift = [
        float(int(n) * n_uni * n_uni) / float(n_bi * int(uni[a]) * int(uni[b]))
        for a, b, n in zip(bi["w1"], bi["w2"], bi["n"])
    ]
    return pd.DataFrame(
        {
            "w1": bi["w1"].to_numpy(object),
            "w2": bi["w2"].to_numpy(object),
            "n_ab": bi["n"].to_numpy(np.int64),
            "lift": np.array(lift, dtype=np.float64),
        }
    )


def compression_ratio_fn(
    text_col: str = "text", *, level: int = 6, out_col: str = "zlib_ratio"
):
    """Per-batch kernel: zlib compressed-size / raw-size per document —
    the classic low-information / boilerplate / repetition curation
    signal (near-0 = degenerate repetition, ~1 = high-entropy noise;
    natural text sits in between). stdlib zlib, dependency-free.

    Per-document compression is inherently per-item CPU work (same
    contract as the image decoders in multimodal/): the loop is over
    PAYLOADS, not rows of a scalar column, and parallelism comes from
    blocks. Empty/null texts get ratio 0.0 (nothing to compress).

    Determinism: zlib output depends only on (input, level) for a given
    zlib build, and the signal consumer thresholds it — the catalog
    entry is rows-only with a same-library unit oracle, not SQL-oracled.
    """
    import zlib

    def fn(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        buf = col.to_pandas().fillna("")
        raw = buf.str.len().to_numpy(np.int64)
        comp = np.fromiter(
            (len(zlib.compress(t.encode("utf-8"), level)) for t in buf),
            dtype=np.int64,
            count=len(buf),
        )
        ratio = np.where(raw > 0, comp / np.maximum(raw, 1), 0.0)
        return batch.append_column(out_col, pa.array(ratio, pa.float64()))

    return fn


def tfidf_top_terms(
    ds,
    *,
    doc_col: str = "doc_id",
    text_col: str = "text",
    k: int = 3,
    pattern: str = "[a-z]+",
    idf_scale: int = 10**12,
    num_partitions: int = 8,
):
    """Per-document top-``k`` terms by EXACT integer tf-idf.

    ``score = tf · (idf_scale // df)`` — the idf is one integer division
    per term (no float log), so scores are int64-exact and a SQL oracle
    matches bit-for-bit. Ranking per document is (score DESC, term ASC),
    the same total order the vocabulary queries use. int64 headroom
    contract: ``max_tf · idf_scale < 2^63`` (tf is per-document — payload
    caps, not corpus size, bound it).

    A document is its ``doc_col`` value: its text may span several rows,
    in any blocks, and counts as one document with the tokens of all of
    them (the SQL oracle's ``GROUP BY doc_id``).

    Shape (one pass over the documents, two keyed exchanges of
    token-count rows, never of text):

    1. **tf** — per block, token counts per (doc, term) → keyed sum on
       the document, so each document's (doc, term, tf) rows are exact
       and sit in one block.
    2. **df** — per block of those rows, term counts (exact: a document
       lives in one block) → keyed sum on the term → a vocab-sized
       (term, df) table broadcast via ``ray.put`` — the same broadcast
       contract as :func:`document_frequency_stop_terms`.
    3. **score** — per block: broadcast-df lookup, integer score,
       per-document top-k with the deterministic tie-break.

    Tokens are ``pattern`` matches on the lowered text ([a-z]+ by
    default — no NUL-byte keys can arise, so plain pandas grouping is
    byte-exact here).
    """
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray
    from arlas_proc_ray.stages.keyed import keyed_partition_map

    def tf_partial(batch: pa.Table) -> pd.DataFrame:
        ids = batch.column(doc_col).to_pandas().to_numpy()
        s = pc.utf8_lower(batch.column(text_col)).to_pandas().fillna("")
        toks = s.str.findall(pattern).explode().dropna()
        fr = pd.DataFrame(
            {doc_col: ids[toks.index.to_numpy(np.int64)],
             "term": toks.to_numpy(object)}
        )
        return fr.groupby([doc_col, "term"], sort=False).size().reset_index(
            name="tf"
        ).astype({"tf": "int64"})

    tf = keyed_partition_map(
        ds.map_batches(tf_partial, batch_format="pyarrow", batch_size=None),
        keys=[doc_col], order_col="term",
        fn=lambda pdf: pdf.groupby(
            [doc_col, "term"], sort=False, as_index=False
        )["tf"].sum(),
        num_partitions=num_partitions,
    ).materialize()

    def partial_df(batch: pa.Table) -> pd.DataFrame:
        vc = batch.column("term").to_pandas().value_counts()
        return pd.DataFrame(
            {"term": vc.index.to_numpy(object),
             "df_n": vc.to_numpy(np.int64)}
        )

    df_tbl = keyed_partition_map(
        tf.map_batches(partial_df, batch_format="pyarrow", batch_size=None),
        keys=["term"], order_col="df_n",
        fn=lambda pdf: pdf.groupby(
            "term", sort=False, as_index=False
        )["df_n"].sum(),
        num_partitions=num_partitions,
    ).to_pandas()
    df_map = (
        pd.Series(df_tbl["df_n"].to_numpy(np.int64), index=df_tbl["term"])
        if len(df_tbl)
        else pd.Series(dtype="int64")
    )
    df_ref = ray.put(df_map)

    def score(batch: pa.Table) -> pd.DataFrame:
        dfm = ray.get(df_ref)
        t = batch.to_pandas()
        dfn = t["term"].map(dfm).to_numpy(np.int64)
        tfs = t["tf"].to_numpy(np.int64)
        out = pd.DataFrame(
            {
                doc_col: t[doc_col].to_numpy(),
                "term": t["term"].to_numpy(object),
                "tf": tfs,
                "df_n": dfn,
                "tfidf_scaled": tfs * (int(idf_scale) // dfn),
            }
        )
        out = out.sort_values(
            ["tfidf_scaled", "term"], ascending=[False, True],
            kind="mergesort",
        )
        return out.groupby(doc_col, sort=False).head(k).reset_index(drop=True)

    # batch_size=None: one batch per block, so no document is split
    return tf.map_batches(score, batch_format="pyarrow", batch_size=None)
