"""Independent straight-line reference for the reader's six presets.

The flags-off reader (ga-reader) re-reads the raw query embeddings from
zero states in every round, and only the document side is attended and
gated. The three switches extend it as the README's Presets section
describes them: dependent_query feeds each round's query reading into
the next query reader instead of the raw embeddings, query_gating
first gates that reading with its attended document context, and
carry_query_state starts each query reader from the previous query
reading's final states instead of zeros.

Written in plain numpy, one GRU step at a time, without the engine's
scan, its tape ops, the reader module's switches or its `attend`
helper, so a fault in any of them shows as a difference from this
reference. It reads the BiGRU weights in the stacked layout and with the
gate convention given in the `dgreader.autodiff` docstring.
"""

import numpy as np


def sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def masked_bigru(x, params, mask, initial=(None, None)):
    """(B, T, in) -> (B, T, 2*hidden), forward half first, and the final
    (forward, backward) states of the two loops.

    Each direction starts from its initial state, zeros when None. It
    steps through x[:, t] in its reading order and keeps its state where
    mask[:, t] is 0: past a row's last token the forward state stays
    frozen, and over the padding the backward state is still its initial
    state. A direction's final state is its state when its loop ends:
    the forward one after the last real token, the backward one after
    the first token."""
    n = params.hidden
    batch, steps, _ = x.shape
    out = np.empty((batch, steps, 2 * n))
    finals = []
    for d in range(2):
        cols = slice(3 * n * d, 3 * n * (d + 1))
        wz, wr, wc = np.split(params.w_in.data[:, cols], 3, axis=1)
        uz, ur, uc = np.split(params.w_hid.data[d], 3, axis=1)
        bz, br, bc = np.split(params.bias.data[cols], 3)
        h = np.zeros((batch, n)) if initial[d] is None else initial[d]
        for t in range(steps) if d == 0 else reversed(range(steps)):
            xt = x[:, t]
            z = sigmoid(xt @ wz + h @ uz + bz)
            r = sigmoid(xt @ wr + h @ ur + br)
            c = np.tanh(xt @ wc + (r * h) @ uc + bc)
            h = np.where(mask[:, t : t + 1] == 1.0, (1.0 - z) * h + z * c, h)
            out[:, t, d * n : (d + 1) * n] = h
        finals.append(h)
    return out, tuple(finals)


def masked_softmax(e, mask):
    """Softmax of (B, i, j) scores over the positions j where the (B, j)
    mask is 1; the others get exactly 0."""
    e = np.where(mask[:, None, :] == 1.0, e, -np.inf)
    att = np.exp(e - e.max(axis=-1, keepdims=True))
    return att / att.sum(axis=-1, keepdims=True)


def reference_encode(
    doc_emb,
    qry_emb,
    params,
    hops,
    doc_mask,
    qry_mask,
    qe=None,
    query_gating=False,
    dependent_query=False,
    carry_query_state=False,
):
    """Final document and query readings (B, n, r) / (B, m, r) over plain
    (B, n, D) / (B, m, D) embeddings under the three switches; all off
    (the defaults) is the flags-off reader. qe, when given, joins the
    document input of the last round as one more column."""
    doc, _ = masked_bigru(doc_emb, params.doc_readers[0], doc_mask)
    qry, finals = masked_bigru(qry_emb, params.qry_readers[0], qry_mask)
    for s in range(hops):
        e = doc @ qry.transpose(0, 2, 1)
        gated = doc * (masked_softmax(e, qry_mask) @ qry)
        if query_gating:
            qry_in = qry * (masked_softmax(e.transpose(0, 2, 1), doc_mask) @ doc)
        elif dependent_query:
            qry_in = qry
        else:
            qry_in = qry_emb
        if s == hops - 1 and qe is not None:
            gated = np.concatenate([gated, qe[:, :, None]], axis=-1)
        initial = finals if carry_query_state else (None, None)
        doc, _ = masked_bigru(gated, params.doc_readers[s + 1], doc_mask)
        qry, finals = masked_bigru(qry_in, params.qry_readers[s + 1], qry_mask, initial)
    return doc, qry


def random_embeddings(rng, batch, n, m, dim):
    doc = rng.normal(size=(batch, n, dim))
    qry = rng.normal(size=(batch, m, dim))
    return doc, qry


def suffix_mask(rng, batch, length, min_real=1):
    """0/1 masks with real tokens as a prefix, like padded batches."""
    mask = np.zeros((batch, length))
    for b in range(batch):
        real = int(rng.integers(min_real, length + 1))
        mask[b, :real] = 1.0
    return mask
