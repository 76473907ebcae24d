"""Independent straight-line reference for the degenerate reader.

Every query reading starts from zero states and re-reads the raw query
embeddings; only the document side is attended and gated. Written in
plain numpy, one GRU step at a time, without the engine's scan, its
tape ops, the reader module's switches or its `attend` helper, so a
fault in any of them shows as a difference from this reference. It
reads the BiGRU weights in the stacked layout and with the gate
convention given in the `dgreader.autodiff` docstring.
"""

import numpy as np


def sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def masked_bigru(x, params, mask):
    """(B, T, in) -> (B, T, 2*hidden) from zero initial states, forward
    half first. A direction steps through x[:, t] in its reading order
    and keeps its state where mask[:, t] is 0: past a row's last token
    the forward state stays frozen, and over the padding the backward
    state is still its initial state."""
    n = params.hidden
    batch, steps, _ = x.shape
    out = np.empty((batch, steps, 2 * n))
    for d in range(2):
        cols = slice(3 * n * d, 3 * n * (d + 1))
        wz, wr, wc = np.split(params.w_in.data[:, cols], 3, axis=1)
        uz, ur, uc = np.split(params.w_hid.data[d], 3, axis=1)
        bz, br, bc = np.split(params.bias.data[cols], 3)
        h = np.zeros((batch, n))
        for t in range(steps) if d == 0 else reversed(range(steps)):
            xt = x[:, t]
            z = sigmoid(xt @ wz + h @ uz + bz)
            r = sigmoid(xt @ wr + h @ ur + br)
            c = np.tanh(xt @ wc + (r * h) @ uc + bc)
            h = np.where(mask[:, t : t + 1] == 1.0, (1.0 - z) * h + z * c, h)
            out[:, t, d * n : (d + 1) * n] = h
    return out


def ga_encode(doc_emb, qry_emb, params, hops, doc_mask, qry_mask, qe=None):
    """Final document and query readings (B, n, r) / (B, m, r) of the
    flags-off reader over plain (B, n, D) / (B, m, D) embeddings."""
    doc = masked_bigru(doc_emb, params.doc_readers[0], doc_mask)
    qry = masked_bigru(qry_emb, params.qry_readers[0], qry_mask)
    for s in range(hops):
        e = doc @ qry.transpose(0, 2, 1)
        e = np.where(qry_mask[:, None, :] == 1.0, e, -np.inf)
        att = np.exp(e - e.max(axis=-1, keepdims=True))
        att /= att.sum(axis=-1, keepdims=True)
        gated = doc * (att @ qry)
        if s == hops - 1 and qe is not None:
            gated = np.concatenate([gated, qe[:, :, None]], axis=-1)
        doc = masked_bigru(gated, params.doc_readers[s + 1], doc_mask)
        qry = masked_bigru(qry_emb, params.qry_readers[s + 1], qry_mask)
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
