"""Independent straight-line reference for the degenerate reader.

Every query reading starts from zero states and re-reads the raw query
embeddings; only the document side is attended and gated. Written
directly against the engine primitives, without the reader module's
switches or its `attend` helper, to cross-check the flags-off
configuration.
"""

import numpy as np

from dgreader.autodiff import bigru


def ga_encode(tape, doc_emb, qry_emb, params, hops, doc_mask, qry_mask, qe=None):
    doc = bigru(doc_emb, None, None, params.doc_readers[0], doc_mask)
    qry = bigru(qry_emb, None, None, params.qry_readers[0], qry_mask)
    for s in range(hops):
        e = tape.matmul(doc, tape.transpose_last2(qry))
        att = tape.masked_softmax(e, qry_mask[:, None, :])
        ctx = tape.matmul(att, qry)
        gated = tape.mul(doc, ctx)
        if s == hops - 1 and qe is not None:
            gated = tape.concat_last([gated, tape.constant(qe[:, :, None])])
        doc = bigru(gated, None, None, params.doc_readers[s + 1], doc_mask)
        qry = bigru(qry_emb, None, None, params.qry_readers[s + 1], qry_mask)
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
