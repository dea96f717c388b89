"""Per-layer attribution of one traced operation.

A traced operation runs under a span tracer that records both the
benchmark's own spans (``bench.*``, opened around every call it makes into
a layer of the program) and the spans the program emits on its own (the
merge pass's stage spans).  Every span's *self time* — its duration minus
the time covered by its children — is charged to exactly one layer, so the
layers of an operation sum to the operation's traced wall-clock.

A span whose name is not in :data:`LAYER_OF` charges its self time to the
layer of its nearest named ancestor.  A span the program adds later inside
a stage therefore refines nothing here but also loses nothing: the stage's
layer keeps its time.
"""

from __future__ import annotations

from typing import Dict, Iterable

#: Layers reported per operation, in pipeline order.  Every workload
#: exercises every layer, so none of them reads zero.
LAYERS = (
    "codec",  # request/response text across the program boundary
    "parse",  # IR text -> module
    "verify",  # module verifier on inputs and outputs
    "preprocess",  # ranker set-up: fingerprints plus search index
    "rank",  # candidate search per attempt
    "bound",  # pre-alignment profitability bound
    "align",  # instruction alignment
    "codegen",  # merged-function generation and its verification
    "commit",  # applying a profitable merge to the module
    "attempt",  # rest of an attempt: profitability, rollback
    "print",  # module -> IR text
    "other",  # driver bookkeeping between the layers above
)

#: Span name -> layer.  ``bench.*`` spans are opened by this benchmark;
#: the rest are the program's own stage spans.
LAYER_OF = {
    "bench.op": "other",
    "bench.read": "codec",
    "bench.write": "codec",
    "bench.decode": "codec",
    "bench.encode": "codec",
    "bench.parse": "parse",
    "bench.verify": "verify",
    "bench.print": "print",
    "fingerprint": "preprocess",
    "encode": "preprocess",
    "minhash": "preprocess",
    "index": "preprocess",
    "rank": "rank",
    "lsh_query": "rank",
    "bound": "bound",
    "align": "align",
    "codegen": "codegen",
    "commit": "commit",
    "attempt": "attempt",
}


def layer_seconds(spans: Iterable) -> Dict[str, float]:
    """Self time per layer, in seconds, of finished tracer spans."""
    spans = list(spans)
    by_id = {sp.span_id: sp for sp in spans}
    child_time: Dict[int, float] = {}
    for sp in spans:
        if sp.parent_id is not None:
            child_time[sp.parent_id] = child_time.get(sp.parent_id, 0.0) + sp.duration

    def layer(sp) -> str:
        while sp is not None:
            named = LAYER_OF.get(sp.name)
            if named is not None:
                return named
            sp = by_id.get(sp.parent_id)
        return "other"

    totals = {name: 0.0 for name in LAYERS}
    for sp in spans:
        totals[layer(sp)] += sp.duration - child_time.get(sp.span_id, 0.0)
    return totals
