"""Streaming campaign pipeline: paper-scale acquisition + analysis.

The scaling layer over ``repro.power``: campaigns are sharded into
chunks, acquired on a worker pool with per-chunk spawned RNG streams,
persisted to a :class:`~repro.store.ChunkedTraceStore`, and analysed by
incremental consumers (CPA, TVLA, completion-time statistics) — all in
memory bounded by the chunk size, with results independent of the worker
count.  See ``docs/pipeline.md`` for the architecture.

Long campaigns are fault tolerant: graceful degradation to inline
execution when a worker dies or a chunk times out, and atomic
:class:`~repro.pipeline.checkpoint.CampaignCheckpoint` files that let
:meth:`StreamingCampaign.resume` continue a killed run bit-identically.
See ``docs/robustness.md`` for the guarantees.
"""

from repro.pipeline.attack_consumers import (
    DisclosureConsumer,
    LatticeCpaConsumer,
    MiaStreamConsumer,
    MlpAttackConsumer,
    SuccessRateConsumer,
)
from repro.pipeline.checkpoint import CampaignCheckpoint
from repro.pipeline.consumers import (
    CompletionTimeConsumer,
    CompletionTimeStats,
    CpaBankConsumer,
    CpaStreamConsumer,
    SummarizingConsumer,
    TraceConsumer,
    TvlaStreamConsumer,
)
from repro.pipeline.engine import (
    ChunkProgress,
    PipelineReport,
    StreamingCampaign,
)
from repro.pipeline.spec import (
    DEFAULT_KEY,
    CampaignSpec,
    campaign_targets,
    spec_from_dict,
    spec_to_dict,
)

__all__ = [
    "CampaignCheckpoint",
    "CampaignSpec",
    "DEFAULT_KEY",
    "campaign_targets",
    "spec_from_dict",
    "spec_to_dict",
    "ChunkProgress",
    "CompletionTimeConsumer",
    "CompletionTimeStats",
    "CpaBankConsumer",
    "CpaStreamConsumer",
    "DisclosureConsumer",
    "LatticeCpaConsumer",
    "MiaStreamConsumer",
    "MlpAttackConsumer",
    "PipelineReport",
    "StreamingCampaign",
    "SuccessRateConsumer",
    "SummarizingConsumer",
    "TraceConsumer",
    "TvlaStreamConsumer",
]
