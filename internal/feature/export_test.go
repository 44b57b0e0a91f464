package feature

import "aovlis/internal/stream"

// IngestSegmenter is the segmenter an Ingest cuts with, for the external
// tests (they import dataset, which imports this package).
func IngestSegmenter(in *Ingest) stream.Segmenter { return in.seg }

// IngestRetained reports how many seconds of the count series and of its
// windowed aggregation an Ingest still holds.
func IngestRetained(in *Ingest) (counts, windowed int) { return len(in.counts), len(in.windowed) }
