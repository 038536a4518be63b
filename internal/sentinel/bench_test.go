package sentinel

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/forensics"
)

// BenchmarkIngestDense runs in-process Ingest of a 200k-record dense
// capture (a new session every 8 records, a finding about every 10),
// stamped as a store-backed daemon stamps it, through the shard writer
// to a discarded output. Every iteration must report exactly the
// findings batch AnalyzeBytes finds, with nothing dropped.
func BenchmarkIngestDense(b *testing.B) {
	capture := synthDense(b, 200_000, 1)
	rep, err := forensics.AnalyzeBytes(capture)
	if err != nil {
		b.Fatal(err)
	}
	want := uint64(len(rep.Findings))
	s := New(Config{Timestamps: true})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	b.SetBytes(int64(len(capture)))
	b.ReportAllocs()
	b.ResetTimer()
	var records int
	for i := 0; i < b.N; i++ {
		sum := s.Ingest("bench", "dense", bytes.NewReader(capture))
		if sum.Status != StatusClean || sum.Findings != want || sum.EventsDropped != 0 {
			b.Fatalf("ingest: status %q, %d findings (AnalyzeBytes: %d), %d dropped",
				sum.Status, sum.Findings, want, sum.EventsDropped)
		}
		records += sum.Records
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}
