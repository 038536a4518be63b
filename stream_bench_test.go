// Capture-analysis benchmarks: the buffer-everything forensics path
// against the zero-copy batch path over a large synthetic capture
// (go test -bench=ForensicsScan). The custom records/s metric is the
// headline number; allocs/op shows the zero-copy win.
package repro

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/forensics"
	"repro/internal/snoop"
)

// benchCapture synthesizes one shared capture per benchmark run.
func benchCapture(b *testing.B, records int) []byte {
	b.Helper()
	var buf bytes.Buffer
	if _, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: records, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkForensicsScan compares the full capture-to-report paths on a
// 200k-record synthetic capture. "baseline" is the pre-streaming
// pipeline (snoop.ReadAll materializes every record, forensics.Analyze
// full-parses each); "bytes" is forensics.AnalyzeBytes, the block sweep
// with the prefilter inside it over the capture in place.
func BenchmarkForensicsScan(b *testing.B) {
	const records = 200_000
	data := benchCapture(b, records)

	want := func() *forensics.Report {
		recs, err := snoop.ReadAll(data)
		if err != nil {
			b.Fatal(err)
		}
		return forensics.Analyze(recs)
	}()

	run := func(b *testing.B, analyze func() (*forensics.Report, error)) {
		b.Helper()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := analyze()
			if err != nil {
				b.Fatal(err)
			}
			if len(rep.Findings) != len(want.Findings) {
				b.Fatalf("findings %d, want %d", len(rep.Findings), len(want.Findings))
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	}

	b.Run("baseline_readall_analyze", func(b *testing.B) {
		run(b, func() (*forensics.Report, error) {
			recs, err := snoop.ReadAll(data)
			if err != nil {
				return nil, err
			}
			return forensics.Analyze(recs), nil
		})
	})
	b.Run("bytes", func(b *testing.B) {
		run(b, func() (*forensics.Report, error) {
			return forensics.AnalyzeBytes(data)
		})
	})

	// Identity across paths, checked once outside the timing loops.
	got, err := forensics.AnalyzeBytes(data)
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		b.Fatal("batch report differs from in-memory report")
	}
}

// BenchmarkSynthesize measures the capture generator itself (it must be
// cheap enough to build multi-million-record fixtures on the fly).
func BenchmarkSynthesize(b *testing.B) {
	b.ReportAllocs()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		stats, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: 100_000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Records != 100_000 {
			b.Fatal("short capture")
		}
	}
	b.SetBytes(int64(buf.Len()))
}
