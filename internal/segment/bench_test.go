package segment

import (
	"testing"
)

// BenchmarkSegmentOpen measures the full cold-load path — open, checksum
// verify, dict decode, set-header rebuild — at LUBM scale 1. The
// benchmark's segment.open_ms row times the same path at its own scale.
func BenchmarkSegmentOpen(b *testing.B) {
	st := lubmStore(b, 1)
	path := writeSegment(b, st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		l.Close()
	}
}

// BenchmarkSegmentWrite measures compaction's added persistence cost.
func BenchmarkSegmentWrite(b *testing.B) {
	st := lubmStore(b, 1)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(dir+"/base.seg", st); err != nil {
			b.Fatal(err)
		}
	}
}
