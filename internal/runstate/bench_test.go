package runstate

import (
	"strconv"
	"testing"
)

// BenchmarkRecord times one journaled unit on the test's temp directory:
// the line is encoded, appended and fsync'd, then merged into the store.
func BenchmarkRecord(b *testing.B) {
	s, err := Open(b.TempDir(), testIdentity())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Record("u"+strconv.Itoa(i), point{Index: i, Rate: 0.1, Latency: 21.5})
	}
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}
