package all

import (
	"testing"

	"gostats/internal/bench"
	"gostats/internal/rng"
)

// BenchmarkDecodeInput is the serial stage of a served session, alone:
// each codec's DecodeInput over its benchmark's seed-42 request lines,
// in order, reported per line and as MB/s of NDJSON read.
func BenchmarkDecodeInput(b *testing.B) {
	for _, name := range bench.WireNames() {
		b.Run(name, func(b *testing.B) {
			wc, err := bench.WireFor(name)
			if err != nil {
				b.Fatal(err)
			}
			var lines [][]byte
			total := 0
			for _, in := range bench.MustNew(name).Inputs(rng.New(42)) {
				line, err := wc.EncodeInput(in)
				if err != nil {
					b.Fatal(err)
				}
				lines = append(lines, line)
				total += len(line)
			}
			b.SetBytes(int64(total / len(lines)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wc.DecodeInput(lines[i%len(lines)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
