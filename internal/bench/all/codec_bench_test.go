package all

import (
	"testing"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// BenchmarkDecodeInput is the serial stage of a served session, alone:
// each codec's DecodeInputInto over its benchmark's seed-42 request
// lines, in order, each decoded into the input decoded before it, as a
// served line is into the input its record slot retires; reported per
// line and as MB/s of NDJSON read.
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
			rc := bench.Reusing(wc)
			var spare engine.Input
			b.SetBytes(int64(total / len(lines)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if spare, err = rc.DecodeInputInto(lines[i%len(lines)], spare); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
