// Serving example: drive the streaming STATS pipeline (engine.Pipeline)
// directly — the same engine cmd/statsserved puts behind HTTP — and watch
// the protocol work an unbounded input feed:
//
//   - inputs are pushed one at a time, as a sensor or socket would
//     deliver them, while committed outputs stream back concurrently;
//   - the speculation window exerts backpressure instead of buffering
//     without bound;
//   - the online controller retunes the chunk size from commit/abort
//     feedback mid-stream;
//   - the binned stage metrics show where the wall-clock time went.
//
// Run with: go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"os"

	"gostats/internal/bench/facetrack"
	"gostats/internal/cluster"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

func main() {
	params := facetrack.Default()
	params.Frames = 600
	ft := facetrack.NewWithParams(params)
	feed := ft.Inputs(rng.New(1))

	// A pipeline has no collector of its own; the one that should see its
	// events is attached as the session's Sink.
	met := engine.NewMetrics()
	ctx := context.Background()
	p, err := engine.NewStream(ctx, ft, engine.StreamConfig{
		ChunkSize:   12,
		Lookback:    4,
		ExtraStates: 1,
		Workers:     4,
		Seed:        3,
		Adapt:       true,
		Sink:        met,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Producer: feed frames as they "arrive". Push blocks when the
	// pipeline's speculation window is full — that is the backpressure a
	// real ingestion loop would propagate upstream.
	go func() {
		defer p.Close()
		for _, in := range feed {
			if err := p.Push(ctx, in); err != nil {
				return
			}
		}
	}()

	// Consumer: committed outputs arrive in input order while later
	// chunks are still speculating.
	var results []engine.Output
	for out := range p.Outputs() {
		results = append(results, out)
	}
	stats, err := p.Wait()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("streamed %d frames through %d chunks: %d committed, %d aborted, %d chunk-size retunes\n",
		stats.Inputs, stats.Chunks, stats.Commits, stats.Aborts, stats.Resizes)
	fmt.Printf("tracking quality (mean -err): %.4f\n", ft.Quality(results))
	fmt.Println("\nstage metrics (binstat-style):")
	page := map[string]int64{}
	met.Put(page)
	cluster.WriteMetrics(os.Stdout, cluster.BackendMetrics{Values: page})
}
