package engine_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"testing"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/checkpoint"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// On the native substrate a chunk boundary builds its replica original
// states only when the speculative state misses the final one. Nothing a
// session commits may show it: not an output byte and not a verdict — the
// comparisons charged and whether one matched. A checkpoint capture does
// not build them either: it encodes the final state and the replica seed,
// and a resumed frontier builds the replicas from the seed on a miss. The
// snapshot bytes are pinned apart from the outcomes, so a change of the
// snapshot format cannot hide a change of what a session commits.

// outcomeDigests are, per benchmark, the SHA-256 of a 72-input streaming
// session's committed output lines and every chunk's verdict projection,
// recorded while every chunk still built its replicas eagerly. Every
// worker count reproduces them, with checkpoints and without.
var outcomeDigests = map[string]string{
	"bodytrack":         "e7b5772fbdec66a88a6d3eedf420d455a17237d9667693a21b54ee0d9ebd0685",
	"dedupstream":       "d68a7532eaf0529b9d90707346c9c37865241a0181625120810a388876bbda6d",
	"facedet-and-track": "89d825a053116abde5feb95b4d20bd123e5da1cdb16e022e2389da705624c471",
	"facetrack":         "1d379693c99e74a1e42fe14f8da82c90f5384e18c012a4710846a5fe91f9f7e7",
	"fluidanimate":      "d70a040bd97ca6fb4f1a07215fb45f5146f15ccd30b4c4b9e7f1560fed363f0c",
	"streamclassifier":  "6f97c61cfbf3e8b7a7ebbec32adf328bf1edce20cdce2f60ab8968ca682afa75",
	"streamcluster":     "fc2ca93f97c98d6c4339fbd938c7a07c28940a5db97fc77bc9a77b455d362ad0",
	"swaptions":         "0ea7151674532cbe5c752f7842da06db42b762dbaf706583d361ebc619441c44",
}

// snapshotDigests are, per benchmark and worker count, the SHA-256 of the
// framed bytes of the snapshot taken at every commit of that session. A
// snapshot records its session's worker count, so each count has its own.
var snapshotDigests = map[string]string{
	"bodytrack/1":         "6b3f185ede3300398054b0bd3365d9e0c7d6f0528027cdd1dd565948c63879ed",
	"bodytrack/2":         "832722603bf3c6989adac8074ffad2c37b5eceb1d6b2682a4cd549698e448aa6",
	"bodytrack/4":         "e66fa44922037401bba6e00354576eba67d5deb4a22cda60614b396882ff6cf7",
	"dedupstream/1":       "4c75b9a5f1b49aa51795aa7c24ffa5e4c0bd16b9ae2f35ea6492016204445ba6",
	"dedupstream/2":       "a67f61339f24bb8b147081cbd3c231691ee7f213ad07dafd1dac9e6a56a11a41",
	"dedupstream/4":       "f45418d9e18af682bc12204a20a7a29cf23e96d85dc18dc9e01b082582d44584",
	"facedet-and-track/1": "71a7118543cde3f8598df2e34db6676cfd4093c61da3b7aed71b3e60f9c13484",
	"facedet-and-track/2": "6137eab763e2fcbae27a520d7a6b7c57b4f3be39407c4b1d85526eb798363585",
	"facedet-and-track/4": "97e41a32deda7b9256814445931fc7b9481372823f2dcb812dc02de6b1828fe3",
	"facetrack/1":         "f34911e38b6cb27258a3433ac8077d33e1821243215019cf3cbfca5fbe4c0978",
	"facetrack/2":         "7bd33dd8ce1fad59382cee50ff3c1d58615a74cdaab721dacea2e89a450bb5e1",
	"facetrack/4":         "694af55deaaa38d61a59408af46add7e64b0eb6835955446562d08dc7be9e920",
	"fluidanimate/1":      "2c2b49c143f80d11544d1b36202939c9e2f46ee9b9e25439267d183edca270ed",
	"fluidanimate/2":      "d2c94acfeee2e1288c11c29b08fe95dd5610d4a4fd75c38bb20db63988483558",
	"fluidanimate/4":      "93d685951ffc8cbea49891e0d83cceaf19469185a7860013f443ddcb33b1fd60",
	"streamclassifier/1":  "513be77d711cf71dfdd22034e04f5c66fd640d2537531402a98a3aac073ea6ba",
	"streamclassifier/2":  "b3bc7695fa2863f3266731a2dc556f2c2b6ac0476696f54830697de94d3c76c0",
	"streamclassifier/4":  "a0655e82e351e180f91b43bade1847a3ae6fdb646cf792f6b0adf03bee0254d7",
	"streamcluster/1":     "47c471b60cc510ffdda4d36b4a23a490abfe125b1ae5bb7a94b7a293fe7971c8",
	"streamcluster/2":     "a96eb9585cc428103bbfac89ebc15dd99793601a1dba9fb501bb66b062d29599",
	"streamcluster/4":     "13d9770bb6d106946c5c0bcb0b687a3f62165645fd4e41ca5cccc148a7261ce2",
	"swaptions/1":         "1b254bdc192ff287ab13a4eeb6b2d9505222e6bd325b7b8f475d2c6e54ec0cdb",
	"swaptions/2":         "fdaf677211f65f4da02fe17369cc2cde1d4d731bd399c3d1bab0903aebb9e4fb",
	"swaptions/4":         "82dbc23b13562628fb953e80c6cc7f91fa43e337d0f343ee97e50679871bef48",
}

// verdictLog keeps, per chunk, the events that decide it: EvValidated
// with its comparisons charged and verdict, then EvCommitted or
// EvAborted. They all come from the commit frontier, in chunk order.
type verdictLog struct{ chunkLog }

func (l *verdictLog) Event(e engine.Event) {
	switch e.Kind {
	case engine.EvValidated, engine.EvCommitted, engine.EvAborted:
		l.chunkLog.Event(e)
	}
}

// split counts a session's boundaries by where the wave stopped: on the
// final state, on a replica, or nowhere.
func (l *verdictLog) split() (final, replica, missed int) {
	for _, evs := range l.byChunk {
		for _, e := range evs {
			switch {
			case e.Kind != engine.EvValidated:
			case !e.Matched:
				missed++
			case e.N == 1:
				final++
			default:
				replica++
			}
		}
	}
	return final, replica, missed
}

// hashOutcomes folds committed output lines and per-chunk event sequences,
// in chunk order, into h.
func hashOutcomes(h hash.Hash, lines [][]byte, byChunk map[int][]untimed) {
	for _, line := range lines {
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	chunks := make([]int, 0, len(byChunk))
	for j := range byChunk {
		chunks = append(chunks, j)
	}
	sort.Ints(chunks)
	for _, j := range chunks {
		fmt.Fprintf(h, "%d %+v\n", j, byChunk[j])
	}
}

// lineageDigest runs one benchmark's session twice at workers — without
// checkpoints, so every missed boundary builds its replicas at the
// frontier, and with one at every commit, so every capture encodes a
// replica seed — checks that both commit the same outputs and verdicts,
// and returns the digest of those and the digest of the snapshots'
// framed bytes.
func lineageDigest(t *testing.T, name string, workers int) (outcomes, snapshots string, log *verdictLog) {
	t.Helper()
	inputs := bench.MustNew(name).Inputs(rng.New(1))
	if len(inputs) > 72 {
		inputs = inputs[:72]
	}
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.StreamConfig{ChunkSize: 4, Lookback: 2, ExtraStates: 2, Workers: workers, Seed: 5}

	plain := &verdictLog{}
	cfg.Sink = plain
	lines, _, _ := sessionRun(t, name, cfg, inputs)
	want := sha256.New()
	hashOutcomes(want, lines, plain.byChunk)

	ckpt := &verdictLog{}
	cfg.Sink, cfg.Checkpoint = ckpt, engine.CheckpointConfig{EveryCommits: 1, Codec: wc}
	lines, snaps, _ := sessionRun(t, name, cfg, inputs)
	got := sha256.New()
	hashOutcomes(got, lines, ckpt.byChunk)
	if string(got.Sum(nil)) != string(want.Sum(nil)) {
		t.Errorf("%s workers=%d: checkpointing changed the committed outputs or verdicts", name, workers)
	}
	framed := sha256.New()
	for _, snap := range snaps {
		b, err := checkpoint.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		framed.Write(b)
	}
	return fmt.Sprintf("%x", want.Sum(nil)), fmt.Sprintf("%x", framed.Sum(nil)), plain
}

func TestLineageDigests(t *testing.T) {
	names, counts := bench.Names(), []int{1, 2, 4}
	if len(names) != len(outcomeDigests) || len(names)*len(counts) != len(snapshotDigests) {
		t.Fatalf("%d benchmarks registered, %d outcome and %d snapshot digests pinned", len(names), len(outcomeDigests), len(snapshotDigests))
	}
	var final, replica, missed int
	for _, name := range names {
		for _, workers := range counts {
			outcomes, snapshots, log := lineageDigest(t, name, workers)
			if want := outcomeDigests[name]; outcomes != want {
				t.Errorf("%s workers=%d: outcome digest %s, pinned %s", name, workers, outcomes, want)
			}
			if want := snapshotDigests[fmt.Sprintf("%s/%d", name, workers)]; snapshots != want {
				t.Errorf("%s workers=%d: snapshot digest %s, pinned %s", name, workers, snapshots, want)
			}
			if workers == 1 {
				f, r, m := log.split()
				t.Logf("%s: %d boundaries matched on the final state, %d on a replica, %d missed", name, f, r, m)
				final, replica, missed = final+f, replica+r, missed+m
			}
		}
	}
	// The digests only guard the deferred path if sessions take it.
	if final == 0 || replica == 0 || missed == 0 {
		t.Errorf("verdict split %d/%d/%d: every kind of boundary must occur", final, replica, missed)
	}
}
