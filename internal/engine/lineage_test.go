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
	"bodytrack/1":         "b574e9371601c000ee3947e2f0310baf102b68b7edf036e202bcee81b7b3e03d",
	"bodytrack/2":         "4960e8c277c5230e90114acb99c1ee7bd254182498aa4f206265a120a2135aae",
	"bodytrack/4":         "7dbd82fee7f1a4789bccc240a08d82ff9adcc76ce52784b19b7b59db70efc934",
	"dedupstream/1":       "0c3863239b69f6d8ca9598ebf55efa6ff6c7da396d23997dc6491fe6da7dcba7",
	"dedupstream/2":       "e31e1ad0d46563673a1a7d8e529cdcdf029edfcc8d10f5ff6f1e786688319133",
	"dedupstream/4":       "282eae7548b2e8af38b18187540b8bdc406c228594fb9751ab7254504da625f1",
	"facedet-and-track/1": "a9e4d6a73cfe036278067f12d8d79ea02fed12fb529860b5549e556db0109d8f",
	"facedet-and-track/2": "cab9f2f8685c20981f8c32a5797dbf015a8f9659ccf9467968d6b8f09e97d166",
	"facedet-and-track/4": "6476ede267ff2ceb70c6ada727fbeb612180bb06e68625f2d1844d91ebc3584d",
	"facetrack/1":         "7fdcba3b57700cb46793ffad18b600aa4654d5e456b234fd19de1dd2a358d554",
	"facetrack/2":         "585cd7eff0aa12024849f4025a92bcd031a04b96cf176c76ae36bef93276395b",
	"facetrack/4":         "e67b299736b44a5fbfc44fab70c00a4d97345a921cfc8be9f9b91cecf4378646",
	"fluidanimate/1":      "acf90c778f668b05a390e2a857cb6aed293c01b1eb8f659b23fb1ca34d9e1604",
	"fluidanimate/2":      "6bbcbef66e01c00896d5b1d552180e220a23b97d0dbceb3573680cb02d1c0279",
	"fluidanimate/4":      "f2fbc4883c82d04f365542282cb39cd48b11fed315fd679453ac58b4ae99b368",
	"streamclassifier/1":  "41852bf9519eb3e219b0a829011736727f877d8b0dc37b2934cd6f5031470071",
	"streamclassifier/2":  "2f7ceb09ef60dc114b74d101158ab9b15c2a3862c24c8a2facd75bc063249196",
	"streamclassifier/4":  "d9ba92ed2e80005fc33153442b42be334dfe3cdab17f8151d3dcdaacc9d3a211",
	"streamcluster/1":     "40d9e60feeec38a0dc2a0e50459f097d344af613ba2a4f76f808846fb69377e1",
	"streamcluster/2":     "22bcd02ef8e3f115d59d62c68d1b25fb2732517bf218b89dd019f27f7458c104",
	"streamcluster/4":     "7ec3f96b3b1d3381156f42fee315c3bc2e5f2a247ff4c4f28151f4bcc33b510f",
	"swaptions/1":         "237cc761d5e681a9d8347d98bde0765a5e575fd30c2ae7b41c14273d0a330c17",
	"swaptions/2":         "d7cb299be82a0b35cdbf6c5d1bb8bf3f9eed11df2575f54eda45283ca6fedc30",
	"swaptions/4":         "bae3480863021dd14de44c3f8a4d8332c7731e2231130b218852b4d676232824",
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
