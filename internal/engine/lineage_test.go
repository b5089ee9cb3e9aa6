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
	"bodytrack/1":         "d1025900e44d542b01bb12318e3935e74616b4b4109f69c9ef4bc8e40985e7c1",
	"bodytrack/2":         "f4d0856c1197eed403233756615f3273994a11568a066af3e26c40589de1acce",
	"bodytrack/4":         "b860aae310125726e6ba7c6fd16367f2cfa12d014b6288b5365986523c4c257b",
	"dedupstream/1":       "94991349a6fa46a008696f1269525e7eab9d0ac86ddd68f99199c84388e238d6",
	"dedupstream/2":       "57e5f4832357adbfaea3cd4a6bf01dfef990e7aec8bec2a596106ca5e9b40069",
	"dedupstream/4":       "0c32dccfa91fbdc77420798a8205925d9b7541ac34bd9dbecbfa4b5bae964d00",
	"facedet-and-track/1": "207eef7fc52f8f8f46b5e2879b7b33ba9859492ee81e0a5b69c2d8e4243205de",
	"facedet-and-track/2": "5eb4977cccecd88af5761d113876b0151c0f8700818a43162286f5e7596c693c",
	"facedet-and-track/4": "19bb20a55525a24f1dfb110c660675998380a5f3820b8434e038e2ebca2d4740",
	"facetrack/1":         "dee144a4e39c90f0168fb171443669b7ffb24250fa3efb8c331a4a89dce8ccfe",
	"facetrack/2":         "8ba0b0914018a90db1324e4ff8573bb692c5c0650acd94539c2dad093d765be6",
	"facetrack/4":         "d685e88f7551ca39ee33678dce5fc40f34d5636deca88ad598d7da0fbf428bfb",
	"fluidanimate/1":      "b324c25a811b332a695fe1d77744f40bb9fa7a149690bf5d36ca020ab08c1688",
	"fluidanimate/2":      "f5c6cb05ca0a492c4291a817e19a5243a1cf74170be5c5c8e38808671bb25de1",
	"fluidanimate/4":      "2d5cb6483e4c427d7ac0fcb2dec1e7c1a81f20cb8639dda91708daaf7037515b",
	"streamclassifier/1":  "5470205a0bd6dc9cd0a48bf99c2a810cdbd3c80dd9cab0c19dbc4d0702ffc1fe",
	"streamclassifier/2":  "faaffba699ae6e1b0ed880002a105d5b064e5d520bd17faf4569093efa591b46",
	"streamclassifier/4":  "505a5c4172b83a0df52fa5d44a226d86cab1133106328b10f2db39988397f798",
	"streamcluster/1":     "db0c5da0f8cc71a39d5ae38249174872cbba6235ac100ad48c160234416b0717",
	"streamcluster/2":     "8e7afea2d09f88756fc7f439d885bba6b3ea1f53ec1bbe6e639a8cfc4865f007",
	"streamcluster/4":     "b27b6b5044b079cda39cdc35b05c7f255b6905eb812b8fc52620ef2b36c0f7e4",
	"swaptions/1":         "4ab68d485ebc7a68c24c57a3d8178e793d2e6a3e89611d956ae5f401dd2465e5",
	"swaptions/2":         "5d3243d24de0e167ecf8224762702b52330dd7b33cf18523cb4a2ac1b4d7f8f6",
	"swaptions/4":         "adf77e270c52c798285d9de2afc87df640dc8c2c06af3708a6b1a5d2ae42aa8c",
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
