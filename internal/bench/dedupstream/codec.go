package dedupstream

import (
	"encoding/json"
	"fmt"

	"gostats/internal/bench"
	"gostats/internal/engine"
)

func init() {
	bench.RegisterCodec("dedupstream", func() bench.StreamCodec { return codec{} })
	bench.RegisterWire("dedupstream", func() bench.WireCodec { return codec{} })
}

// codec streams dedupstream over NDJSON: one base64 Segment per request
// line, one SegmentStats per committed output line, and the fingerprint
// index as state for checkpoints and out-of-process chunk execution.
type codec struct{}

func (codec) DecodeInput(data []byte) (engine.Input, error) {
	var seg Segment
	if err := json.Unmarshal(data, &seg); err != nil {
		return nil, fmt.Errorf("dedupstream: bad segment: %w", err)
	}
	return seg, nil
}

func (codec) EncodeInput(in engine.Input) ([]byte, error) {
	seg, ok := in.(Segment)
	if !ok {
		return nil, fmt.Errorf("dedupstream: input is %T, want Segment", in)
	}
	return json.Marshal(seg)
}

func (codec) EncodeOutput(out engine.Output) ([]byte, error) {
	ss, ok := out.(SegmentStats)
	if !ok {
		return nil, fmt.Errorf("dedupstream: output is %T, want SegmentStats", out)
	}
	return json.Marshal(ss)
}

func (codec) DecodeOutput(data []byte) (engine.Output, error) {
	var ss SegmentStats
	if err := json.Unmarshal(data, &ss); err != nil {
		return nil, fmt.Errorf("dedupstream: bad segment stats: %w", err)
	}
	return ss, nil
}

// wireState is dedupState's serialized form: the live insertion-log tail
// plus the scalar trackers. The fingerprint table is NOT carried — it is
// exactly the replay of the live log (every table write pairs with a log
// append, and expiry deletes an entry precisely when its newest log
// record is popped), so the decoder rebuilds it by replaying the log in
// order. That keeps encoding free of map iteration (deterministic bytes)
// and halves the snapshot size.
type wireState struct {
	FPs  []uint64 `json:"fps"`
	Gens []uint32 `json:"gens"`
	Gen  uint32   `json:"gen"`
	EMA  float64  `json:"ema"`
}

func (codec) EncodeState(s engine.State) ([]byte, error) {
	st, ok := s.(*dedupState)
	if !ok {
		return nil, fmt.Errorf("dedupstream: state is %T, want *dedupState", s)
	}
	live := st.log[st.head:]
	w := wireState{
		FPs:  make([]uint64, len(live)),
		Gens: make([]uint32, len(live)),
		Gen:  st.gen,
		EMA:  st.emaDup,
	}
	for i, e := range live {
		w.FPs[i], w.Gens[i] = e.fp, e.gen
	}
	return json.Marshal(w)
}

func (codec) DecodeState(data []byte) (engine.State, error) {
	var w wireState
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("dedupstream: bad state: %w", err)
	}
	if len(w.FPs) != len(w.Gens) {
		return nil, fmt.Errorf("dedupstream: state has %d fingerprints but %d generations", len(w.FPs), len(w.Gens))
	}
	st := &dedupState{
		table:  make(map[uint64]uint32, len(w.FPs)),
		log:    make([]fpEntry, len(w.FPs)),
		gen:    w.Gen,
		emaDup: w.EMA,
	}
	for i := range w.FPs {
		st.log[i] = fpEntry{fp: w.FPs[i], gen: w.Gens[i]}
		// Replay: later records overwrite, leaving each fingerprint at the
		// generation of its newest live record — the table invariant.
		st.table[w.FPs[i]] = w.Gens[i]
	}
	return st, nil
}
