package dedupstream

import (
	"encoding/base64"
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

func (c codec) DecodeInput(data []byte) (engine.Input, error) { return c.DecodeInputInto(data, nil) }

// DecodeInputInto reuses the spare Segment's Data.
func (codec) DecodeInputInto(data []byte, spare engine.Input) (engine.Input, error) {
	seg, _ := spare.(Segment)
	if scanSegment(data, &seg) {
		return seg, nil
	}
	var fresh Segment
	if err := bench.Unmarshal(data, &fresh); err != nil {
		return nil, fmt.Errorf("dedupstream: bad segment: %w", err)
	}
	return fresh, nil
}

func scanSegment(data []byte, seg *Segment) bool {
	c := bench.NewCursor(data)
	c.Lit(`{"data":`)
	seg.Data = c.Base64(seg.Data)
	c.Lit("}")
	return c.End()
}

func (codec) EncodeInput(in engine.Input) ([]byte, error) {
	seg, ok := in.(Segment)
	if !ok {
		return nil, fmt.Errorf("dedupstream: input is %T, want Segment", in)
	}
	e := bench.NewEnc(16 + base64.StdEncoding.EncodedLen(len(seg.Data)))
	e.Lit(`{"data":`)
	e.Base64(seg.Data)
	e.Lit("}")
	return e.Bytes()
}

func (c codec) EncodeOutput(out engine.Output) ([]byte, error) { return c.AppendOutput(nil, out) }

func (codec) AppendOutput(dst []byte, out engine.Output) ([]byte, error) {
	ss, ok := out.(SegmentStats)
	if !ok {
		return nil, fmt.Errorf("dedupstream: output is %T, want SegmentStats", out)
	}
	e := bench.AppendEnc(dst, 128)
	e.Lit(`{"chunks":`)
	e.Int(ss.Chunks)
	e.Lit(`,"dup_bytes":`)
	e.Int(ss.DupBytes)
	e.Lit(`,"unique_bytes":`)
	e.Int(ss.UniqueBytes)
	e.Lit(`,"dup_rate":`)
	e.Float(ss.DupRate)
	e.Lit("}")
	return e.Bytes()
}

func (codec) DecodeOutput(data []byte) (engine.Output, error) {
	if ss, ok := scanStats(data); ok {
		return ss, nil
	}
	var ss SegmentStats
	if err := bench.Unmarshal(data, &ss); err != nil {
		return nil, fmt.Errorf("dedupstream: bad segment stats: %w", err)
	}
	return ss, nil
}

func scanStats(data []byte) (ss SegmentStats, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"chunks":`)
	ss.Chunks = c.Int()
	c.Lit(`,"dup_bytes":`)
	ss.DupBytes = c.Int()
	c.Lit(`,"unique_bytes":`)
	ss.UniqueBytes = c.Int()
	c.Lit(`,"dup_rate":`)
	ss.DupRate = c.Float()
	c.Lit("}")
	return ss, c.End()
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
	// Room for the line: a fingerprint is up to 20 digits, and no live
	// generation has more digits than the current one; each has its comma.
	genLen := 2
	for g := st.gen; g >= 10; g /= 10 {
		genLen++
	}
	e := bench.NewEnc(64 + (21+genLen)*len(live))
	e.Lit(`{"fps":[`)
	for i, ent := range live {
		e.Comma(i)
		e.Uint(ent.fp)
	}
	e.Lit(`],"gens":[`)
	for i, ent := range live {
		e.Comma(i)
		e.Uint(uint64(ent.gen))
	}
	e.Lit(`],"gen":`)
	e.Uint(uint64(st.gen))
	e.Lit(`,"ema":`)
	e.Float(st.emaDup)
	e.Lit("}")
	return e.Bytes()
}

func (codec) DecodeState(data []byte) (engine.State, error) {
	if w, ok := scanState(data); ok {
		return w.live()
	}
	var w wireState
	if err := bench.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("dedupstream: bad state: %w", err)
	}
	return w.live()
}

func scanState(data []byte) (w wireState, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"fps":[`)
	w.FPs = make([]uint64, 0, c.Elems(",", "]", 2))
	for i := 0; c.Next(i); i++ {
		w.FPs = append(w.FPs, c.Uint(64))
	}
	c.Lit(`,"gens":[`)
	w.Gens = make([]uint32, 0, c.Elems(",", "]", 2))
	for i := 0; c.Next(i); i++ {
		w.Gens = append(w.Gens, uint32(c.Uint(32)))
	}
	c.Lit(`,"gen":`)
	w.Gen = uint32(c.Uint(32))
	c.Lit(`,"ema":`)
	w.EMA = c.Float()
	c.Lit("}")
	return w, c.End()
}

func (w wireState) live() (engine.State, error) {
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
