package streamclassifier

import (
	"encoding/json"
	"fmt"

	"gostats/internal/bench"
	"gostats/internal/engine"
)

func init() {
	bench.RegisterCodec("streamclassifier", func() bench.StreamCodec { return codec{} })
	bench.RegisterWire("streamclassifier", func() bench.WireCodec { return codec{} })
}

// codec streams streamclassifier over NDJSON: one labeled Block per
// request line, one BlockAccuracy per committed output line, and the
// 104-byte weight state for checkpoints and out-of-process chunk
// execution.
type codec struct{}

func (codec) DecodeInput(data []byte) (engine.Input, error) {
	var blk Block
	if err := json.Unmarshal(data, &blk); err != nil {
		return nil, fmt.Errorf("streamclassifier: bad block: %w", err)
	}
	return blk, nil
}

func (codec) EncodeInput(in engine.Input) ([]byte, error) {
	blk, ok := in.(Block)
	if !ok {
		return nil, fmt.Errorf("streamclassifier: input is %T, want Block", in)
	}
	return json.Marshal(blk)
}

func (codec) EncodeOutput(out engine.Output) ([]byte, error) {
	ba, ok := out.(BlockAccuracy)
	if !ok {
		return nil, fmt.Errorf("streamclassifier: output is %T, want BlockAccuracy", out)
	}
	return json.Marshal(ba)
}

func (codec) DecodeOutput(data []byte) (engine.Output, error) {
	var ba BlockAccuracy
	if err := json.Unmarshal(data, &ba); err != nil {
		return nil, fmt.Errorf("streamclassifier: bad block accuracy: %w", err)
	}
	return ba, nil
}

// wireState is sgdState's serialized form.
type wireState struct {
	W       [features]float64 `json:"w"`
	N       float64           `json:"n"`
	ErrRate float64           `json:"err_rate"`
	Protos  float64           `json:"protos"`
}

func (codec) EncodeState(s engine.State) ([]byte, error) {
	st, ok := s.(*sgdState)
	if !ok {
		return nil, fmt.Errorf("streamclassifier: state is %T, want *sgdState", s)
	}
	return json.Marshal(wireState{W: st.w, N: st.n, ErrRate: st.errRate, Protos: st.protos})
}

func (codec) DecodeState(data []byte) (engine.State, error) {
	var w wireState
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("streamclassifier: bad state: %w", err)
	}
	return &sgdState{w: w.W, n: w.N, errRate: w.ErrRate, protos: w.Protos}, nil
}
