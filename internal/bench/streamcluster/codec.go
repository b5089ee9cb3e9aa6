package streamcluster

import (
	"encoding/json"
	"fmt"

	"gostats/internal/bench"
	"gostats/internal/engine"
)

func init() {
	bench.RegisterCodec("streamcluster", func() bench.StreamCodec { return codec{} })
	bench.RegisterWire("streamcluster", func() bench.WireCodec { return codec{} })
}

// codec streams streamcluster over NDJSON: one point Block per request
// line, one BlockCost per committed output line, and the 104-byte center
// state for checkpoints and out-of-process chunk execution.
type codec struct{}

func (codec) DecodeInput(data []byte) (engine.Input, error) {
	var blk Block
	if err := json.Unmarshal(data, &blk); err != nil {
		return nil, fmt.Errorf("streamcluster: bad block: %w", err)
	}
	return blk, nil
}

func (codec) EncodeInput(in engine.Input) ([]byte, error) {
	blk, ok := in.(Block)
	if !ok {
		return nil, fmt.Errorf("streamcluster: input is %T, want Block", in)
	}
	return json.Marshal(blk)
}

func (codec) EncodeOutput(out engine.Output) ([]byte, error) {
	bc, ok := out.(BlockCost)
	if !ok {
		return nil, fmt.Errorf("streamcluster: output is %T, want BlockCost", out)
	}
	return json.Marshal(bc)
}

func (codec) DecodeOutput(data []byte) (engine.Output, error) {
	var bc BlockCost
	if err := json.Unmarshal(data, &bc); err != nil {
		return nil, fmt.Errorf("streamcluster: bad block cost: %w", err)
	}
	return bc, nil
}

// wireState is clusterState's serialized form.
type wireState struct {
	Centers [k][dims]float64 `json:"centers"`
	N       float64          `json:"n"`
	Lag     float64          `json:"lag"`
}

func (codec) EncodeState(s engine.State) ([]byte, error) {
	st, ok := s.(*clusterState)
	if !ok {
		return nil, fmt.Errorf("streamcluster: state is %T, want *clusterState", s)
	}
	return json.Marshal(wireState{Centers: st.centers, N: st.n, Lag: st.lag})
}

func (codec) DecodeState(data []byte) (engine.State, error) {
	var w wireState
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("streamcluster: bad state: %w", err)
	}
	return &clusterState{centers: w.Centers, n: w.N, lag: w.Lag}, nil
}
