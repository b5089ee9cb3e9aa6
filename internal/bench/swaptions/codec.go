package swaptions

import (
	"encoding/json"
	"fmt"

	"gostats/internal/bench"
	"gostats/internal/engine"
)

func init() {
	bench.RegisterCodec("swaptions", func() bench.StreamCodec { return codec{} })
	bench.RegisterWire("swaptions", func() bench.WireCodec { return codec{} })
}

// codec streams swaptions over NDJSON: one Batch per request line, one
// Price per committed output line, and — for checkpoints and
// out-of-process chunk execution — the raw 24-byte estimator as state.
type codec struct{}

func (codec) DecodeInput(data []byte) (engine.Input, error) {
	var b Batch
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("swaptions: bad batch: %w", err)
	}
	return b, nil
}

func (codec) EncodeInput(in engine.Input) ([]byte, error) {
	b, ok := in.(Batch)
	if !ok {
		return nil, fmt.Errorf("swaptions: input is %T, want Batch", in)
	}
	return json.Marshal(b)
}

func (codec) EncodeOutput(out engine.Output) ([]byte, error) {
	p, ok := out.(Price)
	if !ok {
		return nil, fmt.Errorf("swaptions: output is %T, want Price", out)
	}
	return json.Marshal(p)
}

func (codec) DecodeOutput(data []byte) (engine.Output, error) {
	var p Price
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("swaptions: bad price: %w", err)
	}
	return p, nil
}

// wireState is estState's serialized form. encoding/json round-trips
// float64 losslessly, so a decoded estimator is bit-identical.
type wireState struct {
	Sum   float64 `json:"sum"`
	SumSq float64 `json:"sum_sq"`
	N     float64 `json:"n"`
	Sw    int     `json:"sw"`
}

func (codec) EncodeState(s engine.State) ([]byte, error) {
	e, ok := s.(*estState)
	if !ok {
		return nil, fmt.Errorf("swaptions: state is %T, want *estState", s)
	}
	return json.Marshal(wireState{Sum: e.sum, SumSq: e.sumSq, N: e.n, Sw: e.sw})
}

func (codec) DecodeState(data []byte) (engine.State, error) {
	var w wireState
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("swaptions: bad state: %w", err)
	}
	return &estState{sum: w.Sum, sumSq: w.SumSq, n: w.N, sw: w.Sw}, nil
}
