package fluidanimate

import (
	"encoding/json"
	"fmt"

	"gostats/internal/bench"
	"gostats/internal/engine"
)

func init() {
	bench.RegisterCodec("fluidanimate", func() bench.StreamCodec { return codec{} })
	bench.RegisterWire("fluidanimate", func() bench.WireCodec { return codec{} })
}

// codec streams fluidanimate over NDJSON: one Force per request line, one
// StepEnergy per committed output line, and the 64 KB velocity field as
// state for checkpoints and out-of-process chunk execution.
type codec struct{}

func (codec) DecodeInput(data []byte) (engine.Input, error) {
	var f Force
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("fluidanimate: bad force: %w", err)
	}
	return f, nil
}

func (codec) EncodeInput(in engine.Input) ([]byte, error) {
	f, ok := in.(Force)
	if !ok {
		return nil, fmt.Errorf("fluidanimate: input is %T, want Force", in)
	}
	return json.Marshal(f)
}

func (codec) EncodeOutput(out engine.Output) ([]byte, error) {
	se, ok := out.(StepEnergy)
	if !ok {
		return nil, fmt.Errorf("fluidanimate: output is %T, want StepEnergy", out)
	}
	return json.Marshal(se)
}

func (codec) DecodeOutput(data []byte) (engine.Output, error) {
	var se StepEnergy
	if err := json.Unmarshal(data, &se); err != nil {
		return nil, fmt.Errorf("fluidanimate: bad step energy: %w", err)
	}
	return se, nil
}

// wireField is field's serialized form: the two velocity planes as
// slices (JSON has no fixed-size arrays; lengths are validated on
// decode).
type wireField struct {
	VX []float64 `json:"vx"`
	VY []float64 `json:"vy"`
}

func (codec) EncodeState(s engine.State) ([]byte, error) {
	st, ok := s.(*field)
	if !ok {
		return nil, fmt.Errorf("fluidanimate: state is %T, want *field", s)
	}
	return json.Marshal(wireField{VX: st.vx[:], VY: st.vy[:]})
}

func (codec) DecodeState(data []byte) (engine.State, error) {
	var w wireField
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("fluidanimate: bad state: %w", err)
	}
	if len(w.VX) != cells || len(w.VY) != cells {
		return nil, fmt.Errorf("fluidanimate: state has %dx%d cells, want %d", len(w.VX), len(w.VY), cells)
	}
	st := &field{}
	copy(st.vx[:], w.VX)
	copy(st.vy[:], w.VY)
	return st, nil
}
