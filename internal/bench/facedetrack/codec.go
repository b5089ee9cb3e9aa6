package facedetrack

import (
	"encoding/json"
	"fmt"

	"gostats/internal/bench"
	"gostats/internal/bench/trackutil"
	"gostats/internal/engine"
)

func init() {
	bench.RegisterCodec("facedet-and-track", func() bench.StreamCodec { return codec{} })
	bench.RegisterWire("facedet-and-track", func() bench.WireCodec { return codec{} })
}

// codec streams facedet-and-track over NDJSON: one trackutil.Frame per
// request line, one Result per committed output line, and the particle
// cloud as state for checkpoints and out-of-process chunk execution.
type codec struct{}

func (codec) DecodeInput(data []byte) (engine.Input, error) {
	var fr trackutil.Frame
	if err := json.Unmarshal(data, &fr); err != nil {
		return nil, fmt.Errorf("facedet-and-track: bad frame: %w", err)
	}
	return fr, nil
}

func (codec) EncodeInput(in engine.Input) ([]byte, error) {
	fr, ok := in.(trackutil.Frame)
	if !ok {
		return nil, fmt.Errorf("facedet-and-track: input is %T, want trackutil.Frame", in)
	}
	return json.Marshal(fr)
}

func (codec) EncodeOutput(out engine.Output) ([]byte, error) {
	res, ok := out.(Result)
	if !ok {
		return nil, fmt.Errorf("facedet-and-track: output is %T, want Result", out)
	}
	return json.Marshal(res)
}

func (codec) DecodeOutput(data []byte) (engine.Output, error) {
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("facedet-and-track: bad result: %w", err)
	}
	return res, nil
}

func (codec) EncodeState(s engine.State) ([]byte, error) {
	c, ok := s.(*trackutil.Cloud)
	if !ok {
		return nil, fmt.Errorf("facedet-and-track: state is %T, want *trackutil.Cloud", s)
	}
	return json.Marshal(c.Wire())
}

func (codec) DecodeState(data []byte) (engine.State, error) {
	var w trackutil.WireCloud
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("facedet-and-track: bad state: %w", err)
	}
	return w.Live(), nil
}
