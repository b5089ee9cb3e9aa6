package facedetrack

import (
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
	fr, err := trackutil.DecodeFrame(data)
	if err != nil {
		return nil, fmt.Errorf("facedet-and-track: bad frame: %w", err)
	}
	return fr, nil
}

func (codec) EncodeInput(in engine.Input) ([]byte, error) {
	fr, ok := in.(trackutil.Frame)
	if !ok {
		return nil, fmt.Errorf("facedet-and-track: input is %T, want trackutil.Frame", in)
	}
	return trackutil.EncodeFrame(fr)
}

func (codec) EncodeOutput(out engine.Output) ([]byte, error) {
	res, ok := out.(Result)
	if !ok {
		return nil, fmt.Errorf("facedet-and-track: output is %T, want Result", out)
	}
	e := bench.NewEnc(64 + bench.FloatLen*len(res.Est))
	e.Lit(`{"Frame":`)
	e.Int(res.Frame)
	e.Lit(`,"Est":`)
	e.Floats(res.Est)
	e.Lit(`,"Err":`)
	e.Float(res.Err)
	e.Lit(`,"Detected":`)
	e.Bool(res.Detected)
	e.Lit("}")
	return e.Bytes()
}

func (codec) DecodeOutput(data []byte) (engine.Output, error) {
	if res, ok := scanResult(data); ok {
		return res, nil
	}
	var res Result
	if err := bench.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("facedet-and-track: bad result: %w", err)
	}
	return res, nil
}

func scanResult(data []byte) (res Result, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"Frame":`)
	res.Frame = c.Int()
	c.Lit(`,"Est":`)
	res.Est = c.FloatSlice()
	c.Lit(`,"Err":`)
	res.Err = c.Float()
	c.Lit(`,"Detected":`)
	res.Detected = c.Bool()
	c.Lit("}")
	return res, c.End()
}

func (codec) EncodeState(s engine.State) ([]byte, error) {
	c, ok := s.(*trackutil.Cloud)
	if !ok {
		return nil, fmt.Errorf("facedet-and-track: state is %T, want *trackutil.Cloud", s)
	}
	return trackutil.EncodeCloud(c)
}

func (codec) DecodeState(data []byte) (engine.State, error) {
	c, err := trackutil.DecodeCloud(data, particles, poseDims)
	if err != nil {
		return nil, fmt.Errorf("facedet-and-track: bad state: %w", err)
	}
	return c, nil
}
