package bodytrack

import (
	"fmt"

	"gostats/internal/bench"
	"gostats/internal/bench/trackutil"
	"gostats/internal/engine"
)

func init() {
	bench.RegisterCodec("bodytrack", func() bench.StreamCodec { return codec{} })
	bench.RegisterWire("bodytrack", func() bench.WireCodec { return codec{} })
}

// codec streams bodytrack over NDJSON: one trackutil.Frame per request
// line, one Result per committed output line, and the particle cloud as
// state for checkpoints and out-of-process chunk execution.
type codec struct{}

func (c codec) DecodeInput(data []byte) (engine.Input, error) { return c.DecodeInputInto(data, nil) }

// DecodeInputInto reuses the spare frame's Obs and True.
func (codec) DecodeInputInto(data []byte, spare engine.Input) (engine.Input, error) {
	fr, _ := spare.(trackutil.Frame)
	fr, err := trackutil.DecodeFrame(data, fr)
	if err != nil {
		return nil, fmt.Errorf("bodytrack: bad frame: %w", err)
	}
	return fr, nil
}

func (codec) EncodeInput(in engine.Input) ([]byte, error) {
	fr, ok := in.(trackutil.Frame)
	if !ok {
		return nil, fmt.Errorf("bodytrack: input is %T, want trackutil.Frame", in)
	}
	return trackutil.EncodeFrame(fr)
}

func (c codec) EncodeOutput(out engine.Output) ([]byte, error) { return c.AppendOutput(nil, out) }

func (codec) AppendOutput(dst []byte, out engine.Output) ([]byte, error) {
	res, ok := out.(Result)
	if !ok {
		return nil, fmt.Errorf("bodytrack: output is %T, want Result", out)
	}
	e := bench.AppendEnc(dst, 64+bench.FloatLen*len(res.Est))
	e.Lit(`{"Frame":`)
	e.Int(res.Frame)
	e.Lit(`,"Est":`)
	e.Floats(res.Est)
	e.Lit(`,"Err":`)
	e.Float(res.Err)
	e.Lit("}")
	return e.Bytes()
}

func (codec) DecodeOutput(data []byte) (engine.Output, error) {
	if res, ok := scanResult(data); ok {
		return res, nil
	}
	var res Result
	if err := bench.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("bodytrack: bad result: %w", err)
	}
	return res, nil
}

func scanResult(data []byte) (res Result, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"Frame":`)
	res.Frame = c.Int()
	c.Lit(`,"Est":`)
	res.Est = c.FloatSlice(nil)
	c.Lit(`,"Err":`)
	res.Err = c.Float()
	c.Lit("}")
	return res, c.End()
}

func (codec) EncodeState(s engine.State) ([]byte, error) {
	c, ok := s.(*trackutil.Cloud)
	if !ok {
		return nil, fmt.Errorf("bodytrack: state is %T, want *trackutil.Cloud", s)
	}
	return trackutil.EncodeCloud(c)
}

func (codec) DecodeState(data []byte) (engine.State, error) {
	c, err := trackutil.DecodeCloud(data, particles, poseDims)
	if err != nil {
		return nil, fmt.Errorf("bodytrack: bad state: %w", err)
	}
	return c, nil
}
