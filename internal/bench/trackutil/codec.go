package trackutil

import (
	"fmt"

	"gostats/internal/bench"
	"gostats/internal/engine"
)

// codec streams a tracker over NDJSON: one Frame per request line, one
// Result per committed output line, and the particle cloud's WireCloud as
// state for checkpoints and out-of-process chunk execution. Lines are
// written as encoding/json writes them; decoders read that form with a
// bench.Cursor and leave every other line to bench.Unmarshal.
type codec struct{ t *Tracker }

func (c codec) DecodeInput(data []byte) (engine.Input, error) { return c.DecodeInputInto(data, nil) }

// DecodeInputInto reuses the spare frame's Obs and True.
func (c codec) DecodeInputInto(data []byte, spare engine.Input) (engine.Input, error) {
	fr, _ := spare.(Frame)
	if scanFrame(data, &fr) {
		return fr, nil
	}
	return bench.Fallback[Frame](data, c.t.BenchName, "bad frame")
}

func scanFrame(data []byte, fr *Frame) bool {
	c := bench.NewCursor(data)
	c.Lit(`{"Index":`)
	fr.Index = c.Int()
	c.Lit(`,"Obs":`)
	fr.Obs = c.FloatSlice(fr.Obs)
	c.Lit(`,"True":`)
	fr.True = c.FloatSlice(fr.True)
	c.Lit(`,"Quality":`)
	fr.Quality = c.Float()
	c.Lit(`,"Occluded":`)
	fr.Occluded = c.Bool()
	c.Lit("}")
	return c.End()
}

func (c codec) EncodeInput(in engine.Input) ([]byte, error) {
	fr, ok := in.(Frame)
	if !ok {
		return nil, fmt.Errorf("%s: input is %T, want trackutil.Frame", c.t.BenchName, in)
	}
	e := bench.NewEnc(64 + bench.FloatLen*(len(fr.Obs)+len(fr.True)+1))
	e.Lit(`{"Index":`)
	e.Int(fr.Index)
	e.Lit(`,"Obs":`)
	e.Floats(fr.Obs)
	e.Lit(`,"True":`)
	e.Floats(fr.True)
	e.Lit(`,"Quality":`)
	e.Float(fr.Quality)
	e.Lit(`,"Occluded":`)
	e.Bool(fr.Occluded)
	e.Lit("}")
	return e.Bytes()
}

func (c codec) EncodeOutput(out engine.Output) ([]byte, error) { return c.AppendOutput(nil, out) }

// AppendOutput writes the Detected key only for a Result that has a
// Detection, as encoding/json does for the nil embedded pointer.
func (c codec) AppendOutput(dst []byte, out engine.Output) ([]byte, error) {
	res, ok := out.(Result)
	if !ok {
		return nil, fmt.Errorf("%s: output is %T, want trackutil.Result", c.t.BenchName, out)
	}
	e := bench.AppendEnc(dst, 64+bench.FloatLen*len(res.Est))
	e.Lit(`{"Frame":`)
	e.Int(res.Frame)
	e.Lit(`,"Est":`)
	e.Floats(res.Est)
	e.Lit(`,"Err":`)
	e.Float(res.Err)
	if res.Detection != nil {
		e.Lit(`,"Detected":`)
		e.Bool(res.Detected)
	}
	e.Lit("}")
	return e.Bytes()
}

func (c codec) DecodeOutput(data []byte) (engine.Output, error) {
	if res, ok := scanResult(data); ok {
		return res, nil
	}
	return bench.Fallback[Result](data, c.t.BenchName, "bad result")
}

func scanResult(data []byte) (res Result, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"Frame":`)
	res.Frame = c.Int()
	c.Lit(`,"Est":`)
	res.Est = c.FloatSlice(nil)
	c.Lit(`,"Err":`)
	res.Err = c.Float()
	if c.Try(`,"Detected":`) {
		res.Detection = &Detection{Detected: c.Bool()}
	}
	c.Lit("}")
	return res, c.End()
}

func (c codec) EncodeState(s engine.State) ([]byte, error) {
	cl, ok := s.(*Cloud)
	if !ok {
		return nil, fmt.Errorf("%s: state is %T, want *trackutil.Cloud", c.t.BenchName, s)
	}
	e := bench.NewEnc(64 + bench.FloatLen*(len(cl.P)+len(cl.W)))
	e.Lit(`{"p":`)
	e.Floats(cl.P)
	e.Lit(`,"w":`)
	e.Floats(cl.W)
	e.Lit(`,"n":`)
	e.Int(cl.N)
	e.Lit(`,"dims":`)
	e.Int(cl.Dims)
	e.Lit(`,"age":`)
	e.Int(cl.Age)
	if cl.Cold {
		e.Lit(`,"cold":true`)
	}
	e.Lit("}")
	return e.Bytes()
}

// DecodeState takes a cloud of the tracker's own shape only: the one its
// Update can step against its frames.
func (c codec) DecodeState(data []byte) (engine.State, error) {
	w, ok := scanCloud(data)
	if !ok {
		w = WireCloud{}
		if err := bench.Unmarshal(data, &w); err != nil {
			return nil, fmt.Errorf("%s: bad state: %w", c.t.BenchName, err)
		}
	}
	if w.N != c.t.Particles || w.Dims != c.t.Dims {
		return nil, fmt.Errorf("%s: bad state: cloud is %d particles x %d dims, want %d x %d", c.t.BenchName, w.N, w.Dims, c.t.Particles, c.t.Dims)
	}
	cl, err := w.Live()
	if err != nil {
		return nil, fmt.Errorf("%s: bad state: %w", c.t.BenchName, err)
	}
	return cl, nil
}

func scanCloud(data []byte) (w WireCloud, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"p":`)
	w.P = c.FloatSlice(nil)
	c.Lit(`,"w":`)
	w.W = c.FloatSlice(nil)
	c.Lit(`,"n":`)
	w.N = c.Int()
	c.Lit(`,"dims":`)
	w.Dims = c.Int()
	c.Lit(`,"age":`)
	w.Age = c.Int()
	w.Cold = c.Try(`,"cold":true`)
	c.Lit("}")
	return w, c.End()
}
