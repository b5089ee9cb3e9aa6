package trackutil

import (
	"fmt"

	"gostats/internal/bench"
)

// The three trackers share their input and state types, so they share
// those halves of their codecs: a Frame per request line and a WireCloud
// per state line, written as encoding/json writes them. Decoders read
// that form with a bench.Cursor and leave every other line to
// bench.Unmarshal.

// EncodeFrame renders fr as one line.
func EncodeFrame(fr Frame) ([]byte, error) {
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

// DecodeFrame parses an EncodeFrame line, or any other JSON form of a
// Frame.
func DecodeFrame(data []byte) (Frame, error) {
	if fr, ok := scanFrame(data); ok {
		return fr, nil
	}
	var fr Frame
	err := bench.Unmarshal(data, &fr)
	return fr, err
}

func scanFrame(data []byte) (fr Frame, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"Index":`)
	fr.Index = c.Int()
	c.Lit(`,"Obs":`)
	fr.Obs = c.FloatSlice()
	c.Lit(`,"True":`)
	fr.True = c.FloatSlice()
	c.Lit(`,"Quality":`)
	fr.Quality = c.Float()
	c.Lit(`,"Occluded":`)
	fr.Occluded = c.Bool()
	c.Lit("}")
	return fr, c.End()
}

// EncodeCloud renders the cloud's wire form as one line.
func EncodeCloud(c *Cloud) ([]byte, error) {
	w := c.Wire()
	e := bench.NewEnc(64 + bench.FloatLen*(len(w.P)+len(w.W)))
	e.Lit(`{"p":`)
	e.Floats(w.P)
	e.Lit(`,"w":`)
	e.Floats(w.W)
	e.Lit(`,"n":`)
	e.Int(w.N)
	e.Lit(`,"dims":`)
	e.Int(w.Dims)
	e.Lit(`,"age":`)
	e.Int(w.Age)
	if w.Cold {
		e.Lit(`,"cold":true`)
	}
	e.Lit("}")
	return e.Bytes()
}

// DecodeCloud parses an EncodeCloud line, or any other JSON form of a
// WireCloud, into a live cloud of n particles by dims dimensions — the
// one shape a tracker's states have, and the only one its Update can
// step against its frames.
func DecodeCloud(data []byte, n, dims int) (*Cloud, error) {
	w, ok := scanCloud(data)
	if !ok {
		w = WireCloud{}
		if err := bench.Unmarshal(data, &w); err != nil {
			return nil, err
		}
	}
	if w.N != n || w.Dims != dims {
		return nil, fmt.Errorf("cloud is %d particles x %d dims, want %d x %d", w.N, w.Dims, n, dims)
	}
	return w.Live()
}

func scanCloud(data []byte) (w WireCloud, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"p":`)
	w.P = c.FloatSlice()
	c.Lit(`,"w":`)
	w.W = c.FloatSlice()
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
