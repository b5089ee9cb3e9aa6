package swaptions

import (
	"fmt"

	"gostats/internal/bench"
	"gostats/internal/engine"
)

// codec streams swaptions over NDJSON: one Batch per request line, one
// Price per committed output line, and — for checkpoints and
// out-of-process chunk execution — the raw 24-byte estimator as state.
type codec struct{}

func (c codec) DecodeInput(data []byte) (engine.Input, error) { return c.DecodeInputInto(data, nil) }

// DecodeInputInto has no storage to reuse: an input is a few scalars.
func (codec) DecodeInputInto(data []byte, _ engine.Input) (engine.Input, error) {
	if b, ok := scanBatch(data); ok {
		return b, nil
	}
	return bench.Fallback[Batch](data, "swaptions", "bad batch")
}

func scanBatch(data []byte) (b Batch, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"Swaption":`)
	b.Swaption = c.Int()
	c.Lit(`,"Index":`)
	b.Index = c.Int()
	c.Lit(`,"Seed":`)
	b.Seed = c.Uint(64)
	c.Lit("}")
	return b, c.End()
}

func (codec) EncodeInput(in engine.Input) ([]byte, error) {
	b, ok := in.(Batch)
	if !ok {
		return nil, fmt.Errorf("swaptions: input is %T, want Batch", in)
	}
	e := bench.NewEnc(80)
	e.Lit(`{"Swaption":`)
	e.Int(b.Swaption)
	e.Lit(`,"Index":`)
	e.Int(b.Index)
	e.Lit(`,"Seed":`)
	e.Uint(b.Seed)
	e.Lit("}")
	return e.Bytes()
}

func (c codec) EncodeOutput(out engine.Output) ([]byte, error) { return c.AppendOutput(nil, out) }

func (codec) AppendOutput(dst []byte, out engine.Output) ([]byte, error) {
	p, ok := out.(Price)
	if !ok {
		return nil, fmt.Errorf("swaptions: output is %T, want Price", out)
	}
	e := bench.AppendEnc(dst, 96)
	e.Lit(`{"Swaption":`)
	e.Int(p.Swaption)
	e.Lit(`,"Estimate":`)
	e.Float(p.Estimate)
	e.Lit(`,"N":`)
	e.Float(p.N)
	e.Lit("}")
	return e.Bytes()
}

func (codec) DecodeOutput(data []byte) (engine.Output, error) {
	if p, ok := scanPrice(data); ok {
		return p, nil
	}
	return bench.Fallback[Price](data, "swaptions", "bad price")
}

func scanPrice(data []byte) (p Price, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"Swaption":`)
	p.Swaption = c.Int()
	c.Lit(`,"Estimate":`)
	p.Estimate = c.Float()
	c.Lit(`,"N":`)
	p.N = c.Float()
	c.Lit("}")
	return p, c.End()
}

// wireState is estState's serialized form. The shortest decimal that
// round-trips a float64 is what goes on the wire, so a decoded estimator
// is bit-identical. A state line from before the estimator lost its sum
// of squares still decodes: its "sum_sq" goes to Unmarshal, which skips
// the unknown key.
type wireState struct {
	Sum float64 `json:"sum"`
	N   float64 `json:"n"`
	Sw  int     `json:"sw"`
}

func (codec) EncodeState(s engine.State) ([]byte, error) {
	st, ok := s.(*estState)
	if !ok {
		return nil, fmt.Errorf("swaptions: state is %T, want *estState", s)
	}
	e := bench.NewEnc(128)
	e.Lit(`{"sum":`)
	e.Float(st.sum)
	e.Lit(`,"n":`)
	e.Float(st.n)
	e.Lit(`,"sw":`)
	e.Int(st.sw)
	e.Lit("}")
	return e.Bytes()
}

func (codec) DecodeState(data []byte) (engine.State, error) {
	if w, ok := scanState(data); ok {
		return w.live(), nil
	}
	var w wireState
	if err := bench.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("swaptions: bad state: %w", err)
	}
	return w.live(), nil
}

func scanState(data []byte) (w wireState, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"sum":`)
	w.Sum = c.Float()
	c.Lit(`,"n":`)
	w.N = c.Float()
	c.Lit(`,"sw":`)
	w.Sw = c.Int()
	c.Lit("}")
	return w, c.End()
}

func (w wireState) live() *estState {
	return &estState{sum: w.Sum, n: w.N, sw: w.Sw}
}
