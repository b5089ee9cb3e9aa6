package fluidanimate

import (
	"fmt"

	"gostats/internal/bench"
	"gostats/internal/engine"
)

// codec streams fluidanimate over NDJSON: one Force per request line, one
// StepEnergy per committed output line, and the 64 KB velocity field as
// state for checkpoints and out-of-process chunk execution.
type codec struct{}

func (c codec) DecodeInput(data []byte) (engine.Input, error) { return c.DecodeInputInto(data, nil) }

// DecodeInputInto has no storage to reuse: an input is a few scalars.
func (codec) DecodeInputInto(data []byte, _ engine.Input) (engine.Input, error) {
	if f, ok := scanForce(data); ok {
		return f, nil
	}
	return bench.Fallback[Force](data, "fluidanimate", "bad force")
}

func scanForce(data []byte) (f Force, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"Step":`)
	f.Step = c.Int()
	c.Lit(`,"X":`)
	f.X = c.Int()
	c.Lit(`,"Y":`)
	f.Y = c.Int()
	c.Lit(`,"FX":`)
	f.FX = c.Float()
	c.Lit(`,"FY":`)
	f.FY = c.Float()
	c.Lit("}")
	return f, c.End()
}

func (codec) EncodeInput(in engine.Input) ([]byte, error) {
	f, ok := in.(Force)
	if !ok {
		return nil, fmt.Errorf("fluidanimate: input is %T, want Force", in)
	}
	e := bench.NewEnc(128)
	e.Lit(`{"Step":`)
	e.Int(f.Step)
	e.Lit(`,"X":`)
	e.Int(f.X)
	e.Lit(`,"Y":`)
	e.Int(f.Y)
	e.Lit(`,"FX":`)
	e.Float(f.FX)
	e.Lit(`,"FY":`)
	e.Float(f.FY)
	e.Lit("}")
	return e.Bytes()
}

func (c codec) EncodeOutput(out engine.Output) ([]byte, error) { return c.AppendOutput(nil, out) }

func (codec) AppendOutput(dst []byte, out engine.Output) ([]byte, error) {
	se, ok := out.(StepEnergy)
	if !ok {
		return nil, fmt.Errorf("fluidanimate: output is %T, want StepEnergy", out)
	}
	e := bench.AppendEnc(dst, 64)
	e.Lit(`{"Step":`)
	e.Int(se.Step)
	e.Lit(`,"Energy":`)
	e.Float(se.Energy)
	e.Lit("}")
	return e.Bytes()
}

func (codec) DecodeOutput(data []byte) (engine.Output, error) {
	if se, ok := scanEnergy(data); ok {
		return se, nil
	}
	return bench.Fallback[StepEnergy](data, "fluidanimate", "bad step energy")
}

func scanEnergy(data []byte) (se StepEnergy, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"Step":`)
	se.Step = c.Int()
	c.Lit(`,"Energy":`)
	se.Energy = c.Float()
	c.Lit("}")
	return se, c.End()
}

// wireField is field's serialized form: the two velocity planes as
// arrays of cells numbers each. encoding/json, which decodes every line
// that is not in EncodeState's form, has no fixed-size arrays, so for it
// they are slices and their lengths are checked afterwards.
type wireField struct {
	VX []float64 `json:"vx"`
	VY []float64 `json:"vy"`
}

func (codec) EncodeState(s engine.State) ([]byte, error) {
	st, ok := s.(*field)
	if !ok {
		return nil, fmt.Errorf("fluidanimate: state is %T, want *field", s)
	}
	e := bench.NewEnc(32 + bench.FloatLen*2*cells)
	e.Lit(`{"vx":`)
	e.Floats(st.vx[:])
	e.Lit(`,"vy":`)
	e.Floats(st.vy[:])
	e.Lit("}")
	return e.Bytes()
}

func (codec) DecodeState(data []byte) (engine.State, error) {
	if st, ok := scanField(data); ok {
		return st, nil
	}
	var w wireField
	if err := bench.Unmarshal(data, &w); err != nil {
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

func scanField(data []byte) (*field, bool) {
	st := &field{}
	c := bench.NewCursor(data)
	c.Lit(`{"vx":`)
	c.Floats(st.vx[:])
	c.Lit(`,"vy":`)
	c.Floats(st.vy[:])
	c.Lit("}")
	return st, c.End()
}
