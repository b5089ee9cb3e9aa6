package streamclassifier

import (
	"fmt"

	"gostats/internal/bench"
	"gostats/internal/engine"
)

// codec streams streamclassifier over NDJSON: one labeled Block per
// request line, one BlockAccuracy per committed output line, and the
// 104-byte weight state for checkpoints and out-of-process chunk
// execution.
type codec struct{}

// sampleBytes is the least one encoded sample can occupy, comma included.
const sampleBytes = 2*features + 2

func (c codec) DecodeInput(data []byte) (engine.Input, error) { return c.DecodeInputInto(data, nil) }

// DecodeInputInto reuses the spare Block's X and Y.
func (codec) DecodeInputInto(data []byte, spare engine.Input) (engine.Input, error) {
	blk, _ := spare.(Block)
	if scanBlock(data, &blk) {
		return blk, nil
	}
	return bench.Fallback[Block](data, "streamclassifier", "bad block")
}

func scanBlock(data []byte, blk *Block) bool {
	c := bench.NewCursor(data)
	c.Lit(`{"X":[`)
	blk.X = bench.Reuse(blk.X, c.Elems("],", "]]", sampleBytes))
	for i := 0; c.Next(i); i++ {
		var x [features]float64
		c.Floats(x[:])
		blk.X = append(blk.X, x)
	}
	c.Lit(`,"Y":[`)
	blk.Y = bench.Reuse(blk.Y, c.Elems(",", "]", 2))
	for i := 0; c.Next(i); i++ {
		blk.Y = append(blk.Y, c.Int())
	}
	c.Lit(`,"TruthW":`)
	c.Floats(blk.TruthW[:])
	c.Lit("}")
	return c.End()
}

func (codec) EncodeInput(in engine.Input) ([]byte, error) {
	blk, ok := in.(Block)
	if !ok {
		return nil, fmt.Errorf("streamclassifier: input is %T, want Block", in)
	}
	e := bench.NewEnc(64 + bench.FloatLen*features*(len(blk.X)+1) + 3*len(blk.Y))
	e.Lit(`{"X":`)
	if blk.X == nil {
		e.Lit("null")
	} else {
		e.Lit("[")
		for i := range blk.X {
			e.Comma(i)
			e.Floats(blk.X[i][:])
		}
		e.Lit("]")
	}
	e.Lit(`,"Y":`)
	if blk.Y == nil {
		e.Lit("null")
	} else {
		e.Lit("[")
		for i, y := range blk.Y {
			e.Comma(i)
			e.Int(y)
		}
		e.Lit("]")
	}
	e.Lit(`,"TruthW":`)
	e.Floats(blk.TruthW[:])
	e.Lit("}")
	return e.Bytes()
}

func (c codec) EncodeOutput(out engine.Output) ([]byte, error) { return c.AppendOutput(nil, out) }

func (codec) AppendOutput(dst []byte, out engine.Output) ([]byte, error) {
	ba, ok := out.(BlockAccuracy)
	if !ok {
		return nil, fmt.Errorf("streamclassifier: output is %T, want BlockAccuracy", out)
	}
	e := bench.AppendEnc(dst, 40)
	e.Lit(`{"Accuracy":`)
	e.Float(ba.Accuracy)
	e.Lit("}")
	return e.Bytes()
}

func (codec) DecodeOutput(data []byte) (engine.Output, error) {
	if ba, ok := scanAccuracy(data); ok {
		return ba, nil
	}
	return bench.Fallback[BlockAccuracy](data, "streamclassifier", "bad block accuracy")
}

func scanAccuracy(data []byte) (ba BlockAccuracy, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"Accuracy":`)
	ba.Accuracy = c.Float()
	c.Lit("}")
	return ba, c.End()
}

// wireState is sgdState's serialized form.
type wireState struct {
	W       [features]float64 `json:"w"`
	N       float64           `json:"n"`
	ErrRate float64           `json:"err_rate"`
	Protos  float64           `json:"protos"`
}

func (codec) EncodeState(s engine.State) ([]byte, error) {
	st, ok := s.(*sgdState)
	if !ok {
		return nil, fmt.Errorf("streamclassifier: state is %T, want *sgdState", s)
	}
	e := bench.NewEnc(64 + bench.FloatLen*(features+3))
	e.Lit(`{"w":`)
	e.Floats(st.w[:])
	e.Lit(`,"n":`)
	e.Float(st.n)
	e.Lit(`,"err_rate":`)
	e.Float(st.errRate)
	e.Lit(`,"protos":`)
	e.Float(st.protos)
	e.Lit("}")
	return e.Bytes()
}

func (codec) DecodeState(data []byte) (engine.State, error) {
	if w, ok := scanState(data); ok {
		return w.live(), nil
	}
	var w wireState
	if err := bench.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("streamclassifier: bad state: %w", err)
	}
	return w.live(), nil
}

func scanState(data []byte) (w wireState, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"w":`)
	c.Floats(w.W[:])
	c.Lit(`,"n":`)
	w.N = c.Float()
	c.Lit(`,"err_rate":`)
	w.ErrRate = c.Float()
	c.Lit(`,"protos":`)
	w.Protos = c.Float()
	c.Lit("}")
	return w, c.End()
}

func (w wireState) live() *sgdState {
	return &sgdState{w: w.W, n: w.N, errRate: w.ErrRate, protos: w.Protos}
}
