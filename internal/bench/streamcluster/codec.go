package streamcluster

import (
	"bytes"
	"fmt"

	"gostats/internal/bench"
	"gostats/internal/engine"
)

// codec streams streamcluster over NDJSON: one point Block per request
// line, one BlockCost per committed output line, and the 104-byte center
// state for checkpoints and out-of-process chunk execution. Encoders
// write encoding/json's bytes with bench.Enc; decoders read that form
// with bench.Cursor and leave every other line to bench.Unmarshal.
type codec struct{}

// pointBytes is the least one encoded point can occupy, comma included.
const pointBytes = 2*dims + 2

func (c codec) DecodeInput(data []byte) (engine.Input, error) { return c.DecodeInputInto(data, nil) }

// DecodeInputInto reuses the spare Block's Points.
func (codec) DecodeInputInto(data []byte, spare engine.Input) (engine.Input, error) {
	blk, _ := spare.(Block)
	if scanBlock(data, &blk) {
		return blk, nil
	}
	return bench.Fallback[Block](data, "streamcluster", "bad block")
}

// scanBlock sizes Points by the line's '[': one opens each point, and
// 2+k more open the two outer arrays and Truth's rows. A canonical line
// has no '[' elsewhere, so the count is exact there, and the cap keeps a
// line of brackets from asking for more than its length could hold.
func scanBlock(data []byte, blk *Block) bool {
	c := bench.NewCursor(data)
	c.Lit(`{"Points":[`)
	n := bytes.Count(data, []byte("[")) - 2 - k
	blk.Points = bench.Reuse(blk.Points, max(0, min(n, len(data)/pointBytes)))
	for i := 0; c.Next(i); i++ {
		blk.Points = append(blk.Points, [dims]float64{})
		c.Floats(blk.Points[i][:])
	}
	c.Lit(`,"Truth":`)
	scanCenters(&c, &blk.Truth)
	c.Lit("}")
	return c.End()
}

func scanCenters(c *bench.Cursor, m *[k][dims]float64) {
	c.Lit("[")
	for i := range m {
		c.Comma(i)
		c.Floats(m[i][:])
	}
	c.Lit("]")
}

func encCenters(e *bench.Enc, m *[k][dims]float64) {
	e.Lit("[")
	for i := range m {
		e.Comma(i)
		e.Floats(m[i][:])
	}
	e.Lit("]")
}

func (codec) EncodeInput(in engine.Input) ([]byte, error) {
	blk, ok := in.(Block)
	if !ok {
		return nil, fmt.Errorf("streamcluster: input is %T, want Block", in)
	}
	e := bench.NewEnc(32 + bench.FloatLen*dims*(len(blk.Points)+k))
	e.Lit(`{"Points":`)
	if blk.Points == nil {
		e.Lit("null")
	} else {
		e.Lit("[")
		for i := range blk.Points {
			e.Comma(i)
			e.Floats(blk.Points[i][:])
		}
		e.Lit("]")
	}
	e.Lit(`,"Truth":`)
	encCenters(&e, &blk.Truth)
	e.Lit("}")
	return e.Bytes()
}

func (c codec) EncodeOutput(out engine.Output) ([]byte, error) { return c.AppendOutput(nil, out) }

func (codec) AppendOutput(dst []byte, out engine.Output) ([]byte, error) {
	bc, ok := out.(BlockCost)
	if !ok {
		return nil, fmt.Errorf("streamcluster: output is %T, want BlockCost", out)
	}
	e := bench.AppendEnc(dst, 32)
	e.Lit(`{"Cost":`)
	e.Float(bc.Cost)
	e.Lit("}")
	return e.Bytes()
}

func (codec) DecodeOutput(data []byte) (engine.Output, error) {
	if bc, ok := scanCost(data); ok {
		return bc, nil
	}
	return bench.Fallback[BlockCost](data, "streamcluster", "bad block cost")
}

func scanCost(data []byte) (bc BlockCost, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"Cost":`)
	bc.Cost = c.Float()
	c.Lit("}")
	return bc, c.End()
}

// wireState is clusterState's serialized form.
type wireState struct {
	Centers [k][dims]float64 `json:"centers"`
	N       float64          `json:"n"`
	Lag     float64          `json:"lag"`
}

func (codec) EncodeState(s engine.State) ([]byte, error) {
	st, ok := s.(*clusterState)
	if !ok {
		return nil, fmt.Errorf("streamcluster: state is %T, want *clusterState", s)
	}
	e := bench.NewEnc(32 + bench.FloatLen*(dims*k+2))
	e.Lit(`{"centers":`)
	encCenters(&e, &st.centers)
	e.Lit(`,"n":`)
	e.Float(st.n)
	e.Lit(`,"lag":`)
	e.Float(st.lag)
	e.Lit("}")
	return e.Bytes()
}

func (codec) DecodeState(data []byte) (engine.State, error) {
	if w, ok := scanState(data); ok {
		return w.live(), nil
	}
	var w wireState
	if err := bench.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("streamcluster: bad state: %w", err)
	}
	return w.live(), nil
}

func (w wireState) live() *clusterState {
	return &clusterState{centers: w.Centers, n: w.N, lag: w.Lag}
}

func scanState(data []byte) (w wireState, ok bool) {
	c := bench.NewCursor(data)
	c.Lit(`{"centers":`)
	scanCenters(&c, &w.Centers)
	c.Lit(`,"n":`)
	w.N = c.Float()
	c.Lit(`,"lag":`)
	w.Lag = c.Float()
	c.Lit("}")
	return w, c.End()
}
