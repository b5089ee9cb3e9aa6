// Package procexec executes STATS chunks in worker *processes*: an
// out-of-process chunk executor behind the engine's ChunkRunner seam.
//
// The parent keeps a small pool of spawned workers speaking NDJSON over
// stdin/stdout. Each chunk request carries the chunk index, the
// predecessor's lookback window, and the chunk inputs, all in the
// benchmark's wire form; the worker re-derives every RNG substream from
// (seed, benchmark, chunk index) — the same derivations the in-process
// worker uses, made possible because rng.Derive never advances the
// parent stream — runs the full §III-B chunk protocol (alternative
// producer, body, original states), and replies with the speculative
// state, outputs, and original states. The parent decodes the reply and
// hands it to the commit frontier exactly as if a pool goroutine had
// produced it, so committed outputs are byte-identical to the in-process
// executors.
//
// Process death is an expected event, not an error: a worker that dies
// mid-chunk (EOF), wedges (deadline), or replies garbage is killed and
// lazily respawned, and the chunk is retried on a fresh process — the
// retry re-derives identical bytes. The engine's SiteProc fault domain
// supplies the retry/backoff/degrade discipline; this package only
// reports transport failures. Benchmarks must be registered by the
// embedding binary (blank-import gostats/internal/bench/all).
package procexec

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/faultinject"
)

// Session identifies the resumable core a worker process needs to
// re-derive chunk execution: the benchmark and the session-shape fields
// that enter RNG derivations or the chunk protocol.
type Session struct {
	// Benchmark is the registered benchmark name.
	Benchmark string
	// Seed is the session seed; workers re-derive all randomness from it.
	Seed uint64
	// Lookback is the validation window length w.
	Lookback int
	// ExtraStates is the number of extra original-state replicas.
	ExtraStates int
	// InnerWidth is ignored: a worker process runs chunks on a cost-free
	// executor, which runs no gang, and the hello does not carry it. It
	// stays declared only because the repository benchmark's worker-pool
	// probe still sets it; the next change to that benchmark drops it.
	InnerWidth int
}

// Config configures a worker-process pool.
type Config struct {
	// Command is the worker argv; Command[0] is the binary. The worker
	// must call ServeWorker on its stdin/stdout (cmd/statsworker does).
	Command []string
	// Env lists extra environment entries appended to the parent's.
	Env []string
	// Procs is the number of worker processes (default 1).
	Procs int
	// Session is the session the workers execute chunks for.
	Session Session
	// Codec translates inputs, outputs, and states to the wire.
	Codec bench.WireCodec
	// Plan, when non-nil, injects process-level faults: the parent
	// consults it per (chunk, attempt) and instructs the worker to die,
	// hang, or garble its reply. Recovery must keep outputs byte-identical.
	Plan *faultinject.ProcPlan
}

// wireRequest is one parent→worker NDJSON line.
type wireRequest struct {
	// Op is "hello" (session handshake, once per process) or "chunk".
	Op        string `json:"op"`
	Benchmark string `json:"benchmark,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	Lookback  int    `json:"lookback,omitempty"`
	Extra     int    `json:"extra,omitempty"`

	Chunk  int               `json:"chunk,omitempty"`
	Window []json.RawMessage `json:"window,omitempty"`
	Inputs []json.RawMessage `json:"inputs,omitempty"`

	// Fault-injection instructions (set by the parent from a ProcPlan).
	Die    bool `json:"die,omitempty"`
	Hang   bool `json:"hang,omitempty"`
	Garble bool `json:"garble,omitempty"`
}

// wireReply is one worker→parent NDJSON line. Origs[0] is the chunk's
// final state; Spec is empty for chunk 0 (no validation at the first
// boundary).
type wireReply struct {
	OK    bool              `json:"ok"`
	Err   string            `json:"err,omitempty"`
	Spec  json.RawMessage   `json:"spec,omitempty"`
	Outs  []json.RawMessage `json:"outs,omitempty"`
	Origs []json.RawMessage `json:"origs,omitempty"`
}

// proc is one live worker process.
type proc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// Pool is a pool of worker processes implementing engine.ChunkRunner.
// RunChunk is safe for concurrent use; each call exclusively borrows one
// process. Close kills the pool.
type Pool struct {
	cfg Config

	// slots holds the pool's processes; nil entries are tokens for lazily
	// (re)spawned workers. Borrowing a slot confers exclusive use of its
	// process; a transport failure returns the slot as nil so the next
	// borrower spawns fresh.
	slots chan *proc

	mu     sync.Mutex
	closed bool
	live   map[*proc]struct{}

	spawns atomic.Int64
}

// NewPool validates cfg and creates the pool. Processes spawn lazily on
// first use, so a pool over a bad binary fails at RunChunk, not here.
func NewPool(cfg Config) (*Pool, error) {
	if len(cfg.Command) == 0 {
		return nil, fmt.Errorf("procexec: empty Command")
	}
	if cfg.Codec == nil {
		return nil, fmt.Errorf("procexec: nil Codec")
	}
	if cfg.Session.Benchmark == "" {
		return nil, fmt.Errorf("procexec: no benchmark in Session")
	}
	if cfg.Procs <= 0 {
		cfg.Procs = 1
	}
	p := &Pool{
		cfg:   cfg,
		slots: make(chan *proc, cfg.Procs),
		live:  make(map[*proc]struct{}),
	}
	for i := 0; i < cfg.Procs; i++ {
		p.slots <- nil
	}
	return p, nil
}

// Spawns reports how many worker processes the pool has started — the
// initial fill plus one per respawn after a kill.
func (p *Pool) Spawns() int64 { return p.spawns.Load() }

// Close kills every worker process. In-flight RunChunk calls fail with a
// transport error (the engine degrades them).
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	//statslint:allow detpath teardown kill order cannot reach outputs: every worker dies and in-flight chunks degrade to local re-execution
	for pr := range p.live {
		pr.kill()
	}
	p.live = map[*proc]struct{}{}
	p.mu.Unlock()
}

func (pr *proc) kill() {
	if pr == nil {
		return
	}
	pr.in.Close()
	if pr.cmd.Process != nil {
		pr.cmd.Process.Kill()
	}
	// Reap; the process was killed so the error is expected.
	pr.cmd.Wait()
}

// spawn starts one worker and runs the session handshake.
func (p *Pool) spawn() (*proc, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("procexec: pool closed")
	}
	p.mu.Unlock()
	cmd := exec.Command(p.cfg.Command[0], p.cfg.Command[1:]...)
	cmd.Env = append(os.Environ(), p.cfg.Env...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("procexec: stdin: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("procexec: stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("procexec: start %q: %w", p.cfg.Command[0], err)
	}
	pr := &proc{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<16)}
	p.spawns.Add(1)
	s := p.cfg.Session
	hello := wireRequest{Op: "hello", Benchmark: s.Benchmark, Seed: s.Seed,
		Lookback: s.Lookback, Extra: s.ExtraStates}
	reply, err := pr.exchange(hello)
	if err != nil {
		pr.kill()
		return nil, fmt.Errorf("procexec: handshake: %w", err)
	}
	if !reply.OK {
		pr.kill()
		return nil, fmt.Errorf("procexec: handshake rejected: %s", reply.Err)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pr.kill()
		return nil, fmt.Errorf("procexec: pool closed")
	}
	p.live[pr] = struct{}{}
	p.mu.Unlock()
	return pr, nil
}

// drop removes a dead process from the live set.
func (p *Pool) drop(pr *proc) {
	p.mu.Lock()
	delete(p.live, pr)
	p.mu.Unlock()
}

// exchange writes one request line and reads one reply line.
func (pr *proc) exchange(req wireRequest) (*wireReply, error) {
	line, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	line = append(line, '\n')
	if _, err := pr.in.Write(line); err != nil {
		return nil, fmt.Errorf("write: %w", err)
	}
	raw, err := pr.out.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	var reply wireReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return nil, fmt.Errorf("bad reply: %w", err)
	}
	return &reply, nil
}

// RunChunk implements engine.ChunkRunner: encode the request, borrow a
// worker, exchange, decode. Any transport failure — spawn error, dead
// process, deadline, unparseable reply — is returned as an error for the
// engine's SiteProc retry discipline; the borrowed slot is recycled as a
// fresh-spawn token.
func (p *Pool) RunChunk(ctx context.Context, req engine.ChunkRequest) (*engine.ChunkReply, error) {
	wreq := wireRequest{Op: "chunk", Chunk: req.Chunk}
	var err error
	if wreq.Window, err = p.encodeInputs("window", req.Window); err != nil {
		return nil, err
	}
	if wreq.Inputs, err = p.encodeInputs("input", req.Inputs); err != nil {
		return nil, err
	}
	if kind, ok := p.cfg.Plan.At(req.Chunk, req.Attempt); ok {
		switch kind {
		case faultinject.ProcKill:
			wreq.Die = true
		case faultinject.ProcHang:
			wreq.Hang = true
		case faultinject.ProcGarbage:
			wreq.Garble = true
		}
	}

	// Borrow a slot; a nil slot is a token for a lazy (re)spawn.
	var pr *proc
	select {
	case pr = <-p.slots:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if pr == nil {
		if pr, err = p.spawn(); err != nil {
			p.slots <- nil
			return nil, err
		}
	}

	type exch struct {
		reply *wireReply
		err   error
	}
	ch := make(chan exch, 1)
	go func() {
		reply, err := pr.exchange(wreq)
		ch <- exch{reply, err}
	}()
	var reply *wireReply
	select {
	case r := <-ch:
		if r.err != nil {
			p.fail(pr)
			return nil, fmt.Errorf("procexec: chunk %d: %w", req.Chunk, r.err)
		}
		reply = r.reply
	case <-ctx.Done():
		// Watchdog: the worker is wedged (or the run is ending). Kill it;
		// the exchange goroutine unblocks with a read error.
		p.fail(pr)
		<-ch
		return nil, ctx.Err()
	}
	if !reply.OK {
		p.fail(pr)
		return nil, fmt.Errorf("procexec: chunk %d: worker error: %s", req.Chunk, reply.Err)
	}
	out, err := p.decode(req, reply)
	if err != nil {
		p.fail(pr)
		return nil, fmt.Errorf("procexec: chunk %d: %w", req.Chunk, err)
	}
	p.slots <- pr
	return out, nil
}

// encodeInputs translates an input list to the wire; what names it in
// errors.
func (p *Pool) encodeInputs(what string, ins []engine.Input) ([]json.RawMessage, error) {
	raws := make([]json.RawMessage, len(ins))
	for i, in := range ins {
		raw, err := p.cfg.Codec.EncodeInput(in)
		if err != nil {
			return nil, fmt.Errorf("procexec: encode %s[%d]: %w", what, i, err)
		}
		raws[i] = raw
	}
	return raws, nil
}

// fail kills a process after a transport failure and returns its slot as
// a fresh-spawn token.
func (p *Pool) fail(pr *proc) {
	pr.kill()
	p.drop(pr)
	p.slots <- nil
}

// decode translates a wire reply to req into live engine values. Origs[0]
// is aliased as Final, mirroring the in-process result layout. A reply
// that parses but does not have req's shape — one output per input, the
// final state plus the session's replicas, a speculative state exactly
// when the chunk has a predecessor — is refused like a garbled one: the
// frontier would commit too few outputs, or fail in Match on a nil state.
func (p *Pool) decode(req engine.ChunkRequest, reply *wireReply) (*engine.ChunkReply, error) {
	switch {
	case len(reply.Outs) != len(req.Inputs):
		return nil, fmt.Errorf("reply has %d outputs for %d inputs", len(reply.Outs), len(req.Inputs))
	case len(reply.Origs) != 1+p.cfg.Session.ExtraStates:
		return nil, fmt.Errorf("reply has %d original states, the session has %d", len(reply.Origs), 1+p.cfg.Session.ExtraStates)
	case (len(reply.Spec) > 0) != (req.Chunk > 0):
		return nil, fmt.Errorf("reply to chunk %d has speculative state %t", req.Chunk, len(reply.Spec) > 0)
	}
	out := &engine.ChunkReply{
		Outs:  make([]engine.Output, len(reply.Outs)),
		Origs: make([]engine.State, len(reply.Origs)),
	}
	if len(reply.Spec) > 0 {
		s, err := p.cfg.Codec.DecodeState(reply.Spec)
		if err != nil {
			return nil, fmt.Errorf("decode spec: %w", err)
		}
		out.Spec = s
	}
	for i, raw := range reply.Outs {
		o, err := p.cfg.Codec.DecodeOutput(raw)
		if err != nil {
			return nil, fmt.Errorf("decode output[%d]: %w", i, err)
		}
		out.Outs[i] = o
	}
	for i, raw := range reply.Origs {
		s, err := p.cfg.Codec.DecodeState(raw)
		if err != nil {
			return nil, fmt.Errorf("decode orig[%d]: %w", i, err)
		}
		out.Origs[i] = s
	}
	out.Final = out.Origs[0]
	return out, nil
}
