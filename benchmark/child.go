package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything built from the checkout goes; git ignores it.
const buildDir = ".bench_build"

func binPath(name string) string { return filepath.Join(buildDir, "bin", name) }

// buildChildren compiles statsgate and statsworker from the checkout into
// .bench_build/bin, once per run and outside set-up time, with the Go
// environment run.sh exported (caches under .bench_build/, no network). In a directory
// without the repository's sources it fails, which is how a bare
// BENCHMARK.json + benchmark/ directory exits non-zero without a result.
func buildChildren() (time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, "bin")+string(filepath.Separator),
		"./cmd/statsgate", "./cmd/statsworker")
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build of children: %v\n%s", err, out)
	}
	return time.Since(t0), nil
}

// child is one process the harness started. Every child is registered here
// so that each exit path — normal, error, signal, watchdog — kills and reaps
// all of them.
type child struct {
	cmd    *exec.Cmd
	name   string
	stderr tailBuffer
	done   chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after done
}

var (
	childMu  sync.Mutex
	children = map[*child]struct{}{}
	cleanups = map[int]func(){} // stop functions of children another package started
	cleanupN int
)

// registerCleanup adds stop to what every exit path runs, for children the
// harness did not start itself (procexec's worker pool); the returned
// function removes it again.
func registerCleanup(stop func()) (unregister func()) {
	childMu.Lock()
	defer childMu.Unlock()
	cleanupN++
	id := cleanupN
	cleanups[id] = stop
	return func() {
		childMu.Lock()
		delete(cleanups, id)
		childMu.Unlock()
	}
}

// tailBuffer keeps the last 8 KiB written to it: enough of a child's stderr
// to say why it died, bounded however much it logs.
type tailBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if over := len(t.b) - 8<<10; over > 0 {
		t.b = t.b[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.b))
}

// startChild starts argv with Pdeathsig set, so the kernel kills it should
// the harness die without reaching its own cleanup. stdout may be nil.
func startChild(stdout io.Writer, argv ...string) (*child, error) {
	c := &child{name: filepath.Base(argv[0]), done: make(chan struct{})}
	c.cmd = exec.Command(argv[0], argv[1:]...)
	c.cmd.Stdout = stdout
	c.cmd.Stderr = &c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", c.name, err)
	}
	childMu.Lock()
	children[c] = struct{}{}
	childMu.Unlock()
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// exited reports a child that ended on its own, with its stderr.
func (c *child) exited() error {
	select {
	case <-c.done:
		return fmt.Errorf("%s exited on its own (%v); stderr:\n%s", c.name, c.err, c.stderr.String())
	default:
		return nil
	}
}

// stop kills the child and waits until it has been reaped.
func (c *child) stop() {
	childMu.Lock()
	delete(children, c)
	childMu.Unlock()
	_ = c.cmd.Process.Kill() // already-exited is fine: it is reaped below
	<-c.done
}

// stopAllChildren is the last step of every exit path.
func stopAllChildren() {
	childMu.Lock()
	all := make([]*child, 0, len(children))
	for c := range children {
		all = append(all, c)
	}
	stops := make([]func(), 0, len(cleanups))
	for _, stop := range cleanups {
		stops = append(stops, stop)
	}
	childMu.Unlock()
	for _, c := range all {
		c.stop()
	}
	for _, stop := range stops {
		stop()
	}
}

// freeAddr asks the kernel for an unused loopback port with a :0 listener
// and releases it for a child to bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitReady polls url every few milliseconds until it answers 200, the
// child dies, or the deadline passes. No fixed sleeps: set-up time is the
// child's real start-up time.
func waitReady(ctx context.Context, c *child, url string, deadline time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		if err := c.exited(); err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready at %s after %s; stderr:\n%s", c.name, url, deadline, c.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// clockTick is USER_HZ, the unit of the CPU fields of /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTick = 100

// parseProcStat extracts utime+stime from the text of /proc/<pid>/stat. The
// command name (field 2) is parenthesised and may itself hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(text string) (time.Duration, error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * (time.Second / clockTick), nil
}

// cpu returns the child's CPU time so far.
func (c *child) cpu() (time.Duration, error) {
	text, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(text))
}

// selfCPU returns the harness process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
