package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every mainstream Linux build).
const clockTicks = 100

// proc is one launched flexserve process. Wait runs in its own goroutine
// from the moment of launch, so an exited child is reaped at once and never
// lingers as a zombie.
type proc struct {
	name     string
	url      string // http://127.0.0.1:<port>
	cmd      *exec.Cmd
	done     chan struct{} // closed once Wait returned
	waitErr  error         // valid after done
	stopping atomic.Bool
	log      *tail
}

// registry tracks every process the harness started so that any exit path
// — success, error, deadline or signal — stops and reaps all of them.
type registry struct {
	mu    sync.Mutex
	procs []*proc
}

func (r *registry) add(p *proc) {
	r.mu.Lock()
	r.procs = append(r.procs, p)
	r.mu.Unlock()
}

// stopAll stops every registered process, most recent first.
func (r *registry) stopAll() {
	r.mu.Lock()
	ps := append([]*proc(nil), r.procs...)
	r.mu.Unlock()
	for i := len(ps) - 1; i >= 0; i-- {
		ps[i].stop()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// procSpec names one server process and its flags.
type procSpec struct {
	name string
	args []string
}

// launch starts every spec on its own ephemeral loopback port, then waits
// until each answers /healthz with 200, so the processes boot in parallel.
// A process that lost its port to another listener is restarted on a fresh
// one. It must be called from the main goroutine: a child's parent-death
// signal is tied to the launching OS thread, which init pins for the life
// of the process.
func launch(ctx context.Context, reg *registry, bin string, specs []procSpec) ([]*proc, error) {
	procs := make([]*proc, 0, len(specs))
	fail := func(err error) ([]*proc, error) {
		for _, p := range procs {
			p.stop()
		}
		return nil, err
	}
	for _, s := range specs {
		p, err := start(reg, bin, s)
		if err != nil {
			return fail(err)
		}
		procs = append(procs, p)
	}
	for i := range procs {
		for attempt := 1; ; attempt++ {
			err := procs[i].waitHealthy(ctx, 20*time.Second)
			if err == nil {
				break
			}
			if attempt == 3 || ctx.Err() != nil || !strings.Contains(err.Error(), "address already in use") {
				return fail(err)
			}
			if procs[i], err = start(reg, bin, specs[i]); err != nil {
				return fail(err)
			}
		}
	}
	return procs, nil
}

// start launches one process and begins reaping it.
func start(reg *registry, bin string, s procSpec) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("%s: pick a port: %w", s.name, err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	p := &proc{name: s.name, url: "http://" + addr, done: make(chan struct{}), log: &tail{max: 4096}}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, s.args...)...)
	p.cmd.Stdout = p.log
	p.cmd.Stderr = p.log
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: start: %w", s.name, err)
	}
	reg.add(p)
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// the timeout passes.
func (p *proc) waitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	hc := &http.Client{Timeout: time.Second}
	for {
		if err := p.exited(); err != nil {
			return err
		}
		resp, err := hc.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: /healthz not ready after %v", p.name, timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-p.done:
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// exited reports an error when the process has exited without being asked
// to — a server that dies mid-run fails the run.
func (p *proc) exited() error {
	select {
	case <-p.done:
		if p.stopping.Load() {
			return nil
		}
		return fmt.Errorf("%s exited early (%v); last output:\n%s", p.name, p.waitErr, p.log.String())
	default:
		return nil
	}
}

// stop asks the process to drain (SIGTERM), kills it if it has not exited
// within 10 s, and returns once it is reaped. Safe to call repeatedly.
func (p *proc) stop() {
	p.stopping.Store(true)
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is reaped below either way
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// cpu returns the process's user+system CPU time so far.
func (p *proc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may hold spaces, so fields count from its closing
// parenthesis.
func parseStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime is field 14, stime field 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat CPU fields")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns the process's peak resident set (VmHWM) in KiB.
func (p *proc) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cluster is one workload's running server set: workers first, the front
// (the process clients talk to) last.
type cluster struct {
	procs []*proc
	front *proc
}

// stop stops the front first, then the workers behind it.
func (c *cluster) stop() {
	for i := len(c.procs) - 1; i >= 0; i-- {
		c.procs[i].stop()
	}
}

// check fails when any server exited on its own.
func (c *cluster) check() error {
	for _, p := range c.procs {
		if err := p.exited(); err != nil {
			return err
		}
	}
	return nil
}

// fleetAlive waits until the coordinator reports every worker alive.
func (c *cluster) fleetAlive(ctx context.Context, want int) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		var st serverStats
		err := getJSON(ctx, http.DefaultClient, c.front.url+"/v1/stats", &st)
		if err == nil && st.Fleet != nil && len(st.Fleet.Nodes) == want {
			alive := 0
			for _, n := range st.Fleet.Nodes {
				if n.State == "alive" {
					alive++
				}
			}
			if alive == want {
				return nil
			}
		}
		if err := c.check(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return errors.New("fleet workers not alive after 20s")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// tail keeps the last max bytes written to it: a server's recent output,
// shown when it dies unexpectedly.
type tail struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tail) Write(b []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, b...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	t.mu.Unlock()
	return len(b), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	body, err := getBody(ctx, hc, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// getBody fetches url and returns its body, failing on a non-200 status.
func getBody(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}
