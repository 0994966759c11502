package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// daemon is one khserve subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	logs *logWatch
	done chan struct{} // closed once the process has exited
	err  error         // cmd.Wait's result, set before done is closed
}

// logWatch collects the daemon's log output and picks the listen address
// out of its startup line.
type logWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // receives the listen address once
	sent bool
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

func (w *logWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if m := listenRE.FindSubmatch(w.buf.Bytes()); m != nil {
			w.addr <- string(m[1])
			w.sent = true
		}
	}
	return len(p), nil
}

func (w *logWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon spawns khserve over the edge-list file with one engine per
// CPU and one worker each, and waits for its first 200 on /readyz.
func startDaemon(bin, graphFile string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-engines", strconv.Itoa(nproc()),
		"-workers", "1", "-mutate-h", "2", graphFile)
	lw := &logWatch{addr: make(chan string, 1)}
	cmd.Stdout, cmd.Stderr = lw, lw
	// The daemon is killed with the benchmark, also when it dies abruptly.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting khserve: %w", err)
	}
	d := &daemon{cmd: cmd, logs: lw, done: make(chan struct{})}
	go func() { d.err = cmd.Wait(); close(d.done) }()
	timeout := time.After(60 * time.Second)
	select {
	case addr := <-lw.addr:
		d.base = "http://" + addr
	case <-d.done:
		return nil, fmt.Errorf("khserve exited before listening: %v\n%s", d.err, lw)
	case <-timeout:
		d.kill()
		return nil, fmt.Errorf("khserve did not listen within 60s\n%s", lw)
	}
	probe := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("khserve exited before ready: %v\n%s", d.err, lw)
		case <-timeout:
			d.kill()
			return nil, fmt.Errorf("khserve not ready within 60s\n%s", lw)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// kill stops the process without a graceful shutdown and waits for it. It
// may be called again, and after stop.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // it may already have exited; the wait below settles it
	<-d.done
}

// stop sends SIGTERM, waits for the graceful shutdown and checks that the
// daemon exited with status 0.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signaling khserve: %w", err)
	}
	select {
	case <-d.done:
		if d.err != nil {
			return fmt.Errorf("khserve exit after SIGTERM: %v\n%s", d.err, d.logs)
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("khserve did not exit within 60s of SIGTERM")
	}
}

// client sends the benchmark's requests, at most nproc at a time.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc()}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// path returns the method, URL path and body of a scheduled request.
func (rq request) path() (method, path string, body []byte) {
	switch rq.kind {
	case kindCore:
		return "GET", fmt.Sprintf("/core?h=2&k=%d", rq.k), nil
	case kindDecompose:
		return "GET", "/decompose?h=3", nil
	case kindApprox:
		return "GET", fmt.Sprintf("/decompose?h=3&mode=approx&seed=%d", rq.aseed), nil
	default:
		body, _ := json.Marshal(map[string]any{"op": rq.edit.Op.String(), "u": rq.edit.U, "v": rq.edit.V})
		return "POST", "/mutate", body
	}
}

// do sends one request and returns its status and body.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// reply is what the benchmark reads from a khserve response.
type reply struct {
	cached     bool
	degraded   bool
	durationMS int64 // the run's durationMs; -1 when the response has none
	regionSize int
	core       []int // per-vertex cores when requested with vertices=1
	coreSizes  []int
	canon      []byte // the body without timing fields, for equality checks
}

// Wire shapes of the khserve responses the benchmark reads.
type (
	decomposeWire struct {
		H          int       `json:"h"`
		CoreSizes  []int     `json:"coreSizes"`
		DurationMS int64     `json:"durationMs"`
		Degraded   bool      `json:"degraded"`
		Cached     bool      `json:"cached"`
		Approx     *struct{} `json:"approx"` // only its presence is checked
		Core       []int     `json:"core"`
	}
	coreWire struct {
		Size     int   `json:"size"`
		Members  []int `json:"members"`
		Cached   bool  `json:"cached"`
		Degraded bool  `json:"degraded"`
	}
	mutateWire struct {
		Applied      int   `json:"applied"`
		RegionSize   int   `json:"regionSize"`
		GraphVersion int64 `json:"graphVersion"`
	}
	errorWire struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
)

// parseReply checks a response body against the request class and
// extracts what the benchmark measures. A non-200 status is an error
// carrying the daemon's error code.
func parseReply(kind reqKind, status int, body []byte) (reply, error) {
	if status != http.StatusOK {
		var e errorWire
		if err := json.Unmarshal(body, &e); err != nil {
			return reply{}, fmt.Errorf("status %d with unreadable body: %v", status, err)
		}
		return reply{}, fmt.Errorf("status %d: %s: %s", status, e.Code, e.Error)
	}
	rep := reply{durationMS: -1}
	switch kind {
	case kindCore:
		var w coreWire
		if err := json.Unmarshal(body, &w); err != nil {
			return reply{}, fmt.Errorf("core reply: %w", err)
		}
		if w.Size != len(w.Members) {
			return reply{}, fmt.Errorf("core reply: size=%d with %d members", w.Size, len(w.Members))
		}
		rep.cached, rep.degraded = w.Cached, w.Degraded
	case kindDecompose, kindApprox:
		var w decomposeWire
		if err := json.Unmarshal(body, &w); err != nil {
			return reply{}, fmt.Errorf("decompose reply: %w", err)
		}
		if w.H < 1 || len(w.CoreSizes) == 0 {
			return reply{}, fmt.Errorf("decompose reply: h=%d with %d core sizes", w.H, len(w.CoreSizes))
		}
		if (kind == kindApprox || w.Degraded) != (w.Approx != nil) {
			return reply{}, fmt.Errorf("decompose reply: approx block present=%v for a %v request (degraded=%v)", w.Approx != nil, kind, w.Degraded)
		}
		rep.cached, rep.degraded = w.Cached, w.Degraded
		rep.durationMS, rep.core, rep.coreSizes = w.DurationMS, w.Core, w.CoreSizes
		canon, err := canonical(body)
		if err != nil {
			return reply{}, err
		}
		rep.canon = canon
	case kindMutate:
		var w mutateWire
		if err := json.Unmarshal(body, &w); err != nil {
			return reply{}, fmt.Errorf("mutate reply: %w", err)
		}
		if w.Applied != 1 || w.GraphVersion < 2 {
			return reply{}, fmt.Errorf("mutate reply: applied=%d graphVersion=%d", w.Applied, w.GraphVersion)
		}
		rep.regionSize = w.RegionSize
	}
	return rep, nil
}

// timingFields vary from run to run and are left out of canonical bodies.
var timingFields = []string{"durationMs", "cached", "estimateMs", "peelMs"}

// canonical re-encodes a JSON body with sorted keys and without its
// timing fields, so two answers computed on the same graph compare
// byte for byte.
func canonical(body []byte) ([]byte, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("canonical body: %w", err)
	}
	for _, f := range timingFields {
		delete(m, f)
	}
	if a, ok := m["approx"].(map[string]any); ok {
		for _, f := range timingFields {
			delete(a, f)
		}
	}
	return json.Marshal(m)
}

// getDecompose fetches /decompose with per-vertex cores at h: exact, or
// approximate with the given sampling seed when it is not 0.
func (c *client) getDecompose(h int, approxSeed uint64) (reply, error) {
	kind, path := kindDecompose, fmt.Sprintf("/decompose?h=%d&vertices=1", h)
	if approxSeed != 0 {
		kind, path = kindApprox, fmt.Sprintf("%s&mode=approx&seed=%d", path, approxSeed)
	}
	status, body, err := c.do(context.Background(), "GET", path, nil)
	if err != nil {
		return reply{}, err
	}
	return parseReply(kind, status, body)
}
