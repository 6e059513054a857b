package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/cqacdbd from the checkout the benchmark runs
// in. The time is printed as info (build_s); it is not part of setup_s.
func buildDaemon(ctx context.Context, binDir string) (string, time.Duration, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(binDir, "cqacdbd")
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "cdb/cmd/cqacdbd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build cdb/cmd/cqacdbd: %w\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// daemon is one running cqacdbd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	done chan error
}

// startDaemon execs the daemon with default flags on a free loopback port
// and returns once it has printed its listen line. snapDir, when set,
// enables the snapshot store. The daemon is killed when ctx is cancelled,
// so an interrupted benchmark leaves no process behind.
func startDaemon(ctx context.Context, bin, dbFile, snapDir string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-quiet", "-db", "bench=" + dbFile}
	if snapDir != "" {
		args = append(args, "-snapshot-dir", snapDir)
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	listen := make(chan string, 1)
	go func() {
		// Read stdout to EOF before Wait, as os/exec requires; the listen
		// line is handed over as soon as it appears.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "cqacdbd listening on "); ok {
				listen <- rest
			}
		}
		d.done <- cmd.Wait()
	}()
	select {
	case d.base = <-listen:
		return d, nil
	case err := <-d.done:
		return nil, fmt.Errorf("cqacdbd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("cqacdbd did not print its listen line within 30s")
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit; a daemon
// that does not exit within ten seconds is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return d.kill()
	}
	select {
	case err := <-d.done:
		return err
	case <-time.After(10 * time.Second):
		_ = d.kill()
		return fmt.Errorf("cqacdbd ignored SIGTERM for 10s; killed")
	}
}

// kill is kill -9: no drain, no WAL close. It waits for the process to
// be reaped.
func (d *daemon) kill() error {
	err := d.cmd.Process.Kill()
	<-d.done
	return err
}

// procSample is what /proc tells about the daemon at one instant.
type procSample struct {
	cpu   time.Duration // user + system
	hwmMB float64       // VmHWM, peak resident set
}

// clockTick is the kernel's USER_HZ; it is 100 on every Linux platform Go
// supports.
const clockTick = 100

func (d *daemon) proc() (procSample, error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return procSample{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(stat, ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 13 {
		return procSample{}, fmt.Errorf("unexpected /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procSample{}, fmt.Errorf("unexpected /proc/%s/stat times", pid)
	}
	s := procSample{cpu: time.Duration(utime+stime) * time.Second / clockTick}
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return procSample{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return procSample{}, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			s.hwmMB = kb / 1024
		}
	}
	return s, nil
}

// client is one closed-loop caller: a single keep-alive connection and
// the session it has open.
type client struct {
	base    string
	hc      *http.Client
	session string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and returns the whole body. A status outside
// 2xx is an error.
func (c *client) call(method, path string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// callID is call for the endpoints that answer with an object carrying
// an "id" (sessions, snapshots, forks).
func (c *client) callID(method, path string, body any) (string, error) {
	b, err := c.call(method, path, body)
	if err != nil {
		return "", err
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &out); err != nil || out.ID == "" {
		return "", fmt.Errorf("%s %s: no id in %q", method, path, b)
	}
	return out.ID, nil
}

func (c *client) openSession(snapshot string) (string, error) {
	var body any
	if snapshot != "" {
		body = map[string]string{"snapshot": snapshot}
	}
	return c.callID("POST", "/v1/sessions", body)
}

func (c *client) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, err := c.call("GET", "/healthz", nil)
		if err == nil && bytes.Contains(b, []byte(`"ok"`)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy after 10s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// reply is what one /v1/query answer carried, buffered or streamed.
type reply struct {
	schema    string
	tuples    []string
	elapsedMS float64 // the server's own wall time for the query
	bytes     int     // response body size
}

// query runs r on session (or the client's own session when empty) and
// decodes either response shape.
func (c *client) query(r *request, session string) (reply, error) {
	if session == "" {
		session = c.session
	}
	body := map[string]any{"session": session}
	if r.Rules != "" {
		body["rules"] = r.Rules
		if r.Target != "" {
			body["target"] = r.Target
		}
	} else {
		body["query"] = r.Query
	}
	if r.Stream {
		body["stream"] = true
	}
	b, err := c.call("POST", "/v1/query", body)
	if err != nil {
		return reply{}, err
	}
	out := reply{bytes: len(b)}
	if !r.Stream {
		var resp struct {
			Schema    string   `json:"schema"`
			Tuples    []string `json:"tuples"`
			ElapsedMS float64  `json:"elapsed_ms"`
		}
		if err := json.Unmarshal(b, &resp); err != nil {
			return reply{}, fmt.Errorf("decode response: %w", err)
		}
		out.schema, out.tuples, out.elapsedMS = resp.Schema, resp.Tuples, resp.ElapsedMS
		return out, nil
	}
	// NDJSON: header, one object per tuple, trailer with "done".
	done := false
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var line struct {
			Schema    *string `json:"schema"`
			Tuple     *string `json:"tuple"`
			Done      bool    `json:"done"`
			ElapsedMS float64 `json:"elapsed_ms"`
		}
		if err := dec.Decode(&line); err != nil {
			return reply{}, fmt.Errorf("decode stream: %w", err)
		}
		switch {
		case line.Schema != nil:
			out.schema = *line.Schema
		case line.Tuple != nil:
			out.tuples = append(out.tuples, *line.Tuple)
		case line.Done:
			done, out.elapsedMS = true, line.ElapsedMS
		}
	}
	if !done {
		return reply{}, fmt.Errorf("stream ended without its trailer")
	}
	return out, nil
}

// memstats is the part of the daemon's runtime.MemStats the process.*
// metrics need, read from /debug/vars.
type memstats struct {
	Mallocs      uint64
	TotalAlloc   uint64
	NumGC        uint32
	PauseTotalNs uint64
}

func (c *client) memstats() (memstats, error) {
	b, err := c.call("GET", "/debug/vars", nil)
	if err != nil {
		return memstats{}, err
	}
	var vars struct {
		Memstats memstats `json:"memstats"`
	}
	if err := json.Unmarshal(b, &vars); err != nil {
		return memstats{}, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return vars.Memstats, nil
}
