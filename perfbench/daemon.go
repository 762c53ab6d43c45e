package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running dtrd process and the single-connection HTTP
// client the benchmark drives it with.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *os.File
	done   chan struct{} // closed once the process has been reaped
	err    error         // the process's exit status, set before done closes
	once   sync.Once
}

// newClient returns a client that keeps exactly one connection to the
// daemon, so every round is one closed-loop producer on one socket.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// startDaemon launches dtrd with args plus a loopback listen address
// and returns once /healthz first answers 200, with the time from
// process start to that answer. The daemon's output goes to logPath.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := make(chan string, 1)
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-listen", "127.0.0.1:0")...)
	cmd.Stdout = &addrWatcher{w: log, addr: addr}
	cmd.Stderr = log
	d := &daemon{cmd: cmd, client: newClient(), log: log, done: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, 0, fmt.Errorf("start dtrd: %w", err)
	}
	daemonsMu.Lock()
	daemons[d] = true
	daemonsMu.Unlock()
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		log.Close()
		return nil, 0, fmt.Errorf("dtrd exited during start-up (%v); see %s", d.err, logPath)
	case <-time.After(120 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("dtrd did not listen within 120s; see %s", logPath)
	}
	for {
		code, _, err := d.do("GET", "/healthz", nil)
		if err == nil && code == http.StatusOK {
			return d, time.Since(t0), nil
		}
		if time.Since(t0) > 150*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("dtrd /healthz not ready (status %d, %v)", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// addrWatcher copies the daemon's stdout to its log and reports the
// address from its "listening on" line.
type addrWatcher struct {
	w    io.Writer
	addr chan string
	mu   sync.Mutex
	line []byte
	sent bool
}

func (a *addrWatcher) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.sent {
		a.line = append(a.line, p...)
		sc := bufio.NewScanner(bytes.NewReader(a.line))
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				a.addr <- strings.Fields(rest)[0]
				a.sent, a.line = true, nil
				break
			}
		}
	}
	return a.w.Write(p)
}

// do sends one request and reads the whole response, so the connection
// is reused by the next call.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line")
}

// stop sends SIGTERM (dtrd drains and exits), kills the process if it
// has not exited after 30s, and waits until it is reaped. Later calls
// return the same exit status.
func (d *daemon) stop() error {
	d.once.Do(func() {
		d.client.CloseIdleConnections()
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(30 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
		d.log.Close()
		daemonsMu.Lock()
		delete(daemons, d)
		daemonsMu.Unlock()
	})
	return d.err
}
