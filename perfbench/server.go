package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one served process on a data directory.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	dir  string
	done chan struct{} // closed when the process has exited
	err  error         // exit status, valid after done
}

// startServer spawns served on dir with -rows 0 and every other flag at
// its default. stderr goes to dir/../served.log.
func startServer(bin, dir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(filepath.Dir(dir), "served.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dir, "-rows", "0")
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies, the kernel kills served with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting served: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, dir: dir, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		logf.Close()
		close(s.done)
	}()
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// kill sends SIGKILL and waits for the process to end.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-s.done
}

func (s *server) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// waitReady polls /healthz until the server answers.
func (s *server) waitReady(c *client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if s.exited() {
			return fmt.Errorf("served exited during start: %v", s.err)
		}
		if _, status, err := c.get("/healthz"); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("served did not answer /healthz in time")
}

// cpuTicks returns served's user+system CPU time in clock ticks.
func (s *server) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return u + st, nil
}

// hostCPU returns the machine's total and stolen CPU time in clock
// ticks, from the first line of /proc/stat.
func hostCPU() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

// clockTick is USER_HZ, 100 on every Linux this runs on.
const clockTick = 10 * time.Millisecond

// peakRSSMB returns served's VmHWM in MB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// client is one keep-alive connection to a server.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

// post sends body and returns the response body, valid until the next
// call on this client.
func (c *client) post(path string, body []byte) ([]byte, int, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	return c.read(resp, err)
}

func (c *client) get(path string) ([]byte, int, error) {
	resp, err := c.hc.Get(c.base + path)
	return c.read(resp, err)
}

func (c *client) read(resp *http.Response, err error) ([]byte, int, error) {
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return nil, resp.StatusCode, err
	}
	return c.buf.Bytes(), resp.StatusCode, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do posts and turns a non-200 status into an error.
func (c *client) do(path string, body []byte) ([]byte, error) {
	b, status, err := c.post(path, body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, status, truncate(b))
	}
	return b, nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}
