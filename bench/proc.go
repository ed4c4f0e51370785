package main

import (
	"bytes"
	"encoding/json"
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

	"xrefine/internal/obs"
)

// clockTick is the kernel's USER_HZ, the unit of the CPU fields of
// /proc/<pid>/stat; it is 100 on every Linux ABI Go supports.
const clockTick = 100

// children tracks every xserve this process started, so that any exit
// path — failure, panic, signal, the global deadline — can kill them.
var children struct {
	sync.Mutex
	live map[*xserve]bool
}

func killAll() {
	children.Lock()
	var all []*xserve
	for s := range children.live {
		all = append(all, s)
	}
	children.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// buildXserve compiles the shipped server once into dir. The package is
// named by import path, so the benchmark module's replace directive is the
// only thing that locates the repository.
func buildXserve(dir string) (string, error) {
	bin := filepath.Join(dir, "xserve")
	cmd := exec.Command("go", "build", "-o", bin, "xrefine/cmd/xserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build xserve: %v\n%s", err, out)
	}
	return bin, nil
}

// xserve is one running server process.
type xserve struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	stderr   bytes.Buffer
	done     chan struct{} // closed once the process has been waited for
	client   *http.Client
}

// freePort asks the kernel for an unused loopback port. The port is
// released before xserve binds it; startServer retries if something else
// takes it in between.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer boots xserve with args on two ephemeral ports and returns
// once /healthz answers. -pprof is on only so that MemStats can be read;
// every other flag is at its default.
func startServer(bin string, args []string) (*xserve, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := startOnce(bin, args)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func startOnce(bin string, args []string) (*xserve, error) {
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	wireAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &xserve{
		httpAddr: httpAddr,
		wireAddr: wireAddr,
		done:     make(chan struct{}),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
		},
	}
	full := append(append([]string(nil), args...), "-addr", httpAddr, "-wire", wireAddr, "-pprof")
	s.cmd = exec.Command(bin, full...)
	s.cmd.Stdout = &s.stderr
	s.cmd.Stderr = &s.stderr
	// The kernel kills the child if this process dies without running its
	// own cleanup (SIGKILL from a supervisor).
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start xserve: %w", err)
	}
	children.Lock()
	if children.live == nil {
		children.live = map[*xserve]bool{}
	}
	children.live[s] = true
	children.Unlock()
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed server carries no information
		close(s.done)
	}()

	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-s.done:
			s.forget()
			return nil, fmt.Errorf("xserve exited during start-up:\n%s", s.stderr.String())
		default:
		}
		if _, err := s.health(); err == nil {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("xserve not healthy after 20s:\n%s", s.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *xserve) forget() {
	children.Lock()
	delete(children.live, s)
	children.Unlock()
}

// stop drains the server with SIGTERM and falls back to SIGKILL; it
// returns once the process has ended.
func (s *xserve) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.client.CloseIdleConnections()
	s.forget()
}

// kill ends the server with SIGKILL — no drain, no flush — and waits.
func (s *xserve) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
	s.client.CloseIdleConnections()
	s.forget()
}

func (s *xserve) url(path string) string { return "http://" + s.httpAddr + path }

// get fetches an ops endpoint and returns the body of a 200 answer.
func (s *xserve) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.url(path))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// healthInfo is the part of /healthz the benchmark reads.
type healthInfo struct {
	Epoch uint64 `json:"epoch"`
}

func (s *xserve) health() (healthInfo, error) {
	var h healthInfo
	body, err := s.get("/healthz")
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(body, &h)
}

// memCounters are the cumulative allocation counters of the server's
// runtime.MemStats.
type memCounters struct{ mallocs, totalAlloc float64 }

// mem reads MemStats from the text form of the allocs profile, whose
// trailer prints them as "# Name = value" lines.
func (s *xserve) mem() (memCounters, error) {
	body, err := s.get("/debug/pprof/allocs?debug=1")
	if err != nil {
		return memCounters{}, err
	}
	var m memCounters
	if m.mallocs, err = trailerValue(body, "\n# Mallocs = "); err != nil {
		return m, err
	}
	m.totalAlloc, err = trailerValue(body, "\n# TotalAlloc = ")
	return m, err
}

func trailerValue(body []byte, prefix string) (float64, error) {
	i := bytes.Index(body, []byte(prefix))
	if i < 0 {
		return 0, fmt.Errorf("allocs profile has no %q line", strings.TrimSpace(prefix))
	}
	rest := body[i+len(prefix):]
	if j := bytes.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	return strconv.ParseFloat(strings.TrimSpace(string(rest)), 64)
}

// parseFamilies reads a Prometheus text exposition and sums the samples of
// each name (histogram _sum and _count samples keep their own names).
func parseFamilies(r io.Reader) (map[string]float64, error) {
	exp, err := obs.ParsePrometheus(r)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range exp.Samples {
		out[m.Name] += m.Value
	}
	return out, nil
}

// cpuSeconds is utime+stime of the server from /proc/<pid>/stat.
func (s *xserve) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat format: %q", b)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat format: %q", b)
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMB is VmHWM, the process's resident-set high-water mark.
func (s *xserve) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// selfCPUSeconds is this process's own CPU time: the load generator's.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
