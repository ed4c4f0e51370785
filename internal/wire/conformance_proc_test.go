//go:build linux

package wire

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"xrefine/internal/datagen"
	"xrefine/internal/obs"
)

// The process cells boot the real cmd/xserve the way the benchmark does
// (ephemeral ports, a parent-death signal, race-built when this test
// binary is) and cover what only a process shows: the signal drain, a
// kill -9 and restart, the ops surfaces of a chaos-armed replicated
// router, the command-line tools around the server, and the docs' lists
// of flags and routes.

func init() { processCells = runProcessCells }

func runProcessCells(t *testing.T, m *matrix) {
	bin := buildTools(t)
	xmlPath := filepath.Join(t.TempDir(), "dblp.xml")
	f, err := os.Create(xmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := datagen.DBLP(f, confCorpus); err != nil {
		t.Fatal(err)
	}
	f.Close()
	t.Run("drain", func(t *testing.T) { drainCell(t, m, bin, xmlPath) })
	t.Run("restart", func(t *testing.T) { restartCell(t, m, bin, xmlPath) })
	t.Run("chaos-ops", func(t *testing.T) { chaosOpsCell(t, m, bin, xmlPath) })
}

// buildTools builds xserve, with the race detector when this binary has
// it, and the tools the cells drive into one directory.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir() + string(os.PathSeparator)
	for _, pkgs := range [][]string{{"xrefine/cmd/xserve"}, {"xrefine/cmd/xgen", "xrefine/cmd/xrefine", "xrefine/cmd/xstat"}} {
		args := []string{"build", "-o", dir}
		if raceEnabled && pkgs[0] == "xrefine/cmd/xserve" {
			args = append(args, "-race")
		}
		if out, err := exec.Command("go", append(args, pkgs...)...).CombinedOutput(); err != nil {
			t.Fatalf("go build: %v\n%s", err, out)
		}
	}
	return dir
}

// tool runs one of the built command-line tools and returns its stdout.
func tool(t *testing.T, bin, name string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, name), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, stderr.String())
	}
	return stdout.String()
}

// xserve is one running server process.
type xserve struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	wire    string
	logPath string
	done    chan struct{}
	client  *http.Client
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// startXserve boots xserve on two ephemeral ports and returns once
// /healthz answers; a port taken between pick and bind is retried. The
// cleanup kills the process and fails the test if its log reports a race.
func startXserve(t *testing.T, bin string, env []string, args ...string) *xserve {
	t.Helper()
	for attempt := 0; ; attempt++ {
		s := &xserve{
			wire:    freeAddr(t),
			logPath: filepath.Join(t.TempDir(), "xserve.log"),
			done:    make(chan struct{}),
			client:  &http.Client{Timeout: 30 * time.Second},
		}
		httpAddr := freeAddr(t)
		s.base = "http://" + httpAddr
		logf, err := os.Create(s.logPath)
		if err != nil {
			t.Fatal(err)
		}
		s.cmd = exec.Command(filepath.Join(bin, "xserve"), append(args, "-addr", httpAddr, "-wire", s.wire)...)
		s.cmd.Env = append(os.Environ(), env...)
		s.cmd.Stdout, s.cmd.Stderr = logf, logf
		s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := s.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		logf.Close()
		go func() { s.cmd.Wait(); close(s.done) }()
		t.Cleanup(func() {
			s.kill()
			if strings.Contains(s.log(t), "WARNING: DATA RACE") {
				t.Errorf("xserve %v reported a data race:\n%s", args, s.log(t))
			}
		})
		if s.waitHealthy() {
			return s
		}
		s.kill()
		if attempt == 2 || !strings.Contains(s.log(t), "address already in use") {
			t.Fatalf("xserve %v never became healthy:\n%s", args, s.log(t))
		}
	}
}

func (s *xserve) waitHealthy() bool {
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		select {
		case <-s.done:
			return false
		default:
		}
		if resp, err := s.client.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
	}
	return false
}

func (s *xserve) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

func (s *xserve) log(t *testing.T) string {
	raw, err := os.ReadFile(s.logPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// get fetches path and fails the test unless it answers 200.
func (s *xserve) get(t *testing.T, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// deployment serves the cells' script over the network: HTTP through a
// handler that forwards to the live listener, wire on a fresh connection.
func (s *xserve) deployment(t *testing.T) *deployment {
	t.Helper()
	c, err := Dial(s.wire, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &deployment{h: s, c: c}
}

// ServeHTTP forwards a request to the live server and copies its answer.
func (s *xserve) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequest(r.Method, s.base+r.URL.RequestURI(), r.Body)
	if err == nil {
		var resp *http.Response
		if resp, err = s.client.Do(req); err == nil {
			defer resp.Body.Close()
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
			return
		}
	}
	http.Error(w, err.Error(), http.StatusBadGateway)
}

// checkExposition parses a /metrics body with the in-tree exposition
// parser, checks every histogram, and requires the named families.
func checkExposition(t *testing.T, body string, want ...string) {
	t.Helper()
	exp, err := obs.ParsePrometheus(strings.NewReader(body))
	if err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}
	if err := exp.CheckHistograms(); err != nil {
		t.Errorf("bad histogram: %v", err)
	}
	have := map[string]bool{}
	for _, f := range exp.Families() {
		have[f] = true
	}
	if len(have) < 12 {
		t.Errorf("only %d metric families", len(have))
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("exposition lacks family %s", w)
		}
	}
}

// drainCell serves a monolith on both surfaces with every query traced:
// the script over the network and through `xrefine search -wire`, the
// explain tree, the engine's exposition, the slow log, the docs' lists of
// flags and routes, and a SIGTERM drain with both surfaces up.
func drainCell(t *testing.T, m *matrix, bin, xmlPath string) {
	s := startXserve(t, bin, nil, "-xml", xmlPath, "-slowlog", "1ns")
	d := s.deployment(t)
	m.runScript(t, d, m.cold, false)
	checkRejects(t, d)
	for _, q := range script {
		if got, want := tool(t, bin, "xrefine", "search", "-wire", s.wire, "-k", "3", q), m.cold.body(t, q, 3); got != want {
			t.Errorf("xrefine search -wire %q diverges from the reference\n got: %s\nwant: %s", q, got, want)
		}
	}
	if body := s.get(t, "/search?q=online+databse&explain=1"); !strings.Contains(body, `"name": "query"`) {
		t.Errorf("explain=1 carries no root query span: %s", body)
	}
	if body := s.get(t, "/search?q=online+databse"); strings.Contains(body, `"explain"`) {
		t.Error("a query without explain=1 carries an explain tree")
	}
	checkExposition(t, s.get(t, "/metrics"), "xrefine_engine_queries_total", "xrefine_engine_query_seconds",
		"xrefine_refine_partitions_total", "xrefine_slca_calls_total", "xrefine_index_list_loads_total", "xrefine_http_requests_total")
	if body := s.get(t, "/debug/slowlog"); !strings.Contains(body, `"entries"`) {
		t.Errorf("slowlog: %s", body)
	}
	checkDocs(t, bin)

	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		t.Fatal("xserve did not exit within 30s of SIGTERM")
	}
	if !s.cmd.ProcessState.Success() || !strings.Contains(s.log(t), "drained cleanly") {
		t.Errorf("SIGTERM drain: %v\n%s", s.cmd.ProcessState, s.log(t))
	}
}

// restartCell is the live-update drill: readers query while the update
// script streams into POST /update, its last batch inserting the sentinel
// term; then kill -9 and a restart that must stand at the acknowledged
// epoch, find the sentinel, answer the script like the rebuilt reference,
// and leave a store xstat reads at that epoch.
func restartCell(t *testing.T, m *matrix, bin, xmlPath string) {
	store := filepath.Join(t.TempDir(), "dblp.kv")
	tool(t, bin, "xrefine", "index", "-xml", xmlPath, "-index", store, "-with-doc")
	s := startXserve(t, bin, nil, "-index", store, "-live", "-max-inflight", "64")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if code, body := httpSearch(t, s, script[(r+n)%len(script)], -1); code != http.StatusOK {
					errs <- fmt.Errorf("reader %d: /search = %d %s", r, code, body)
					return
				}
			}
		}(r)
	}
	m.update(t, s.deployment(t), 0, true)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("a reader failed beside POST /update: %v", err)
	}
	if !strings.Contains(s.get(t, "/metrics"), "\nxrefine_mutate_applied_batches_total") {
		t.Error("/metrics lacks xrefine_mutate_applied_batches_total")
	}

	s.kill()
	s = startXserve(t, bin, nil, "-index", store, "-live", "-max-inflight", "64")
	d := s.deployment(t)
	epoch := uint64(len(m.batches))
	checkEpoch(t, d.h, epoch, 0, true)
	if body := s.get(t, "/search?k=1&q="+sentinel); !strings.Contains(body, `"need_refine": false`) || !strings.Contains(body, `"id": "`) {
		t.Errorf("the last batch's sentinel is not searchable after restart: %s", body)
	}
	m.runScript(t, d, m.updated, false)
	checkRejects(t, d)
	s.kill()

	if out := tool(t, bin, "xstat", "-index", store); !strings.Contains(out, fmt.Sprintf("epoch:       %d\n", epoch)) {
		t.Errorf("xstat -index after restart:\n%s", out)
	}
	if out := tool(t, bin, "xstat", "-storage", "-index", store); !strings.Contains(out, "backend:") {
		t.Errorf("xstat -storage after restart:\n%s", out)
	}
}

// chaosOpsCell serves an xgen-written 2×2 replicated layout with seeded
// chaos armed, hedging and every query traced, and checks the script and
// the ops surfaces: the replica table, both expositions, an exemplar that
// resolves, a hedge-fire event and the slow log.
func chaosOpsCell(t *testing.T, m *matrix, bin, xmlPath string) {
	dir := filepath.Join(t.TempDir(), "shards")
	tool(t, bin, "xgen", "-kind", "shards", "-xml", xmlPath, "-shards", "2", "-replicas", "2", "-shard-dir", dir)
	if _, err := os.Stat(filepath.Join(dir, "shard-0.r1.kv")); err != nil {
		t.Fatal(err)
	}
	// GOMAXPROCS above the core count lets the hedge timer preempt a
	// CPU-bound scan on a small machine.
	s := startXserve(t, bin, []string{"GOMAXPROCS=4"}, "-shards", dir, "-replicas", "2", "-hedge-after", "100us",
		"-chaos", "rate=0.01,jitter=1ms-3ms,seed=7", "-trace-sample", "1", "-slowlog", "1ns")
	d := s.deployment(t)
	m.runScript(t, d, m.cold, true)
	checkRejects(t, d)

	cases, err := datagen.Workload(m.doc, datagen.WorkloadConfig{Seed: 9, Queries: 40})
	if err != nil {
		t.Fatal(err)
	}
	hedged := false
	for _, c := range cases {
		s.get(t, "/search?q="+url.QueryEscape(strings.Join(c.Corrupted, " ")))
		if hedged = strings.Contains(s.get(t, "/debug/events?kind=hedge-fire&limit=1"), `"hedge-fire"`); hedged {
			break
		}
	}
	if !hedged {
		t.Errorf("no hedge-fire event after %d workload queries", len(cases))
	}

	if h := s.get(t, "/healthz"); strings.Count(h, `"replica": `) != 4 || !strings.Contains(h, `"replicas_total": 4`) ||
		!strings.Contains(h, `"shards": 2`) || !strings.Contains(h, `"availability_burn"`) {
		t.Errorf("healthz lacks the 2x2 replica table or the SLO report: %s", h)
	}
	checkExposition(t, s.get(t, "/metrics"), "xrefine_replica_scans_total", "xrefine_replica_hedges_total",
		"xrefine_replica_retries_total", "xrefine_replica_quarantined", "xrefine_replica_breaker_open",
		"xrefine_shard_scans_total", "xrefine_replica_attempt_seconds", "xrefine_build_info", "xrefine_uptime_seconds",
		"xrefine_slo_availability_burn_5m", "xrefine_slo_latency_burn_1h", "xrefine_http_requests_total")
	om := s.get(t, "/metrics?format=openmetrics")
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Error("OpenMetrics exposition does not end in # EOF")
	}
	checkExposition(t, om, "xrefine_replica_attempt_seconds", "xrefine_http_request_seconds")
	id := regexp.MustCompile(`trace_id="([0-9a-f]+)"`).FindStringSubmatch(om)
	if id == nil {
		t.Fatal("no exemplar trace_id in the OpenMetrics exposition")
	}
	if body := s.get(t, "/debug/trace/"+id[1]); !strings.Contains(body, `"trace"`) {
		t.Errorf("exemplar %s resolves to no span tree: %s", id[1], body)
	}
	if body := s.get(t, "/debug/events?trace_id="+id[1]); !strings.Contains(body, `"admit"`) {
		t.Errorf("exemplar %s has no admit event: %s", id[1], body)
	}
	if body := s.get(t, "/debug/slowlog"); !strings.Contains(body, `"entries"`) {
		t.Errorf("slowlog: %s", body)
	}
}

// checkDocs holds README to the program: every flag `xserve -h` prints is
// named in it, and the routes server.New registers are exactly those the
// server package comment and README list.
func checkDocs(t *testing.T, bin string) {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	help, _ := exec.Command(filepath.Join(bin, "xserve"), "-h").CombinedOutput()
	flags := regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(string(help), -1)
	if len(flags) < 10 {
		t.Fatalf("xserve -h lists %d flags:\n%s", len(flags), help)
	}
	for _, f := range flags {
		if !regexp.MustCompile(`(^|[^\w-])-` + f[1] + `\b`).Match(readme) {
			t.Errorf("README never names xserve flag -%s", f[1])
		}
	}

	src, err := os.ReadFile("../server/server.go")
	if err != nil {
		t.Fatal(err)
	}
	code := string(src[bytes.Index(src, []byte("\npackage server")):])
	var registered []string
	for _, r := range regexp.MustCompile(`route\(http\.Method(Get|Post), "([^"]+)"`).FindAllStringSubmatch(code, -1) {
		registered = append(registered, strings.ToUpper(r[1])+" "+r[2])
	}
	for _, r := range regexp.MustCompile(`HandleFunc\("(/[^"]*/)?[^"]*"`).FindAllStringSubmatch(code, -1) {
		registered = append(registered, "GET "+routeOf(r[0][len(`HandleFunc("`):len(r[0])-1]))
	}
	want := routeSet(registered)
	pkgDoc := regexp.MustCompile(`(?m)^//\t(GET|POST) (\S+)`).FindAllStringSubmatch(string(src[:bytes.Index(src, []byte("\npackage server"))]), -1)
	readmeRoutes := regexp.MustCompile(`\b(GET|POST) (/[\w/<>.-]*)`).FindAllStringSubmatch(string(readme), -1)
	for name, listed := range map[string][][]string{"server.go package comment": pkgDoc, "README": readmeRoutes} {
		var got []string
		for _, r := range listed {
			got = append(got, r[1]+" "+routeOf(r[2]))
		}
		if g := routeSet(got); g != want {
			t.Errorf("%s lists routes\n  %s\nserver.New registers\n  %s", name, g, want)
		}
	}
}

// routeOf reduces a path as written to the route serving it: no query, no
// <placeholder>, and pprof's handlers under their one prefix.
func routeOf(p string) string {
	p, _, _ = strings.Cut(p, "?")
	p, _, _ = strings.Cut(p, "<")
	if strings.HasPrefix(p, "/debug/pprof/") {
		return "/debug/pprof/"
	}
	return p
}

func routeSet(routes []string) string {
	slices.Sort(routes)
	return strings.Join(slices.Compact(routes), " ")
}
