package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bimode/internal/predictor"
	"bimode/internal/serve"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// serveKind is one serve workload: the spec its sessions run and the
// body format they ingest.
type serveKind struct {
	name     string
	spec     string
	columnar bool
}

var (
	// serveText: small snapshot, 13 KB text bodies — ingest is parse- and
	// apply-bound, the journal commit is cheap.
	serveText = serveKind{"serve-text", "bimode:b=11", false}
	// serveColumnar: large snapshot, 3.5 KB BMC1 bodies — ingest is
	// commit-bound, parsing is cheap.
	serveColumnar = serveKind{"serve-columnar", "bimode:b=16", true}
)

func (k serveKind) body(t *sessionTrace, i int) []byte {
	if k.columnar {
		return t.bmc1[i]
	}
	return t.text[i]
}

// Routes of one session, in the order a session calls them.
const (
	routeCreate = iota
	routeIngest
	routeReport
	routeDelete
	numRoutes
)

var routeNames = [numRoutes]string{"create", "ingest", "report", "delete"}

// Headers that carry the client's span to the server-side wrapper, so a
// loopback request's server time becomes a child of its client span.
const (
	hdrSpan    = "X-Bench-Span"
	hdrSession = "X-Bench-Session"
	hdrRoute   = "X-Bench-Route"
)

// instance is one in-process predserve: serve.New on a benchmark-owned
// directory behind a real loopback listener.
type instance struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	dir    string
	served chan error
	// tr receives server-side spans while set; only traced runs install
	// the wrapper that reads it.
	tr atomic.Pointer[tracer]
}

// startInstance brings a server up and waits for its first /readyz 200.
func startInstance(dir string, traced bool, hc *http.Client) (*instance, error) {
	srv, err := serve.New(serve.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	in := &instance{srv: srv, base: "http://" + ln.Addr().String(), dir: dir, served: make(chan error, 1)}
	h := srv.Handler()
	if traced {
		h = in.wrap(h)
	}
	in.hs = &http.Server{Handler: h}
	go func() { in.served <- in.hs.Serve(ln) }()
	resp, err := hc.Get(in.base + "/readyz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/readyz: %s", resp.Status)
		}
	}
	if err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *instance) close() {
	in.hs.Close()
	<-in.served
	in.srv.Close()
}

// wrap records a server-side span around every request that carries a
// client span, while a tracer is installed.
func (in *instance) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := in.tr.Load()
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		if tr == nil || parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		sess, _ := strconv.ParseUint(r.Header.Get(hdrSession), 10, 64)
		tr.do("serve."+r.Header.Get(hdrRoute), parent, sess, 0, func(uint64) { h.ServeHTTP(w, r) })
	})
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
		Timeout:   time.Minute,
	}
}

// routeStats is the client's tally for one route.
type routeStats struct {
	lat       []float64 // ms, requests that returned the wanted status
	attempted int
	refused   int // 429
	other     int // any other status, or a transport error
	respBytes int64
}

// sessionOutcome is one session as the client saw it.
type sessionOutcome struct {
	trace       int
	ok          bool // every request returned 2xx
	ms          float64
	cursor      int
	mispredicts int64
	journalGrow []int64 // session-file growth per acknowledged ingest (traced runs)
}

type loadStats struct {
	routes   [numRoutes]routeStats
	sessions []sessionOutcome
}

func (s *loadStats) merge(o loadStats) {
	for r := range s.routes {
		a, b := &s.routes[r], o.routes[r]
		a.lat = append(a.lat, b.lat...)
		a.attempted += b.attempted
		a.refused += b.refused
		a.other += b.other
		a.respBytes += b.respBytes
	}
	s.sessions = append(s.sessions, o.sessions...)
}

func (s *loadStats) attempted() (n int) {
	for _, r := range s.routes {
		n += r.attempted
	}
	return n
}

func (s *loadStats) failed() (n int) {
	for _, r := range s.routes {
		n += r.refused + r.other
	}
	return n
}

// completed returns the sessions whose every request succeeded.
func (s *loadStats) completed() []sessionOutcome {
	var out []sessionOutcome
	for _, o := range s.sessions {
		if o.ok {
			out = append(out, o)
		}
	}
	return out
}

// client runs whole sessions against one instance.
type client struct {
	hc  *http.Client
	in  *instance
	k   serveKind
	tr  *tracer // nil when untraced
	st  loadStats
	buf bytes.Buffer
}

// call performs one request and tallies it; it returns the body when the
// wanted status came back.
func (c *client) call(route int, method, url string, body []byte, want int, parent, sess uint64) ([]byte, bool) {
	rs := &c.st.routes[route]
	rs.attempted++
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		rs.other++
		return nil, false
	}
	id := c.tr.newID()
	if c.tr != nil {
		req.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
		req.Header.Set(hdrSession, strconv.FormatUint(sess, 10))
		req.Header.Set(hdrRoute, routeNames[route])
	}
	start, t0 := c.tr.since(), time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		rs.other++
		return nil, false
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	c.tr.add(span{ID: id, Parent: parent, Session: sess, Name: "net." + routeNames[route], Start: start, End: c.tr.since()})
	switch {
	case err == nil && resp.StatusCode == want:
		rs.lat = append(rs.lat, ms(d))
		rs.respBytes += int64(c.buf.Len())
		return c.buf.Bytes(), true
	case resp.StatusCode == http.StatusTooManyRequests:
		rs.refused++
	default:
		rs.other++
	}
	return nil, false
}

// session runs one whole session: create, four ingests, report, delete.
// A session with any failed request is kept out of the throughput and
// latency figures but still counts in the failure tally.
func (c *client) session(traces []sessionTrace, n uint64) {
	t := int(n % sessionTraces)
	out := sessionOutcome{trace: t}
	sess := n + 1
	root := c.tr.newID()
	start, t0 := c.tr.since(), time.Now()
	defer func() {
		out.ms = ms(time.Since(t0))
		c.st.sessions = append(c.st.sessions, out)
		c.tr.add(span{ID: root, Session: sess, Name: "bench.session", Start: start, End: c.tr.since()})
	}()

	body, ok := c.call(routeCreate, "POST", c.in.base+"/v1/sessions",
		[]byte(`{"name":"perfbench","specs":["`+c.k.spec+`"]}`), http.StatusCreated, root, sess)
	if !ok {
		return
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		c.st.routes[routeCreate].other++
		return
	}
	url := c.in.base + "/v1/sessions/" + created.ID
	journal := filepath.Join(c.in.dir, created.ID+".session")
	size := c.journalSize(journal)
	ok = true
	for i := 0; i < ingestsPerSession && ok; i++ {
		_, ok = c.call(routeIngest, "POST", url+"/branches", c.k.body(&traces[t], i), http.StatusOK, root, sess)
		if ok && c.tr != nil {
			grown := c.journalSize(journal)
			out.journalGrow = append(out.journalGrow, grown-size)
			size = grown
		}
	}
	if ok {
		body, ok = c.call(routeReport, "GET", url, nil, http.StatusOK, root, sess)
	}
	if ok {
		var rep serve.Report
		if err := json.Unmarshal(body, &rep); err != nil || len(rep.Specs) != 1 {
			c.st.routes[routeReport].other++
			ok = false
		} else {
			out.cursor, out.mispredicts = rep.Cursor, rep.Specs[0].Mispredicts
		}
	}
	_, deleted := c.call(routeDelete, "DELETE", url, nil, http.StatusOK, root, sess)
	out.ok = ok && deleted
}

func (c *client) journalSize(path string) int64 {
	if c.tr == nil {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// reserve sizes the tallies for about n sessions up front. The tallies
// are the benchmark's own memory and count in max_rss_mb. Grown by
// appending, they double at moments that vary from run to run, and the
// peak resident set moves with them.
func (s *loadStats) reserve(n int) {
	for r := range s.routes {
		per := 1
		if r == routeIngest {
			per = ingestsPerSession
		}
		s.routes[r].lat = make([]float64, 0, n*per)
	}
	s.sessions = make([]sessionOutcome, 0, n)
}

// loop is the closed loop: clients clients each run whole sessions back
// to back until the deadline passes or limit sessions have started;
// expect is about how many sessions that will be. It returns the merged
// tally and the wall time until the last client finished.
func loop(hc *http.Client, in *instance, k serveKind, traces []sessionTrace, tr *tracer,
	until time.Time, limit uint64, expect int, next *atomic.Uint64) (loadStats, time.Duration) {
	in.tr.Store(tr)
	defer in.tr.Store(nil)
	cs := make([]*client, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range cs {
		cs[i] = &client{hc: hc, in: in, k: k, tr: tr}
		cs[i].st.reserve(expect/clients + 1)
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(until) {
				n := next.Add(1) - 1
				if n >= limit {
					return
				}
				c.session(traces, n)
			}
		}(cs[i])
	}
	wg.Wait()
	wall := time.Since(t0)
	st := cs[0].st
	for _, c := range cs[1:] {
		st.merge(c.st)
	}
	return st, wall
}

// setupReps is how often set-up is repeated; setup_s is the median.
const setupReps = 41

// setupServe times serve.New + listener + first /readyz 200, setupReps
// times on fresh directories, and keeps the last instance.
func setupServe(dir string, traced bool, hc *http.Client) (*instance, []float64, error) {
	var times []float64
	var in *instance
	for i := 0; i < setupReps; i++ {
		if in != nil {
			in.close()
		}
		d := filepath.Join(dir, fmt.Sprintf("serve-%d", i))
		runtime.GC() // every repetition starts from the same heap
		t0 := time.Now()
		var err error
		in, err = startInstance(d, traced, hc)
		if err != nil {
			return nil, nil, fmt.Errorf("starting predserve: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return in, times, nil
}

func runServe(cfg config, k serveKind) (*report, error) {
	rep := newReport()
	traces, err := makeSessionTraces(cfg.seed, k.spec)
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	in, setup, err := setupServe(cfg.dir, cfg.traced, hc)
	if err != nil {
		return nil, err
	}
	defer in.close()

	var next atomic.Uint64
	warm, warmWall := loop(hc, in, k, traces, nil, time.Now().Add(cfg.warmup()), 1<<62, 0, &next)
	// expect sizes a loop's tallies from the warm-up's session rate, with
	// a quarter to spare.
	expect := func(s float64) int { return int(1.25 * s * float64(len(warm.sessions)) / warmWall.Seconds()) }

	var all loadStats
	if !cfg.traced {
		st, wall := loop(hc, in, k, traces, nil, time.Now().Add(secs(cfg.seconds)), 1<<62, expect(cfg.seconds), &next)
		all = st
		done := st.completed()
		ingest := st.routes[routeIngest].lat
		var sessMS []float64
		for _, o := range done {
			sessMS = append(sessMS, o.ms)
		}
		rep.set("setup_s", median(setup), "s")
		rep.set("branches_per_s", float64(len(done)*sessionRecords)/wall.Seconds(), "branches/s")
		rep.set("request_p50_ms", percentile(ingest, 50), "ms")
		rep.set("request_p95_ms", percentile(ingest, 95), "ms")
		rep.notef("sessions: %d completed of %d in %.2fs = %.1f sessions/s; %s %s",
			len(done), len(st.sessions), wall.Seconds(), float64(len(done))/wall.Seconds(),
			pct("session_p50", sessMS, 50), pct("session_p95", sessMS, 95))
		rep.notef("ingest: %s %s", pct("p50", ingest, 50), pct("p95", ingest, 95))
		rep.notef("setup: median of %d = %.3f ms", len(setup), median(setup)*1e3)
	} else {
		tr := newTracer()
		var traced loadStats
		rates := map[bool][]float64{}
		// Untraced and traced segments alternate, so the tracing overhead
		// is measured under the same conditions as the traced numbers.
		for seg := 0; seg < traceSegments; seg++ {
			on := seg%2 == 1
			var segTr *tracer
			if on {
				segTr = tr
			}
			segSecs := cfg.seconds / traceSegments
			st, wall := loop(hc, in, k, traces, segTr, time.Now().Add(secs(segSecs)), 1<<62, expect(segSecs), &next)
			rates[on] = append(rates[on], float64(len(st.completed())*sessionRecords)/wall.Seconds())
			all.merge(st)
			if on {
				traced.merge(st)
			}
		}
		rep.set("tracing.overhead_share", 1-median(rates[true])/median(rates[false]), "ratio")
		serveProbes(rep, tr, hc, in, k, traces)
		if err := simCensus(rep, tr, cfg.seed); err != nil {
			return nil, err
		}
		rep.spans = tr.all()
		routeMetrics(rep, rep.spans, traced)
		layerMetrics(rep, rep.spans)
	}
	rep.attempted, rep.failed = all.attempted(), all.failed()
	routeNotes(rep, all)
	checkSessions(rep, all.completed(), traces)
	return rep, nil
}

// traceSegments is how many alternating untraced/traced segments a
// traced serve run is cut into.
const traceSegments = 8

// routeNotes prints the per-route failure accounting and percentiles,
// each with its sample count.
func routeNotes(rep *report, st loadStats) {
	for r, rs := range st.routes {
		rep.notef("route %-6s attempted=%d ok=%d refused429=%d failed=%d %s %s %s",
			routeNames[r], rs.attempted, len(rs.lat), rs.refused, rs.other,
			pct("p50", rs.lat, 50), pct("p95", rs.lat, 95), pct("p99", rs.lat, 99))
	}
}

// routeMetrics reports the serve-route layer from a traced loop: server
// side handler time per route, counts and failures per route, and the
// exact per-request sizes later changes cite.
func routeMetrics(rep *report, spans []span, st loadStats) {
	for r, name := range routeNames {
		lat := named(spans, "serve."+name)
		for _, p := range []float64{50, 95, 99} {
			rep.set(fmt.Sprintf("serve.%s_p%d_ms", name, int(p)), percentile(lat, p), "ms")
		}
		rs := st.routes[r]
		rep.set("serve."+name+"_count", float64(len(lat)), "count")
		rep.set("serve."+name+"_failed", float64(rs.refused+rs.other), "count")
	}
	done := st.completed()
	var sessMS, grow []float64
	cursors := 0
	// Journal growth comes from the first completed session on each
	// trace: every session on a trace journals the same bytes, so the
	// figure repeats exactly for a seed however many sessions ran.
	seen := map[int]bool{}
	for _, o := range done {
		cursors += o.cursor
		sessMS = append(sessMS, o.ms)
		if !seen[o.trace] && len(o.journalGrow) == ingestsPerSession {
			seen[o.trace] = true
			for _, g := range o.journalGrow {
				grow = append(grow, float64(g))
			}
		}
	}
	rep.set("serve.session_p50_ms", percentile(sessMS, 50), "ms")
	rep.set("serve.session_p95_ms", percentile(sessMS, 95), "ms")
	ing := st.routes[routeIngest]
	rep.set("serve.records_per_ingest", float64(cursors)/float64(len(done)*ingestsPerSession), "count")
	rep.set("serve.response_bytes_per_ingest", float64(ing.respBytes)/float64(len(ing.lat)), "bytes")
	rep.set("serve.journal_bytes_per_ingest", sum(grow)/float64(len(grow)), "bytes")
}

// probeRounds is how many sessions each serve probe runs.
const probeRounds = 12

// serveProbes measures the serve layers the loop cannot separate from
// outside: the journal commit alone (a zero-record ingest), the handler
// without the network (direct ServeHTTP), the network alone (loopback
// minus direct, same bodies), and the body parsers.
func serveProbes(rep *report, tr *tracer, hc *http.Client, in *instance, k serveKind, traces []sessionTrace) {
	h := in.srv.Handler()
	direct := func(method, url string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
		var rd io.Reader = http.NoBody
		if body != nil {
			rd = bytes.NewReader(body)
		}
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, httptest.NewRequest(method, url, rd))
		return w, time.Since(t0)
	}
	create := func() string {
		w, _ := direct("POST", "/v1/sessions", []byte(`{"specs":["`+k.spec+`"]}`))
		var c struct {
			ID string `json:"id"`
		}
		json.Unmarshal(w.Body.Bytes(), &c)
		return c.ID
	}
	var commit, directIngest, loopIngest []float64
	fail := 0
	for round := 0; round < probeRounds; round++ {
		t := &traces[round%sessionTraces]
		// Commit: a zero-record ingest is route + snapshot + journal append.
		id := create()
		direct("POST", "/v1/sessions/"+id+"/branches", k.body(t, 0))
		for i := 0; i < ingestsPerSession; i++ {
			tr.do("serve.commit", 0, 0, 0, func(uint64) {
				w, d := direct("POST", "/v1/sessions/"+id+"/branches", nil)
				commit = append(commit, ms(d))
				if w.Code != http.StatusOK {
					fail++
				}
			})
		}
		direct("DELETE", "/v1/sessions/"+id, nil)

		// The same four bodies through ServeHTTP and through loopback,
		// alternating which goes first.
		viaDirect := func() {
			id := create()
			for i := 0; i < ingestsPerSession; i++ {
				tr.do("serve.direct_ingest", 0, 0, ingestRecords, func(uint64) {
					w, d := direct("POST", "/v1/sessions/"+id+"/branches", k.body(t, i))
					directIngest = append(directIngest, ms(d))
					if w.Code != http.StatusOK {
						fail++
					}
				})
			}
			direct("DELETE", "/v1/sessions/"+id, nil)
		}
		viaLoopback := func() {
			id := create()
			c := &client{hc: hc, in: in, k: k}
			for i := 0; i < ingestsPerSession; i++ {
				tr.do("bench.loopback_ingest", 0, 0, ingestRecords, func(uint64) {
					t0 := time.Now()
					if _, ok := c.call(routeIngest, "POST", in.base+"/v1/sessions/"+id+"/branches", k.body(t, i), http.StatusOK, 0, 0); !ok {
						fail++
					}
					loopIngest = append(loopIngest, ms(time.Since(t0)))
				})
			}
			direct("DELETE", "/v1/sessions/"+id, nil)
		}
		if round%2 == 0 {
			viaDirect()
			viaLoopback()
		} else {
			viaLoopback()
			viaDirect()
		}
	}
	rep.set("serve.commit_p50_ms", median(commit), "ms")
	rep.set("serve.handler_ingest_p50_ms", median(directIngest), "ms")
	rep.set("net.loopback_overhead_ms", median(loopIngest)-median(directIngest), "ms")
	rep.notef("serve probes (%s): %s %s %s", k.spec, pct("commit_p50", commit, 50),
		pct("direct_ingest_p50", directIngest, 50), pct("loopback_ingest_p50", loopIngest, 50))

	// The body parsers, over this run's session bodies.
	var textRecs, textNS, bmcRecs, bmcNS float64
	for i := range traces {
		for b := 0; b < ingestsPerSession; b++ {
			body := traces[i].text[b]
			tr.do("trace.TextScanner.Scan", 0, 0, ingestRecords, func(uint64) {
				t0 := time.Now()
				sc := trace.NewTextScanner(bytes.NewReader(body))
				n := 0
				for sc.Scan() {
					n++
				}
				textNS += float64(time.Since(t0))
				textRecs += float64(n)
				if sc.Err() != nil || n != ingestRecords {
					fail++
				}
			})
			data := traces[i].bmc1[b]
			tr.do("trace.Decode", 0, 0, ingestRecords, func(uint64) {
				t0 := time.Now()
				m, err := trace.Decode(data)
				bmcNS += float64(time.Since(t0))
				if err != nil || m.Len() != ingestRecords {
					fail++
					return
				}
				bmcRecs += float64(m.Len())
			})
		}
	}
	if fail > 0 {
		rep.check("serve probes", fmt.Errorf("%d probe calls failed", fail))
	}

	// Snapshot size per served spec: what every acknowledged ingest
	// journals today.
	for _, sk := range []serveKind{serveText, serveColumnar} {
		p, err := zoo.New(sk.spec)
		if sn, ok := p.(predictor.Snapshotter); ok && err == nil {
			rep.set("serve.snapshot_bytes."+strings.NewReplacer(":", "_", "=", "").Replace(sk.spec), float64(len(sn.Snapshot(nil))), "bytes")
		}
	}
	rep.set("trace.text_scan_ns_per_rec", textNS/textRecs, "ns")
	rep.set("trace.bmc1_body_decode_ns_per_rec", bmcNS/bmcRecs, "ns")
}
