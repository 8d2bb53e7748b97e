package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"swift/internal/benchprog"
	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/query"
	"swift/internal/store"
	"swift/internal/swiftd"
)

// The serve-edits traffic: an open loop at a fixed rate against an
// in-process swiftd, replaying edit sessions over twelve toba-s-shaped
// programs. Each round of twenty requests posts three new versions
// (result-cache misses that run the warm path), sends one /query batch
// and sixteen /analyze requests for versions already analysed
// (result-cache hits). Misses and queries fill the top fifth of the
// latency distribution, so p90 falls in their middle and p50 inside the
// hits, away from the boundary between them. A query batch's cost varies
// more between seeds than a miss's, so misses make up most of that fifth.
// The slots are 200 ms apart and a heavy request takes about half that,
// so a hit seldom shares the machine with one.
const (
	serveRate  = 5 // requests per second offered
	serveShape = "toba-s"
	sessions   = 12
	queryBatch = 4
	// sloLimit is the latency limit of the serve-edits SLO; BENCHMARK.json
	// states the same figure in the workload's description.
	sloLimit = 500 * time.Millisecond
	// hitLag is how many slots a version must have been posted before a
	// hit or query may name it, so its analysis has finished.
	hitLag = 8
)

type reqKind int

const (
	kindHit reqKind = iota
	kindMiss
	kindQuery
)

var roundPlan = []reqKind{
	kindMiss, kindHit, kindHit, kindHit, kindHit, kindQuery, kindHit, kindHit, kindHit, kindHit,
	kindMiss, kindHit, kindHit, kindHit, kindHit, kindMiss, kindHit, kindHit, kindHit, kindHit,
}

// slot is one scheduled request.
type slot struct {
	kind    reqKind
	version int
	queries []query.Query
	body    []byte
}

// serveState is a set-up serve-edits run: the program versions with their
// references, the request schedule and a running server over a fresh
// store.
type serveState struct {
	versions []*program // the bases, then one version per miss
	plan     []slot

	dir     string
	st      *store.Store
	httpSrv *http.Server
	served  chan error
	url     string
	client  *http.Client // priming and /stats

	mu      sync.Mutex
	digests map[int]string // version → first tablesDigest served
}

// session replays one program's edit stream: the first event applies two
// edits, then events alternate between reverting the oldest applied edit
// and applying the next, so the live edit set is always a window [lo, hi)
// of the stream, no window repeats, and half the new versions are
// reverts.
type session struct {
	base   benchprog.Profile
	edits  []benchprog.Edit
	lo, hi int
	events int
}

func (s *session) next() (lo, hi int) {
	switch {
	case s.events == 0:
		s.hi = 2
	case s.events%2 == 1:
		s.lo++
	default:
		s.hi++
	}
	s.events++
	return s.lo, s.hi
}

// distinctTargets keeps the first edit of each edited procedure, so the
// edits of a window apply in any combination.
func distinctTargets(edits []benchprog.Edit) []benchprog.Edit {
	seen := map[[2]string]bool{}
	var out []benchprog.Edit
	for _, e := range edits {
		k := [2]string{e.Class, e.Method}
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

// serveSetup builds the versions and their references, lays out the
// schedule for the given duration, and starts a primed server.
func serveSetup(seed int64, seconds float64, workers int, tmpRoot string) (*serveState, error) {
	rounds := int(serveRate*seconds+float64(len(roundPlan))-1) / len(roundPlan)
	if rounds < 1 {
		rounds = 1
	}
	misses := 0
	for _, k := range roundPlan {
		if k == kindMiss {
			misses += rounds
		}
	}
	s := &serveState{digests: map[int]string{}}

	// Versions: the bases, then one new version per miss.
	gens, err := stratifiedSeeds(seed, "serve-edits", serveShape, 0, sessions, workers)
	if err != nil {
		return nil, err
	}
	var sess [sessions]*session
	for i, gen := range gens {
		p, err := profile(serveShape, gen, 0)
		if err != nil {
			return nil, err
		}
		edits, err := benchprog.EditStream(p, deriveSeed(seed, "serve-edits", "edits", i), 2*misses)
		if err != nil {
			return nil, err
		}
		sess[i] = &session{base: p, edits: distinctTargets(edits)}
		s.versions = append(s.versions, &program{info: programInfo{
			Name: fmt.Sprintf("%s#%d", serveShape, i), Profile: serveShape, GenSeed: gen,
		}})
	}
	type window struct{ sess, lo, hi int }
	windows := make([]window, misses) // the edits of version sessions+m
	for m := range windows {
		i := m % sessions
		lo, hi := sess[i].next()
		if hi > len(sess[i].edits) {
			return nil, fmt.Errorf("serve-edits: session %d ran out of distinct edits", i)
		}
		windows[m] = window{i, lo, hi}
		s.versions = append(s.versions, &program{info: programInfo{
			Name:    fmt.Sprintf("%s#%d[%d:%d]", serveShape, i, lo, hi),
			Profile: serveShape, GenSeed: sess[i].base.Seed,
			Edits: fmt.Sprint(sess[i].edits[lo:hi]),
		}})
	}

	// Sources and references, in parallel; the reference builds stay
	// until the query batches are drawn from them.
	builds := make([]*driver.Build, len(s.versions))
	err = parallel(len(s.versions), workers, func(v int) error {
		p := s.versions[v]
		var err error
		if v < sessions {
			p.src, p.info.Lines, err = printed(sess[v].base)
		} else {
			w := windows[v-sessions]
			p.src, p.info.Lines, err = printed(sess[w.sess].base, sess[w.sess].edits[w.lo:w.hi]...)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", p.info.Name, err)
		}
		p.ref, builds[v], err = buildReference(p.src, "swift", core.DefaultConfig(), seed, &p.info)
		return err
	})
	if err != nil {
		return nil, err
	}

	// The schedule.
	rng := rand.New(rand.NewSource(deriveSeed(seed, "serve-edits", "plan")))
	postedAt := make([]int, len(s.versions)) // slot that posted each version
	for v := range postedAt {
		postedAt[v] = math.MaxInt
	}
	for v := 0; v < sessions; v++ {
		postedAt[v] = -hitLag // analysed during set-up
	}
	nextMiss := 0
	// pick names an analysed version: mostly the newest, sometimes a base
	// (a full revert), otherwise any.
	pick := func(idx int) int {
		var ready []int
		latest := 0
		for v, at := range postedAt {
			if at <= idx-hitLag {
				ready = append(ready, v)
				if at >= postedAt[latest] {
					latest = v
				}
			}
		}
		switch r := rng.Float64(); {
		case r < 0.5:
			return latest
		case r < 0.7:
			return rng.Intn(sessions)
		default:
			return ready[rng.Intn(len(ready))]
		}
	}
	for r := 0; r < rounds; r++ {
		for _, k := range roundPlan {
			idx := len(s.plan)
			sl := slot{kind: k}
			switch k {
			case kindMiss:
				sl.version = sessions + nextMiss
				nextMiss++
				postedAt[sl.version] = idx
			default:
				sl.version = pick(idx)
			}
			req := map[string]any{"source": s.versions[sl.version].src, "engine": "swift"}
			if k == kindQuery {
				qs, err := query.Generate(builds[sl.version], nil, deriveSeed(seed, "serve-edits", "query", idx), queryBatch)
				if err != nil {
					return nil, err
				}
				sl.queries = qs
				req["engine"], req["queries"] = "td", qs
			}
			if sl.body, err = json.Marshal(req); err != nil {
				return nil, err
			}
			s.plan = append(s.plan, sl)
		}
	}

	if err := s.start(tmpRoot); err != nil {
		s.close()
		return nil, err
	}
	// Prime the sessions: analyse each base once and pin its digest to
	// the set-up reference.
	for v := 0; v < sessions; v++ {
		body, err := json.Marshal(map[string]any{"source": s.versions[v].src, "engine": "swift"})
		if err != nil {
			s.close()
			return nil, err
		}
		out := s.do(s.client, slot{kind: kindMiss, version: v, body: body})
		if out.err != nil {
			s.close()
			return nil, fmt.Errorf("serve-edits: priming %s: %w", s.versions[v].info.Name, out.err)
		}
	}
	return s, nil
}

// start opens a fresh store in a new temporary directory under tmpRoot
// and serves swiftd on a loopback port.
func (s *serveState) start(tmpRoot string) error {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "store-")
	if err != nil {
		return err
	}
	s.dir = dir
	if s.st, err = store.Open(dir, 256<<20); err != nil {
		return err
	}
	srv := swiftd.New(s.st, swiftd.Options{
		MaxQueue:   8,
		ReqTimeout: 60 * time.Second,
		Quiet:      true,
		Logger:     log.New(os.Stderr, "", log.LstdFlags),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{}, Timeout: 90 * time.Second}
	s.httpSrv = &http.Server{Handler: srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	return nil
}

// close stops the server, waits for it, closes the store and removes its
// directory.
func (s *serveState) close() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "serve-edits: shutdown: %v\n", err)
		}
		cancel()
		<-s.served
		s.httpSrv = nil
	}
	if s.st != nil {
		if err := s.st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "serve-edits: store close: %v\n", err)
		}
		s.st = nil
	}
	if s.dir != "" {
		if err := os.RemoveAll(s.dir); err != nil {
			fmt.Fprintf(os.Stderr, "serve-edits: removing store: %v\n", err)
		}
		s.dir = ""
	}
}

// outcome is what one request returned.
type outcome struct {
	cached bool
	work   int64
	err    error
}

type analyzeReply struct {
	ErrorSites   []string `json:"errorSites"`
	Err          string   `json:"err"`
	Completed    bool     `json:"completed"`
	Cached       bool     `json:"cached"`
	TablesDigest string   `json:"tablesDigest"`
}

type queryReply struct {
	Answers []query.Answer `json:"answers"`
	Cached  bool           `json:"cached"`
	Work    int64          `json:"work"`
}

// do sends one request and checks its reply against the version's
// reference. Any status but 200 — a shed 429, a 503 or 504, any other
// error status — and any transport error is a failure.
func (s *serveState) do(client *http.Client, sl slot) outcome {
	path := "/analyze"
	if sl.kind == kindQuery {
		path = "/query"
	}
	resp, err := client.Post(s.url+path, "application/json", bytes.NewReader(sl.body))
	if err != nil {
		return outcome{err: err}
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcome{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return outcome{err: fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, blob)}
	}
	ref := s.versions[sl.version].ref
	if sl.kind == kindQuery {
		var qr queryReply
		if err := json.Unmarshal(blob, &qr); err != nil {
			return outcome{err: fmt.Errorf("/query: decoding reply: %w", err)}
		}
		return outcome{cached: qr.Cached, work: qr.Work, err: checkAnswers(ref, sl.queries, qr.Answers)}
	}
	var ar analyzeReply
	if err := json.Unmarshal(blob, &ar); err != nil {
		return outcome{err: fmt.Errorf("/analyze: decoding reply: %w", err)}
	}
	return outcome{cached: ar.Cached, err: s.checkAnalyze(sl.version, ar)}
}

func (s *serveState) checkAnalyze(version int, ar analyzeReply) error {
	if !ar.Completed || ar.Err != "" {
		return fmt.Errorf("/analyze: run did not complete: %s", ar.Err)
	}
	ref := s.versions[version].ref
	if err := ref.check(ar.ErrorSites); err != nil {
		return fmt.Errorf("/analyze: %w", err)
	}
	// A base is analysed cold on an empty store, and every later request
	// for it — a full revert — is served those tables: both must match
	// the set-up reference. Other versions must keep the digest they were
	// first served with.
	if version < sessions {
		return ref.checkDigest(ar.TablesDigest)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	first, ok := s.digests[version]
	if !ok {
		s.digests[version] = ar.TablesDigest
		return nil
	}
	if first != ar.TablesDigest {
		return fmt.Errorf("/analyze: tables digest %.12s, first served %.12s", ar.TablesDigest, first)
	}
	return nil
}

// checkAnswers checks a /query reply: one answer per query, in order, and
// every isError answer equal to the reference verdict.
func checkAnswers(ref verdict, qs []query.Query, answers []query.Answer) error {
	if len(answers) != len(qs) {
		return fmt.Errorf("/query: %d answers for %d queries", len(answers), len(qs))
	}
	for i, a := range answers {
		if a.Query != qs[i] {
			return fmt.Errorf("/query: answer %d is for %v, asked %v", i, a.Query, qs[i])
		}
		if a.Query.Kind == query.KindIsError {
			if err := ref.checkIsError(a.Query.Site, a.Reachable); err != nil {
				return fmt.Errorf("/query: %w", err)
			}
		}
	}
	return nil
}

// serverStats is the part of /stats the benchmark reports.
type serverStats struct {
	ResultHits   int64 `json:"resultHits"`
	ResultMisses int64 `json:"resultMisses"`
	Incremental  struct {
		RestoredRuns  int64 `json:"restoredRuns"`
		SummaryHits   int64 `json:"summaryHits"`
		SummaryMisses int64 `json:"summaryMisses"`
	} `json:"incremental"`
	Query struct {
		SliceMemo struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"sliceMemo"`
	} `json:"query"`
	Robustness struct {
		EngineRuns   int64 `json:"engineRuns"`
		Coalesced    int64 `json:"coalesced"`
		Shed         int64 `json:"shed"`
		InFlightPeak int64 `json:"inFlightPeak"`
	} `json:"robustness"`
	Store store.Stats `json:"store"`
}

func (s *serveState) stats() (serverStats, error) {
	var out serverStats
	resp, err := s.client.Get(s.url + "/stats")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// served is one completed request of the open loop.
type served struct {
	kind            reqKind
	traced          bool
	due, sent, done time.Time
	late            time.Duration
	out             outcome
}

// serveRun is the raw outcome of one open-loop run.
type serveRun struct {
	reqs          []served
	before, after serverStats
	mem           *peakMemory
}

// run replays the schedule open-loop: request i is due at i/serveRate
// seconds, whether or not earlier ones have finished, and is handed to one
// of conns client connections. Latency is timed from the due time. With
// a tracer, every other round is traced: each request there becomes a
// client-side span named after its outcome. The /stats snapshots around
// the run give the server-side deltas.
func (s *serveState) run(conns int, tr *tracer) (*serveRun, error) {
	r := &serveRun{reqs: make([]served, len(s.plan)), mem: newPeakMemory()}
	var err error
	if r.before, err = s.stats(); err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 90 * time.Second}

	jobs := make(chan int, len(s.plan)) // never blocks the generator
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				q := &r.reqs[i]
				q.sent = time.Now()
				q.out = s.do(client, s.plan[i])
				q.done = time.Now()
				r.mem.sample(i / len(roundPlan))
				if q.traced && q.out.err == nil {
					tr.add(spanName(q.kind, q.out), i+1, q.sent, q.done)
				}
			}
		}()
	}
	start := time.Now().Add(20 * time.Millisecond)
	interval := time.Second / serveRate
	for i := range s.plan {
		q := &r.reqs[i]
		q.kind = s.plan[i].kind
		q.traced = tr != nil && (i/len(roundPlan))%2 == 1
		q.due = start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(q.due))
		q.late = time.Since(q.due)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if r.after, err = s.stats(); err != nil {
		return nil, err
	}
	return r, nil
}

func spanName(k reqKind, out outcome) string {
	switch {
	case k == kindQuery:
		return "swiftd.query"
	case out.cached:
		return "swiftd.analyze_hit"
	}
	return "swiftd.analyze_miss"
}

// endToEnd renders the run's end-to-end metrics over every successful
// request.
func (r *serveRun) endToEnd(m map[string]metric) {
	var lat []float64
	var first, last time.Time
	for i, q := range r.reqs {
		if i == 0 {
			first = q.due
		}
		if q.done.After(last) {
			last = q.done
		}
		if q.out.err == nil {
			lat = append(lat, ms(q.done.Sub(q.due)))
		}
	}
	m["latency_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	m["latency_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
	m["throughput_per_s"] = metric{float64(len(lat)) / last.Sub(first).Seconds(), "1/s"}
	m["peak_rss_mb"] = metric{r.mem.mb(), "MB"}
}

// sloMisses counts requests that failed or exceeded sloLimit.
func (r *serveRun) sloMisses() int {
	n := 0
	for _, q := range r.reqs {
		if q.out.err != nil || q.done.Sub(q.due) > sloLimit {
			n++
		}
	}
	return n
}

// layers renders a traced run's per-layer metrics: the client-side spans
// by outcome, the generator's lateness, and the /stats deltas around the
// run.
func (r *serveRun) layers(tr *tracer, m map[string]metric, bases map[string]ratio) {
	self := tr.selfTimes()
	m["swiftd.analyze_hit_ms"] = metric{medianMS(self["swiftd.analyze_hit"]), "ms"}
	m["swiftd.analyze_miss_ms"] = metric{medianMS(self["swiftd.analyze_miss"]), "ms"}
	m["swiftd.query_ms"] = metric{medianMS(self["swiftd.query"]), "ms"}

	// Tracing costs every request the same client-side bookkeeping, so
	// its overhead is read off the most numerous class, the hits.
	var late []float64
	var work int64
	plain, traced := make([][]float64, 1), make([][]float64, 1)
	for _, q := range r.reqs {
		late = append(late, ms(q.late))
		if q.out.err != nil {
			continue
		}
		work += q.out.work
		if q.kind != kindHit || !q.out.cached {
			continue
		}
		if lat := ms(q.done.Sub(q.due)); q.traced {
			traced[0] = append(traced[0], lat)
		} else {
			plain[0] = append(plain[0], lat)
		}
	}
	m["bench.late_p90_ms"] = metric{quantile(late, 0.9), "ms"}
	m["bench.trace_overhead_pct"] = metric{traceOverheadPct(plain, traced), "%"}
	m["query.slice_work"] = metric{float64(work), "count"}

	b, a := r.before, r.after
	hitRatio := func(name string, hits, misses int64) {
		setRatio(m, bases, name, ratio{hits, hits + misses})
	}
	hitRatio("swiftd.result_hit_ratio", a.ResultHits-b.ResultHits, a.ResultMisses-b.ResultMisses)
	hitRatio("driver.summary_hit_ratio", a.Incremental.SummaryHits-b.Incremental.SummaryHits,
		a.Incremental.SummaryMisses-b.Incremental.SummaryMisses)
	hitRatio("store.mem_hit_ratio", a.Store.MemHits-b.Store.MemHits, a.Store.MemMisses-b.Store.MemMisses)
	hitRatio("query.memo_hit_ratio", a.Query.SliceMemo.Hits-b.Query.SliceMemo.Hits,
		a.Query.SliceMemo.Misses-b.Query.SliceMemo.Misses)
	m["driver.restored_runs"] = metric{float64(a.Incremental.RestoredRuns - b.Incremental.RestoredRuns), "count"}
	m["store.disk_hits"] = metric{float64(a.Store.DiskHits - b.Store.DiskHits), "count"}
	m["store.puts"] = metric{float64(a.Store.Puts - b.Store.Puts), "count"}
	m["swiftd.engine_runs"] = metric{float64(a.Robustness.EngineRuns - b.Robustness.EngineRuns), "count"}
	m["swiftd.coalesced"] = metric{float64(a.Robustness.Coalesced - b.Robustness.Coalesced), "count"}
	m["swiftd.shed"] = metric{float64(a.Robustness.Shed - b.Robustness.Shed), "count"}
	m["swiftd.inflight_peak"] = metric{float64(a.Robustness.InFlightPeak), "count"}
}

// frontEnd times the front end a cache hit pays, stage by stage, once
// per version after the open loop, and sums the versions' IR sizes.
func (s *serveState) frontEnd(tr *tracer, firstReq int, m map[string]metric) error {
	var nodes int
	for v, p := range s.versions {
		req := firstReq + v
		root := tr.begin("bench.request", 0, req)
		b, err := stagedBuild(tr, root, req, p.src)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("%s: %w", p.info.Name, err)
		}
		d := tr.begin("driver.digest", 0, req)
		_ = driver.ResultKey(b, "swift", core.DefaultConfig()) // timed for its cost only
		tr.end(d)
		nodes += p.info.IRNodes
	}
	self := tr.selfTimes()
	for _, name := range frontEndSpans {
		m[name+"_ms"] = metric{medianMS(self[name]), "ms"}
	}
	m["lower.ir_nodes"] = metric{float64(nodes), "count"}
	return nil
}
