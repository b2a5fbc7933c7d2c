package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/history"
)

// The serve-mix workload: a closed loop of mixClients clients, each
// sending its next request only after the previous reply, against one
// `weseer serve` daemon. All traffic is built from the program's own
// output: during preparation the clients collect a trace batch of each
// corpus (the Table II apps and a small gen: corpus) and diagnose it
// once in-process; history.FromResult of that diagnosis is the
// corpus's event list. The clients then draw from one seeded request
// sequence, in blocks of 30 (see mixBlock) with the workload's
// proportions, 1 in 10 trace ingests and about 1 in 3 events ingests:
//
//   - 3 post a trace batch, one for each corpus; the daemon re-analyzes
//     it. The first sighting stores events, repeats only touch them.
//   - 9 post an events batch, 3 for each corpus: the corpus's event
//     list, with its fingerprints renamed (see eventStream).
//   - 18 are GET /history/{patterns,events,tables} reads, 6 each.

const (
	mixClients = 2
	// prefillRounds is how many renamed copies of each corpus's event
	// list the store holds before the loop: the distinct deadlocks of
	// that many earlier diagnoses.
	prefillRounds = 40
	// freshEvery: one event in freshEvery of an events batch is a new
	// deadlock; the others recur from the pre-fill.
	freshEvery   = 10
	eventsLimit  = 50 // one page of GET /history/events
	serveGenSize = 48 // templates of the small gen: corpus
	// rssAtRequest is the request count at which the daemon's peak RSS
	// is read: the daemon's memory grows with the requests it serves,
	// so a fixed count keeps peak_rss_mb apart from throughput.
	rssAtRequest = 600
)

// serveCorpora are the trace batches serve-mix clients post.
func serveCorpora(seed int64) []string {
	return []string{"broadleaf", "shopizer", genSpec(seed, serveGenSize)}
}

// gateServeCorpora checks the diagnoses of the serve-mix corpora: the
// Table II apps as table2 passes are checked, the gen: corpus as a
// gen-1056 pass is.
func gateServeCorpora(reps []runReport) error {
	if len(reps) != 3 {
		return fmt.Errorf("serve-mix: %d corpus reports, want 3", len(reps))
	}
	if err := gateTable2(reps[:2]); err != nil {
		return err
	}
	return gateGen(reps[2:])
}

// mix64 is the splitmix64 finalizer: a bijection on uint64, so distinct
// inputs give distinct fingerprints.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seqHash is the seeded hash of position i of stream salt.
func seqHash(seed int64, salt, i uint64) uint64 {
	return mix64(mix64(uint64(seed)^salt<<56) ^ i)
}

// fingerprint is renamed event n's fingerprint. Distinct n give
// distinct fingerprints within one seed.
func fingerprint(seed int64, n int) string {
	return fmt.Sprintf("%016x", mix64(uint64(seed)<<32+uint64(n)))
}

// eventStream renames the corpora's diagnosed events into the pre-fill
// and the events batches. Every event keeps its app, class, APIs,
// tables and SQL; only its fingerprint changes, so the store's rollups
// see the vocabulary of real diagnoses. Slot n = round*total + the
// event's position in the concatenated corpora names one renamed event.
type eventStream struct {
	seed      int64
	templates [][]history.Event // per corpus, as FromResult returned it
	offset    []int             // first slot of each corpus in a round
	total     int               // events in one round
}

func newEventStream(seed int64, templates [][]history.Event) *eventStream {
	s := &eventStream{seed: seed, templates: templates}
	for _, t := range templates {
		s.offset = append(s.offset, s.total)
		s.total += len(t)
	}
	return s
}

// event is corpus c's event j renamed for round r.
func (s *eventStream) event(r, c, j int) history.Event {
	e := s.templates[c][j]
	e.Fingerprint = fingerprint(s.seed, r*s.total+s.offset[c]+j)
	return e
}

// prefillLen is how many events the pre-fill stores.
func (s *eventStream) prefillLen() int { return prefillRounds * s.total }

// prefill writes rounds 0..prefillRounds-1 into a fresh store at path,
// one ingest per corpus and round, as the daemon would have.
func (s *eventStream) prefill(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	st, err := history.Open(path)
	if err != nil {
		return err
	}
	for r := 0; r < prefillRounds; r++ {
		for c, t := range s.templates {
			evs := make([]history.Event, len(t))
			for j := range t {
				evs[j] = s.event(r, c, j)
			}
			if _, err := st.Ingest(evs); err != nil {
				st.Close()
				return err
			}
		}
	}
	return st.Close()
}

// batch is request i's events payload for corpus c: the corpus's event
// list, where every freshEvery-th event is renamed into round
// prefillRounds+i, which no other request uses, and the others recur
// from one seeded pre-fill round. fresh is how many it should store.
func (s *eventStream) batch(i, c int) (evs []history.Event, fresh int) {
	old := int(seqHash(s.seed, 2, uint64(i)) % prefillRounds)
	for j := range s.templates[c] {
		r := old
		if j%freshEvery == 0 {
			r = prefillRounds + i
			fresh++
		}
		evs = append(evs, s.event(r, c, j))
	}
	return evs, fresh
}

// classes are the distinct non-empty classes of the templates, sorted:
// the values GET /history/events?class= is asked for.
func (s *eventStream) classes() []string {
	set := map[string]bool{}
	for _, t := range s.templates {
		for _, e := range t {
			if e.Class != "" {
				set[e.Class] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// request kinds of the mix.
const (
	reqTraces = iota
	reqEvents
	reqPatterns
	reqEventsQuery
	reqTables
	numKinds
)

var kindNames = [numKinds]string{"ingest_traces", "ingest_events", "query_patterns", "query_events", "query_tables"}

// mixSlot is one request of a block: its kind and, for an ingest, the
// corpus it posts.
type mixSlot struct{ kind, corpus int }

// mixBlock is one block of the request sequence. Every block holds the
// mix's exact proportions, so the mix does not vary with the seed.
// Only the order within a block is seeded.
var mixBlock = func() []mixSlot {
	var b []mixSlot
	for c := 0; c < 3; c++ {
		b = append(b, mixSlot{reqTraces, c})
	}
	for k := 0; k < 9; k++ {
		b = append(b, mixSlot{reqEvents, k % 3})
	}
	for _, kind := range []int{reqPatterns, reqEventsQuery, reqTables} {
		for k := 0; k < 6; k++ {
			b = append(b, mixSlot{kind, 0})
		}
	}
	return b
}()

// mixCount is how many requests of kind one block holds.
func mixCount(kind int) int {
	n := 0
	for _, s := range mixBlock {
		if s.kind == kind {
			n++
		}
	}
	return n
}

// kindOf is request i's kind. For an ingest, arg is the corpus it
// posts; for a read it is a seeded hash.
func kindOf(seed int64, i int) (kind int, arg uint64) {
	n := len(mixBlock)
	block, pos := i/n, i%n
	perm := make([]int, n)
	for k := range perm {
		perm[k] = k
	}
	for k := n - 1; k > 0; k-- { // Fisher–Yates, seeded per block
		j := int(seqHash(seed, 3, uint64(block*n+k)) % uint64(k+1))
		perm[k], perm[j] = perm[j], perm[k]
	}
	slot := mixBlock[perm[pos]]
	if slot.kind == reqTraces || slot.kind == reqEvents {
		return slot.kind, uint64(slot.corpus)
	}
	return slot.kind, seqHash(seed, 4, uint64(i))
}

// traceCorpus is one corpus the clients collected during set-up.
type traceCorpus struct {
	spec    string
	payload []byte          // the trace batch as `weseer collect` writes it
	events  []history.Event // its diagnosis, as FromResult returns it
	report  runReport       // its diagnosis, for the output gates
}

// collectCorpus collects spec's traces in-process and diagnoses them
// once, so the expected ingest summary is known before the loop.
func collectCorpus(ctx context.Context, spec string) (traceCorpus, error) {
	app, err := apps.Open(spec, apps.Options{})
	if err != nil {
		return traceCorpus{}, err
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		return traceCorpus{}, err
	}
	payload, err := json.Marshal(traces)
	if err != nil {
		return traceCorpus{}, err
	}
	res, err := core.NewAnalyzer(app.Schema()).AnalyzeContext(ctx, traces)
	if err != nil {
		return traceCorpus{}, err
	}
	return traceCorpus{
		spec:    spec,
		payload: payload,
		events:  history.FromResult(res, spec, app.Classify),
		report:  reportOf(res, app.Classify),
	}, nil
}

// mixInputs is what the clients prepared before the loop.
type mixInputs struct {
	corpora []traceCorpus
	stream  *eventStream
	classes []string
}

// prepareMix collects the corpora and derives the events traffic from
// their diagnoses. The caller gates the diagnoses (reports).
func prepareMix(ctx context.Context, seed int64) (in *mixInputs, reports []runReport, err error) {
	in = &mixInputs{}
	var templates [][]history.Event
	for _, spec := range serveCorpora(seed) {
		tc, err := collectCorpus(ctx, spec)
		if err != nil {
			return nil, nil, err
		}
		in.corpora = append(in.corpora, tc)
		reports = append(reports, tc.report)
		templates = append(templates, tc.events)
	}
	in.stream = newEventStream(seed, templates)
	in.classes = in.stream.classes()
	return in, reports, nil
}

// mixState is the clients' shared bookkeeping.
type mixState struct {
	mu        sync.Mutex
	lat       [numKinds]sample
	byCorpus  [numKinds]map[string]sample // ingest latencies per corpus
	all       sample
	storing   map[string]int // corpus → trace ingests that stored it
	freshOK   int            // fresh events stored by successful events batches
	attempted int
	errs      []error
}

// serveClient is one closed-loop client.
type serveClient struct {
	http *http.Client
	base string
}

func (c *serveClient) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// request sends request i of the sequence and checks its reply.
// For a trace ingest it also returns the corpus posted.
func (c *serveClient) request(ctx context.Context, seed int64, i int, in *mixInputs, st *mixState) (kind int, corpus string, err error) {
	kind, arg := kindOf(seed, i)
	switch kind {
	case reqTraces:
		tc := in.corpora[arg]
		corpus = tc.spec
		data, err := c.do(ctx, http.MethodPost, "/ingest?format=traces&app="+url.QueryEscape(tc.spec), tc.payload)
		if err != nil {
			return kind, corpus, err
		}
		var sum history.IngestSummary
		if err := json.Unmarshal(data, &sum); err != nil {
			return kind, corpus, err
		}
		stored, err := gateTraceIngest(tc.spec, len(tc.events), sum)
		if err != nil {
			return kind, corpus, err
		}
		st.mu.Lock()
		if stored {
			st.storing[tc.spec]++
		} else if _, ok := st.storing[tc.spec]; !ok {
			st.storing[tc.spec] = 0
		}
		st.mu.Unlock()
	case reqEvents:
		corpus = in.corpora[arg].spec
		evs, fresh := in.stream.batch(i, int(arg))
		body, err := json.Marshal(evs)
		if err != nil {
			return kind, corpus, err
		}
		data, err := c.do(ctx, http.MethodPost, "/ingest?format=events", body)
		if err != nil {
			return kind, corpus, err
		}
		var sum history.IngestSummary
		if err := json.Unmarshal(data, &sum); err != nil {
			return kind, corpus, err
		}
		if err := gateEventsIngest(fresh, len(evs)-fresh, sum); err != nil {
			return kind, corpus, err
		}
		st.mu.Lock()
		st.freshOK += sum.Stored
		st.mu.Unlock()
	case reqPatterns:
		data, err := c.do(ctx, http.MethodGet, "/history/patterns", nil)
		if err != nil {
			return kind, corpus, err
		}
		var p history.PatternSummary
		if err := json.Unmarshal(data, &p); err != nil {
			return kind, corpus, err
		}
		if p.Events < in.stream.prefillLen() || p.Sightings < p.Events || len(p.Classes) == 0 {
			return kind, corpus, fmt.Errorf("patterns: %d events, %d sightings, %d classes", p.Events, p.Sightings, len(p.Classes))
		}
	case reqEventsQuery:
		class := in.classes[arg%uint64(len(in.classes))]
		data, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/history/events?class=%s&limit=%d", class, eventsLimit), nil)
		if err != nil {
			return kind, corpus, err
		}
		var evs []history.Event
		if err := json.Unmarshal(data, &evs); err != nil {
			return kind, corpus, err
		}
		if len(evs) == 0 || len(evs) > eventsLimit {
			return kind, corpus, fmt.Errorf("events?class=%s: %d events, want 1..%d", class, len(evs), eventsLimit)
		}
		for _, e := range evs {
			if e.Class != class {
				return kind, corpus, fmt.Errorf("events?class=%s returned class %s", class, e.Class)
			}
		}
	case reqTables:
		data, err := c.do(ctx, http.MethodGet, "/history/tables", nil)
		if err != nil {
			return kind, corpus, err
		}
		var tc []history.TableCount
		if err := json.Unmarshal(data, &tc); err != nil {
			return kind, corpus, err
		}
		if len(tc) == 0 {
			return kind, corpus, fmt.Errorf("tables: no table")
		}
	}
	return kind, corpus, nil
}

func newServeClient(base string) *serveClient {
	return &serveClient{
		base: base,
		http: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
}

// copyFile copies the file at src to dst.
func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// runServeMix is the timed serve-mix run.
func runServeMix(ctx context.Context, cfg config, o *outcome) error {
	dir := filepath.Join(cfg.out, "run", "serve-mix")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	store := filepath.Join(dir, "history.wal")

	// Preparation, before any timing: the clients collect and check
	// their trace batches, and the store is pre-filled.
	in, reports, err := prepareMix(ctx, cfg.seed)
	if err != nil {
		return err
	}
	o.check(gateServeCorpora(reports))
	if err := in.stream.prefill(store); err != nil {
		return err
	}
	o.notes["corpora"] = serveCorpora(cfg.seed)
	o.notes["prefill_events"] = in.stream.prefillLen()

	// Set-up: daemon start plus replay of the pre-filled store until
	// /history/patterns answers. The rounds run over a copy of the
	// pre-filled store, which they only read, half before the loop and
	// half after it (see setupRounds). The loop's own daemon is started
	// over the store itself, untimed.
	setupStore := filepath.Join(dir, "setup.wal")
	if err := copyFile(store, setupStore); err != nil {
		return err
	}
	var setup sample
	setupRound := func() error {
		start := time.Now()
		sd, err := startDaemon(ctx, cfg, setupStore, "broadleaf")
		if err != nil {
			return err
		}
		defer sd.stop()
		if err := sd.ready(ctx); err != nil {
			return err
		}
		setup.add(time.Since(start))
		return nil
	}
	for i := 0; i < setupRounds/2; i++ {
		if err := setupRound(); err != nil {
			return err
		}
	}
	d, err := startDaemon(ctx, cfg, store, "broadleaf")
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	if err := d.ready(ctx); err != nil {
		return err
	}

	st := &mixState{storing: map[string]int{}}
	for k := range st.byCorpus {
		st.byCorpus[k] = map[string]sample{}
	}
	cpu0, err := d.cpu()
	if err != nil {
		return err
	}
	// The loop runs for the run's seconds, and on until rssAtRequest
	// requests have been sent, so the daemon's peak RSS is always read
	// after the same requests.
	var next, done atomic.Int64
	var rssKB atomic.Int64
	rssErr := make(chan error, 1)
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(time.Duration(cfg.seconds) * time.Second)
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newServeClient(d.base)
			defer cl.http.CloseIdleConnections()
			for (time.Now().Before(deadline) || next.Load() < rssAtRequest) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				kind, corpus, err := cl.request(ctx, cfg.seed, i, in, st)
				lat := time.Since(t0)
				if done.Add(1) == rssAtRequest {
					kb, err := d.peakRSS()
					rssKB.Store(kb)
					rssErr <- err
				}
				st.mu.Lock()
				st.attempted++
				if err != nil {
					st.errs = append(st.errs, fmt.Errorf("request %d (%s): %w", i, kindNames[kind], err))
				} else {
					st.lat[kind].add(lat)
					st.all.add(lat)
					if corpus != "" {
						s := st.byCorpus[kind][corpus]
						s.add(lat)
						st.byCorpus[kind][corpus] = s
					}
				}
				st.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(begin)
	cpu1, err := d.cpu()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := <-rssErr; err != nil {
		return fmt.Errorf("serve-mix: daemon peak RSS: %w", err)
	}

	// Final gates: each corpus stored once, and the store holds exactly
	// the pre-fill plus every fresh event and first sighting.
	o.attempted += st.attempted
	for _, err := range st.errs {
		o.fail(err)
	}
	if err := gateFirstSightings(st.storing); err != nil {
		o.fail(err)
	}
	want := in.stream.prefillLen() + st.freshOK
	for _, tc := range in.corpora {
		if st.storing[tc.spec] > 0 {
			want += len(tc.events)
		}
	}
	cl := newServeClient(d.base)
	data, err := cl.do(ctx, http.MethodGet, "/history/patterns", nil)
	cl.http.CloseIdleConnections()
	var p history.PatternSummary
	if err == nil {
		err = json.Unmarshal(data, &p)
	}
	if err == nil {
		err = gateStoreLen(p.Events, want)
	}
	if err != nil {
		o.fail(err)
	}
	d.stop()
	stopped = true
	for i := setupRounds / 2; i < setupRounds; i++ {
		if err := setupRound(); err != nil {
			return err
		}
	}

	// Latencies are combined from medians of requests of one shape:
	// trace ingests per corpus (summed: one diagnosis of each), and the
	// history requests per kind and, for events ingests, per corpus,
	// weighted by their share of the mix.
	ok := len(st.all)
	var perCorpus, histReqs []sample
	var weights []float64
	for _, tc := range in.corpora {
		perCorpus = append(perCorpus, st.byCorpus[reqTraces][tc.spec])
		histReqs = append(histReqs, st.byCorpus[reqEvents][tc.spec])
		weights = append(weights, float64(mixCount(reqEvents))/float64(len(in.corpora)))
		o.timings["ingest_traces "+tc.spec] = summarize(st.byCorpus[reqTraces][tc.spec])
		o.timings["ingest_events "+tc.spec] = summarize(st.byCorpus[reqEvents][tc.spec])
	}
	for k := reqPatterns; k < numKinds; k++ {
		histReqs = append(histReqs, st.lat[k])
		weights = append(weights, float64(mixCount(k)))
	}
	diagnose, okD := sumOfMedians(perCorpus)
	storeMS, okS := weightedMedians(histReqs, weights)
	if !okD || !okS {
		return fmt.Errorf("serve-mix: a request kind never succeeded: %v", o.gateErrs)
	}
	o.timings["setup"] = summarize(setup)
	o.timings["all_requests"] = summarize(st.all)
	for k, name := range kindNames {
		o.timings[name] = summarize(st.lat[k])
	}
	o.set("setup_s", "s", median(setup)/1000)
	o.set("ok_ratio", "ratio", okRatio(o.attempted, o.failed))
	o.set("diagnose_ms_p50", "ms", diagnose)
	o.set("op_ms_p50", "ms", storeMS)
	o.set("ops_per_s", "1/s", perSecond(ok, elapsed))
	o.set("cpu_ms_per_op", "ms", ms(cpu1-cpu0)/float64(ok))
	o.set("peak_rss_mb", "MB", float64(rssKB.Load())/1024)
	o.notes["final_store_events"] = p.Events
	o.notes["requests_per_s"] = perSecond(ok, elapsed)
	o.notes["peak_rss_at_request"] = rssAtRequest
	return nil
}
