package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/history"
	"weseer/internal/trace"
)

// The traced run drives the workload's corpora through every layer
// in-process, timing each call into a layer's public function with a
// span and reading the counters the calls return (core.Stats,
// minidb.Stats) and runtime/metrics deltas around them. It is kept
// apart from the timed runs: traced and untraced passes alternate, and
// the difference of their medians is the tracing overhead.

// A traced pass runs the chain open → collect → decode → analyze
// (default and serial) → render → history ingest, re-ingest, queries
// and reload. For serve-mix it follows the daemon: it analyzes the
// decoded batch, its store starts pre-filled like the daemon's, it also
// ingests one events batch, and the end-to-end comparison goes through
// `weseer serve`. The batch workloads follow `weseer run`.

// perLayer lists the traced run's metrics, in output order, with units.
var perLayer = []struct{ name, unit string }{
	{"apps.open_ms", "ms"},
	{"concolic.collect_ms", "ms"},
	{"concolic.traces", "count"},
	{"concolic.alloc_mb", "MB"},
	{"minidb.statements", "count"},
	{"trace.decode_ms", "ms"},
	{"trace.payload_kb", "KiB"},
	{"core.enum_ms", "ms"},
	{"core.pairs", "count"},
	{"core.pairs_after_phase1", "count"},
	{"core.phase1_survival_ratio", "ratio"},
	{"core.index_probes", "count"},
	{"core.coarse_cycles", "count"},
	{"core.fine_ms", "ms"},
	{"core.fine_serial_ms", "ms"},
	{"core.fine_nonsolver_serial_ms", "ms"},
	{"core.groups_solved", "count"},
	{"core.memo_hits", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.alloc_mb", "MB"},
	{"runtime.gc_cpu_ms", "ms"},
	{"solver.serial_ms", "ms"},
	{"solver.cum_ms", "ms"},
	{"solver.calls", "count"},
	{"solver.sat", "count"},
	{"solver.unsat", "count"},
	{"solver.unknown", "count"},
	{"solver.decisions", "count"},
	{"solver.conflicts", "count"},
	{"solver.propagations", "count"},
	{"solver.theory_calls", "count"},
	{"core.render_ms", "ms"},
	{"core.render_bytes", "bytes"},
	{"history.ingest_ms", "ms"},
	{"history.stored", "count"},
	{"history.deduped", "count"},
	{"history.dedup_ratio", "ratio"},
	{"history.log_bytes_per_event", "bytes"},
	{"history.query_ms.patterns", "ms"},
	{"history.query_ms.events", "ms"},
	{"history.query_ms.tables", "ms"},
	{"history.reload_ms", "ms"},
	{"obs.outside_ms", "ms"},
	{"obs.trace_overhead_ms", "ms"},
}

// queryRounds is how often a traced pass calls each store query; the
// pass reports the median call.
const queryRounds = 20

// outsideRounds is how often the run repeats the end-to-end operation
// it compares the in-process layer sum against.
const outsideRounds = 3

// passOut is one traced or untraced pass.
type passOut struct {
	wall   time.Duration
	values map[string]float64 // per-layer values (traced passes only)
	// In-process layer sums per corpus of what one `weseer run` pass
	// does (open + collect + analyze) and of what one serve trace
	// ingest does (decode + open + analyze + FromResult + re-ingest).
	runPath, ingestPath map[string]float64
	events              map[string]int // per corpus, as FromResult returns them
}

func dur(s *span) float64 {
	if s == nil {
		return 0
	}
	return s.durMS()
}

func count(s *span, k string) float64 {
	if s == nil {
		return 0
	}
	return s.Counts[k]
}

// detRender is a result's deterministic report: the rendered report
// with run-dependent timings and worker count removed.
func detRender(res *core.Result) string {
	r := *res
	r.Stats = r.Stats.WithoutTimings()
	return r.Render()
}

// tracedPass runs one pass of the workload's corpora through every
// layer and gates the diagnoses as the workload's timed run does. With
// a nil recorder it does the same work untraced.
func tracedPass(ctx context.Context, cfg config, wl workload, specs []string, rec *recorder, store string) (passOut, error) {
	serve := wl.serve
	runtime.GC() // every pass starts from the same heap
	rec.newPass()
	start := time.Now()
	root := rec.begin(0, "pass")
	out := passOut{values: map[string]float64{}, runPath: map[string]float64{}, ingestPath: map[string]float64{}, events: map[string]int{}}
	v := out.values
	var batches [][]history.Event
	var reports []runReport

	for _, spec := range specs {
		cs := rec.begin(root, "corpus "+spec)
		var err error
		var app apps.App
		sOpen := rec.do(cs, "apps.Open", func(int) { app, err = apps.Open(spec, apps.Options{}) })
		if err != nil {
			return out, err
		}
		db0 := app.DB().StatsSnapshot().Statements
		var traces []*trace.Trace
		sCollect := rec.do(cs, "appkit.Collect", func(int) {
			traces, err = appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		})
		if err != nil {
			return out, err
		}
		stmts := app.DB().StatsSnapshot().Statements - db0
		// The trace batch as `weseer collect` writes it and `weseer
		// serve` receives it. decode measures its json.Unmarshal and
		// keeps nothing else live: extra heap would slow every later
		// step's GC, which the program's own process does not pay.
		nTraces := len(traces)
		var payloadKB float64
		var sDecode *span
		decode := func() ([]*trace.Trace, error) {
			payload, err := json.Marshal(traces)
			if err != nil {
				return nil, err
			}
			payloadKB = float64(len(payload)) / 1024
			var decoded []*trace.Trace
			sDecode = rec.do(cs, "json.Unmarshal(traces)", func(int) { err = json.Unmarshal(payload, &decoded) })
			if err != nil {
				return nil, fmt.Errorf("decode traces: %w", err)
			}
			return decoded, nil
		}
		// Analyze what the workload's program analyzes: `weseer serve`
		// the decoded batch, `weseer run` the collected traces (the
		// batch is then decoded after the analysis, off its path).
		analyzed := traces
		if serve {
			if analyzed, err = decode(); err != nil {
				return out, err
			}
		}
		traces = nil
		var res *core.Result
		sAn := rec.do(cs, "core.Analyzer.AnalyzeContext", func(int) {
			res, err = core.NewAnalyzer(app.Schema()).AnalyzeContext(ctx, analyzed)
		})
		if err != nil {
			return out, err
		}
		var text string
		sRender := rec.do(cs, "core.Result.Render", func(int) { text = res.Render() })
		var evs []history.Event
		sFrom := rec.do(cs, "history.FromResult", func(int) { evs = history.FromResult(res, spec, app.Classify) })
		s, det := res.Stats, detRender(res)
		reports = append(reports, reportOf(res, app.Classify))
		res = nil
		var serial *core.Result
		rec.do(cs, "core.Analyzer.AnalyzeContext(parallelism=1)", func(int) {
			serial, err = core.NewAnalyzer(app.Schema(), core.WithParallelism(1)).AnalyzeContext(ctx, analyzed)
		})
		if err != nil {
			return out, err
		}
		if detRender(serial) != det {
			return out, fmt.Errorf("%s: the parallelism-1 report differs from the default-parallelism report", spec)
		}
		if !serve {
			traces, analyzed = analyzed, nil
			if _, err := decode(); err != nil {
				return out, err
			}
		}
		rec.end(cs, nil)
		batches = append(batches, evs)
		out.events[spec] = len(evs)

		ss := serial.Stats
		v["apps.open_ms"] += dur(sOpen)
		v["concolic.collect_ms"] += dur(sCollect)
		v["concolic.traces"] += float64(nTraces)
		v["concolic.alloc_mb"] += count(sCollect, "alloc_bytes") / (1 << 20)
		v["minidb.statements"] += float64(stmts)
		v["trace.decode_ms"] += dur(sDecode)
		v["trace.payload_kb"] += payloadKB
		v["core.enum_ms"] += ms(s.EnumTime)
		v["core.pairs"] += float64(s.Pairs)
		v["core.pairs_after_phase1"] += float64(s.PairsAfterPhase1)
		v["core.index_probes"] += float64(s.IndexProbes)
		v["core.coarse_cycles"] += float64(s.CoarseCycles)
		v["core.fine_ms"] += ms(s.FineTime)
		v["core.fine_serial_ms"] += ms(ss.FineTime)
		v["core.fine_nonsolver_serial_ms"] += ms(ss.FineTime - ss.SolverTime)
		v["core.groups_solved"] += float64(s.GroupsSolved)
		v["core.memo_hits"] += float64(s.MemoHits)
		v["core.alloc_mb"] += count(sAn, "alloc_bytes") / (1 << 20)
		v["runtime.gc_cpu_ms"] += count(sAn, "gc_cpu_ms")
		v["solver.serial_ms"] += ms(ss.SolverTime)
		v["solver.cum_ms"] += ms(s.SolverTime)
		v["solver.calls"] += float64(s.SolverCalls)
		v["solver.sat"] += float64(s.SolverSAT)
		v["solver.unsat"] += float64(s.SolverUNSAT)
		v["solver.unknown"] += float64(s.SolverUnknown)
		v["solver.decisions"] += float64(s.Engine.Decisions)
		v["solver.conflicts"] += float64(s.Engine.Conflicts)
		v["solver.propagations"] += float64(s.Engine.Propagations)
		v["solver.theory_calls"] += float64(s.Engine.TheoryCalls)
		v["core.render_ms"] += dur(sRender)
		v["core.render_bytes"] += float64(len(text))
		out.runPath[spec] = dur(sOpen) + dur(sCollect) + dur(sAn)
		out.ingestPath[spec] = dur(sDecode) + dur(sOpen) + dur(sAn) + dur(sFrom)
	}
	v["core.phase1_survival_ratio"], _ = ratio(v["core.pairs_after_phase1"], v["core.pairs"])
	v["core.memo_hit_ratio"], _ = ratio(v["core.memo_hits"], v["core.groups_solved"])
	if err := wl.gate(reports); err != nil {
		return out, err
	}

	if err := historyStage(cfg, serve, specs, batches, rec, root, store, &out); err != nil {
		return out, err
	}
	rec.end(root, nil)
	out.wall = time.Since(start)
	return out, nil
}

// historyStage ingests the pass's diagnoses into a fresh store, ingests
// them again (every fingerprint must dedup), queries, and reloads. On
// serve-mix the store starts pre-filled like the daemon's, and one
// events batch per corpus is ingested too.
func historyStage(cfg config, serve bool, specs []string, batches [][]history.Event, rec *recorder, root int, store string, out *passOut) error {
	v := out.values
	stream := newEventStream(cfg.seed, batches)
	prefilled := 0
	if err := os.Remove(store); err != nil && !os.IsNotExist(err) {
		return err
	}
	if serve {
		if err := stream.prefill(store); err != nil {
			return err
		}
		prefilled = stream.prefillLen()
	}
	hs := rec.begin(root, "history")
	defer rec.end(hs, nil)
	st, err := history.Open(store)
	if err != nil {
		return err
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	var received, stored, deduped int
	ingest := func(name string, evs []history.Event) (history.IngestSummary, *span, error) {
		var sum history.IngestSummary
		var err error
		s := rec.do(hs, name, func(int) { sum, err = st.Ingest(evs) })
		received += sum.Received
		stored += sum.Stored
		deduped += sum.Deduped
		v["history.ingest_ms"] += dur(s)
		return sum, s, err
	}
	for _, evs := range batches {
		if _, _, err := ingest("history.Store.Ingest(first)", evs); err != nil {
			return err
		}
	}
	for i, evs := range batches {
		sum, s, err := ingest("history.Store.Ingest(repeat)", evs)
		if err != nil {
			return err
		}
		if _, err := gateTraceIngest(specs[i], out.events[specs[i]], sum); err != nil {
			return err
		}
		if sum.Stored != 0 {
			return fmt.Errorf("%s: re-ingest stored %d events, want 0", specs[i], sum.Stored)
		}
		out.ingestPath[specs[i]] += dur(s)
	}
	for c := 0; serve && c < len(batches); c++ {
		evs, fresh := stream.batch(0, c)
		sum, _, err := ingest("history.Store.Ingest(events)", evs)
		if err == nil {
			err = gateEventsIngest(fresh, len(evs)-fresh, sum)
		}
		if err != nil {
			return err
		}
	}
	v["history.stored"] = float64(stored)
	v["history.deduped"] = float64(deduped)
	v["history.dedup_ratio"], _ = ratio(float64(deduped), float64(received))

	var qp, qe, qt sample
	class := ""
	if evs := st.Events(history.EventQuery{Limit: 1}); len(evs) > 0 {
		class = evs[0].Class
	}
	for i := 0; i < queryRounds; i++ {
		var p history.PatternSummary
		var evs []history.Event
		var tc []history.TableCount
		qp = append(qp, dur(rec.do(hs, "history.Store.Patterns", func(int) { p = st.Patterns() })))
		qe = append(qe, dur(rec.do(hs, "history.Store.Events", func(int) {
			evs = st.Events(history.EventQuery{Class: class, Limit: eventsLimit})
		})))
		qt = append(qt, dur(rec.do(hs, "history.Store.TableCounts", func(int) {
			tc = st.TableCounts(time.Now().Add(-time.Hour))
		})))
		if p.Events != st.Len() || len(evs) == 0 || len(tc) == 0 {
			return fmt.Errorf("store queries: %d pattern events of %d, %d events, %d tables", p.Events, st.Len(), len(evs), len(tc))
		}
	}
	v["history.query_ms.patterns"] = median(qp)
	v["history.query_ms.events"] = median(qe)
	v["history.query_ms.tables"] = median(qt)

	records := prefilled + received
	v["history.log_bytes_per_event"], _ = ratio(float64(st.Size()), float64(records))
	n := st.Len()
	err = st.Close()
	st = nil
	if err != nil {
		return err
	}
	var st2 *history.Store
	sReload := rec.do(hs, "history.Open(reload)", func(int) { st2, err = history.Open(store) })
	if err != nil {
		return err
	}
	defer st2.Close()
	if st2.Len() != n {
		return fmt.Errorf("reload: store holds %d events, had %d", st2.Len(), n)
	}
	v["history.reload_ms"] = dur(sReload)
	return nil
}

// runTraced is the --trace 1 run: an untraced warm-up pass, then
// traced and untraced passes alternating until the run's seconds are
// used, then the end-to-end comparison for obs.outside_ms.
func runTraced(ctx context.Context, cfg config, wl workload, rec *recorder, o *outcome) error {
	specs := wl.corpora(cfg.seed)
	dir := filepath.Join(cfg.out, "run", cfg.workload+"-traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	store := filepath.Join(dir, "history.wal")
	o.notes["specs"] = specs

	// The warm-up fills the process-wide caches (the expression intern
	// table, canonical keys) so every measured pass runs warm.
	if _, err := tracedPass(ctx, cfg, wl, specs, nil, store); !o.check(err) {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	var passes []passOut
	var tracedWall, untracedWall sample
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		for _, traced := range [2]bool{i%2 == 0, i%2 != 0} {
			r := rec
			if !traced {
				r = nil
			}
			p, err := tracedPass(ctx, cfg, wl, specs, r, store)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if !o.check(err) {
				continue
			}
			if traced {
				passes = append(passes, p)
				tracedWall.add(p.wall)
			} else {
				untracedWall.add(p.wall)
			}
		}
	}
	if len(passes) == 0 || len(untracedWall) == 0 {
		return fmt.Errorf("no traced pass succeeded: %v", o.gateErrs)
	}
	for _, m := range perLayer {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.values[m.name])
		}
		if m.name != "obs.outside_ms" && m.name != "obs.trace_overhead_ms" {
			o.set(m.name, m.unit, median(xs))
		}
	}
	o.timings["pass_traced"] = summarize(tracedWall)
	o.timings["pass_untraced"] = summarize(untracedWall)
	o.set("obs.trace_overhead_ms", "ms", median(tracedWall)-median(untracedWall))

	// The in-process layer sum per corpus, median over the passes.
	inproc := map[string]float64{}
	for _, spec := range specs {
		var xs []float64
		for _, p := range passes {
			if wl.serve {
				xs = append(xs, p.ingestPath[spec])
			} else {
				xs = append(xs, p.runPath[spec])
			}
		}
		inproc[spec] = median(xs)
	}
	var outside float64
	var err error
	if wl.serve {
		outside, err = outsideServe(ctx, cfg, o, inproc)
	} else {
		outside, err = outsideRun(ctx, cfg, wl, specs, o, inproc)
	}
	if err != nil {
		return err
	}
	o.set("obs.outside_ms", "ms", outside)
	return nil
}

// outsideRun times `weseer run -app SPEC -json` passes, gated like the
// timed run's, and returns, summed over the specs, the median child
// wall time minus the in-process open + collect + analyze time: process
// start-up, JSON output, and what a cold process pays that a warm one
// does not.
func outsideRun(ctx context.Context, cfg config, wl workload, specs []string, o *outcome, inproc map[string]float64) (float64, error) {
	walls := make([]sample, len(specs))
	for i := 0; i < outsideRounds; i++ {
		p, err := runPass(ctx, cfg, specs)
		if err == nil {
			err = wl.gate(p.reports)
		}
		if !o.check(err) {
			continue
		}
		for k, w := range p.walls {
			walls[k].add(w)
		}
	}
	var total float64
	for k, spec := range specs {
		if len(walls[k]) == 0 {
			return 0, fmt.Errorf("no weseer run of %s succeeded: %v", spec, o.gateErrs)
		}
		total += median(walls[k]) - inproc[spec]
		o.notes["outside "+spec] = map[string]float64{"end_to_end_ms": median(walls[k]), "in_process_ms": inproc[spec]}
	}
	return total, nil
}

// outsideServe posts each corpus to a fresh `weseer serve` daemon: once
// to store it, then outsideRounds repeats. It returns, summed over the
// corpora, the median repeat latency minus the in-process decode + open
// + analyze + FromResult + re-ingest time: the HTTP layer's share.
func outsideServe(ctx context.Context, cfg config, o *outcome, inproc map[string]float64) (float64, error) {
	dir := filepath.Join(cfg.out, "run", cfg.workload+"-traced")
	store := filepath.Join(dir, "serve.wal")
	in, reports, err := prepareMix(ctx, cfg.seed)
	if err != nil {
		return 0, err
	}
	o.check(gateServeCorpora(reports))
	if err := in.stream.prefill(store); err != nil {
		return 0, err
	}
	d, err := startDaemon(ctx, cfg, store, "broadleaf")
	if err != nil {
		return 0, err
	}
	defer d.stop()
	if err := d.ready(ctx); err != nil {
		return 0, err
	}
	cl := newServeClient(d.base)
	defer cl.http.CloseIdleConnections()
	var total float64
	for _, tc := range in.corpora {
		var lat sample
		for i := 0; i <= outsideRounds; i++ {
			t0 := time.Now()
			data, err := cl.do(ctx, "POST", "/ingest?format=traces&app="+url.QueryEscape(tc.spec), tc.payload)
			took := time.Since(t0)
			var sum history.IngestSummary
			if err == nil {
				err = json.Unmarshal(data, &sum)
			}
			var stored bool
			if err == nil {
				stored, err = gateTraceIngest(tc.spec, len(tc.events), sum)
			}
			if err == nil && stored != (i == 0) {
				err = fmt.Errorf("ingest %s #%d: stored %d", tc.spec, i, sum.Stored)
			}
			if !o.check(err) || i == 0 {
				continue
			}
			lat.add(took)
		}
		if len(lat) == 0 {
			return 0, fmt.Errorf("no trace ingest of %s succeeded: %v", tc.spec, o.gateErrs)
		}
		total += median(lat) - inproc[tc.spec]
		o.notes["outside "+tc.spec] = map[string]float64{"end_to_end_ms": median(lat), "in_process_ms": inproc[tc.spec]}
	}
	return total, nil
}
