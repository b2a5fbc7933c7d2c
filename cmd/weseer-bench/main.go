// Command weseer-bench regenerates every table and figure of the paper's
// evaluation (Sec. VII) against the bundled model applications, plus a
// scale sweep over synthetic generated corpora. Run -exp list for the
// experiment table; -exp all runs everything in sequence.
//
// Absolute numbers depend on this machine; the paper's claims are about
// shape (who wins, by what order of magnitude, where the crossover sits).
//
// table2 additionally benchmarks the parallel memoized pipeline: the
// same diagnosis at Parallelism=1 and at -parallel N, verifying the two
// reports are byte-identical and measuring wall time, solver calls, and
// memo hits. -out FILE (e.g. -out BENCH_table2.json) writes those
// numbers as versioned JSON, together with the solver-engine breakdown
// — per-phase times plus CDCL counters (decisions, conflicts,
// propagations, learned clauses, backjumps, theory calls) — against the
// recorded pre-CDCL baseline. The write is gated on the serial and
// parallel reports being byte-identical; a mismatch exits non-zero
// instead.
//
// scale generates synthetic corpora (internal/appgen, opened through the
// application registry as gen:<seed>,templates=N,...) at increasing
// template counts, runs the full diagnosis serially and at -parallel N,
// verifies byte-identical reports, and writes the speedup curve — with
// the generator seed and full configuration embedded — to -scaleout
// (default BENCH_scale.json).
//
// -traceout FILE and -metricsout FILE re-run the table2 parallel
// diagnosis once more with an observer attached — after the identity
// check, so instrumentation cannot skew the timed comparison — and
// write the spans as Chrome trace_event JSON and the metrics in
// Prometheus text format next to the BENCH files.
//
// -cpuprofile FILE and -memprofile FILE capture pprof profiles of
// whatever experiments run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/apps/broadleaf"
	"weseer/internal/apps/shopizer"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/minidb"
	"weseer/internal/obs"
	"weseer/internal/schema"
	"weseer/internal/trace"
	"weseer/internal/workload"
)

var (
	duration   = flag.Duration("duration", 500*time.Millisecond, "per-configuration workload duration (fig10/fig11)")
	clientsF   = flag.String("clients", "8,64,128", "client counts for fig10/fig11")
	parallelF  = flag.Int("parallel", 4, "worker count for the parallel-pipeline comparisons (table2, scale)")
	outF       = flag.String("out", "", "write the table2 pipeline and solver-engine benchmark as versioned JSON to this file")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	traceOutF  = flag.String("traceout", "", "write a Chrome trace_event JSON of an observed table2 parallel run")
	metricsF   = flag.String("metricsout", "", "write the observed table2 run's metrics in Prometheus text format")
)

// experiment is one entry in the self-registering experiment table.
// Experiments register themselves from init functions; adding one never
// touches main.
type experiment struct {
	seq  int    // position in the -exp all order
	name string // -exp selector
	desc string // one line for -exp list and the usage header
	run  func()
}

var experiments []experiment

// registerExp adds an experiment to the table. seq orders the -exp all
// run (and the listing); names must be unique.
func registerExp(seq int, name, desc string, run func()) {
	for _, e := range experiments {
		if e.name == name {
			panic("weseer-bench: duplicate experiment " + name)
		}
	}
	experiments = append(experiments, experiment{seq: seq, name: name, desc: desc, run: run})
}

func init() {
	registerExp(1, "table1", "Table I: target APIs and invocation counts", table1)
	registerExp(2, "table2", "Table II: the 18 deadlocks, fixes, and the parallel pipeline bench", table2)
	registerExp(3, "table3", "Table III: unit-test runtime per engine mode", table3)
	registerExp(4, "fig10", "Fig. 10: Broadleaf throughput across fix ablations", func() {
		header("Fig. 10: performance impact of Broadleaf's deadlocks (API/s)")
		fixThroughput("broadleaf", broadleaf.FixNames())
		fmt.Println("\nexpected shape: enable all sustains throughput with ~0 aborts/s; disable all")
		fmt.Println("collapses under deadlock storms (the paper reports 39.5x and 904->0 aborts/s)")
	})
	registerExp(5, "fig11", "Fig. 11: Shopizer throughput across fix ablations", func() {
		header("Fig. 11: performance impact of Shopizer's deadlocks (API/s)")
		fixThroughput("shopizer", shopizer.FixNames())
		fmt.Println("\nexpected shape: fixes win at high concurrency (the paper reports up to 4.5x)")
	})
	registerExp(6, "pruning", "Sec. IV: path-condition pruning (656K -> 2.7K analog)", pruning)
	registerExp(7, "baseline", "Sec. VII-B: coarse-only cycle explosion (18,384 analog)", baseline)
}

// sortedExperiments returns the experiment table in seq order.
func sortedExperiments() []experiment {
	out := make([]experiment, len(experiments))
	copy(out, experiments)
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

func listExperiments(w *os.File) {
	fmt.Fprintln(w, "experiments (-exp NAME, or -exp all):")
	for _, e := range sortedExperiments() {
		fmt.Fprintf(w, "  %-10s %s\n", e.name, e.desc)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: weseer-bench [flags] -exp NAME|list|all")
	fmt.Fprintln(os.Stderr)
	listExperiments(os.Stderr)
	fmt.Fprintln(os.Stderr)
	fmt.Fprintln(os.Stderr, "flags:")
	flag.PrintDefaults()
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -exp list)")
	flag.Usage = usage
	flag.Parse()
	if *exp == "list" {
		listExperiments(os.Stdout)
		return
	}
	var selected []experiment
	if *exp == "all" {
		selected = sortedExperiments()
	} else {
		for _, e := range sortedExperiments() {
			if e.name == *exp {
				selected = append(selected, e)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "weseer-bench: unknown experiment %q\n\n", *exp)
			usage()
			os.Exit(2)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	for _, e := range selected {
		e.run()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		check(err)
		runtime.GC()
		check(pprof.WriteHeapProfile(f))
		check(f.Close())
	}
}

// openApp resolves a workload through the application registry; bench
// experiments share the model apps' default configuration.
func openApp(spec string) apps.App {
	app, err := apps.Open(spec, apps.Options{})
	check(err)
	return app
}

// analyze runs one diagnosis to completion.
func analyze(scm *schema.Schema, traces []*trace.Trace, opts ...core.Option) *core.Result {
	res, err := core.NewAnalyzer(scm, opts...).AnalyzeContext(context.Background(), traces)
	check(err)
	return res
}

func clientCounts() []int {
	var out []int
	var n int
	rest := *clientsF
	for len(rest) > 0 {
		k, err := fmt.Sscanf(rest, "%d", &n)
		if k == 0 || err != nil {
			break
		}
		out = append(out, n)
		for len(rest) > 0 && rest[0] != ',' {
			rest = rest[1:]
		}
		if len(rest) > 0 {
			rest = rest[1:]
		}
	}
	if len(out) == 0 {
		out = []int{8, 64, 128}
	}
	return out
}

func header(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}

// ---------------------------------------------------------------------------
// Table I

func table1() {
	header("Table I: target APIs")
	fmt.Printf("%-9s %-38s %-10s %-10s\n", "API", "Input description", "Broadleaf", "Shopizer")
	rows := []struct{ api, input, bl, sh string }{
		{"Register", "username, email, password, confirm", "1", "1"},
		{"Add", "userId, productId", "3", "3"},
		{"Ship", "userId, shipment address, phone", "1", "1"},
		{"Payment", "userId, payment address, phone", "1", "-"},
		{"Checkout", "userId", "1", "1"},
	}
	for _, r := range rows {
		fmt.Printf("%-9s %-38s %-10s %-10s\n", r.api, r.input, r.bl, r.sh)
	}
	blApp := openApp("broadleaf")
	shApp := openApp("shopizer")
	fmt.Printf("\nunit tests bundled: Broadleaf %d, Shopizer %d (Add invoked three times; "+
		"each invocation runs a different code path)\n",
		len(blApp.UnitTests()), len(shApp.UnitTests()))
}

// ---------------------------------------------------------------------------
// Table II

func table2() {
	header("Table II: deadlocks found by WeSEER")
	blApp := openApp("broadleaf")
	shApp := openApp("shopizer")

	blTraces, err := appkit.Collect(blApp.UnitTests(), concolic.ModeConcolic)
	check(err)
	shTraces, err := appkit.Collect(shApp.UnitTests(), concolic.ModeConcolic)
	check(err)

	blRes := analyze(blApp.Schema(), blTraces)
	shRes := analyze(shApp.Schema(), shTraces)

	blFound := map[string]int{}
	for _, d := range blRes.Deadlocks {
		blFound[blApp.Classify(d)]++
	}
	shFound := map[string]int{}
	for _, d := range shRes.Deadlocks {
		shFound[shApp.Classify(d)]++
	}

	fmt.Printf("%-9s %-4s %-38s %-50s %s\n", "App", "Id", "Deadlock APIs", "Fix", "Found")
	catalog := 0
	found := 0
	for _, exp := range append(broadleaf.Expectations(), shopizer.Expectations()...) {
		catalog++
		n := blFound[exp.ID] + shFound[exp.ID]
		status := "NO"
		if n > 0 {
			status = fmt.Sprintf("yes (%d reports)", n)
			found++
		}
		fmt.Printf("%-9s %-4s %-38s %-50s %s\n", exp.Apps, exp.ID, exp.APIs, exp.Fix, status)
	}
	fmt.Printf("\n%d of %d cataloged deadlocks reported (paper: 18/18)\n", found, catalog)
	fmt.Printf("additional reports: %d app-lock-protected false positives (Sec. V-D), %d extra\n",
		blFound["fp-checkout-applock"], blFound["extra"]+shFound["extra"]+blFound[""]+shFound[""])
	fmt.Println("\nBroadleaf:", blRes.Stats.Render())
	fmt.Println("Shopizer: ", shRes.Stats.Render())

	// Phase-0 static prescreen: same diagnosis, fewer solver calls.
	blPre := analyze(blApp.Schema(), blTraces, core.WithPrescreen())
	shPre := analyze(shApp.Schema(), shTraces, core.WithPrescreen())
	fmt.Println("\nwith -exp table2 static prescreen (weseer vet Phase-0):")
	fmt.Println("Broadleaf:", blPre.Stats.Render())
	fmt.Println("Shopizer: ", shPre.Stats.Render())
	off := blRes.Stats.GroupsSolved + shRes.Stats.GroupsSolved
	on := blPre.Stats.GroupsSolved + shPre.Stats.GroupsSolved
	saved := blPre.Stats.PrescreenSaved + shPre.Stats.PrescreenSaved
	fmt.Printf("solver calls: %d without prescreen -> %d with (%d saved, %d reports unchanged)\n",
		off, on, saved, len(blPre.Deadlocks)+len(shPre.Deadlocks))

	pipelineBench(blApp, shApp, blTraces, shTraces)
}

// pipelineRun is one timed diagnosis of both apps at a fixed worker
// count; the two reports are concatenated for the identity check.
type pipelineRun struct {
	WallMS       int64 `json:"wall_ms"`
	EnumMS       int64 `json:"enum_ms"`
	FineMS       int64 `json:"fine_ms"`
	SolverMS     int64 `json:"solver_ms"` // cumulative in-solver time across workers
	GroupsSolved int   `json:"groups_solved"`
	SolverCalls  int   `json:"solver_calls"`
	MemoHits     int   `json:"memo_hits"`
	Deadlocks    int   `json:"deadlocks"`

	// CDCL(T) engine counters summed over the run's solver calls.
	Decisions      int `json:"decisions"`
	Conflicts      int `json:"conflicts"`
	Propagations   int `json:"propagations"`
	LearnedClauses int `json:"learned_clauses"`
	Backjumps      int `json:"backjumps"`
	TheoryCalls    int `json:"theory_calls"`

	rendered string
	found    int
}

// solverBaseline records the pre-CDCL engine's serial numbers on this
// same Table II workload (linear-scan DPLL(T) with full-assignment
// blocking clauses, string-keyed atom interning, uncached edge
// conditions), measured before the CDCL engine replaced it. The -out
// payload reports the current engine against it.
type solverBaseline struct {
	Engine       string `json:"engine"`
	SerialWallMS int64  `json:"serial_wall_ms"`
	SerialSlvMS  int64  `json:"serial_solver_ms"`
}

var preCDCL = solverBaseline{
	Engine:       "dpll-blocking-clauses (pre-CDCL)",
	SerialWallMS: 753,
	SerialSlvMS:  560,
}

// pipelineJSON is the versioned -out payload of the table2 pipeline
// benchmark.
type pipelineJSON struct {
	Version     int            `json:"version"`
	Engine      string         `json:"engine"`
	Parallelism int            `json:"parallelism"`
	Baseline    solverBaseline `json:"baseline"`
	Serial      pipelineRun    `json:"serial"`
	Parallel    pipelineRun    `json:"parallel"`
	Speedup     float64        `json:"speedup"`
	MemoHitRate float64        `json:"memo_hit_rate"`
	// SolverSpeedup is baseline serial in-solver time over current serial
	// in-solver time on the same workload.
	SolverSpeedup    float64 `json:"solver_speedup_vs_baseline"`
	Table2Found      int     `json:"table2_found"`
	Table2Catalog    int     `json:"table2_catalog"`
	ReportsIdentical bool    `json:"reports_identical"`
}

func timedRun(blApp, shApp apps.App, blTraces, shTraces []*trace.Trace, workers int) pipelineRun {
	diagnose := func(app apps.App, traces []*trace.Trace, b *strings.Builder, r *pipelineRun) {
		res := analyze(app.Schema(), traces, core.WithParallelism(workers))
		r.GroupsSolved += res.Stats.GroupsSolved
		r.SolverCalls += res.Stats.SolverCalls
		r.MemoHits += res.Stats.MemoHits
		r.Deadlocks += len(res.Deadlocks)
		r.EnumMS += res.Stats.EnumTime.Milliseconds()
		r.FineMS += res.Stats.FineTime.Milliseconds()
		r.SolverMS += res.Stats.SolverTime.Milliseconds()
		r.Decisions += res.Stats.Engine.Decisions
		r.Conflicts += res.Stats.Engine.Conflicts
		r.Propagations += res.Stats.Engine.Propagations
		r.LearnedClauses += res.Stats.Engine.LearnedClauses
		r.Backjumps += res.Stats.Engine.Backjumps
		r.TheoryCalls += res.Stats.Engine.TheoryCalls
		seen := map[string]bool{}
		for _, d := range res.Deadlocks {
			b.WriteString(d.Render())
			if id := app.Classify(d); id != "" && id != "extra" && id != "fp-checkout-applock" && !seen[id] {
				seen[id] = true
				r.found++
			}
		}
	}
	var r pipelineRun
	var b strings.Builder
	start := time.Now()
	diagnose(blApp, blTraces, &b, &r)
	diagnose(shApp, shTraces, &b, &r)
	r.WallMS = time.Since(start).Milliseconds()
	r.rendered = b.String()
	return r
}

// pipelineBench compares the diagnosis at Parallelism=1 and -parallel N
// over the Table II workload, checks the reports are byte-identical, and
// optionally writes the numbers to -out.
func pipelineBench(blApp, shApp apps.App, blTraces, shTraces []*trace.Trace) {
	workers := *parallelF
	fmt.Printf("\nparallel pipeline (Parallelism=1 vs %d, memoized):\n", workers)
	serial := timedRun(blApp, shApp, blTraces, shTraces, 1)
	par := timedRun(blApp, shApp, blTraces, shTraces, workers)

	identical := serial.rendered == par.rendered
	out := pipelineJSON{
		Version:          1,
		Engine:           "cdcl-watched-literals + theory-core learning",
		Parallelism:      workers,
		Baseline:         preCDCL,
		Serial:           serial,
		Parallel:         par,
		Table2Found:      par.found,
		Table2Catalog:    len(broadleaf.Expectations()) + len(shopizer.Expectations()),
		ReportsIdentical: identical,
	}
	if par.WallMS > 0 {
		out.Speedup = float64(serial.WallMS) / float64(par.WallMS)
	}
	if par.GroupsSolved > 0 {
		out.MemoHitRate = float64(par.MemoHits) / float64(par.GroupsSolved)
	}
	if serial.SolverMS > 0 {
		out.SolverSpeedup = float64(preCDCL.SerialSlvMS) / float64(serial.SolverMS)
	}

	fmt.Printf("  serial:   %4d ms wall (solver %d ms), %d groups via %d solver calls (%d memo hits)\n",
		serial.WallMS, serial.SolverMS, serial.GroupsSolved, serial.SolverCalls, serial.MemoHits)
	fmt.Printf("  parallel: %4d ms wall (solver %d ms), %d groups via %d solver calls (%d memo hits)\n",
		par.WallMS, par.SolverMS, par.GroupsSolved, par.SolverCalls, par.MemoHits)
	fmt.Printf("  engine:   %d decisions, %d conflicts, %d propagations, %d learned clauses, %d backjumps, %d theory calls\n",
		serial.Decisions, serial.Conflicts, serial.Propagations,
		serial.LearnedClauses, serial.Backjumps, serial.TheoryCalls)
	fmt.Printf("  speedup %.2fx, memo hit rate %.0f%%, reports byte-identical: %v, Table II %d/%d\n",
		out.Speedup, 100*out.MemoHitRate, identical, out.Table2Found, out.Table2Catalog)
	fmt.Printf("  solver speedup vs pre-CDCL baseline: %.2fx\n", out.SolverSpeedup)
	if !identical {
		// Determinism is the contract the memoized parallel pipeline is
		// built around; refuse to record benchmark artifacts that violate
		// it.
		fmt.Println("  ERROR: parallel report differs from serial — determinism bug; not writing the BENCH file")
		os.Exit(1)
	}

	if *outF != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		check(err)
		check(os.WriteFile(*outF, append(data, '\n'), 0o644))
		fmt.Printf("  wrote %s\n", *outF)
	}
	if *traceOutF != "" || *metricsF != "" {
		observedRun(blApp, shApp, blTraces, shTraces, workers)
	}
}

// observedRun repeats the parallel table2 diagnosis with an observer
// attached and writes the requested telemetry artifacts. It runs after
// the serial/parallel identity check so instrumentation cannot skew the
// timed comparison; one observer spans both apps, so the trace shows
// two back-to-back analyze trees and the metrics aggregate the full
// workload.
func observedRun(blApp, shApp apps.App, blTraces, shTraces []*trace.Trace, workers int) {
	o := obs.NewObserver()
	analyze(blApp.Schema(), blTraces, core.WithParallelism(workers), core.WithObserver(o))
	analyze(shApp.Schema(), shTraces, core.WithParallelism(workers), core.WithObserver(o))
	write := func(path string, render func(*os.File) error) {
		f, err := os.Create(path)
		check(err)
		check(render(f))
		check(f.Close())
		fmt.Printf("  wrote %s\n", path)
	}
	if *traceOutF != "" {
		write(*traceOutF, func(f *os.File) error { return o.Tracer.WriteChromeTrace(f) })
	}
	if *metricsF != "" {
		write(*metricsF, func(f *os.File) error { return o.Metrics.WritePrometheus(f) })
	}
}

// ---------------------------------------------------------------------------
// Table III

func table3() {
	header("Table III: unit-test execution time per engine mode (microseconds)")
	modes := []struct {
		label string
		mode  concolic.Mode
	}{
		{"Original", concolic.ModeOff},
		{"Interpretive", concolic.ModeInterpret},
		{"Interpretive+Concolic", concolic.ModeConcolic},
	}
	names := []string{"Register", "Add1", "Add2", "Add3", "Ship", "Payment", "Checkout"}
	results := make(map[string][]float64)
	const reps = 30
	for _, m := range modes {
		samples := make([][]float64, len(names))
		for r := 0; r < reps+1; r++ {
			app := openApp("broadleaf")
			for i, ut := range app.UnitTests() {
				e := concolic.New(m.mode)
				e.StartConcolic(ut.Name)
				start := time.Now()
				check(ut.Run(e))
				el := float64(time.Since(start).Microseconds())
				e.EndConcolic()
				if r > 0 { // discard the warmup repetition
					samples[i] = append(samples[i], el)
				}
			}
		}
		med := make([]float64, len(names))
		for i, ss := range samples {
			sort.Float64s(ss)
			med[i] = ss[len(ss)/2]
		}
		results[m.label] = med
	}
	fmt.Printf("%-22s", "JDK Version")
	for _, n := range names {
		fmt.Printf(" %9s", n)
	}
	fmt.Println()
	for _, m := range modes {
		fmt.Printf("%-22s", m.label)
		for i := range names {
			fmt.Printf(" %9.0f", results[m.label][i])
		}
		fmt.Println()
	}
	fmt.Println("\nexpected shape: Original < Interpretive < Interpretive+Concolic for every API")
}

// ---------------------------------------------------------------------------
// Fig. 10 / Fig. 11

func dbCfg() minidb.Config {
	return minidb.Config{
		StatementDelay:  100 * time.Microsecond,
		LockWaitTimeout: 100 * time.Millisecond,
	}
}

// fixConfig is one Fig. 10/11 configuration: a labeled registry open.
type fixConfig struct {
	label string
	opt   apps.Options
}

// fixConfigs lists the ablation configurations over an app's fixes:
// every fix enabled, none, and each one disabled alone.
func fixConfigs(fixes []string) []fixConfig {
	configs := []fixConfig{
		{"enable all", apps.Options{Fixed: true}},
		{"disable all", apps.Options{}},
	}
	for _, f := range fixes {
		var rest []string
		for _, g := range fixes {
			if g != f {
				rest = append(rest, g)
			}
		}
		configs = append(configs, fixConfig{"disable " + f, apps.Options{Apply: rest}})
	}
	return configs
}

// fixThroughput drives every fixConfigs configuration of the app under
// the concurrent-client workload and prints throughput and abort rate
// per client count.
func fixThroughput(spec string, fixes []string) {
	fmt.Printf("%-14s", "config")
	for _, c := range clientCounts() {
		fmt.Printf(" %8d cl  (aborts/s)", c)
	}
	fmt.Println()
	for _, cfg := range fixConfigs(fixes) {
		cfg.opt.DB = dbCfg()
		fmt.Printf("%-14s", cfg.label)
		for _, clients := range clientCounts() {
			app, err := apps.Open(spec, cfg.opt)
			check(err)
			res := workload.Run(workload.Config{
				Clients: clients, Duration: *duration, Seed: 42,
				RetryBackoff: time.Millisecond,
			}, app.DB(), app.(apps.Workloader).Flow())
			fmt.Printf(" %11.0f  (%8.0f)", res.Throughput, res.AbortsPS)
		}
		fmt.Println()
	}
}

// ---------------------------------------------------------------------------
// Pruning (Sec. IV)

func pruning() {
	header("Sec. IV: path-condition pruning (Broadleaf unit tests)")
	pruned, err := appkit.Collect(openApp("broadleaf").UnitTests(), concolic.ModeConcolic)
	check(err)
	full, err := appkit.Collect(openApp("broadleaf").UnitTests(),
		concolic.ModeConcolic, concolic.WithoutPruning())
	check(err)
	fmt.Printf("%-10s %14s %14s %9s\n", "API", "no pruning", "with pruning", "ratio")
	for i := range pruned {
		with := pruned[i].Stats.PathConds
		without := full[i].Stats.PathConds
		ratio := float64(without) / float64(max(1, with))
		fmt.Printf("%-10s %14d %14d %8.0fx\n", pruned[i].API, without, with, ratio)
	}
	fmt.Println("\nexpected shape: pruning removes orders of magnitude of conditions")
	fmt.Println("(the paper reports 656K -> 2.7K for Broadleaf's Ship API)")
}

// ---------------------------------------------------------------------------
// Coarse baseline (Sec. VII-B)

func baseline() {
	header("Sec. VII-B: coarse-grained baseline (STEPDAD/REDACT style)")
	blApp := openApp("broadleaf")
	shApp := openApp("shopizer")
	blTraces, err := appkit.Collect(blApp.UnitTests(), concolic.ModeConcolic)
	check(err)
	shTraces, err := appkit.Collect(shApp.UnitTests(), concolic.ModeConcolic)
	check(err)

	blCoarse := analyze(blApp.Schema(), blTraces, core.WithCoarseOnly())
	shCoarse := analyze(shApp.Schema(), shTraces, core.WithCoarseOnly())
	blFine := analyze(blApp.Schema(), blTraces)
	shFine := analyze(shApp.Schema(), shTraces)

	total := blCoarse.Stats.CoarseCycles + shCoarse.Stats.CoarseCycles
	fmt.Printf("coarse hold-and-wait cycles reported: %d (paper: 18,384)\n", total)
	fmt.Printf("WeSEER fine-grained confirmed groups: %d; cataloged deadlocks: 18\n",
		len(blFine.Deadlocks)+len(shFine.Deadlocks))
	fmt.Printf("funnel (Broadleaf): %s\n", blFine.Stats.Render())
	fmt.Printf("funnel (Shopizer):  %s\n", shFine.Stats.Render())
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
