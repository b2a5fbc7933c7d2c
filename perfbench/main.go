// Command perfbench is WeSEER's benchmark harness. It measures the
// built weseer binary from outside (batch `weseer run` passes and a
// closed-loop `weseer serve` request mix) and, in a separate traced run,
// times the calls into each layer in-process. Every operation's output
// is checked before any number from it is used.
//
// Usage (from the root of a checkout; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload table2|gen-1056|serve-mix --seed N --seconds S --trace 0|1
//
// The last stdout line is one JSON object: correct, attempted, failed
// and metrics. With --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones. A fuller record of every run (run
// conditions, every timing's median, tail and count, gate messages)
// goes to <out>/results, and the traced run's spans to a JSONL file
// beside it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root: the weseer children run here
	weseer   string // built weseer binary
	out      string // scratch and results directory inside the checkout
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timing is the printed summary of one sample: its median and the
// highest ladder percentile with at least minBeyond samples beyond it.
type timing struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50_ms"`
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail_ms,omitempty"`
}

func summarize(s sample) timing {
	t := timing{N: len(s), P50: median(s)}
	if p, v, ok := tail(s); ok {
		t.TailP, t.Tail = p, v
	}
	return t
}

func (t timing) String() string {
	if t.N == 0 {
		return "no samples"
	}
	s := fmt.Sprintf("p50 %.2f ms", t.P50)
	if t.TailP > 0 {
		s += fmt.Sprintf(", p%g %.2f ms", t.TailP, t.Tail)
	}
	return s + fmt.Sprintf(" (n=%d)", t.N)
}

// endToEnd lists the timed run's metrics, in output order, with units.
// Every workload reports every one of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"diagnose_ms_p50", "ms"},
	{"op_ms_p50", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// outcome is what one workload run reports: the counts and metrics of
// the result line plus the detail that goes only to the results file.
type outcome struct {
	attempted, failed int
	gateErrs          []string
	metrics           map[string]metric
	timings           map[string]timing
	notes             map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, timings: map[string]timing{}, notes: map[string]any{}}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

// fail records one failed operation and why.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.gateErrs) < 20 {
		o.gateErrs = append(o.gateErrs, err.Error())
	}
}

// check records op as attempted and, when err is non-nil, as failed.
// It reports whether the operation succeeded.
func (o *outcome) check(err error) bool {
	o.attempted++
	if err != nil {
		o.fail(err)
		return false
	}
	return true
}

// workload is one benchmark workload: a timed run (end-to-end metrics),
// the corpora its traced run drives through every layer and the gate
// their diagnoses must pass. serve marks the workload whose traced run
// follows `weseer serve`'s path.
type workload struct {
	timed   func(ctx context.Context, cfg config, o *outcome) error
	corpora func(seed int64) []string
	gate    func([]runReport) error
	serve   bool
}

var workloads = map[string]workload{
	"table2":    {timed: runBatch(table2Batch), corpora: table2Batch.specs, gate: table2Batch.gate},
	"gen-1056":  {timed: runBatch(genBatch), corpora: genBatch.specs, gate: genBatch.gate},
	"serve-mix": {timed: runServeMix, corpora: serveCorpora, gate: gateServeCorpora, serve: true},
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: table2, gen-1056 or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 7, "input seed: the gen: corpus seed and the serve-mix request sequence")
	flag.IntVar(&cfg.seconds, "seconds", 30, "how long the timed part of the run measures")
	flag.IntVar(&trace, "trace", 0, "1 = the in-process traced run (per-layer metrics) instead of the timed run")
	flag.StringVar(&cfg.root, "root", ".", "checkout root (the weseer children run here)")
	flag.StringVar(&cfg.weseer, "weseer", "", "path of the built weseer binary")
	flag.StringVar(&cfg.out, "out", ".bench_build", "scratch and results directory")
	flag.Parse()
	cfg.trace = trace == 1

	wl, ok := workloads[cfg.workload]
	if !ok || cfg.weseer == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload table2|gen-1056|serve-mix, --seconds >= 1, --trace 0|1 and -weseer BIN")
		os.Exit(2)
	}
	if err := run(cfg, wl); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, wl workload) error {
	if err := os.MkdirAll(filepath.Join(cfg.out, "results"), 0o755); err != nil {
		return err
	}
	// A hard bound inside the 180 s a run may take (at the default
	// --seconds), so a hung child or request ends the run instead of
	// stalling it. Set-up and the traced run's comparison take well
	// under the slack.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds)*time.Second+100*time.Second)
	defer cancel()

	o := newOutcome()
	var spans *recorder
	var err error
	if cfg.trace {
		spans = newRecorder()
		err = runTraced(ctx, cfg, wl, spans, o)
	} else {
		err = wl.timed(ctx, cfg, o)
	}
	if err != nil {
		return err
	}
	if o.attempted == 0 {
		return fmt.Errorf("%s: no operation completed", cfg.workload)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if len(o.metrics) != len(want) {
		return fmt.Errorf("%s: %d metrics measured, %d declared", cfg.workload, len(o.metrics), len(want))
	}
	for _, w := range want {
		m, ok := o.metrics[w.name]
		switch {
		case !ok || m.Unit != w.unit:
			return fmt.Errorf("%s: metric %s (%s) not measured", cfg.workload, w.name, w.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("%s: metric %s is not a number", cfg.workload, w.name)
		}
	}

	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, trace01(cfg.trace))
	if spans != nil {
		if err := spans.writeJSONL(filepath.Join(cfg.out, "results", base+".spans.jsonl")); err != nil {
			return err
		}
	}
	if err := writeRecord(cfg, filepath.Join(cfg.out, "results", base+".json"), res, o); err != nil {
		return err
	}
	cond, err := json.Marshal(conditions(cfg))
	if err != nil {
		return err
	}
	fmt.Printf("conditions %s\n", cond)
	printDetail(o)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func trace01(b bool) int {
	if b {
		return 1
	}
	return 0
}

// conditions are recorded with every result: the same numbers mean
// different things on a different machine or toolchain.
func conditions(cfg config) map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"store_dir":  filepath.Join(cfg.out, "run"),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"traced":     cfg.trace,
	}
}

func writeRecord(cfg config, path string, res result, o *outcome) error {
	rec := map[string]any{
		"conditions":  conditions(cfg),
		"result":      res,
		"timings":     o.timings,
		"notes":       o.notes,
		"gate_errors": append([]string{}, o.gateErrs...),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printDetail prints the human-readable part of a run before the result
// line: the timing summaries and any gate failures.
func printDetail(o *outcome) {
	names := make([]string, 0, len(o.timings))
	for n := range o.timings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %s\n", n, o.timings[n])
	}
	for _, e := range o.gateErrs {
		fmt.Println("GATE FAILED:", e)
	}
}
