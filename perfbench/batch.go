package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// The batch workloads run the built `weseer run -app SPEC -json` as a
// child process, one child at a time. One pass is one child per spec,
// in order; its wall time, the children's user+sys CPU (from rusage)
// and their peak RSS are the pass's numbers.

// batch is a batch workload: which apps one pass diagnoses and the
// gate its reports must pass.
type batch struct {
	specs func(seed int64) []string
	gate  func([]runReport) error
}

var (
	// table2 is the paper's headline corpus; it has no seed.
	table2Batch = batch{
		specs: func(int64) []string { return []string{"broadleaf", "shopizer"} },
		gate:  gateTable2,
	}
	// genBatch is the scale case: a 1,056-template generated corpus.
	genBatch = batch{
		specs: func(seed int64) []string { return []string{genSpec(seed, 1056)} },
		gate:  gateGen,
	}
)

func genSpec(seed int64, templates int) string {
	return fmt.Sprintf("gen:%d,templates=%d", seed, templates)
}

// setupRounds is how many times every workload's run sets up, so
// setup_s is a median over enough rounds that the first, cold one
// does not move it. Half the rounds run before the timed loop and half
// after it, so setup_s samples the machine over the whole run, as the
// loop's metrics do, rather than over its first seconds only: the
// shared machine's speed drifts over tens of seconds.
const setupRounds = 8

// childResult is one finished child process.
type childResult struct {
	stdout []byte
	wall   time.Duration
	cpu    time.Duration // user + sys
	maxRSS int64         // KiB
}

// runChild runs the weseer binary once in the checkout root and waits
// for it. A non-zero exit is an error carrying the child's stderr.
func runChild(ctx context.Context, cfg config, args ...string) (childResult, error) {
	cmd := exec.CommandContext(ctx, cfg.weseer, args...)
	cmd.Dir = cfg.root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return childResult{}, fmt.Errorf("weseer %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	r := childResult{stdout: stdout.Bytes(), wall: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
		r.maxRSS = ru.Maxrss
	}
	return r, nil
}

// passResult is one batch pass.
type passResult struct {
	wall, cpu time.Duration
	walls     []time.Duration // per spec
	maxRSS    int64           // KiB, the largest child's
	reports   []runReport
}

func runPass(ctx context.Context, cfg config, specs []string) (passResult, error) {
	var p passResult
	for _, spec := range specs {
		c, err := runChild(ctx, cfg, "run", "-app", spec, "-json")
		if err != nil {
			return p, err
		}
		rep, err := parseRunReport(c.stdout)
		if err != nil {
			return p, fmt.Errorf("%s: %w", spec, err)
		}
		p.wall += c.wall
		p.walls = append(p.walls, c.wall)
		p.cpu += c.cpu
		p.maxRSS = max(p.maxRSS, c.maxRSS)
		p.reports = append(p.reports, rep)
	}
	return p, nil
}

// runBatch returns the timed run of a batch workload. Set-up is the
// reference passes: each is checked and compared with the first, and
// none is timed as a diagnosis. Between the two halves of the set-up
// rounds, passes repeat until the run's seconds are used; each is
// gated and compared with the reference.
func runBatch(b batch) func(context.Context, config, *outcome) error {
	return func(ctx context.Context, cfg config, o *outcome) error {
		specs := b.specs(cfg.seed)
		o.notes["specs"] = specs
		var ref []runReport
		gatePass := func(p passResult, err error) bool {
			if err == nil {
				err = b.gate(p.reports)
			}
			if err == nil && ref != nil {
				err = sameReports(ref, p.reports, specs)
			}
			if ok := o.check(err); !ok || ref != nil {
				return ok
			}
			ref = p.reports
			return true
		}

		var setup sample
		setupRound := func() {
			start := time.Now()
			gatePass(runPass(ctx, cfg, specs))
			setup.add(time.Since(start))
		}
		for i := 0; i < setupRounds/2; i++ {
			setupRound()
		}

		var wall, cpu, rss sample
		perSpec := make([]sample, len(specs))
		var cpuTotal time.Duration
		begin := time.Now()
		deadline := begin.Add(time.Duration(cfg.seconds) * time.Second)
		for time.Now().Before(deadline) {
			p, err := runPass(ctx, cfg, specs)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if !gatePass(p, err) {
				continue
			}
			wall.add(p.wall)
			for i, w := range p.walls {
				perSpec[i].add(w)
			}
			cpu.add(p.cpu)
			cpuTotal += p.cpu
			rss = append(rss, float64(p.maxRSS)/1024)
		}
		elapsed := time.Since(begin)
		for i := setupRounds / 2; i < setupRounds; i++ {
			setupRound()
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if len(wall) == 0 {
			return fmt.Errorf("no pass succeeded: %v", o.gateErrs)
		}

		diagnose, _ := sumOfMedians(perSpec)
		o.timings["setup"] = summarize(setup)
		o.timings["pass"] = summarize(wall)
		for i, spec := range specs {
			o.timings["diagnose "+spec] = summarize(perSpec[i])
		}
		o.timings["diagnose_cpu"] = summarize(cpu)
		o.set("setup_s", "s", median(setup)/1000)
		o.set("ok_ratio", "ratio", okRatio(o.attempted, o.failed))
		o.set("diagnose_ms_p50", "ms", diagnose)
		o.set("op_ms_p50", "ms", diagnose)
		o.set("ops_per_s", "1/s", perSecond(len(wall), elapsed))
		o.set("cpu_ms_per_op", "ms", ms(cpuTotal)/float64(len(wall)))
		o.set("peak_rss_mb", "MB", median(rss))
		o.notes["diagnose_cpu_ms_p50"] = median(cpu)
		return nil
	}
}
