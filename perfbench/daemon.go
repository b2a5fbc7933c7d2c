package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running `weseer serve` child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // the URL the daemon printed
	stderr bytes.Buffer
	done   chan struct{} // closed once Wait returns
	err    error         // Wait's error, set before done closes
}

// firstLine is an io.Writer that hands the first complete line written
// to it to a channel and discards everything after.
type firstLine struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	ch   chan string
}

func (f *firstLine) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sent {
		return len(p), nil
	}
	f.buf = append(f.buf, p...)
	if i := bytes.IndexByte(f.buf, '\n'); i >= 0 {
		f.sent = true
		f.ch <- strings.TrimSpace(string(f.buf[:i]))
	}
	return len(p), nil
}

// startDaemon starts `weseer serve` over store on a free loopback port
// and waits for the URL it prints first. The daemon keeps the
// program's own defaults: GOMAXPROCS parallelism and one fsync per
// ingest batch.
func startDaemon(ctx context.Context, cfg config, store, app string) (*daemon, error) {
	d := &daemon{done: make(chan struct{})}
	fl := &firstLine{ch: make(chan string, 1)}
	d.cmd = exec.Command(cfg.weseer, "serve", "-store", store, "-addr", "127.0.0.1:0", "-app", app)
	d.cmd.Dir = cfg.root
	d.cmd.Stdout = fl
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	wait := time.NewTimer(60 * time.Second)
	defer wait.Stop()
	select {
	case d.base = <-fl.ch:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("weseer serve exited before printing its URL: %v: %s", d.err, strings.TrimSpace(d.stderr.String()))
	case <-wait.C:
	case <-ctx.Done():
	}
	d.stop()
	return nil, fmt.Errorf("weseer serve printed no URL")
}

// ready polls GET /history/patterns until it answers 200.
func (d *daemon) ready(ctx context.Context) error {
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	for i := 0; ; i++ {
		resp, err := client.Get(d.base + "/history/patterns")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if i >= 3000 {
			return fmt.Errorf("daemon not ready: %v", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-d.done:
			return fmt.Errorf("daemon exited: %v", d.err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// cpu is the daemon's user+sys CPU time so far, from /proc.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	const clockTicks = 100 // USER_HZ on Linux
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS is the daemon's peak resident set so far (VmHWM), in KiB.
func (d *daemon) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// stop sends SIGTERM, waits for the daemon to exit (killing it if it
// does not within 10 s).
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}
