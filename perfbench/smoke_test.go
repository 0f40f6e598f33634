package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, at the tiny input
// size. It fails when a check fails, when a listener the run opened still
// accepts connections, when goroutines outlive the run, or when the run's
// temporary directory is left behind.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/plain", true: "/traced"}[trace], func(t *testing.T) {
				before := runtime.NumGoroutine()
				tmp := filepath.Join(t.TempDir(), "tmp")
				var (
					mu    sync.Mutex
					addrs []string
					log   bytes.Buffer
				)
				res, err := run(context.Background(), config{
					Workload: name, Seed: 3, Seconds: 0.3, Trace: trace, Tiny: true,
					TmpRoot: tmp, TraceOut: filepath.Join(t.TempDir(), "spans"), Log: &log,
					Listening: func(a string) {
						mu.Lock()
						addrs = append(addrs, a)
						mu.Unlock()
					},
				})
				if err != nil {
					t.Fatalf("run: %v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				if strings.HasPrefix(name, "serve") || strings.HasPrefix(name, "cluster") {
					if len(addrs) == 0 {
						t.Errorf("no listener was opened")
					}
				}
				for _, a := range addrs {
					if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
						c.Close()
						t.Errorf("listener %s still accepts connections", a)
					}
				}
				entries, err := os.ReadDir(tmp)
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) != 0 {
					t.Errorf("temporary files left in %s: %v", tmp, entries)
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(20 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					buf := make([]byte, 1<<16)
					t.Errorf("%d goroutines after the run, %d before\n%s", n, before, buf[:runtime.Stack(buf, true)])
				}
			})
		}
	}
}

// TestUnknownWorkload checks that a bad flag fails without a result line.
func TestUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := mainCode([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatalf("exit code 0 for an unknown workload")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("a result line was printed: %s", out.String())
	}
}
